(* Specialised binary min-heap for the engine's task queue.

   Entries carry the enqueuer's vector clock inline instead of wrapping
   every task in a closure that restores it: one 5-word record per
   enqueue where the generic [Heap] path cost an entry *and* a wrapper
   closure.  Ordering is identical to [Heap]: (time, seq) ascending. *)

type entry = {
  time : int;
  seq : int;
  clk : Vclock.t;
  fn : unit -> unit;
}

type t = { mutable arr : entry array; mutable len : int }

(* Fills vacated slots, so a popped entry — a task closure plus its
   clock — is not kept reachable from the slot past [len]. *)
let vacant = { time = 0; seq = 0; clk = Vclock.empty; fn = ignore }

let create () = { arr = [||]; len = 0 }
let length q = q.len

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow q =
  let cap = Array.length q.arr in
  let narr = Array.make (if cap = 0 then 16 else cap * 2) vacant in
  Array.blit q.arr 0 narr 0 q.len;
  q.arr <- narr

let add q ~time ~seq ~clk fn =
  if q.len = Array.length q.arr then grow q;
  q.arr.(q.len) <- { time; seq; clk; fn };
  q.len <- q.len + 1;
  let i = ref (q.len - 1) in
  while !i > 0 && lt q.arr.(!i) q.arr.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = q.arr.(p) in
    q.arr.(p) <- q.arr.(!i);
    q.arr.(!i) <- tmp;
    i := p
  done

let pop q =
  if q.len = 0 then None
  else begin
    let top = q.arr.(0) in
    q.len <- q.len - 1;
    q.arr.(0) <- q.arr.(q.len);
    q.arr.(q.len) <- vacant;
    if q.len > 0 then begin
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.len && lt q.arr.(l) q.arr.(!smallest) then smallest := l;
        if r < q.len && lt q.arr.(r) q.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = q.arr.(!smallest) in
          q.arr.(!smallest) <- q.arr.(!i);
          q.arr.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some top
  end

let peek_time q = if q.len = 0 then None else Some q.arr.(0).time
