(* Slots at and past [len] hold [Empty], never a popped entry: a stale
   slot would keep its payload (often a closure or a message pinning a
   large object graph) reachable until overwritten. *)
type 'a entry = Empty | Entry of { time : int; seq : int; payload : 'a }

type 'a t = { mutable arr : 'a entry array; mutable len : int }

let create () = { arr = [||]; len = 0 }
let length h = h.len
let is_empty h = h.len = 0

(* Only live slots, below [len], are ever compared.  Inlined: the
   variant match would otherwise cost a call per comparison. *)
let[@inline] lt a b =
  match (a, b) with
  | Entry a, Entry b -> a.time < b.time || (a.time = b.time && a.seq < b.seq)
  | _ -> assert false

let grow h =
  let cap = Array.length h.arr in
  let narr = Array.make (if cap = 0 then 16 else cap * 2) Empty in
  Array.blit h.arr 0 narr 0 h.len;
  h.arr <- narr

let add h ~time ~seq payload =
  if h.len = Array.length h.arr then grow h;
  h.arr.(h.len) <- Entry { time; seq; payload };
  h.len <- h.len + 1;
  (* Sift up. *)
  let i = ref (h.len - 1) in
  while !i > 0 && lt h.arr.(!i) h.arr.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = h.arr.(p) in
    h.arr.(p) <- h.arr.(!i);
    h.arr.(!i) <- tmp;
    i := p
  done

let first h = if h.len = 0 then Empty else h.arr.(0)

let pop h =
  match first h with
  | Empty -> None
  | Entry top ->
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    h.arr.(h.len) <- Empty;
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && lt h.arr.(l) h.arr.(!smallest) then smallest := l;
      if r < h.len && lt h.arr.(r) h.arr.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.arr.(!smallest) in
        h.arr.(!smallest) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := !smallest
      end
    done;
    Some (top.time, top.seq, top.payload)

let peek_time h = match first h with Empty -> None | Entry e -> Some e.time

(* Dropping the backing array (not just the length) matters: entries
   past [len] would otherwise keep their payloads — often closures
   capturing whole simulation worlds — reachable until overwritten. *)
let clear h =
  h.len <- 0;
  h.arr <- [||]
