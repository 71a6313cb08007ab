(* Host speed, measured by a fixed loop the benchmark owns.

   On a shared host the simulator's wall time per op drifts by ±20%
   and more within minutes, while the same code's allocation and event
   counts do not move at all: the drift is the host.  Host times are
   therefore reported at reference speed: multiplied by [reference_ms]
   over the time of this loop, measured just before the round they
   belong to.  Over eight 8 s rpc-paper runs the median op time spread
   7.7% raw and 4.7% scaled; over six 12 s sweep-chaos runs, 4.1% and
   2.5%.  It does not help pop-farm-open, whose op time moves with the
   memory system more than with the core.

   The loop calls nothing in the repo's libraries, so a change to the
   simulator cannot move it, and it allocates nothing, so neither can
   the garbage collector's state (a loop that allocated picked up the
   major-GC work the previous op left behind and read up to 3x slow). *)

(* The loop's time on the reference host: a 2-core Xeon container at its
   quietest.  Any constant would do; this one keeps the scaled times
   close to the raw ones. *)
let reference_ms = 35.

(* A binary min-heap of ints in a preallocated array, the shape of the
   simulator's event queue, pushed and popped with pseudo-random keys.
   It allocates nothing, so the garbage collector's state (how much
   work the last op left behind) cannot move it. *)
let size = 1 lsl 16
let heap = Array.make size 0

let loop_ns () =
  let t0 = Spans.now_ns () in
  let n = ref 0 and x = ref 12345 and acc = ref 0 in
  let push k =
    let i = ref !n in
    incr n;
    while !i > 0 && heap.((!i - 1) / 2) > k do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- k
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    let k = heap.(!n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !n then continue := false
      else begin
        let c = if l + 1 < !n && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < k then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- k;
    top
  in
  for _ = 1 to 3 do
    for _ = 1 to size - 1 do
      x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
      push !x
    done;
    for _ = 1 to size - 1 do
      acc := !acc + pop ()
    done
  done;
  ignore (Sys.opaque_identity !acc);
  Spans.now_ns () - t0

(* How fast the host runs right now relative to the reference host:
   host times are multiplied by this to report them at reference
   speed. *)
let speed () = reference_ms *. 1e6 /. float_of_int (loop_ns ())
