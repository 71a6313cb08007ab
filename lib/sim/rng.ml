(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh int64 on every draw (12 words per [int]), and the
   draws sit on the hot paths of the scheduler and every workload
   node.  The byte order is the host's; the state is never serialised. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden in
  set_state t 0 s;
  mix s

let next_int64 t = next t

let split t = of_state (mix (next t))

(* Pure keyed derivation: child [i] depends only on the parent's
   current state and [i], and the parent does not advance.  [split]
   cannot give per-node streams that survive re-partitioning (the
   number of splits would depend on the partition), so sharded runs key
   every node's stream by its global id instead. *)
let derive t i =
  of_state (mix (Int64.add (get_state t 0) (Int64.mul golden (Int64.of_int (i + 1)))))

(* Draws are 62-bit ([0, 2^62)); plain [r mod bound] would favour small
   residues whenever bound does not divide 2^62, so draws past the last
   full multiple of [bound] are rejected and retried.  [max_int] is
   2^62 - 1, hence (max_int mod bound + 1) mod bound = 2^62 mod bound. *)
let rec draw t bound cutoff =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  if r > cutoff then draw t bound cutoff else r mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let rem = ((max_int mod bound) + 1) mod bound in
  draw t bound (max_int - rem)

let[@inline] float t =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
