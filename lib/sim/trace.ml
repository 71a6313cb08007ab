type t = {
  capacity : int;
  (* Allocated on the first [record]: most engines never record a line
     (legacy trace off, shard sub-engines), and a ring costs [capacity]
     words in the major heap. *)
  mutable ring : (Time.t * string) option array;
  mutable next : int;
  mutable count : int;
  mutable hash : int64;
  mutable echo : (Time.t -> string -> unit) option;
}

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let create ?(capacity = 4096) () =
  {
    capacity;
    ring = [||];
    next = 0;
    count = 0;
    hash = fnv_offset;
    echo = None;
  }

let fold_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fold_int h i =
  let h = ref h in
  for shift = 0 to 7 do
    h := fold_byte !h ((i lsr (shift * 8)) land 0xff)
  done;
  !h

let fold_string h s =
  let h = ref h in
  String.iter (fun c -> h := fold_byte !h (Char.code c)) s;
  !h

let record t time msg =
  t.hash <- fold_string (fold_int t.hash (Time.to_ns time)) msg;
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity None;
  t.ring.(t.next) <- Some (time, msg);
  t.next <- (t.next + 1) mod t.capacity;
  t.count <- t.count + 1;
  match t.echo with None -> () | Some f -> f time msg

let count t = t.count
let hash t = t.hash
let hash_hex t = Printf.sprintf "%016Lx" t.hash

let recent t n =
  let n = min n (min t.count t.capacity) in
  let rec gather acc i remaining =
    if remaining = 0 then acc
    else
      let idx = (i - 1 + t.capacity) mod t.capacity in
      match t.ring.(idx) with
      | None -> acc
      | Some e -> gather (e :: acc) idx (remaining - 1)
  in
  gather [] t.next n

let set_echo t f = t.echo <- f

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.next <- 0;
  t.count <- 0;
  t.hash <- fnv_offset
