(* Host-time spans recorded by the benchmark around its calls into the
   repo's public functions.  Spans live in memory and are written once,
   at exit, as Chrome Trace Event JSON (Perfetto and chrome://tracing
   load it).  Every span of one op carries that op's id. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [Gc.minor_words] as an int: exact at one domain, and reading it does
   not allocate, so it can bracket a call on the per-event path. *)
let words () = int_of_float (Gc.minor_words ())

type span = {
  id : int;
  parent : int;  (** 0 for an op's root span *)
  op : int;
  name : string;
  start_ns : int;
  end_ns : int;
  calls : int;
      (** how many calls the span aggregates: per-event calls (one
          [analysis.feed] child per op) are summed into one span whose
          duration is their total time, placed at the start of its
          parent *)
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 1 }

let add t ~op ~parent ~name ?(calls = 1) start_ns end_ns =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; parent; op; name; start_ns; end_ns; calls } :: t.spans;
  id

let duration s = s.end_ns - s.start_ns
let all t = List.rev t.spans

(* A span's self time: its duration minus what its direct children
   cover.  Children of one parent never overlap here, so covering is a
   plain sum. *)
let self_ns t s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc - duration c else acc)
    (duration s) t.spans

let to_chrome t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int t.spans in
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"calls\":%d}}"
        s.name
        (float_of_int (s.start_ns - t0) /. 1e3)
        (float_of_int (duration s) /. 1e3)
        s.id s.parent s.op s.calls)
    (all t);
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write t path =
  let oc = open_out path in
  output_string oc (to_chrome t);
  close_out oc
