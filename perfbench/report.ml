(* The benchmark's metric catalog and output formats.  BENCHMARK.json
   lists the same names; the benchmark's tests check that the two
   agree. *)

(* End-to-end metrics gated by BENCHMARK.json.  Every workload reports
   all of them; [setup_s] is measured by run.py around the process.
   Host times are at reference speed (see {!Calibration}). *)
let gated =
  [
    ("setup_s", "s");
    ("op_wall_ms_p50", "ms");
    ("host_events_per_s", "1/s");
    ("alloc_words_per_event", "words/event");
    ("peak_rss_mb", "MB");
  ]

(* End-to-end metrics printed with the human-readable report and left
   out of the gated JSON: the raw host times behind the gated ones and
   the host speed that scaled them, the peak resident set at the end of
   the run and its growth per round after the gated reading, and the
   metrics that exist only on
   some workloads (or are 0 by design, like [failed_op_ratio]). *)
let reported =
  [
    ("raw_op_wall_ms_p50", "ms");
    ("host_speed", "ratio");
    ("end_peak_rss_mb", "MB");
    ("rss_growth_mb_per_round", "MB");
    ("virt_p50_us", "us");
    ("virt_p999_us", "us");
    ("virt_throughput_rps", "1/s");
    ("paper_err_pct", "%");
    ("virt_ttr_ms_p50", "ms");
    ("failed_op_ratio", "ratio");
  ]

let backends = Harness.Backend_world.names
let raw_backends = [ "charlotte"; "soda" ]
let payloads = [ 0; 1000 ]
let payload_tag p = Printf.sprintf "%db" p

(* Per-layer metrics, printed by the traced run.  A layer a workload
   does not exercise reads 0 there. *)
let layers =
  [
    ("engine.events_per_op", "count");
    ("engine.drain_self_ms", "ms");
    ("engine.ns_per_event", "ns");
    ("engine.alloc_words_per_event", "words/event");
    ("workload.build_ms", "ms");
    ("workload.finish_ms", "ms");
    ("workload.nodes_per_op", "count");
    ("analysis.feed_ms", "ms");
    ("analysis.feed_ns_per_event", "ns");
    ("analysis.alloc_words_per_event", "words/event");
    ("judge.us_per_op", "us");
    ("run.pipeline_self_us", "us");
  ]
  @ List.concat_map
      (fun b ->
        List.map
          (fun p -> (Printf.sprintf "lynx.rpc_host_us.%s.%s" b (payload_tag p), "us"))
          payloads)
      backends
  @ List.concat_map
      (fun b ->
        List.map
          (fun p ->
            (Printf.sprintf "kernel.raw_rpc_host_us.%s.%s" b (payload_tag p), "us"))
          payloads)
      raw_backends
  @ List.map (fun b -> ("lynx.runtime_host_us." ^ b, "us")) raw_backends
  @ List.map (fun b -> ("lynx.runtime_virt_ms." ^ b, "ms")) raw_backends
  @ List.map (fun b -> ("lynx.events_per_rpc." ^ b, "count")) backends
  @ List.map (fun b -> ("lynx.alloc_words_per_rpc." ^ b, "words")) backends
  @ List.map (fun b -> ("kernel.msgs_per_rpc." ^ b, "count")) backends
  @ List.map (fun b -> ("lynx.pipelined_rps." ^ b, "1/s")) backends
  @ [
      ("faults.injected_per_run", "count");
      ("lynx.retry_ratio", "ratio");
      ("lynx.dup_dropped_per_run", "count");
      ("recovery.retries_p50", "count");
      ("recovery.failovers_p50", "count");
      ("liveness.live_ratio", "ratio");
      ("trace.overhead_pct", "%");
    ]

type result = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
      (** the gated metrics this process measures (all but [setup_s])
          and whichever [reported] ones apply to the workload *)
  layer_values : (string * float) list;  (** traced run only *)
  records : (string * string) list;
      (** fingerprints recorded for the reader, not pinned *)
}

let div a b = if b = 0. then 0. else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

(* Median (mean of the middle two for an even count); 0 on an empty
   list. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let unit_of name =
  match List.assoc_opt name (gated @ reported @ layers) with
  | Some u -> u
  | None -> invalid_arg ("unknown metric " ^ name)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The result line run.py reads: the gated metrics, or the per-layer
   ones when [traced]. *)
let to_json ~traced ~correct r =
  let names = if traced then List.map fst layers else List.map fst gated in
  let values = if traced then r.layer_values else r.e2e in
  let metrics =
    List.filter_map
      (fun n ->
        Option.map
          (fun v ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v)
              (unit_of n))
          (List.assoc_opt n values))
      names
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.attempted r.failed
    (String.concat ", " metrics)

(* The human-readable report: every end-to-end metric this run measured
   by name with its unit ("n/a" where the workload has no such
   quantity), the layer table when traced, and the recorded
   fingerprints. *)
let render ~traced r =
  let b = Buffer.create 4096 in
  let line kind (n, u) values =
    match List.assoc_opt n values with
    | Some v -> Printf.bprintf b "%-7s %-38s %18.6g %s\n" kind n v u
    | None -> Printf.bprintf b "%-7s %-38s %18s %s\n" kind n "n/a" u
  in
  (* host-time metrics come from the untraced run only *)
  let e2e = if traced then reported else List.tl gated @ reported in
  List.iter (fun m -> line "metric" m r.e2e) e2e;
  if traced then List.iter (fun m -> line "layer" m r.layer_values) layers;
  List.iter (fun (k, h) -> Printf.bprintf b "record  %s %s\n" k h) r.records;
  Buffer.contents b
