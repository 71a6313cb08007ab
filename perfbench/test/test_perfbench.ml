(* The benchmark's own tests, on tiny populations and short sweeps:
   every named metric is printed with its unit, the traced pipeline
   yields Run.execute's artifact, child spans fit inside their op, and
   the deterministic counts repeat exactly. *)

open Perfbench

let config ?(traced = false) ?(seconds = 0.01) () =
  { Workloads.seed = 1; seconds; traced; ready = ignore; spans = Spans.create () }

let tiny_pop = [ Run.Spec.v ~population:40 ~scenario:"wl-tree" ~backend:"chrysalis" 1 ]

let tiny_sweep =
  List.filter
    (fun s -> Run.check s = Ok ())
    [
      Run.Spec.v ~plan:Run.Spec.Drop ~scenario:"move" ~backend:"soda" 1;
      Run.Spec.v ~plan:Run.Spec.Leader_crash ~scenario:"ring-election"
        ~backend:"chrysalis" 2;
      Run.Spec.v ~plan:Run.Spec.Partition_minority ~scenario:"quorum"
        ~backend:"charlotte" 1;
      Run.Spec.v ~plan:Run.Spec.Crash_restart ~scenario:"wl-farm" ~backend:"soda" 1;
      Run.Spec.v ~scenario:"cross-request" ~backend:"charlotte" 3;
    ]

let run_pop cfg = Workloads.run_specs cfg tiny_pop ~virt:Workloads.population_virt
let run_sweep cfg = Workloads.run_specs cfg tiny_sweep ~virt:Workloads.chaos_virt

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let value r name = List.assoc name r.Report.layer_values

let test_equivalence () =
  List.iter
    (fun spec ->
      let log_capacity = Workloads.retained_log in
      match (Run.execute ~log_capacity spec, Pipeline.execute ~log_capacity spec) with
      | Some a, Some (b, tm) ->
        Alcotest.(check bool) (Run.Spec.to_string spec) true (a = b);
        Alcotest.(check bool) "events counted" true (tm.Pipeline.events > 0)
      | _ -> Alcotest.fail ("did not run: " ^ Run.Spec.to_string spec))
    (tiny_pop @ tiny_sweep)

let test_no_failures () =
  List.iter
    (fun (name, run) ->
      let r = run (config ()) in
      Alcotest.(check int) (name ^ " failed ops") 0 r.Report.failed;
      Alcotest.(check bool) (name ^ " attempted") true (r.Report.attempted > 0))
    [ ("pop", run_pop); ("sweep", run_sweep); ("rpc-paper", Workloads.rpc_paper) ]

(* A spec that does not run is a failed op, and the result line is
   still printed. *)
let test_failed_op_reported () =
  let spec =
    List.concat_map
      (fun scenario ->
        List.map (fun backend -> Run.Spec.v ~scenario ~backend 1) Report.backends)
      Harness.Scenarios.names
    |> List.find (fun s -> Run.execute s = None)
  in
  let r = Workloads.run_specs (config ()) [ spec ] ~virt:Workloads.population_virt in
  Alcotest.(check bool) "failed ops" true (r.Report.failed > 0);
  Alcotest.(check int) "every op failed" r.Report.attempted r.Report.failed;
  Alcotest.(check (list (pair string string)))
    "no fingerprint"
    [ (Run.Spec.to_string spec, "none") ]
    r.Report.records;
  Alcotest.(check bool) "result line" true
    (contains (Report.to_json ~traced:false ~correct:false r) "\"failed\": ")

let test_metrics_printed () =
  let untraced = run_pop (config ()) in
  let traced = Workloads.rpc_paper (config ~traced:true ()) in
  let json = Report.to_json ~traced:false ~correct:true untraced in
  List.iter
    (fun (n, u) ->
      if n <> "setup_s" then
        Alcotest.(check bool) ("json " ^ n) true
          (contains json (Printf.sprintf "%S: {\"value\": " n)
          && contains json (Printf.sprintf "\"unit\": %S" u)))
    Report.gated;
  let text = Report.render ~traced:false untraced in
  List.iter
    (fun (n, u) ->
      if n <> "setup_s" then
        Alcotest.(check bool) ("report " ^ n) true (contains text n && contains text u))
    (Report.gated @ Report.reported);
  let json = Report.to_json ~traced:true ~correct:true traced in
  let text = Report.render ~traced:true traced in
  List.iter
    (fun (n, _) ->
      Alcotest.(check bool) ("layer " ^ n) true
        (contains json (Printf.sprintf "%S: {\"value\": " n) && contains text n))
    Report.layers

let test_spans_nest () =
  let cfg = config ~traced:true () in
  ignore (run_sweep cfg);
  let spans = Spans.all cfg.Workloads.spans in
  let roots = List.filter (fun s -> s.Spans.parent = 0) spans in
  Alcotest.(check bool) "recorded ops" true (roots <> []);
  List.iter
    (fun root ->
      let rec below id =
        List.concat_map
          (fun s -> if s.Spans.parent = id then s :: below s.Spans.id else [])
          spans
      in
      let children = below root.Spans.id in
      let self_sum =
        List.fold_left (fun acc s -> acc + Spans.self_ns cfg.Workloads.spans s) 0 children
      in
      Alcotest.(check bool) "children share the op id" true
        (List.for_all (fun s -> s.Spans.op = root.Spans.op) children);
      Alcotest.(check bool) "child self-times fit in the op" true
        (self_sum >= 0 && self_sum <= Spans.duration root))
    roots;
  Alcotest.(check bool) "chrome trace" true
    (contains (Spans.to_chrome cfg.Workloads.spans) "\"traceEvents\"")

let test_counts_repeat () =
  let twice f = (f (), f ()) in
  let a, b = twice (fun () -> run_pop (config ~traced:true ())) in
  Alcotest.(check (float 0.)) "events per op" (value a "engine.events_per_op")
    (value b "engine.events_per_op");
  let a, b = twice (fun () -> run_sweep (config ())) in
  Alcotest.(check (float 0.)) "alloc words per event"
    (List.assoc "alloc_words_per_event" a.Report.e2e)
    (List.assoc "alloc_words_per_event" b.Report.e2e);
  let a, b = twice (fun () -> Workloads.rpc_paper (config ~traced:true ())) in
  List.iter
    (fun k ->
      let n = "kernel.msgs_per_rpc." ^ k in
      Alcotest.(check bool) (n ^ " > 0") true (value a n > 0.);
      Alcotest.(check (float 0.)) n (value a n) (value b n))
    Report.backends

(* BENCHMARK.json names the same metrics and workloads, with the same
   units, as the benchmark prints. *)
let test_benchmark_json () =
  let ic = open_in "../../BENCHMARK.json" in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let entry (n, u) =
    Alcotest.(check bool) n true
      (contains json (Printf.sprintf "\"name\": %S, \"unit\": %S" n u))
  in
  List.iter entry Report.gated;
  List.iter entry Report.layers;
  List.iter
    (fun (w, _) ->
      Alcotest.(check bool) w true (contains json (Printf.sprintf "\"name\": %S" w)))
    Workloads.all

let () =
  Alcotest.run "perfbench"
    [
      ( "benchmark",
        [
          Alcotest.test_case "traced pipeline = Run.execute" `Quick test_equivalence;
          Alcotest.test_case "no failed ops" `Quick test_no_failures;
          Alcotest.test_case "failed op still reported" `Quick
            test_failed_op_reported;
          Alcotest.test_case "every metric printed with its unit" `Quick
            test_metrics_printed;
          Alcotest.test_case "child spans fit in their op" `Quick test_spans_nest;
          Alcotest.test_case "deterministic counts repeat" `Quick test_counts_repeat;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
    ]
