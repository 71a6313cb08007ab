(* perfbench main: runs one workload and prints its report, then one
   JSON result line.  Normally driven by run.py, which builds this
   executable, times set-up around it and adds [setup_s].

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-file FILE] [--setup-only]

   "perfbench: ready" is printed once set-up and the warm-up round are
   done, then "perfbench: speed X", the host speed right after set-up
   (see Calibration); with --setup-only the process exits there. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let traced = ref false and trace_file = ref "" and setup_only = ref false in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun v -> traced := v = "1"),
        " 1: report per-layer metrics from traced ops" );
      ("--trace-file", Arg.Set_string trace_file, "FILE where to write the spans");
      ("--setup-only", Arg.Set setup_only, " exit once set up");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload Perfbench.Workloads.all with
    | Some f when !seconds > 0. -> f
    | _ ->
      Printf.eprintf "unknown workload %S (have: %s) or non-positive --seconds\n"
        !workload
        (String.concat ", " (List.map fst Perfbench.Workloads.all));
      exit 2
  in
  let traced = !traced in
  let spans = Perfbench.Spans.create () in
  let ready () =
    print_endline "perfbench: ready";
    Printf.printf "perfbench: speed %.17g\n%!" (Perfbench.Calibration.speed ());
    if !setup_only then exit 0
  in
  let r =
    run { Perfbench.Workloads.seed = !seed; seconds = !seconds; traced; ready; spans }
  in
  if traced && !trace_file <> "" then Perfbench.Spans.write spans !trace_file;
  print_string (Perfbench.Report.render ~traced r);
  print_endline
    (Perfbench.Report.to_json ~traced ~correct:(r.Perfbench.Report.failed = 0) r)
