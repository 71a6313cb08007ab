(* The four benchmark workloads.  Each is a closed loop with one client
   at host level: the next op starts when the previous one returns.
   Everything runs in one process on one domain (one shard, no pool). *)

module A = Run.Artifact
module RB = Harness.Rpc_bench
module BW = Harness.Backend_world

type config = {
  seed : int;
  seconds : float;
  traced : bool;
  ready : unit -> unit;
      (** called once set-up and the untimed warm-up round are done *)
  spans : Spans.t;
}

let hex h = Printf.sprintf "%016Lx" h
let now_s () = float_of_int (Spans.now_ns ()) /. 1e9

(* Accumulators over the timed (untraced) ops.  Wall times are kept
   raw and at reference speed (see {!Calibration}). *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable speed : float;  (** host speed measured before this round *)
  mutable speeds : float list;
  mutable walls : float list;  (** per-op wall time at reference speed, ms *)
  mutable raw_walls : float list;  (** per-op wall time, ms *)
  mutable wall_s : float;  (** total at reference speed *)
  mutable rates : float list;  (** per round: events per second at reference speed *)
  mutable words : int;
  mutable events : int;
  mutable rss_mb : float;  (** peak resident set after [rss_rounds] timed rounds *)
  mutable end_rss_mb : float;  (** ... and at the end of the run *)
  mutable rounds : int;
}

let new_tally () =
  {
    attempted = 0;
    failed = 0;
    speed = 1.;
    speeds = [];
    walls = [];
    raw_walls = [];
    wall_s = 0.;
    rates = [];
    words = 0;
    events = 0;
    rss_mb = 0.;
    end_rss_mb = 0.;
    rounds = 0;
  }

(* Peak resident set of this process so far, from /proc (Linux). *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    let v = try scan () with End_of_file -> 0. in
    close_in ic;
    v
  with Sys_error _ -> 0.

(* The gated peak resident set is read after this many timed rounds,
   the same amount of work on every run; every run does at least this
   many.  Resident memory keeps growing from round to round (see
   [host_e2e]), so a reading at the end would depend on how many rounds
   the host managed. *)
let rss_rounds = 2

(* Run [round] until [seconds] have passed since the first call, and at
   least [rss_rounds] times, measuring host speed before each.  Whole
   rounds only, so every op kind of a workload is timed equally often
   in every run. *)
let timed_rounds t seconds round =
  let deadline = now_s () +. seconds in
  let round () =
    t.speed <- Calibration.speed ();
    t.speeds <- t.speed :: t.speeds;
    let events = t.events and wall_s = t.wall_s in
    round ();
    t.rates <-
      Report.div (float_of_int (t.events - events)) (t.wall_s -. wall_s) :: t.rates;
    t.rounds <- t.rounds + 1;
    if t.rounds = rss_rounds then t.rss_mb <- peak_rss_mb ()
  in
  while t.rounds < rss_rounds || now_s () < deadline do
    round ()
  done;
  t.end_rss_mb <- peak_rss_mb ()

let attempt t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let time_op t ~events f =
  let w0 = Spans.words () in
  let t0 = Spans.now_ns () in
  let r = f () in
  let dt = Spans.now_ns () - t0 in
  let dw = Spans.words () - w0 in
  let ms = float_of_int dt /. 1e6 in
  t.raw_walls <- ms :: t.raw_walls;
  t.walls <- (ms *. t.speed) :: t.walls;
  t.wall_s <- t.wall_s +. (ms *. t.speed /. 1e3);
  t.words <- t.words + dw;
  t.events <- t.events + events;
  (r, dt)

(* The peak resident set still grows after [rss_rounds] while the OCaml
   heap stays flat: a fiber still suspended when its run ends keeps its
   stack, which OCaml 5 allocates outside the heap (see README.md).  The
   end-of-run peak and the growth per later round are printed beside
   the gated reading so that this growth stays visible. *)
let host_e2e t =
  let later = t.rounds - rss_rounds in
  [
    ("peak_rss_mb", t.rss_mb);
    ("end_peak_rss_mb", t.end_rss_mb);
    ( "rss_growth_mb_per_round",
      if later > 0 then (t.end_rss_mb -. t.rss_mb) /. float_of_int later else 0. );
    ("op_wall_ms_p50", Report.median t.walls);
    ("host_events_per_s", Report.median t.rates);
    ("raw_op_wall_ms_p50", Report.median t.raw_walls);
    ("host_speed", Report.median t.speeds);
    ("alloc_words_per_event", Report.fdiv t.words t.events);
  ]

(* Sums over the traced ops, for the per-layer table. *)
type layer_tally = {
  mutable ops : int;
  mutable l_events : int;
  mutable drain_self_ns : int;
  mutable drain_self_w : int;
  mutable build_ns : int;
  mutable finish_ns : int;
  mutable spawns : int;
  mutable feed_ns : int;
  mutable feed_w : int;
  mutable judge_ns : int;
  mutable self_ns : int;
  mutable traced_ns : int;  (** traced ops' wall time ... *)
  mutable traced_w : int;  (** ... and allocation *)
  mutable untraced_ns : int;  (** ... and their untraced twins' *)
}

let new_layer_tally () =
  {
    ops = 0;
    l_events = 0;
    drain_self_ns = 0;
    drain_self_w = 0;
    build_ns = 0;
    finish_ns = 0;
    spawns = 0;
    feed_ns = 0;
    feed_w = 0;
    judge_ns = 0;
    self_ns = 0;
    traced_ns = 0;
    traced_w = 0;
    untraced_ns = 0;
  }

let add_layers l (tm : Pipeline.timing) ~untraced_ns =
  let open Pipeline in
  l.ops <- l.ops + 1;
  l.l_events <- l.l_events + tm.events;
  l.drain_self_ns <- l.drain_self_ns + drain_ns tm - tm.feed_ns;
  l.drain_self_w <- l.drain_self_w + drain_w tm - tm.feed_w;
  l.build_ns <- l.build_ns + build_ns tm;
  l.finish_ns <- l.finish_ns + finish_ns tm;
  l.spawns <- l.spawns + tm.spawns;
  l.feed_ns <- l.feed_ns + tm.feed_ns;
  l.feed_w <- l.feed_w + tm.feed_w;
  l.judge_ns <- l.judge_ns + judge_ns tm;
  l.self_ns <- l.self_ns + pipeline_self_ns tm;
  l.traced_ns <- l.traced_ns + total_ns tm;
  l.traced_w <- l.traced_w + total_w tm;
  l.untraced_ns <- l.untraced_ns + untraced_ns

let layer_values l =
  let per_op x = Report.fdiv x l.ops in
  let per_event x = Report.fdiv x l.l_events in
  [
    ("engine.events_per_op", per_op l.l_events);
    ("engine.drain_self_ms", per_op l.drain_self_ns /. 1e6);
    ("engine.ns_per_event", per_event l.drain_self_ns);
    ("engine.alloc_words_per_event", per_event l.drain_self_w);
    ("workload.build_ms", per_op l.build_ns /. 1e6);
    ("workload.finish_ms", per_op l.finish_ns /. 1e6);
    ("workload.nodes_per_op", per_op l.spawns);
    ("analysis.feed_ms", per_op l.feed_ns /. 1e6);
    ("analysis.feed_ns_per_event", per_event l.feed_ns);
    ("analysis.alloc_words_per_event", per_event l.feed_w);
    ("judge.us_per_op", per_op l.judge_ns /. 1e3);
    ("run.pipeline_self_us", per_op l.self_ns /. 1e3);
    ( "trace.overhead_pct",
      100. *. Report.fdiv (l.traced_ns - l.untraced_ns) l.untraced_ns );
  ]

(* Every per-layer metric, 0 where the workload does not reach the layer. *)
let complete values =
  List.map
    (fun (n, _) -> (n, Option.value ~default:0. (List.assoc_opt n values)))
    Report.layers

(* ---- the loop every workload runs -------------------------------- *)

type 'r loop = {
  tally : tally;  (** the untraced timed ops *)
  layers : layer_tally;  (** every traced timed op ... *)
  per_kind : layer_tally array;  (** ... and by op kind *)
  results : 'r option array;  (** each op kind's reference result *)
}

(* Op kind [i] (of [Array.length names]) runs the program's own way as
   [untraced i] and instrumented as [traced i]; raising or giving [None]
   is a failed op.  Every result must pass [valid] and equal the kind's
   reference result, its first valid one, exactly; a traced op must
   also repeat the kind's event count.

   Set-up ends with one untimed untraced round, the warm-up, which sets
   the reference results.  After [cfg.ready] comes one untimed traced
   round, which counts each kind's events (the untraced path does not
   report them), and then the timed rounds.  With [cfg.traced] every
   timed op runs both ways, alternating which goes first. *)
let run_loop cfg ~names ~valid ~untraced ~traced =
  let n = Array.length names in
  let results = Array.make n None in
  let events = Array.make n 0 in
  let counted = Array.make n false in
  let t = new_tally () in
  let layers = new_layer_tally () in
  let per_kind = Array.init n (fun _ -> new_layer_tally ()) in
  let check ?(events_ok = true) i r =
    attempt t
      (events_ok && valid r
      &&
      match results.(i) with
      | None ->
        results.(i) <- Some r;
        true
      | Some x -> x = r)
  in
  let run_untraced i = try untraced i with _ -> None in
  let untraced_op i =
    let r, dt = time_op t ~events:events.(i) (fun () -> run_untraced i) in
    (match r with Some r -> check i r | None -> attempt t false);
    dt
  in
  let traced_op i =
    match traced i with
    | Some (r, tm) ->
      let e = tm.Pipeline.events in
      if not counted.(i) then begin
        counted.(i) <- true;
        events.(i) <- e
      end;
      check i r ~events_ok:(e = events.(i));
      Some tm
    | None | (exception _) ->
      attempt t false;
      None
  in
  for i = 0 to n - 1 do
    match run_untraced i with Some r -> check i r | None -> attempt t false
  done;
  cfg.ready ();
  for i = 0 to n - 1 do
    ignore (traced_op i)
  done;
  let op_id = ref 0 in
  timed_rounds t cfg.seconds (fun () ->
      for i = 0 to n - 1 do
        incr op_id;
        if not cfg.traced then ignore (untraced_op i)
        else begin
          let first_traced = !op_id land 1 = 0 in
          let tm = if first_traced then traced_op i else None in
          let dt = untraced_op i in
          let tm = if first_traced then tm else traced_op i in
          Option.iter
            (fun tm ->
              add_layers layers tm ~untraced_ns:dt;
              add_layers per_kind.(i) tm ~untraced_ns:dt;
              Pipeline.record cfg.spans ~op:!op_id ~name:names.(i) tm)
            tm
        end
      done);
  { tally = t; layers; per_kind; results }

(* ---- spec workloads: Run.execute over a fixed list of specs ---------- *)

let counter (a : A.t) name = Option.value ~default:0 (List.assoc_opt name a.counters)

(* An op fails when the run is not clean: an invariant broke, the race
   detector found something, liveness was missed, a population run left
   a request unanswered, or the scenario missed its expected final
   state.  The last is the scenario's own verdict, which the artifact
   declares informational under an injecting fault plan: a faulted run
   may miss its scripted finale as long as it stays safe and live. *)
let faulted (a : A.t) =
  match a.spec.Run.Spec.plan with None | Some Run.Spec.Screen -> false | Some _ -> true

let clean (a : A.t) =
  (a.ok || faulted a)
  && a.violations = [] && a.races = []
  && (not (Run.Liveness.missed a.liveness))
  && counter a "wl.replies" = counter a "wl.requests"
  && counter a "wl.errors" = 0

(* The targeted plans aim at a fault-tolerant protocol's weak point;
   their Live cases are the ones recovery is measured on. *)
let targeted (a : A.t) =
  match a.spec.Run.Spec.plan with
  | Some p -> List.mem p Run.Spec.targeted_plans
  | None -> false

let recovered (arts : A.t list) =
  List.filter_map
    (fun (a : A.t) ->
      match a.liveness with
      | Run.Liveness.Live m when targeted a -> Some m
      | _ -> None)
    arts

let fault_layers (arts : A.t list) =
  let sum name = List.fold_left (fun acc a -> acc + counter a name) 0 arts in
  let runs = List.length arts in
  let injected =
    List.fold_left
      (fun acc (a : A.t) ->
        List.fold_left
          (fun acc (k, v) ->
            if String.starts_with ~prefix:"faults." k then acc + v else acc)
          acc a.counters)
      0 arts
  in
  let judged = List.filter (fun (a : A.t) -> a.liveness <> Run.Liveness.Vacuous) arts in
  let p50 f = Report.median (List.map (fun m -> float_of_int (f m)) (recovered arts)) in
  [
    ("faults.injected_per_run", Report.fdiv injected runs);
    ("lynx.retry_ratio", Report.fdiv (sum "lynx.call_retries") (sum "lynx.calls"));
    ("lynx.dup_dropped_per_run", Report.fdiv (sum "lynx.dup_requests_dropped") runs);
    ("recovery.retries_p50", p50 (fun m -> m.Run.Liveness.m_retries));
    ("recovery.failovers_p50", p50 (fun m -> m.Run.Liveness.m_failovers));
    ( "liveness.live_ratio",
      Report.fdiv
        (List.length (List.filter (fun (a : A.t) -> not (Run.Liveness.missed a.liveness)) judged))
        (List.length judged) );
  ]

(* Every spec runs with a bounded retained log, as a long population
   run would.  Artifacts are identical at any capacity; memory then
   follows the pipeline's working set rather than the longest run's
   log. *)
let retained_log = 4096

(* Run [specs] round after round through [Run.execute], traced through
   {!Pipeline.execute}. *)
let run_specs cfg specs ~virt =
  let specs = Array.of_list specs in
  let names = Array.map Run.Spec.to_string specs in
  let lp =
    run_loop cfg ~names ~valid:clean
      ~untraced:(fun i -> Run.execute ~log_capacity:retained_log specs.(i))
      ~traced:(fun i -> Pipeline.execute ~log_capacity:retained_log specs.(i))
  in
  let t = lp.tally in
  let arts = Array.to_list lp.results |> List.filter_map Fun.id in
  let records =
    match (names, arts) with
    | [| name |], [ a ] -> [ (name, hex a.A.events_hash) ]
    | [| name |], _ -> [ (name, "none") ]
    | _ ->
      [
        ( Printf.sprintf "sweep-of-%d-specs" (Array.length names),
          hex
            (List.fold_left
               (fun h (a : A.t) ->
                 Int64.(add (mul h 0x100000001b3L) a.A.events_hash))
               0xcbf29ce484222325L arts) );
      ]
  in
  {
    Report.attempted = t.attempted;
    failed = t.failed;
    e2e =
      (if cfg.traced then [] else host_e2e t)
      @ virt arts
      @ [ ("failed_op_ratio", Report.fdiv t.failed t.attempted) ];
    layer_values =
      (if cfg.traced then complete (layer_values lp.layers @ fault_layers arts)
       else []);
    records;
  }

(* Reply latency of a population run, from its artifact's histogram. *)
let population_virt (arts : A.t list) =
  match arts with
  | [ ({ A.latency = Some h; _ } as a) ] ->
    let open Sim.Stats.Histogram in
    [
      ("virt_p50_us", Sim.Time.to_us h.h_p50);
      ("virt_p999_us", Sim.Time.to_us h.h_p999);
      ( "virt_throughput_rps",
        Report.div (float_of_int h.h_count) (Sim.Time.to_sec a.A.duration) );
    ]
  | _ -> []

let pop_tree cfg =
  run_specs cfg ~virt:population_virt
    [
      Run.Spec.v ~population:10_000 ~scenario:"wl-tree" ~backend:"chrysalis"
        cfg.seed;
    ]

let pop_farm_open cfg =
  run_specs cfg ~virt:population_virt
    [
      Run.Spec.v ~population:50_000 ~scenario:"wl-farm-open" ~backend:"charlotte"
        cfg.seed;
    ]

(* Every registry scenario on every backend it applies to, under every
   generic fault plan, plus the targeted plans on the two fault-tolerant
   protocols; four case seeds derived from the benchmark seed, enough
   that the mix (and so memory and time per op) barely moves from one
   benchmark seed to the next. *)
let chaos_targets = [ "ring-election"; "quorum" ]

let chaos_specs seed =
  let seeds = List.init 4 (fun k -> seed + k) in
  let product scenarios plans =
    List.concat_map
      (fun scenario ->
        List.concat_map
          (fun backend ->
            List.concat_map
              (fun s ->
                List.map (fun plan -> Run.Spec.v ~plan ~scenario ~backend s) plans)
              seeds)
          BW.names)
      scenarios
  in
  product Harness.Scenarios.names Run.Spec.all_plans
  @ product chaos_targets Run.Spec.targeted_plans
  |> List.filter (fun s -> Run.check s = Ok ())

let chaos_virt (arts : A.t list) =
  match recovered arts with
  | [] -> []
  | live ->
    [
      ( "virt_ttr_ms_p50",
        Report.median (List.map (fun m -> Sim.Time.to_ms m.Run.Liveness.m_ttr) live) );
    ]

let sweep_chaos cfg =
  run_specs cfg ~virt:chaos_virt (chaos_specs cfg.seed)

(* ---- rpc-paper: the LYNX runtime over each kernel, no analyzer ------- *)

type batch =
  | Lynx of BW.backend * int  (** [Rpc_bench.run] at a payload *)
  | Raw of string * int  (** [raw_charlotte] / [raw_soda] at a payload *)
  | Pipelined of BW.backend  (** 4-coroutine [Rpc_bench.throughput] *)

(* What a batch computes in virtual time; repeats must match exactly. *)
type outcome =
  | Rpcs of RB.result
  | Round_trip of Sim.Time.t
  | Rate of float

let rpc_iters = 100
let rpc_warmup = 5
let pipelined_coroutines = 4
let pipelined_calls = 40

let batch_name = function
  | Lynx (b, p) -> Printf.sprintf "lynx.%s.%db" (BW.name b) p
  | Raw (k, p) -> Printf.sprintf "raw.%s.%db" k p
  | Pipelined b -> "pipelined." ^ BW.name b

(* Host calls (RPCs) a batch performs. *)
let batch_calls = function
  | Lynx _ | Raw _ -> rpc_iters + rpc_warmup
  | Pipelined _ -> pipelined_coroutines * pipelined_calls

let batches =
  List.concat_map (fun b -> List.map (fun p -> Lynx (b, p)) Report.payloads) BW.all
  @ List.concat_map
      (fun k -> List.map (fun p -> Raw (k, p)) Report.payloads)
      Report.raw_backends
  @ List.map (fun b -> Pipelined b) BW.all

let run_batch ~seed = function
  | Lynx (b, payload) ->
    Rpcs (RB.run ~iters:rpc_iters ~warmup:rpc_warmup ~seed b ~payload ())
  | Raw ("charlotte", payload) ->
    Round_trip (RB.raw_charlotte ~iters:rpc_iters ~warmup:rpc_warmup ~seed ~payload ())
  | Raw (_, payload) ->
    Round_trip (RB.raw_soda ~iters:rpc_iters ~warmup:rpc_warmup ~seed ~payload ())
  | Pipelined b ->
    Rate
      (RB.throughput ~coroutines:pipelined_coroutines ~calls:pipelined_calls ~seed b
         ~payload:0 ())

(* The paper's figures (ms) and the tolerances bench/main.exe checks
   them with: E1 (§3.3), E4 (§5.3), and E3's 3x raw speed-up (§4.3). *)
let paper_checks virt_ms =
  let ms k = List.assoc k virt_ms in
  [
    (ms "lynx.charlotte.0b", 57., 5.);
    (ms "lynx.charlotte.1000b", 65., 5.);
    (ms "raw.charlotte.0b", 55., 5.);
    (ms "raw.charlotte.1000b", 60., 5.);
    (ms "lynx.chrysalis.0b", 2.4, 5.);
    (ms "lynx.chrysalis.1000b", 4.6, 5.);
    (ms "raw.charlotte.0b" /. ms "raw.soda.0b", 3.0, 10.);
  ]

let err_pct (measured, paper, _) = 100. *. Float.abs (measured -. paper) /. paper

(* Untraced, a batch runs as the program runs it; traced, under the
   pipeline's stamps with no analyzer. *)
let rpc_paper cfg =
  let batches = Array.of_list batches in
  let n = Array.length batches in
  let run i = run_batch ~seed:cfg.seed batches.(i) in
  let lp =
    run_loop cfg ~names:(Array.map batch_name batches) ~valid:(fun _ -> true)
      ~untraced:(fun i -> Some (run i))
      ~traced:(fun i -> Some (Pipeline.observe (fun () -> run i)))
  in
  let t = lp.tally in
  let find name =
    let rec go i = if batch_name batches.(i) = name then i else go (i + 1) in
    go 0
  in
  let outcome name = lp.results.(find name) in
  let virt_ms =
    List.filter_map
      (fun i ->
        match lp.results.(i) with
        | Some (Rpcs r) -> Some (batch_name batches.(i), RB.mean_ms r)
        | Some (Round_trip d) -> Some (batch_name batches.(i), Sim.Time.to_ms d)
        | _ -> None)
      (List.init n Fun.id)
  in
  let paper =
    if List.length virt_ms = n - List.length BW.all then paper_checks virt_ms else []
  in
  let paper_ok =
    paper <> [] && List.for_all (fun ((_, _, tol) as c) -> err_pct c <= tol) paper
  in
  if not paper_ok then attempt t false;
  let host_us name =
    let b = lp.per_kind.(find name) in
    Report.div (float_of_int b.traced_ns /. 1e3)
      (float_of_int (b.ops * batch_calls batches.(find name)))
  in
  let backend_layers b =
    let name = BW.name b in
    let kinds = List.map (fun p -> find (batch_name (Lynx (b, p)))) Report.payloads in
    let sum f = List.fold_left (fun acc i -> acc + f lp.per_kind.(i)) 0 kinds in
    let calls = sum (fun x -> x.ops) * batch_calls (Lynx (b, 0)) in
    let msgs_counter =
      match name with
      | "charlotte" -> "charlotte.kernel_msgs"
      | "soda" -> "soda.requests"
      | _ -> "lynx_chrysalis.msgs_written"
    in
    let msgs =
      match outcome (batch_name (Lynx (b, 0))) with
      | Some (Rpcs r) ->
        Report.fdiv
          (Option.value ~default:0 (List.assoc_opt msgs_counter r.RB.r_counters))
          r.RB.r_iters
      | _ -> 0.
    in
    let rate =
      match outcome (batch_name (Pipelined b)) with Some (Rate r) -> r | _ -> 0.
    in
    List.map
      (fun p ->
        ( Printf.sprintf "lynx.rpc_host_us.%s.%s" name (Report.payload_tag p),
          host_us (batch_name (Lynx (b, p))) ))
      Report.payloads
    @ [
        ("lynx.events_per_rpc." ^ name, Report.fdiv (sum (fun x -> x.l_events)) calls);
        ("lynx.alloc_words_per_rpc." ^ name, Report.fdiv (sum (fun x -> x.traced_w)) calls);
        ("kernel.msgs_per_rpc." ^ name, msgs);
        ("lynx.pipelined_rps." ^ name, rate);
      ]
  in
  let raw_layers k =
    let lynx0 = Printf.sprintf "lynx.%s.0b" k and raw0 = Printf.sprintf "raw.%s.0b" k in
    List.map
      (fun p ->
        ( Printf.sprintf "kernel.raw_rpc_host_us.%s.%s" k (Report.payload_tag p),
          host_us (batch_name (Raw (k, p))) ))
      Report.payloads
    @ [
        ("lynx.runtime_host_us." ^ k, host_us lynx0 -. host_us raw0);
        ( "lynx.runtime_virt_ms." ^ k,
          Option.value ~default:0. (List.assoc_opt lynx0 virt_ms)
          -. Option.value ~default:0. (List.assoc_opt raw0 virt_ms) );
      ]
  in
  let records =
    List.map (fun (k, ms) -> ("virt-ms." ^ k, Printf.sprintf "%.6f" ms)) virt_ms
  in
  {
    Report.attempted = t.attempted;
    failed = t.failed;
    e2e =
      (if cfg.traced then [] else host_e2e t)
      @ (if paper = [] then []
         else [ ("paper_err_pct", List.fold_left (fun m c -> Float.max m (err_pct c)) 0. paper) ])
      @ [ ("failed_op_ratio", Report.fdiv t.failed t.attempted) ];
    layer_values =
      (if cfg.traced then
         complete
           (layer_values lp.layers
           @ List.concat_map backend_layers BW.all
           @ List.concat_map raw_layers Report.raw_backends)
       else []);
    records;
  }

let all =
  [
    ("pop-tree", pop_tree);
    ("pop-farm-open", pop_farm_open);
    ("rpc-paper", rpc_paper);
    ("sweep-chaos", sweep_chaos);
  ]
