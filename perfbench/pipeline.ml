(* The traced twin of [Run.execute], composed from the same public
   calls ([Sim.Engine.with_observer] + [add_consumer], [Run.run_outcome],
   [Analysis.Stream.feed]/[finish], [Run.judge_streamed]) with host
   clocks and allocation counters read around each of them.  It must
   yield the artifact [Run.execute] yields for the same spec; the
   workloads compare the two on every op they run both ways. *)

(* Host-clock stamps (ns) and minor-word counts of one op, taken at the
   layer boundaries the benchmark can see from outside:
   - build:  observer attach (engine construction) -> first event
   - drain:  first event -> last event; [feed_ns] is the part of it
             spent inside [Analysis.Stream.feed], summed over events
   - finish: last event -> [run_outcome] return (merged view, histogram)
   - judge:  [Stream.finish] + [judge_streamed]
   - the rest of the op is the pipeline's own work (resolve, fault
     plan, packaging). *)
type timing = {
  mutable t_start : int;
  mutable t_attach : int;
  mutable t_first : int;
  mutable t_last : int;
  mutable t_outcome : int;
  mutable t_end : int;
  mutable w_start : int;
  mutable w_first : int;
  mutable w_last : int;
  mutable w_end : int;
  mutable events : int;
  mutable spawns : int;  (** processes created: the population's nodes *)
  mutable feed_ns : int;
  mutable feed_w : int;
}

let total_ns t = t.t_end - t.t_start
let build_ns t = t.t_first - t.t_attach
let drain_ns t = t.t_last - t.t_first
let finish_ns t = t.t_outcome - t.t_last
let judge_ns t = t.t_end - t.t_outcome
let total_w t = t.w_end - t.w_start
let drain_w t = t.w_last - t.w_first

let pipeline_self_ns t =
  total_ns t - build_ns t - drain_ns t - finish_ns t - judge_ns t

let new_timing () =
  {
    t_start = Spans.now_ns ();
    t_attach = -1;
    t_first = 0;
    t_last = 0;
    t_outcome = 0;
    t_end = 0;
    w_start = Spans.words ();
    w_first = 0;
    w_last = 0;
    w_end = 0;
    events = 0;
    spawns = 0;
    feed_ns = 0;
    feed_w = 0;
  }

(* One consumer per engine: the first event stamps the end of
   construction, and every event is counted.  With [feed], each event
   is also fed to the analyzer between two clock and allocation reads,
   which [feed_ns] and [feed_w] sum. *)
let attach ?feed tm eng =
  if tm.t_attach < 0 then tm.t_attach <- Spans.now_ns ();
  Sim.Engine.add_consumer eng (fun ev ->
      let t = Spans.now_ns () in
      let w = Spans.words () in
      if tm.events = 0 then begin
        tm.t_first <- t;
        tm.w_first <- w
      end;
      tm.events <- tm.events + 1;
      (match ev.Sim.Event.ev_kind with
      | Sim.Event.Spawn _ -> tm.spawns <- tm.spawns + 1
      | _ -> ());
      match feed with
      | None ->
        tm.t_last <- t;
        tm.w_last <- w
      | Some feed ->
        feed ev;
        let t' = Spans.now_ns () in
        let w' = Spans.words () in
        tm.feed_ns <- tm.feed_ns + (t' - t);
        tm.feed_w <- tm.feed_w + (w' - w);
        tm.t_last <- t';
        tm.w_last <- w')

(* Stamp the end of an op whose outcome came back at [t_outcome]. *)
let close tm =
  tm.t_end <- Spans.now_ns ();
  tm.w_end <- Spans.words ();
  if tm.t_attach < 0 then tm.t_attach <- tm.t_start;
  (* a run that emitted nothing has an empty drain at its attach *)
  if tm.events = 0 then begin
    tm.t_first <- tm.t_attach;
    tm.t_last <- tm.t_attach
  end

(* [None] when the scenario does not apply to the backend, like
   [Run.execute].  An exception escapes: [Run.execute] turns a faulted
   run that aborts into a violation artifact, and callers count either
   as a failed op. *)
let execute ~log_capacity spec =
  let tm = new_timing () in
  let state = ref (Analysis.Stream.init ()) in
  let feed ev = state := Analysis.Stream.feed ev !state in
  match
    Sim.Engine.with_observer ~log_capacity ~attach:(attach ~feed tm)
      (fun () -> Run.run_outcome spec)
  with
  | None -> None
  | Some o ->
    tm.t_outcome <- Spans.now_ns ();
    let a = Run.judge_streamed spec (Analysis.Stream.finish !state) o in
    close tm;
    Some (a, tm)

(* [f ()] with the same stamps and no analyzer, for calls that are not
   a [Run.Spec]: its finish and judge phases are empty. *)
let observe f =
  let tm = new_timing () in
  let o = Sim.Engine.with_observer ~attach:(attach tm) f in
  tm.t_outcome <- Spans.now_ns ();
  close tm;
  (o, tm)

(* One traced op as spans: the op root, its four phases, and the
   aggregated [analysis.feed] child of the drain. *)
let record spans ~op ~name tm =
  let root = Spans.add spans ~op ~parent:0 ~name tm.t_start tm.t_end in
  let child name a b = Spans.add spans ~op ~parent:root ~name a b in
  ignore (child "workload.build" tm.t_attach tm.t_first);
  let drain = child "engine.drain" tm.t_first tm.t_last in
  ignore
    (Spans.add spans ~op ~parent:drain ~name:"analysis.feed" ~calls:tm.events
       tm.t_first (tm.t_first + tm.feed_ns));
  ignore (child "workload.finish" tm.t_last tm.t_outcome);
  ignore (child "run.judge" tm.t_outcome tm.t_end)
