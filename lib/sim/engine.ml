type fiber_state = Runnable | Blocked of string | Finished | Crashed of exn

(* What a suspended fiber is waiting to run, held so that a waker fires
   at most once (it fires only while the fiber still holds the very
   value it registered) and so that {!release} can find every stack
   left parked when a run ends.  An effect fiber parks its continuation
   ([Asleep] while in {!sleep}), which owns a malloc'd stack that OCaml
   frees only when it is resumed; a stackless fiber parks its next
   step, a closure. *)
type parked =
  | Unparked
  | Parked : ('a, unit) Effect.Deep.continuation -> parked
  | Asleep : (unit, unit) Effect.Deep.continuation -> parked
  | Pending : ('a -> unit) -> parked

type fiber = {
  fid : int;
  name : string;
  daemon : bool;
  mutable state : fiber_state;
  mutable clock : Vclock.t;
  mutable parked : parked;
}

type policy =
  | Fifo
  | Random_order of int
  | Delay_jitter of { jitter_seed : int; bound : Time.t }

let policy_name = function
  | Fifo -> "fifo"
  | Random_order seed -> Printf.sprintf "random:%d" seed
  | Delay_jitter { jitter_seed; bound } ->
    Printf.sprintf "jitter:%d:%dus" jitter_seed (Time.to_ns bound / 1_000)

type t = {
  mutable now : Time.t;
  mutable seq : int;
  mutable next_fid : int;
  tasks : Taskq.t;
  mutable fibers : fiber list;
  (* Every fiber by id, for the explicit-[?fid] duplicate check and
     {!find_fiber}: population runs spawn hundreds of thousands of
     pinned-id fibers, and a list scan per spawn would make setup
     quadratic. *)
  fids : (int, fiber) Hashtbl.t;
  mutable current : fiber option;
  mutable stopped : bool;
  mutable crashes : (string * exn) list;
  on_crash : [ `Raise | `Record ];
  root_rng : Rng.t;
  policy : policy;
  sched_rng : Rng.t;
  trace_buf : Trace.t;
  legacy_trace : bool;
  (* Causality state.  [amb_clock] is the clock of the task currently
     running in scheduler context; every queued task carries the clock
     of whoever enqueued it (inline in its [Taskq.entry]) and the drain
     loop restores it here before the task runs, so causality flows
     through timed hops and wakers without the sync primitives knowing
     about clocks at all. *)
  mutable amb_clock : Vclock.t;
  (* Structured event log: a growable array, oldest first.  No per-event
     list cell, and O(1) drop accounting once [event_cap] is reached.
     With [log_cap = Some k] the array is a ring holding the last [k]
     events instead ([ev_start] is the read offset of the oldest);
     retention never affects [events_hash], [events_total] or the
     consumers, which see every emitted event. *)
  mutable ev_arr : Event.t array;
  mutable ev_len : int;
  mutable ev_start : int;
  event_cap : int;
  log_cap : int option;
  mutable events_total : int;
  mutable events_hash : int;
  mutable consumers : (Event.t -> unit) list;
  stamps : (string, Vclock.t) Hashtbl.t;
}

exception Deadlock of string
exception Fiber_crash of string * exn
type 'a waker = ('a, exn) result -> unit

type _ Effect.t += Suspend_with : string * ((('a, exn) result -> unit) -> unit) -> 'a Effect.t

(* Sleeping is by far the most common suspension, and the generic waker
   path costs it a second queue round-trip (the timer task enqueues the
   continuation).  [Sleep_for] resumes the fiber directly in the timer
   task: same timestamp, same Block event, same causality (the entry
   carries the fiber's own clock back), half the queue traffic. *)
type _ Effect.t += Sleep_for : Time.t -> unit Effect.t

(* Ambient observer, delivered through domain-local storage exactly like
   [Faults.with_plan]: sweep drivers want to bound retention and attach a
   streaming consumer to engines that scenarios create internally, without
   threading parameters through every scenario signature. *)
type observer = { ob_log_capacity : int option; ob_attach : t -> unit }

let ambient_observer : observer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let create ?(seed = 42) ?(policy = Fifo) ?trace_capacity
    ?(event_capacity = 200_000) ?log_capacity ?(legacy_trace = true)
    ?(on_crash = `Raise) () =
  let sched_seed =
    match policy with
    | Fifo -> 0
    | Random_order s -> s
    | Delay_jitter { jitter_seed; _ } -> jitter_seed
  in
  let observer = Domain.DLS.get ambient_observer in
  let log_cap =
    match (log_capacity, observer) with
    | Some _, _ -> log_capacity
    | None, Some ob -> ob.ob_log_capacity
    | None, None -> None
  in
  let t =
    {
      now = Time.zero;
      seq = 0;
      next_fid = 0;
      tasks = Taskq.create ();
      fibers = [];
      fids = Hashtbl.create 64;
      current = None;
      stopped = false;
      crashes = [];
      on_crash;
      root_rng = Rng.create seed;
      policy;
      sched_rng = Rng.create sched_seed;
      trace_buf = Trace.create ?capacity:trace_capacity ();
      legacy_trace;
      amb_clock = Vclock.empty;
      ev_arr = [||];
      ev_len = 0;
      ev_start = 0;
      event_cap = event_capacity;
      log_cap;
      events_total = 0;
      events_hash = 0x0bf29ce484222325;
      consumers = [];
      stamps = Hashtbl.create 64;
    }
  in
  (match observer with Some ob -> ob.ob_attach t | None -> ());
  t

let add_consumer t f = t.consumers <- t.consumers @ [ f ]

let with_observer ?log_capacity ~attach f =
  let saved = Domain.DLS.get ambient_observer in
  Domain.DLS.set ambient_observer
    (Some { ob_log_capacity = log_capacity; ob_attach = attach });
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_observer saved) f

(* The shard coordinator attaches the ambient observer to its merge
   sink only: per-shard engines run on worker domains, where an
   attached consumer would race with the observer's single-threaded
   state.  Their events reach the observer through the sink at the
   window barriers instead. *)
let without_observer f =
  let saved = Domain.DLS.get ambient_observer in
  Domain.DLS.set ambient_observer None;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_observer saved) f

let now t = t.now
let rng t = t.root_rng
let policy t = t.policy
let trace t = t.trace_buf

(* The clock of "whoever is acting right now": the running fiber's, or
   the ambient clock restored by the drain loop in scheduler context. *)
let current_clock t =
  match t.current with Some f -> f.clock | None -> t.amb_clock

let clock = current_clock

let grow_events t ~cap_limit =
  let cap = Array.length t.ev_arr in
  let ncap = min cap_limit (if cap = 0 then 256 else cap * 2) in
  let narr = Array.make ncap Event.filler in
  Array.blit t.ev_arr 0 narr 0 t.ev_len;
  t.ev_arr <- narr

(* Retention only: which slot (if any) keeps [ev].  The fingerprint,
   total count and consumers have already seen the event regardless. *)
let retain t ev =
  match t.log_cap with
  | None ->
    if t.ev_len < t.event_cap then begin
      if t.ev_len = Array.length t.ev_arr then
        if t.ev_len = 0 then t.ev_arr <- Array.make (min t.event_cap 256) ev
        else grow_events t ~cap_limit:t.event_cap;
      t.ev_arr.(t.ev_len) <- ev;
      t.ev_len <- t.ev_len + 1
    end
  | Some k ->
    if k > 0 then
      if t.ev_len < k then begin
        (* Growth phase: behaves like the plain append mode until the
           ring is full, so short runs pay nothing for the bound. *)
        if t.ev_len = Array.length t.ev_arr then
          if t.ev_len = 0 then t.ev_arr <- Array.make (min k 256) ev
          else grow_events t ~cap_limit:k;
        t.ev_arr.(t.ev_len) <- ev;
        t.ev_len <- t.ev_len + 1
      end
      else begin
        (* Full: overwrite the oldest slot and advance the read offset.
           The backing array has length exactly [k] here (growth is
           capped at [k]). *)
        t.ev_arr.(t.ev_start) <- ev;
        t.ev_start <- (t.ev_start + 1) mod k
      end

(* Events emitted by a fiber tick its component so successive events are
   strictly ordered.  Scheduler-context events only snapshot the ambient
   clock: ticking a shared pseudo-component would fabricate causality
   between unrelated kernel tasks. *)
let emit t kind =
  let clock, fid =
    match t.current with
    | Some f ->
      f.clock <- Vclock.tick f.clock f.fid;
      (f.clock, f.fid)
    | None -> (t.amb_clock, -1)
  in
  let ev = { Event.ev_time = t.now; ev_fiber = fid; ev_clock = clock; ev_kind = kind } in
  t.events_total <- t.events_total + 1;
  retain t ev;
  (* FNV-style word fold in native ints: the byte-wise int64 variant in
     [Trace] costs 24 boxed multiplications per event, which dominates
     the emit path.  This fingerprint is new in this log format and has
     no stored-hash compatibility to honour.  It folds every emitted
     event, retained or not, so it is exact at any [log_capacity]. *)
  let fold h i = (h lxor i) * 0x100000001B3 in
  t.events_hash <-
    fold (fold (fold t.events_hash (Time.to_ns t.now)) fid)
      (Event.kind_tag kind);
  (match t.consumers with
  | [] -> ()
  | cs -> List.iter (fun f -> f ev) cs);
  if t.legacy_trace then
    match Event.legacy_render ev with
    | Some msg -> Trace.record t.trace_buf t.now msg
    | None -> ()

let record t msg = emit t (Event.Note msg)

(* Re-admit an event that another engine already emitted: fold the
   fingerprint with the event's own (time, fiber, tag) — the same fold
   [emit] applies — feed the consumers, retain per the capacity policy
   and advance the clock to its timestamp.  This is how the shard
   coordinator materialises the canonical merged stream: the sink
   engine never schedules anything, it only absorbs, so its
   [events]/[events_hash]/consumer surface is exactly that of a
   single-engine run emitting the same sequence. *)
let absorb t (ev : Event.t) =
  if Time.(ev.Event.ev_time > t.now) then t.now <- ev.Event.ev_time;
  t.events_total <- t.events_total + 1;
  retain t ev;
  let fold h i = (h lxor i) * 0x100000001B3 in
  t.events_hash <-
    fold
      (fold (fold t.events_hash (Time.to_ns ev.Event.ev_time)) ev.Event.ev_fiber)
      (Event.kind_tag ev.Event.ev_kind);
  (match t.consumers with
  | [] -> ()
  | cs -> List.iter (fun f -> f ev) cs);
  if t.legacy_trace then
    match Event.legacy_render ev with
    | Some msg -> Trace.record t.trace_buf ev.Event.ev_time msg
    | None -> ()

(* Append mode trims to fit, then shares: the first call after a run
   replaces the backing array with a fresh copy of the live prefix
   ([Array.sub]) and every later call returns that same array without
   copying.  Appending after a snapshot is safe — a later [emit] sees a
   full array, takes the grow path, and copies into a new backing array,
   so the snapshot the caller holds is never mutated; the next [events]
   call then trims again and returns a different array.  Callers must
   treat the result as read-only but never see it change underneath
   them.  Ring mode copies unconditionally: the ring keeps rotating, so
   sharing its storage would let later emits overwrite a returned
   snapshot in place. *)
let events t =
  match t.log_cap with
  | None ->
    if Array.length t.ev_arr <> t.ev_len then
      t.ev_arr <- Array.sub t.ev_arr 0 t.ev_len;
    t.ev_arr
  | Some _ ->
    (* [ev_start > 0] only once the ring is full ([ev_len] = its
       length), so the oldest-first order is [ev_start..] then
       [..ev_start). *)
    let a = Array.make t.ev_len Event.filler in
    let older = t.ev_len - t.ev_start in
    Array.blit t.ev_arr t.ev_start a 0 older;
    Array.blit t.ev_arr 0 a older t.ev_start;
    a

let iter_events t f =
  let arr = t.ev_arr in
  let n = Array.length arr in
  for i = 0 to t.ev_len - 1 do
    f arr.((t.ev_start + i) mod n)
  done

let events_total t = t.events_total
let events_dropped t = t.events_total - t.ev_len
let events_hash t = Int64.of_int t.events_hash

let merge_clock t c =
  match t.current with
  | Some f -> f.clock <- Vclock.merge f.clock c
  | None -> t.amb_clock <- Vclock.merge t.amb_clock c

let stamp t key = Hashtbl.replace t.stamps key (current_clock t)

let adopt t key =
  match Hashtbl.find_opt t.stamps key with
  | None -> ()
  | Some c ->
    Hashtbl.remove t.stamps key;
    merge_clock t c

(* Under [Fifo] same-time tasks run in schedule order.  [Random_order]
   replaces the tie-breaking sequence number with a seeded random draw, so
   same-time tasks — the ones that are causally concurrent — run in an
   arbitrary but reproducible order.  [Delay_jitter] perturbs each task's
   execution time by a bounded random amount instead, exploring timing
   races across nearby (not just equal) timestamps. *)
let enqueue t time task =
  (* The enqueuer's clock rides inline in the queue entry; the drain
     loop restores it as the ambient clock when the task runs, carrying
     causality across the timed hop without a per-enqueue closure. *)
  let clk = current_clock t in
  let seq = t.seq in
  t.seq <- seq + 1;
  match t.policy with
  | Fifo -> Taskq.add t.tasks ~time:(Time.to_ns time) ~seq ~clk task
  | Random_order _ ->
    Taskq.add t.tasks ~time:(Time.to_ns time)
      ~seq:(Rng.int t.sched_rng 0x3FFFFFFF)
      ~clk task
  | Delay_jitter { bound; _ } ->
    let j = Rng.int t.sched_rng (Time.to_ns bound + 1) in
    Taskq.add t.tasks ~time:(Time.to_ns time + j) ~seq ~clk task

let schedule_at t time task =
  if Time.(time < t.now) then
    invalid_arg "Engine.schedule_at: time is in the past";
  enqueue t time task

let schedule_after t delay task = enqueue t (Time.add t.now delay) task

(* Cross-engine hand-off: the task carries the sender's clock (captured
   on another shard) instead of this engine's ambient one, and bypasses
   the scheduling policy — shard sub-engines always run Fifo; schedule
   exploration is applied by the coordinator at the window barriers,
   where cross-shard nondeterminism actually lives. *)
let inject t ~time ~clk task =
  if Time.(time < t.now) then invalid_arg "Engine.inject: time is in the past";
  let seq = t.seq in
  t.seq <- seq + 1;
  Taskq.add t.tasks ~time:(Time.to_ns time) ~seq ~clk task

let next_task_time t = Option.map Time.ns (Taskq.peek_time t.tasks)

let find_fiber t fid = Hashtbl.find_opt t.fids fid
let fiber_name f = f.name
let fiber_id f = f.fid
let fiber_alive f =
  match f.state with Finished | Crashed _ -> false | _ -> true

let fiber_blocked f =
  match (f.daemon, f.state) with
  | false, Blocked reason -> Some (Printf.sprintf "%s (%s)" f.name reason)
  | _ -> None

let fiber_crash f = match f.state with Crashed e -> Some e | _ -> None

let current_fiber_name t =
  match t.current with None -> "<scheduler>" | Some f -> f.name

let handle_crash t fiber exn =
  fiber.state <- Crashed exn;
  t.crashes <- (fiber.name, exn) :: t.crashes;
  emit t
    (Event.Crash
       { fid = fiber.fid; name = fiber.name; error = Printexc.to_string exn })

(* ---- the suspension path ---------------------------------------------

   Effect fibers and stackless fibers block, wake, finish and crash
   through the helpers below, so a program emits the same events at the
   same points, and enqueues its resumptions with the same [seq],
   whichever way it runs. *)

(* Suspend side: the fiber waits for [reason] from here on.  Inlined so
   that a literal reason ("sleep") makes the [Block] kind a static
   constant instead of a fresh block per suspension. *)
let[@inline] block t fiber reason =
  fiber.state <- Blocked reason;
  emit t (Event.Block { reason })

(* Resume side, first thing in the resumption task: the fiber runs
   again, causally after its waker (whose clock the drain loop restored
   as the ambient one).  Returns the context to restore afterwards. *)
let[@inline] wake t fiber =
  let prev = t.current in
  t.current <- Some fiber;
  fiber.state <- Runnable;
  fiber.clock <- Vclock.merge fiber.clock t.amb_clock;
  prev

(* Code that returns without blocking has finished the fiber. *)
let finish fiber =
  match fiber.state with Runnable -> fiber.state <- Finished | _ -> ()

(* One step of a stackless fiber: it either ends in a blocking call
   (the fiber stays blocked), returns (the fiber is done) or raises. *)
let step t fiber k v =
  match k v with
  | () -> finish fiber
  | exception exn -> handle_crash t fiber exn

(* Raised into fibers still parked when their engine is released. *)
exception Released

(* An effect fiber's timer task, built once per fiber: a sleep parks
   its continuation in the fiber instead of allocating a closure over
   it, and {!release} can reach it there if the run ends first. *)
let on_timer t fiber () =
  match fiber.parked with
  | Asleep k ->
    fiber.parked <- Unparked;
    let prev = wake t fiber in
    Effect.Deep.continue k ();
    t.current <- prev
  | _ -> ()

let effc : type b.
    t -> fiber -> (unit -> unit) -> b Effect.t ->
    ((b, unit) Effect.Deep.continuation -> unit) option =
 fun t fiber timer eff ->
  match eff with
  | Suspend_with (reason, register) ->
    Some
      (fun (k : (b, unit) Effect.Deep.continuation) ->
        block t fiber reason;
        let p = Parked k in
        fiber.parked <- p;
        register (fun (r : (b, exn) result) ->
            if fiber.parked == p then begin
              fiber.parked <- Unparked;
              enqueue t t.now (fun () ->
                  let prev = wake t fiber in
                  (match r with
                  | Ok v -> Effect.Deep.continue k v
                  | Error e -> Effect.Deep.discontinue k e);
                  t.current <- prev)
            end))
  | Sleep_for d ->
    Some
      (fun (k : (b, unit) Effect.Deep.continuation) ->
        block t fiber "sleep";
        fiber.parked <- Asleep k;
        schedule_after t d timer)
  | _ -> None

(* [?fid] pins the fiber id explicitly.  Sharded runs need ids that are
   stable across partitionings — fiber N is node N on every shard
   count — so the per-engine [next_fid] counter cannot assign them. *)
let new_fiber t ~who ?fid ~name ~daemon () =
  let fid =
    match fid with
    | Some fid ->
      if fid < 0 then invalid_arg (who ^ ": negative fid");
      if Hashtbl.mem t.fids fid then
        invalid_arg (Printf.sprintf "%s: fid %d already used" who fid);
      t.next_fid <- max t.next_fid (fid + 1);
      fid
    | None ->
      let fid = t.next_fid in
      t.next_fid <- fid + 1;
      fid
  in
  emit t (Event.Spawn { fid; name });
  (* The child starts causally after the spawn event in its parent. *)
  let fiber =
    { fid; name; daemon; state = Runnable;
      clock = Vclock.tick (current_clock t) fid; parked = Unparked }
  in
  Hashtbl.replace t.fids fid fiber;
  t.fibers <- fiber :: t.fibers;
  fiber

let spawn t ?fid ?(name = "fiber") ?(daemon = false) f =
  let fiber = new_fiber t ~who:"Engine.spawn" ?fid ~name ~daemon () in
  enqueue t t.now (fun () ->
      let prev = t.current in
      t.current <- Some fiber;
      let timer = on_timer t fiber in
      let handler =
        {
          Effect.Deep.retc = (fun () -> finish fiber);
          exnc =
            (function
            | Released -> fiber.state <- Finished
            | exn -> handle_crash t fiber exn);
          effc = (fun eff -> effc t fiber timer eff);
        }
      in
      Effect.Deep.match_with f () handler;
      t.current <- prev);
  fiber

let spawn_steps t ?fid ?(name = "fiber") ?(daemon = false) f =
  let fiber = new_fiber t ~who:"Engine.spawn_steps" ?fid ~name ~daemon () in
  enqueue t t.now (fun () ->
      let prev = t.current in
      t.current <- Some fiber;
      step t fiber f ();
      t.current <- prev);
  fiber

let current_exn t who =
  match t.current with
  | Some f -> f
  | None -> invalid_arg (who ^ ": not inside a fiber")

let suspend t ?(reason = "wait") register =
  ignore (current_exn t "Engine.suspend");
  Effect.perform (Suspend_with (reason, register))

let sleep t d =
  ignore (current_exn t "Engine.suspend");
  Effect.perform (Sleep_for d)

let yield t =
  suspend t ~reason:"yield" (fun waker ->
      enqueue t t.now (fun () -> waker (Ok ())))

(* The stackless counterparts of [suspend] and [sleep]: the same block,
   the same waker (fire-once, one resumption task at the waker's time)
   and the same timer task, with the rest of the fiber given as [k]
   instead of captured as a continuation. *)
let suspend_then t ?(reason = "wait") register k =
  let fiber = current_exn t "Engine.suspend_then" in
  block t fiber reason;
  let p = Pending k in
  fiber.parked <- p;
  register (fun r ->
      if fiber.parked == p then begin
        fiber.parked <- Unparked;
        enqueue t t.now (fun () ->
            let prev = wake t fiber in
            (match r with
            | Ok v -> step t fiber k v
            | Error e -> handle_crash t fiber e);
            t.current <- prev)
      end)

let sleep_then t d k =
  let fiber = current_exn t "Engine.sleep_then" in
  block t fiber "sleep";
  schedule_after t d (fun () ->
      let prev = wake t fiber in
      step t fiber k ();
      t.current <- prev)

(* A continuation dropped without being resumed never frees its stack,
   so every fiber still parked when a run is over is discontinued with
   [Released] (its [exnc] finishes it silently).  Cleanup code that
   parks again is discontinued again on the next pass, up to a bound;
   the consumers go first, so nothing the fibers emit on the way out
   reaches an observer. *)
let release_passes = 8

let release t =
  t.consumers <- [];
  let discontinue fiber k =
    fiber.parked <- Unparked;
    let prev = t.current in
    t.current <- Some fiber;
    fiber.state <- Runnable;
    Effect.Deep.discontinue k Released;
    t.current <- prev
  in
  let rec pass n =
    let resumed = ref false in
    List.iter
      (fun fiber ->
        match fiber.parked with
        | Unparked | Pending _ -> ()
        | Parked k ->
          resumed := true;
          discontinue fiber k
        | Asleep k ->
          resumed := true;
          discontinue fiber k)
      t.fibers;
    if !resumed && n > 1 then pass (n - 1)
  in
  pass release_passes

let blocked_fibers t = List.filter_map fiber_blocked t.fibers

let crashed t = List.rev t.crashes

let fiber_state_name f =
  match f.state with
  | Runnable -> "runnable"
  | Blocked reason -> "blocked:" ^ reason
  | Finished -> "finished"
  | Crashed _ -> "crashed"

type fiber_info = {
  fi_id : int;
  fi_name : string;
  fi_daemon : bool;
  fi_state : string;
}

type view = {
  v_now : Time.t;
  v_pending : int;  (** tasks still queued *)
  v_blocked : string list;  (** non-daemon fibers stuck at a suspension *)
  v_fibers : fiber_info list;  (** every fiber ever spawned, by id *)
  v_crashes : (string * string) list;
  v_trace : (Time.t * string) list;  (** most recent trace window *)
  v_trace_hash : int64;
  v_trace_count : int;
  v_events : Event.t array;  (** structured event log, oldest first *)
  v_events_hash : int64;  (** incremental fingerprint of the full stream *)
  v_events_dropped : int;  (** events lost to the capacity cap *)
}

let view ?(trace_window = 64) t =
  {
    v_now = t.now;
    v_pending = Taskq.length t.tasks;
    v_blocked = blocked_fibers t;
    v_fibers =
      List.rev_map
        (fun f ->
          {
            fi_id = f.fid;
            fi_name = f.name;
            fi_daemon = f.daemon;
            fi_state = fiber_state_name f;
          })
        t.fibers;
    v_crashes =
      List.rev_map (fun (n, e) -> (n, Printexc.to_string e)) t.crashes;
    v_trace = Trace.recent t.trace_buf trace_window;
    v_trace_hash = Trace.hash t.trace_buf;
    v_trace_count = Trace.count t.trace_buf;
    v_events = events t;
    v_events_hash = Int64.of_int t.events_hash;
    v_events_dropped = t.events_total - t.ev_len;
  }

let drain t ~limit =
  let continue = ref true in
  while !continue && not t.stopped do
    match Taskq.peek_time t.tasks with
    | None -> continue := false
    | Some time_ns ->
      (match limit with
      | Some l when time_ns > Time.to_ns l -> continue := false
      | _ -> (
        match Taskq.pop t.tasks with
        | None -> continue := false
        | Some e ->
          t.now <- Time.ns e.Taskq.time;
          t.amb_clock <- e.Taskq.clk;
          e.Taskq.fn ()))
  done

let check_crashes t =
  match (t.on_crash, t.crashes) with
  | `Raise, (name, exn) :: _ -> raise (Fiber_crash (name, exn))
  | _ -> ()

let run ?(expect_quiescent = false) t =
  t.stopped <- false;
  drain t ~limit:None;
  check_crashes t;
  if expect_quiescent then
    match blocked_fibers t with
    | [] -> ()
    | names -> raise (Deadlock (String.concat ", " names))

let run_until t limit =
  t.stopped <- false;
  drain t ~limit:(Some limit);
  if Time.(t.now < limit) then t.now <- limit;
  check_crashes t

let stop t = t.stopped <- true
