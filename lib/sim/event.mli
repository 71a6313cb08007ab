(** Structured, typed trace events with vector-clock timestamps.

    The engine's old trace was a stream of strings; analysis tools could
    only grep it.  Events carry the same information in typed form, keyed
    by the fiber that produced them and (for communication events) the
    kernel object they touched, plus a {!Vclock} snapshot that captures
    the causal past of the event.  The string trace is kept as a {e
    rendering} of the legacy event kinds ({!Spawn}, {!Crash}, {!Note}),
    byte-identical to what earlier versions recorded, so stored trace
    hashes remain comparable across versions; the new kinds live only in
    the structured log. *)

type kind =
  | Spawn of { fid : int; name : string }
  | Crash of { fid : int; name : string; error : string }
  | Note of string  (** free-form legacy trace line *)
  | Block of { reason : string }  (** a fiber suspended *)
  | Send of { obj : string; op : string; unordered : bool }
      (** a message entered the queue named [obj] *)
  | Receive of { obj : string; op : string }
      (** a message left the queue named [obj] *)
  | Signal of { obj : string; woke : bool }
      (** a wakeup hint was raised on [obj]; [woke] tells whether a
          waiter consumed it immediately *)
  | Signal_seen of { obj : string }
      (** a previously latched signal on [obj] was consumed *)
  | Wait of { obj : string }
      (** a consumer committed to waiting on [obj] (the check-then-block
          point of a lost-signal window) *)
  | Link_move of { obj : string }
      (** a link end of the kernel object [obj] was adopted after moving *)
  | Drop of { obj : string; op : string }
      (** a frame on the transport named [obj] was lost — either an
          injected fault or modeled medium loss (CSMA broadcast) *)
  | Fault of { what : string; obj : string }
      (** a non-drop injected fault fired on [obj]: ["dup"], ["delay"],
          ["partition"], ["crash"], ["restart"], ... *)

type t = {
  ev_time : Time.t;
  ev_fiber : int;  (** emitting fiber id, [-1] in scheduler context *)
  ev_clock : Vclock.t;
  ev_kind : kind;
}

val filler : t
(** An inert event for the unused slots of event arrays.  OCaml forces a
    minor collection whenever it makes an array of more than 256 words
    seeded with a minor-heap value, as a just-emitted event is; this one
    is allocated once, at start-up, and is long promoted by then. *)

val obj : t -> string option
(** The kernel object an event is keyed by, if any. *)

val kind_tag : kind -> int
(** Stable small integer per kind (the two [Signal] polarities count as
    distinct kinds), folded into the engine's incremental event-stream
    hash without rendering anything. *)

val legacy_render : t -> string option
(** The string-trace line for legacy kinds ([Spawn]/[Crash]/[Note]),
    identical to what pre-structured versions recorded; [None] for the
    new kinds, which must not perturb the legacy stream. *)

val kind_to_string : kind -> string
(** Short human-readable form of the kind alone, e.g.
    ["send ep.req req"] — the label streaming analyzers use when citing
    an event they did not retain. *)

val describe : t -> string
(** Full human-readable form, including the vector clock. *)
