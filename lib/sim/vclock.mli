(** Sparse vector clocks over fiber ids.

    A clock maps fiber ids to event counters; absent entries are zero.
    Clocks order the structured trace events causally: an event [a]
    happened before [b] iff [leq a.clock b.clock] and the clocks differ,
    and two events {e race} when their clocks are incomparable
    ({!concurrent}).  Values are immutable: an operation returns a new
    clock (which may share structure with its inputs, or be one of them
    when nothing changes), so a snapshot stored in an event never
    changes.

    {!tick} by the fiber that ticked last costs O(1); {!merge} and
    {!leq} cost in the entries where the two clocks differ, not in
    their width. *)

type t

val empty : t

val get : t -> int -> int
(** Counter for one fiber id (0 when absent). *)

val tick : t -> int -> t
(** Increment one fiber's component. *)

val merge : t -> t -> t
(** Pointwise maximum — the receive/join operation. *)

val leq : t -> t -> bool
(** Pointwise [<=]: [leq a b] means every component of [a] is at most
    the corresponding component of [b]. *)

val compare_causal : t -> t -> [ `Equal | `Before | `After | `Concurrent ]
(** Causal relation between the events carrying these clocks. *)

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]: the events race. *)

val to_string : t -> string
(** ["{0:3 2:1}"] — fiber id : counter pairs, ascending by id. *)
