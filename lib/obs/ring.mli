(** Fixed-capacity ring buffer for trace events.

    [push] overwrites the oldest element once the buffer is full, so a
    replica's trace always holds the most recent [capacity] events at O(1)
    cost per event and bounded memory — a run of any length can be traced
    and the tail dumped after the fact. *)

type 'a t

val create : int -> 'a t
(** [create cap] is an empty ring of capacity [cap] (at least 1). *)

val length : 'a t -> int
(** Elements currently held, at most [capacity]. *)

val total : 'a t -> int
(** Elements ever pushed, including the overwritten ones. *)

val push : 'a t -> 'a -> unit

val to_list : 'a t -> 'a list
(** Held elements, oldest first. *)

val clear : 'a t -> unit
