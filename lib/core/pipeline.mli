(** The ordering pipeline of one replica: every request digest that is
    queued at the primary (in arrival order: the primary's request FIFO,
    Section 5.1.4), assigned to a batch and not yet executed, or
    awaited from the primary by a backup (the waiting set that drives the
    view-change timer, Section 2.3.5).

    One table maps each digest to a slot holding three independent flags
    (queued, assigned, waiting with its arrival time); a digest leaves the
    table when its last flag clears. A per-client index answers the
    admission quota's question — how many distinct requests does this
    client have in the pipeline — in O(1), and lets the superseded-request
    purge visit only that client's digests.

    A digest counts toward its client exactly when it is in the pipeline
    {e and} its request body is stored at the replica. The replica reports
    body stores ([body_stored]) and losses ([crash]); [enqueue] and
    [note_waiting] may only be called once the body is stored. *)

type t

val create : unit -> t

val mem : t -> string -> bool
(** Queued, assigned or waiting. *)

val enqueue : t -> string -> client:int -> ts:int64 -> bool
(** Append the digest to the queue unless it is already queued or
    assigned; [true] when it was appended. The body must be stored. *)

val take : t -> int -> string list
(** Pop up to [k] digests off the queue, oldest first, and mark each one
    assigned: they join the next batch. *)

val queued_count : t -> int

val unassign : t -> string -> unit
(** The digest's batch executed: clear its assigned flag. *)

val reset_assigned : t -> unit
(** A view change voids every assignment: clear all assigned flags. *)

val note_waiting : t -> string -> client:int -> ts:int64 -> now:Bft_sim.Engine.time -> bool
(** Mark the digest waiting since [now] unless it already is; [true] when
    it was marked. The body must be stored. *)

val clear_waiting : t -> string -> Bft_sim.Engine.time option
(** Clear the waiting flag; the arrival time if it was set. *)

val purge_waiting : t -> client:int -> ts:int64 -> bool
(** Clear the waiting flag of every stored request of [client] with a
    timestamp at or below [ts]; [true] when any was cleared. Visits only
    that client's digests. *)

val waiting_count : t -> int

val body_stored : t -> string -> unit
(** The replica stored the body of this digest: if it is in the pipeline
    it counts toward its client again (see [crash]). *)

val crash : t -> unit
(** The replica lost every request body and its queue and waiting set:
    empty the queue and clear all waiting flags. Assigned digests stay,
    but count toward no client until [body_stored] reports their body
    again. *)

val inflight : t -> int -> int
(** Distinct digests of this client in the pipeline with a stored body. *)

val queued_digests : t -> string list
(** Oldest first (state fingerprints). *)

val assigned_digests : t -> string list
val waiting_digests : t -> string list
(** Sorted ascending (state fingerprints, deterministic relay order). *)
