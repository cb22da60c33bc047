(** Per-sequence-number message log with water marks and certificate
    tracking (Sections 2.3.3-2.3.4).

    The log keeps, for every sequence number between the low water mark [h]
    (exclusive) and [h + L] (inclusive), the accepted pre-prepare and the
    prepare/commit messages collected for it, and answers the certificate
    questions the protocol asks: is the batch {e prepared} (pre-prepare +
    2f matching prepares from distinct backups), is it {e committed} (2f+1
    matching commits)? Garbage collection truncates everything at or below
    a new stable checkpoint.

    The log is a ring of [log_size] slots indexed by [seq mod log_size],
    and each entry keeps one prepare and one commit slot per replica, so
    every operation costs O(1), O(n) or O(L), never more. *)

type digest = string

type entry = {
  seq : int;
  mutable pp : Message.pre_prepare option;  (** accepted pre-prepare *)
  mutable pp_digest : digest option;  (** its batch digest *)
  mutable pp_view : int;  (** view of the accepted pre-prepare *)
  mutable self_preprepared : bool;
      (** this replica sent the pre-prepare or a prepare for it *)
  prepares : (int * digest) option array;
      (** indexed by backup id: its (view, digest), length n *)
  commits : (int * digest) option array;
      (** indexed by replica id: its (view, digest), length n *)
  mutable executed : bool;
  mutable exec_tentative : bool;  (** executed tentatively, not yet committed *)
}

type t

val create : Config.t -> t
val low_mark : t -> int

val entry : t -> int -> entry option
(** [None] when the sequence number is outside the water marks. *)

val find : t -> int -> entry
(** Like {!entry} but creates the entry; raises [Invalid_argument] outside
    the water marks. *)

val in_window : t -> int -> bool

val accept_pre_prepare : t -> view:int -> Message.pre_prepare -> digest -> bool
(** Record an accepted pre-prepare. Returns [false] (no change) if a
    different digest was already accepted for this view and sequence. *)

val add_prepare : t -> Message.prepare -> unit
(** Record a prepare, replacing the sender's earlier one for that sequence
    number. A prepare outside the water marks, or from a replica id outside
    0..n-1, is ignored and creates no entry. *)

val add_commit : t -> Message.commit -> unit
(** As {!add_prepare}, for commits. *)

val prepared : t -> view:int -> seq:int -> bool
(** Prepared certificate in the given view (Section 2.3.3). *)

val committed : t -> view:int -> seq:int -> bool
(** Committed certificate: prepared plus 2f+1 matching commits. The view of
    commits may trail the current view after a view change, so commits are
    matched on digest and sequence only. *)

val commit_count : t -> seq:int -> digest -> int

val truncate : t -> int -> unit
(** [truncate t n]: new low water mark [n]; drop entries [<= n]. *)

val iter_window : t -> (entry -> unit) -> unit
(** Iterate existing entries in increasing sequence order. [f] must not
    add, truncate or clear entries. *)

val clear_entries : t -> unit
(** Drop every entry but keep the low water mark (used when a view-change
    message is sent: the paper's "clears its log"). *)

(** What a peer's status message claims about one sequence number. *)
type claim = Unclaimed | Claimed_prepared | Claimed_committed

val claims :
  lo:int -> size:int -> prepared:int list -> committed:int list -> int -> claim
(** [claims ~lo ~size ~prepared ~committed] marks the claim lists once in a
    table over [lo+1 .. lo+size] and returns the lookup: [Claimed_committed]
    if [n] is in [committed], else [Claimed_prepared] if it is in
    [prepared], else [Unclaimed]. Claimed values outside the range are
    ignored, and the lookup answers [Unclaimed] outside it. *)
