(** Deterministic paged record arena — the backing store for dirty-aware
    service snapshots (the copy-on-write memory of Section 5.3 recast for
    a byte-image world).

    A service keeps its state as (key, value) records inside a flat byte
    arena carved into fixed-size pages. Mutations write through the arena
    and mark only the pages whose bytes actually change, so a checkpoint
    can hand {!pages} and {!drain_dirty} straight to
    [Partition_tree.update] and pay O(modified pages) instead of
    re-encoding the world.

    Determinism is load-bearing: every replica must produce byte-identical
    arenas from the same operation sequence, including replicas that
    restored from a snapshot mid-history. Hence:
    - allocation is pure bump allocation — freed space is zeroed in place
      and never reused, so layout depends only on allocation order;
    - overwriting a record with one of equal encoded size happens in
      place (the common case: fixed-width values);
    - the bump pointer lives in a fixed-width header record at offset 0,
      so it survives a snapshot/restore round trip exactly.

    The arena leaks freed space by design (a size-changing update or
    delete abandons the old region); bounded-size services with
    fixed-width records — reply caches, counters, slab-like tables — never
    leak. This is the simulator-grade trade-off for exact reproducibility.

    Page 0 is dirtied by every allocation (the header's bump pointer
    changes); in-place overwrites dirty only the pages they touch. *)

type t

val create : ?initial_pages:int -> page_size:int -> unit -> t
(** [page_size] must be at least 32 bytes (the header must fit in page
    0). Capacity grows by doubling; fresh pages are zero and marked
    dirty. *)

val set : t -> key:string -> value:string -> unit
(** Insert or update a record. Keys and values are arbitrary byte
    strings (the encoding is length-prefixed). *)

val remove : t -> key:string -> bool
(** Zero the record's region; [false] if the key was absent. *)

val find : t -> key:string -> string option
val iter : t -> (string -> string -> unit) -> unit
(** Iteration order is unspecified — callers rebuild unordered native
    state from it. *)

val page_size : t -> int

val pages : t -> string array
(** The current image as full pages, each exactly [page_size] bytes.
    Unchanged pages return the {e same} string as the previous call —
    structural sharing with retained partition trees comes for free. *)

val drain_dirty : t -> int list
(** Sorted indices of pages whose bytes changed since the previous drain
    (over-approximation: a page rewritten with identical bytes is not
    reported). Clears the set. *)

val reset : t -> unit
(** Empty the arena and shrink it back to one page — used when a service
    rebuilds its image from scratch in a canonical order (so capacity,
    layout and therefore digests do not depend on pre-reset history). *)

val image : t -> string
(** The raw arena bytes — equal to [String.concat "" (pages t)]. *)

val decode :
  page_size:int -> string -> ((string * string) list, string) result
(** Parse an arena image without touching any state: the records in
    offset order, or an error for a malformed image (bad header,
    truncated or overlapping records, nonzero unallocated tail). Lets a
    service validate payloads before committing with {!restore}. *)

val restore : t -> string -> ((string * string) list, string) result
(** Atomically replace the arena with a decoded image; on [Error] the
    arena is untouched. All pages become dirty. *)
