(** Canonical wire encoding of protocol messages.

    The encoding serves three purposes:
    - the byte string over which MACs, authenticators and signatures are
      computed (injective per message type, so authenticating the encoding
      authenticates the message);
    - the basis for message digests (request digests, batch digests,
      view-change digests);
    - the size model: the simulated network charges wire and CPU time per
      encoded byte, plus the authentication token's own size.

    Integers are 8-byte little-endian; variable-size fields are
    length-prefixed; every message starts with a distinct tag byte. *)

val encode : Message.t -> string

val decode : string -> (Message.t, string) result
(** Inverse of {!encode}: a message encodes/decodes to itself exactly
    (authentication tokens inside inline batch elements are not part of the
    wire image and decode as [Auth_none]). Malformed input yields a
    human-readable [Error]. *)

val size : Message.t -> int
(** [size m = String.length (encode m)], memoized per distinct message so
    the per-byte cost model does not pay a fresh serialization on every
    charge. *)

val auth_size : Message.auth_token -> int

(** {2 Encode-once envelopes}

    An envelope carries a {!Message.enc_cache}; these helpers fill it at
    most once. The sender encodes the body to authenticate it, and since
    the simulated network delivers the same physical envelope, receivers
    verify against the identical string — one serialization per message
    lifetime, shared by sign/MAC, [envelope_size], transmission and
    verification. *)

val cached_encode :
  ?arena:Bft_net.Wire_arena.t -> Message.enc_cache -> Message.t -> string
(** Canonical encoding of the body, memoized in the cache. [arena] routes
    the encode through a caller-owned allocate-once buffer (each node keeps
    its own); the default is a module-scratch arena. The bytes produced are
    identical either way. *)

val envelope_bytes : Message.envelope -> string
(** [cached_encode e.enc e.body]. *)

val envelope_digest : Message.envelope -> Message.digest
(** Digest of {!envelope_bytes}, also memoized. *)

val envelope_size : Message.envelope -> int
(** Header + cached body bytes + authentication token size; O(1) after the
    first call on a given envelope. *)

val clear_memos : unit -> unit
(** Drop every digest/size memo table (tests use this to compare cached
    against freshly computed values; never needed for correctness). *)

val request_digest : Message.request -> Message.digest
(** Digest identifying a request: covers client, timestamp, operation and
    flags. *)

val batch_digest : Message.batch_elem list -> string -> Message.digest
(** [batch_digest batch nondet] identifies the ordered content of a
    pre-prepare independently of its view/sequence assignment, so a
    re-proposal in a later view keeps the same digest. Inline requests
    contribute their request digest. *)

val null_batch_digest : Message.digest
(** Digest of the null request batch chosen for gaps in new views. *)

val view_change_digest : Message.view_change -> Message.digest
val result_digest : string -> Message.digest
