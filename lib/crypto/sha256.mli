(** SHA-256 (FIPS 180-4). The compression function is a C kernel: SHA-NI
    on x86-64 hosts that have it, portable C elsewhere, chosen once at
    program load. Output is the same on every host.

    The paper uses MD5 for message and state digests; we substitute SHA-256
    (see DESIGN.md). Digest cost is charged separately by the network cost
    model, so the choice of hash does not affect reproduced performance
    shapes. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
val feed_sub : ctx -> string -> int -> int -> unit

val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
(** Zero-copy feed from a byte buffer: no intermediate string is
    allocated. The bytes are only read during the call. *)

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot digest of a full string. Runs on module scratch state, so
    it must not be called from more than one domain at a time. *)

val digest_bytes : Bytes.t -> int -> int -> string
(** [digest_bytes b pos len]: one-shot digest of a byte-buffer range with
    no intermediate string allocation (the arena-backed encode pipeline
    digests wire bytes in place). The bytes are only read during the
    call. *)

type midstate
(** Immutable snapshot of the hash state at a block boundary. *)

val midstate : ctx -> midstate
(** Capture the state of [ctx]. Raises [Invalid_argument] unless the bytes
    fed so far are a multiple of the 64-byte block size (always true after
    absorbing an HMAC key block). *)

val digest_from_midstate : midstate -> string -> string
(** [digest_from_midstate m s] equals what [finalize] would return after
    feeding [s] to the context [m] was captured from — but runs on the
    allocation-free one-shot path. The midstate is not consumed. *)

val hexdigest : string -> string
