(** Verification-pool stub. MAC and digest checks run inline on the
    calling domain; there is no pool. *)

val default_domains : unit -> int
(** Number of domains that verify MACs and digests: always 1. Kept for
    tools that record it in a host fingerprint. *)
