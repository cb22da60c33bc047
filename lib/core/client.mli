(** Client proxy (Section 2.3.2 and the proxy automaton of Section 2.4.4).

    [invoke] sends a request to the primary (or multicasts it when the
    operation is large or read-only), collects replies, and fires the
    callback once a correct result is certain:
    - f+1 matching non-tentative replies (weak certificate), or
    - 2f+1 matching replies when any are tentative (Section 5.1.2) or the
      request was read-only (Section 5.1.3).

    Under the digest-replies optimization only the designated replier
    returns the full result; the client matches the rest by digest. On
    timeout the request is retransmitted to all replicas with exponential
    backoff capped at [Config.client_retry_max_us]; replies already
    collected for the same timestamp are kept across retransmissions. A
    read-only request that cannot assemble a quorum is retried as a
    regular read-write request (promotion), which voids the read-only
    replies collected so far. *)

type t

type deps = {
  cfg : Config.t;
  net : Message.envelope Bft_net.Network.t;
  registry : Bft_crypto.Signature.registry;
  keychain : Bft_crypto.Keychain.t;
  signer : Bft_crypto.Signature.signer;
  rng : Bft_util.Rng.t;
}

val create : ?obs:Bft_obs.Obs.t -> deps -> id:int -> t
(** Registers the client's network handler. One outstanding request at a
    time (the paper's well-formedness condition). [obs] defaults to the
    disabled sink. *)

val id : t -> int

val invoke :
  t -> ?read_only:bool -> op:string -> (result:string -> latency_us:float -> unit) -> unit
(** Raises [Invalid_argument] if a request is already outstanding. *)

val busy : t -> bool

val completed : t -> int
(** Number of operations completed since creation. *)

val retransmissions : t -> int

val srtt_us : t -> float
(** Smoothed measured response time driving the adaptive retransmission
    timeout (Section 5.2). Exposed for tests and metrics. *)

val pending_retries : t -> int option
(** Retransmission count of the in-flight request, if any (tests). *)

(** {2 Fault injection} *)

val byzantine_partial_auth : t -> bool -> unit
(** Corrupt part of the request authenticator (some replicas can verify it,
    others cannot) — the faulty-client scenario of Section 3.2.2. *)

val flood : t -> interval_us:float -> unit
(** Misbehaving-client attack: send a fresh authenticated request to all
    replicas every [interval_us] microseconds, open-loop, ignoring replies.
    Idempotent while already flooding. Raises [Invalid_argument] on a
    non-positive interval. *)

val flood_stop : t -> unit
(** Stop flooding; a no-op when not flooding. *)

(** {2 Reply certificates}

    Shared with the synthetic cohort driver, so both proxies accept a
    result by the same rule. *)

type reply_info = { ri_tentative : bool; ri_digest : string; ri_full : string option }
(** One replica's reply: tentative flag, result digest, full result if it
    carried one. *)

val reply_info : Message.reply -> reply_info
(** Hashes a full result to its digest; no cost is charged. *)

val tally :
  Config.t ->
  reply_info option array ->
  quorum_only:bool ->
  replica:int ->
  reply_info ->
  string option
(** [tally cfg replies ~quorum_only ~replica ri] records [ri] as
    [replica]'s reply in [replies] (length n, indexed by replica id) and
    returns the result once [ri]'s digest group holds a certificate and a
    full result: f+1 non-tentative replies or 2f+1 replies, or only the
    latter when [quorum_only] (an unpromoted read-only request). Replica
    ids outside 0..n-1 are ignored. Counts only the arriving reply's
    group: the caller must stop tallying once a result is returned. *)

val state_digest : t -> string
(** Canonical, time-abstract fingerprint of the client-proxy state for the
    exhaustive explorer (in-flight request, collected replies sorted by
    replica, completion count; no clock-derived values). *)
