(** Bounded exhaustive schedule explorer over the deterministic simulator.

    Enumerates every interleaving of message deliveries and timer firings
    for a small configuration by closing the network's delivery gate
    ({!Bft_net.Network.set_gate}) and choosing, at each state, which held
    message to release next — or whether to let virtual time advance to
    the next armed timer instead. Paths are represented as ordinary fault
    schedules (a [Hold_all] prefix plus timed [Release] actions), so every
    state is (re)built by replaying its schedule through
    {!Bft_check.Runner.prepare} — the exact machinery [bftctl fuzz
    --schedule] uses. Counterexamples therefore replay, and shrink,
    through the existing fuzzer tooling unchanged.

    Soundness caveats (see DESIGN.md, "Exhaustive exploration"):
    - Timer firings are not permuted among themselves: a tick advances
      time to the next armed deadline, so timers fire in deadline order.
      Delivery/timer interleavings are exhaustive; timer/timer ones are
      not.
    - With [fifo_links] (default), messages on one (src, dst) link are
      delivered in send order; only cross-link interleavings are
      enumerated. Disable it for full reordering (rarely exhaustible).
    - State hashing abstracts absolute virtual time (it keeps the firing
      {e order} of pending events, not their deadlines), so two states
      that differ only in how close they sit to the tick horizon may be
      identified, under-approximating coverage near the horizon.
    - With [stop_at_completion] (default), paths are cut as soon as the
      workload commits; states reachable only by post-completion faults
      are not visited. *)

type strategy = Bfs | Dfs

type config = {
  seed : int;
  f : int;
  clients : int;
  ops_per_client : int;
  view_bound : int;
      (** liveness: flag executions whose view passes this bound without
          the workload completing *)
  vc_timeout_us : float;
  checkpoint_interval : int;
  tick_horizon_us : float;
      (** virtual-time bound: no tick advances past this, cutting infinite
          timer chains (retransmission backoff). Paths cut here are probed
          for liveness rather than called terminal. *)
  probe_drain_us : float;
      (** virtual time the liveness probe grants after releasing all held
          messages ({!Bft_check.Runner.params.drain_us} of the probe) *)
  max_depth : int;  (** per-path bound on choices (releases + ticks) *)
  max_states : int;  (** total states built (budget) *)
  max_wall_s : float;  (** wall-clock budget, seconds *)
  strategy : strategy;
  por : bool;  (** sleep-set partial-order reduction *)
  fifo_links : bool;
      (** restrict delivery choices to the oldest held message per
          (src, dst) link — per-link FIFO order, the reduction that makes
          small configs exhaustible (the fuzzer still covers arbitrary
          reordering); [false] explores full reordering *)
  stop_at_completion : bool;
  stop_on_violation : bool;
  suppress_vc_timer : bool;
      (** inject {!Bft_core.Config.debug_no_vc_timer} (validation that the
          liveness oracles catch a real stall) *)
  prefix : Bft_check.Schedule.t;
      (** fault events injected before exploration (e.g. mute a replica);
          exploration releases are slotted after the delivery gate closes
          at time 0 *)
}

val default_config : seed:int -> config
(** n=4 ([f]=1), one client, one op, view bound 2, BFS, POR on, 250ms tick
    horizon — the pinned exhaustive configuration. *)

type stats = {
  mutable states_built : int;
      (** states materialized by schedule replay (budgeted by
          [max_states]) *)
  mutable states_visited : int;  (** distinct states (post hash-dedup) *)
  mutable states_expanded : int;
  mutable transitions : int;  (** children enqueued *)
  mutable por_pruned : int;  (** delivery choices skipped by sleep sets *)
  mutable hash_pruned : int;  (** revisits pruned by canonical hashing *)
  mutable terminals : int;
      (** distinct maximal states (workload done or stuck) — like
          [states_visited], invariant across search order and POR *)
  mutable cuts : int;  (** distinct states cut by horizon or depth budget *)
  mutable probes : int;  (** liveness probes run at cuts *)
  mutable slot_skipped : int;
      (** deliveries unschedulable for lack of a release slot (< 2ns gap) *)
  mutable max_depth_seen : int;
}

type violation = {
  v_kind : [ `Safety | `Liveness ];
  v_failures : string list;  (** oracle failures, ["name: reason"] *)
  v_depth : int;
  v_schedule : Bft_check.Schedule.t;
      (** full replayable schedule: gate prefix + releases (+ probe tail
          for liveness violations) *)
  v_params : Bft_check.Runner.params;
      (** parameters under which [v_schedule] reproduces [v_failures] *)
  v_replay : string;  (** [Runner.replay_line v_params v_schedule] *)
}

type outcome = {
  o_config : config;
  o_stats : stats;
  o_violations : violation list;
  o_exhausted : bool;
      (** the frontier drained with no budget hit: every reachable state
          (modulo the documented abstractions) was visited *)
}

val run : ?log:(string -> unit) -> config -> outcome
(** Explore. [log] receives occasional one-line progress notes. *)

val pp_stats : Format.formatter -> stats -> unit
val stats_json : stats -> string
(** Single-line JSON object (stable key order) for the CI artifact. *)
