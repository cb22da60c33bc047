(* Client cohorts and adaptive batching: the pairwise cohort must be
   event-for-event identical to the per-client driver it replaced, derived
   cohorts must commit their workload through group-derived keys, and the
   adaptive batch sizer must stay deterministic (and invisible when off). *)

open Bft_check
module Obs = Bft_obs.Obs
module Hist = Bft_obs.Hist
module Keychain = Bft_crypto.Keychain

let params ?(seed = 1) ?(clients = 2) ?(ops = 10) () =
  { (Runner.default_params ~seed ~f:1) with Runner.clients; ops_per_client = ops }

let clean_run ?obs p =
  let r = Runner.run_schedule ?obs p [] in
  if r.Runner.failures <> [] then
    Alcotest.failf "oracles failed: %s" (String.concat "; " r.Runner.failures);
  r

(* --- pairwise equivalence --- *)

let test_pairwise_spec_matches_default () =
  (* an explicit pairwise spec and the default driver are the same code
     path by construction; this pins them together against future drift *)
  let base = clean_run (params ~seed:7 ~clients:3 ~ops:6 ()) in
  let spec = Cohort.default_closed ~k:3 ~ops_per_client:6 in
  let cohorted =
    clean_run { (params ~seed:7 ~clients:3 ~ops:6 ()) with Runner.cohort = Some spec }
  in
  Alcotest.(check string)
    "identical committed-history digest" base.Runner.history_digest
    cohorted.Runner.history_digest;
  Alcotest.(check int) "identical op count" base.Runner.completed_ops
    cohorted.Runner.completed_ops

let test_pairwise_rejects_oversized_k () =
  let p =
    {
      (params ~clients:2 ())
      with
      Runner.cohort = Some (Cohort.default_closed ~k:64 ~ops_per_client:1);
    }
  in
  Alcotest.check_raises "k beyond real clients"
    (Invalid_argument "Cohort.drive: pairwise cohort needs k real clients") (fun () ->
      ignore (Runner.run_schedule p []))

let test_pairwise_rejects_open_loop () =
  let spec =
    { Cohort.k = 2; arrival = Open { rate_per_sec = 1000.0; total_ops = 10 }; keys = Pairwise }
  in
  Alcotest.check_raises "open loop needs derived keys"
    (Invalid_argument
       "Cohort.drive: open-loop arrivals need derived keys (a real client admits one \
        outstanding request)") (fun () ->
      ignore (Runner.run_schedule { (params ()) with Runner.cohort = Some spec } []))

(* --- derived cohorts --- *)

let test_derived_closed_completes () =
  let spec =
    {
      Cohort.k = 8;
      arrival = Closed { think_us = 100.0; ops_per_client = 5 };
      keys = Derived;
    }
  in
  let r = clean_run { (params ~seed:3 ()) with Runner.cohort = Some spec } in
  Alcotest.(check int) "all 40 synthesized ops commit" 40 r.Runner.completed_ops

let test_derived_open_loop_completes () =
  (* 300 arrivals round-robin over 1000 synthesized clients: every client
     issues at most one op, so no same-client reordering can orphan any *)
  let spec =
    {
      Cohort.k = 1000;
      arrival = Open { rate_per_sec = 20_000.0; total_ops = 300 };
      keys = Derived;
    }
  in
  let r = clean_run { (params ~seed:5 ()) with Runner.cohort = Some spec } in
  Alcotest.(check int) "all 300 open-loop ops commit" 300 r.Runner.completed_ops

let test_derived_bursty_completes () =
  let spec =
    {
      Cohort.k = 500;
      arrival =
        Bursty
          {
            base_per_sec = 2_000.0;
            peak_per_sec = 40_000.0;
            period_us = 10_000.0;
            total_ops = 200;
          };
      keys = Derived;
    }
  in
  let r = clean_run { (params ~seed:9 ()) with Runner.cohort = Some spec } in
  Alcotest.(check int) "all 200 bursty ops commit" 200 r.Runner.completed_ops

let test_derived_deterministic () =
  let spec =
    {
      Cohort.k = 64;
      arrival = Open { rate_per_sec = 10_000.0; total_ops = 100 };
      keys = Derived;
    }
  in
  let run () =
    clean_run { (params ~seed:11 ()) with Runner.cohort = Some spec }
  in
  let a = run () and b = run () in
  Alcotest.(check string) "same digest on same seed" a.Runner.history_digest
    b.Runner.history_digest

(* The latency-vs-offered-load curve of a 10^6-client derived cohort:
   open-loop Poisson arrivals, adaptive batching on, 250 ops per rate,
   stopped the moment the last op commits. Every row is virtual-time, so
   each pins the committed ops and the virtual time they took; throughput
   follows the offered rate up to the 50k/vs peak of 14,384 ops/vs. *)
let curve_pins =
  [
    (2_000.0, 250, 131_730_590L);
    (5_000.0, 250, 56_222_006L);
    (10_000.0, 250, 31_752_040L);
    (20_000.0, 250, 21_186_301L);
    (50_000.0, 250, 17_380_268L);
  ]

let test_million_client_curve_pinned () =
  List.iter
    (fun (rate, ops, vtime) ->
      let p =
        {
          (Runner.default_params ~seed:2 ~f:1) with
          Runner.adaptive_batch = true;
          cohort =
            Some
              {
                Cohort.k = 1_000_000;
                arrival = Open { rate_per_sec = rate; total_ops = 250 };
                keys = Derived;
              };
        }
      in
      let lv = Runner.prepare p [] in
      let cluster = lv.Runner.lv_cluster in
      ignore
        (Bft_core.Cluster.run_until ~timeout_us:(p.Runner.horizon_us +. p.Runner.drain_us)
           cluster (fun () -> !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops));
      let r = Runner.finish lv in
      let row = Printf.sprintf "offered %.0f/vs" rate in
      Alcotest.(check (list string)) (row ^ ": oracles") [] r.Runner.failures;
      Alcotest.(check int) (row ^ ": committed ops") ops r.Runner.completed_ops;
      Alcotest.(check int64) (row ^ ": virtual ns") vtime
        (Bft_sim.Engine.now (Bft_core.Cluster.engine cluster)))
    curve_pins

let test_derived_rejects_sig_auth () =
  (* derived cohorts synthesize MAC authenticators; there is no way to
     stand in for per-client signing keys *)
  let cluster =
    Bft_core.Cluster.create
      (Bft_core.Config.make ~auth_mode:Bft_core.Config.Sig_auth ~f:1 ())
  in
  let spec =
    { Cohort.k = 4; arrival = Closed { think_us = 100.0; ops_per_client = 1 }; keys = Derived }
  in
  Alcotest.check_raises "derived needs Mac_auth"
    (Invalid_argument "Cohort.drive: derived cohorts require Mac_auth") (fun () ->
      ignore
        (Cohort.drive cluster spec ~on_complete:(fun ~client:_ ~op:_ ~result:_ -> ())))

(* --- qcheck: cohort-vs-k-clients op counts --- *)

let prop_op_counts =
  QCheck.Test.make ~count:4 ~name:"derived cohort commits k*ops like k real clients"
    QCheck.(pair (int_range 1 3) (int_range 1 4))
    (fun (k, ops) ->
      let pairwise = clean_run (params ~seed:(13 + k) ~clients:k ~ops ()) in
      let spec =
        {
          Cohort.k;
          arrival = Closed { think_us = 100.0; ops_per_client = ops };
          keys = Derived;
        }
      in
      let derived =
        clean_run { (params ~seed:(13 + k) ()) with Runner.cohort = Some spec }
      in
      pairwise.Runner.completed_ops = k * ops
      && derived.Runner.completed_ops = k * ops
      && derived.Runner.total_ops = Cohort.total_ops spec)

let prop_arrival_roundtrip =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map2
            (fun t o -> Cohort.Closed { think_us = float_of_int t; ops_per_client = o })
            (int_range 0 10_000) (int_range 0 1000);
          map2
            (fun r o -> Cohort.Open { rate_per_sec = float_of_int r; total_ops = o })
            (int_range 1 1_000_000) (int_range 0 1000);
          map
            (fun (b, p, per, o) ->
              Cohort.Bursty
                {
                  base_per_sec = float_of_int b;
                  peak_per_sec = float_of_int (b + p);
                  period_us = float_of_int per;
                  total_ops = o;
                })
            (quad (int_range 1 100_000) (int_range 0 100_000) (int_range 1 1_000_000)
               (int_range 0 1000));
        ])
  in
  QCheck.Test.make ~count:200 ~name:"arrival strings round-trip"
    (QCheck.make ~print:Cohort.arrival_to_string gen)
    (fun a -> Cohort.parse_arrival (Cohort.arrival_to_string a) = Ok a)

(* --- adaptive batching --- *)

let test_adaptive_deterministic_and_safe () =
  (* a real generated fault schedule, twice, with the sizer on: identical
     digests and clean oracles *)
  let p =
    { (params ~seed:21 ~clients:3 ~ops:8 ()) with Runner.adaptive_batch = true }
  in
  let sched = Runner.generate p in
  let a = Runner.run_schedule p sched and b = Runner.run_schedule p sched in
  if a.Runner.failures <> [] then
    Alcotest.failf "oracles failed under adaptive batching: %s"
      (String.concat "; " a.Runner.failures);
  Alcotest.(check string) "adaptive batching is deterministic" a.Runner.history_digest
    b.Runner.history_digest

let test_adaptive_off_is_identity () =
  (* the flag default must leave the classic path untouched (the pinned
     golden digests in the fuzz suite enforce the absolute values; this
     checks the field plumbing specifically) *)
  let base = clean_run (params ~seed:2 ()) in
  let off = clean_run { (params ~seed:2 ()) with Runner.adaptive_batch = false } in
  Alcotest.(check string) "off = default" base.Runner.history_digest
    off.Runner.history_digest

let test_adaptive_feeds_occupancy_hist () =
  let obs = Obs.registry () in
  let spec =
    {
      Cohort.k = 256;
      arrival = Open { rate_per_sec = 50_000.0; total_ops = 200 };
      keys = Derived;
    }
  in
  let _ =
    clean_run ~obs
      { (params ~seed:4 ()) with Runner.cohort = Some spec; adaptive_batch = true }
  in
  let batches =
    List.fold_left
      (fun acc (_, o) -> acc + Hist.count (Obs.batch_occupancy_hist o))
      0 (Obs.nodes obs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch occupancy recorded (%d)" batches)
    true (batches > 0)

let test_group_derivations_observed () =
  (* replicas must actually use on-demand group derivation for cohort
     clients (not pairwise keys, which do not exist for them) *)
  let spec =
    { Cohort.k = 16; arrival = Closed { think_us = 100.0; ops_per_client = 2 }; keys = Derived }
  in
  let p = { (params ~seed:6 ()) with Runner.cohort = Some spec } in
  let lv = Runner.prepare p [] in
  ignore
    (Bft_core.Cluster.run_until ~timeout_us:1_000_000.0 lv.Runner.lv_cluster (fun () ->
         !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops));
  let r = Runner.finish lv in
  if r.Runner.failures <> [] then
    Alcotest.failf "oracles failed: %s" (String.concat "; " r.Runner.failures);
  Alcotest.(check int) "workload committed" 32 r.Runner.completed_ops;
  let g =
    match Keychain.group_of (Bft_core.Replica.keychain (Bft_core.Cluster.replica lv.Runner.lv_cluster 0)) with
    | Some g -> g
    | None -> Alcotest.fail "no group installed on replica 0"
  in
  Alcotest.(check bool)
    (Printf.sprintf "on-demand derivations happened (%d)" (Keychain.group_derivations g))
    true
    (Keychain.group_derivations g > 0)

(* --- reply tally: the shared per-arrival count against the old
   group-every-reply-then-scan-every-group rule --- *)

module Client = Bft_core.Client

type tally_op =
  | Reply of int * int * bool * bool (* replica, result, full, tentative *)
  | Promote (* a read-only request retried as read-write: replies void *)

let show_tally_op = function
  | Reply (r, v, full, tent) -> Printf.sprintf "r%d:v%d%s%s" r v (if full then "F" else "d") (if tent then "t" else "")
  | Promote -> "promote"

let results = [| "alpha"; "beta"; "gamma" |]

let tally_info v ~full ~tentative =
  Client.reply_info
    {
      Bft_core.Message.rp_view = 0;
      rp_timestamp = 1L;
      rp_client = 99;
      rp_replica = 0;
      rp_tentative = tentative;
      rp_result =
        (if full then Full results.(v)
         else Result_digest (Bft_core.Wire.result_digest results.(v)));
    }

(* the rule both proxies ran before: group every collected reply by
   digest, then accept any group holding a certificate and a full result *)
let reference_complete cfg replies ~quorum_only =
  let groups = Hashtbl.create 4 in
  Hashtbl.iter
    (fun _ (ri : Client.reply_info) ->
      let total, nontent, full =
        Option.value (Hashtbl.find_opt groups ri.ri_digest) ~default:(0, 0, None)
      in
      let full = match full with Some _ -> full | None -> ri.ri_full in
      Hashtbl.replace groups ri.ri_digest
        (total + 1, (if ri.ri_tentative then nontent else nontent + 1), full))
    replies;
  Hashtbl.fold
    (fun _ (total, nontent, full) acc ->
      match full with
      | Some result
        when (nontent >= Bft_core.Config.weak cfg && not quorum_only)
             || total >= Bft_core.Config.quorum cfg ->
          Some result
      | _ -> acc)
    groups None

(* run until either side completes; both must complete at the same reply
   with the same result. Ids outside 0..n-1 never reach the reference:
   ignoring them is the shared rule (a client's MAC check already failed
   them; the cohort's group key does not). *)
let tally_agrees (f, read_only, ops) =
  let cfg = Bft_core.Config.make ~f () in
  let n = cfg.Bft_core.Config.n in
  let arr = Array.make n None and tbl = Hashtbl.create 8 in
  let promoted = ref false in
  let rec go = function
    | [] -> true
    | Promote :: rest ->
        if read_only && not !promoted then begin
          promoted := true;
          Array.fill arr 0 n None;
          Hashtbl.reset tbl
        end;
        go rest
    | Reply (replica, v, full, tentative) :: rest -> (
        let ri = tally_info v ~full ~tentative in
        let quorum_only = read_only && not !promoted in
        let got = Client.tally cfg arr ~quorum_only ~replica ri in
        if replica >= 0 && replica < n then Hashtbl.replace tbl replica ri;
        let expect = reference_complete cfg tbl ~quorum_only in
        match (got, expect) with
        | None, None -> go rest
        | Some a, Some b -> String.equal a b
        | _ -> false)
  in
  go ops

let gen_tally =
  let open QCheck.Gen in
  int_range 1 2 >>= fun f ->
  let n = (3 * f) + 1 in
  let reply =
    map
      (fun (r, v, full, tent) -> Reply (r, v, full, tent))
      (quad (int_range (-2) (n + 1)) (frequency [ (4, return 0); (1, int_range 1 2) ]) bool bool)
  in
  bool >>= fun read_only ->
  list_size (int_range 1 40) (frequency [ (12, reply); (1, return Promote) ]) >>= fun ops ->
  return (f, read_only, ops)

let prop_tally =
  QCheck.Test.make ~count:2000 ~name:"reply tally = group-then-scan"
    QCheck.(
      make
        ~print:(fun (f, ro, ops) ->
          Printf.sprintf "f=%d ro=%b %s" f ro (String.concat " " (List.map show_tally_op ops)))
        gen_tally)
    tally_agrees

let test_tally_ignores_out_of_range () =
  let cfg = Bft_core.Config.make ~f:1 () in
  let arr = Array.make cfg.Bft_core.Config.n None in
  let full = tally_info 0 ~full:true ~tentative:false in
  List.iter
    (fun replica ->
      Alcotest.(check (option string))
        (Printf.sprintf "id %d ignored" replica)
        None
        (Client.tally cfg arr ~quorum_only:false ~replica full))
    [ -1; 4; 5; max_int; min_int ];
  Alcotest.(check bool) "nothing recorded" true (Array.for_all Option.is_none arr);
  Alcotest.(check (option string)) "one in range" None
    (Client.tally cfg arr ~quorum_only:false ~replica:0 full);
  Alcotest.(check (option string)) "f+1 non-tentative" (Some "alpha")
    (Client.tally cfg arr ~quorum_only:false ~replica:3 full)

let suites =
  [
    ( "cohort",
      [
        Alcotest.test_case "pairwise spec = default driver" `Quick
          test_pairwise_spec_matches_default;
        Alcotest.test_case "pairwise k bound" `Quick test_pairwise_rejects_oversized_k;
        Alcotest.test_case "pairwise open-loop rejected" `Quick
          test_pairwise_rejects_open_loop;
        Alcotest.test_case "derived closed loop" `Quick test_derived_closed_completes;
        Alcotest.test_case "derived open loop" `Quick test_derived_open_loop_completes;
        Alcotest.test_case "derived bursty" `Quick test_derived_bursty_completes;
        Alcotest.test_case "derived deterministic" `Quick test_derived_deterministic;
        Alcotest.test_case "million-client curve pinned" `Quick
          test_million_client_curve_pinned;
        Alcotest.test_case "derived rejects signatures" `Quick
          test_derived_rejects_sig_auth;
        Alcotest.test_case "group derivations observed" `Quick
          test_group_derivations_observed;
        QCheck_alcotest.to_alcotest prop_op_counts;
        QCheck_alcotest.to_alcotest prop_arrival_roundtrip;
      ] );
    ( "adaptive-batch",
      [
        Alcotest.test_case "deterministic and safe" `Quick
          test_adaptive_deterministic_and_safe;
        Alcotest.test_case "off is identity" `Quick test_adaptive_off_is_identity;
        Alcotest.test_case "occupancy histogram" `Quick test_adaptive_feeds_occupancy_hist;
      ] );
    ( "core.reply_tally",
      [
        Alcotest.test_case "out-of-range ids ignored" `Quick test_tally_ignores_out_of_range;
        QCheck_alcotest.to_alcotest prop_tally;
      ] );
  ]
