(* open_1m_f1: open loop, f = 1, a cohort of 10^6 clients with derived
   keys, Poisson arrivals at fixed offered rates below, near and past the
   knee, against the null service with tiny operations; plus one
   failover run at a sub-knee rate in which the primary's network node is
   crashed at a fixed virtual time while arrivals continue.

   Here the primary's ordering queue, batching, the network backlog and
   the engine dominate; crypto is light and the service does no work.
   Each synthesized client issues one operation (k exceeds every run's
   operation count), so the client id names the operation. Latency runs
   from the instant the operation fell due, which the benchmark reads off
   [Cohort.issued] between engine steps, to its completion, so requests
   that fall due while no primary exists are charged the whole outage. *)

open Bft_core
module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Cohort = Bft_check.Cohort
module Service = Bft_sm.Service
open Common

let f = 1
let k = 1_000_000
let rates = [ 4_000.0; 8_000.0; 12_000.0; 16_000.0; 20_000.0 ]
let sub_knee = 8_000.0
let near_knee = 12_000.0
let past_knee = 20_000.0
let ops_per_rate = 2_000
let failover_rate = 5_000.0
let failover_ops = 3_000
let crash_at_us = 200_000.0
let tail_limit_us = 20_000.0
let min_committed_frac = 0.95
let deadline_us = 60_000_000.0

type sub = {
  offered : float;
  lat : float array;  (** completed operations only *)
  committed : float;  (** ops per virtual second, first to last completion *)
  commits : int64 array;  (** completion instants, ascending *)
  due : int64 array;  (** due instant of every issued operation *)
  attempted : int;
  digest : string;
  events : int;
  retx : int;  (** client retransmissions, from the traced run's capture *)
}

let null_result op = (Bft_sm.Null_service.create ()).Service.execute ~client:0 ~op ~nondet:""

(* Build one run's cluster and cohort and schedule its arrivals (and the
   crash); the engine has not run yet. *)
let build ~seed ~probe ~idx ~rate ~total ~crash ~ops =
  let cfg = Config.make ~f () in
  let obs = Option.map (fun _ -> Bft_obs.Obs.registry ()) probe in
  let wrap = match probe with Some p -> Probe.wrap_service p | None -> Fun.id in
  let c =
    Cluster.create
      ~seed:(Int64.of_int ((seed * 7919) + (idx * 31) + 5))
      ~service:(fun () -> wrap (Bft_sm.Null_service.create ()))
      ~num_clients:0 ?obs cfg
  in
  let e = Cluster.engine c in
  let base = cfg.Config.n + Cluster.num_clients c in
  let due = Array.make total 0L and lat = Array.make total nan in
  let commits = ref [] in
  let co =
    Cohort.drive ~seed:((seed * 101) + idx) c
      { Cohort.k; arrival = Open { rate_per_sec = rate; total_ops = total }; keys = Derived }
      ~on_complete:(fun ~client ~op ~result ->
        let i = client - base in
        lat.(i) <- Engine.to_us (Int64.sub (Engine.now e) due.(i));
        commits := Engine.now e :: !commits;
        ops := (op, result) :: !ops)
  in
  if crash then
    ignore
      (Engine.schedule_at e (Engine.of_us_float crash_at_us) (fun () ->
           Network.crash (Cluster.network c) ~id:(Config.primary cfg ~view:0)));
  (c, co, due, lat, commits)

(* (index, offered rate, operations, crash the primary) of each run *)
let runs =
  List.mapi (fun idx rate -> (idx, rate, ops_per_rate, false)) rates
  @ [ (List.length rates, failover_rate, failover_ops, true) ]

(* Everything a repetition sets up, and nothing else. *)
let setup_trial ~seed () =
  List.iter
    (fun (idx, rate, total, crash) ->
      ignore (build ~seed ~probe:None ~idx ~rate ~total ~crash ~ops:(ref [])))
    runs

let run_one ~seed ~probe ~idx ~rate ~total ~crash =
  let cfg = Config.make ~f () in
  let ops = ref [] in
  let (c, co, due, lat, commits), setup_ns =
    timed (fun () ->
        Probe.span_opt probe ~req:idx "prepare" (fun () ->
            build ~seed ~probe ~idx ~rate ~total ~crash ~ops))
  in
  let env_start = match probe with Some p -> p.Probe.n_envs | None -> 0 in
  Option.iter (fun p -> Probe.capture p (Cluster.network c)) probe;
  let e = Cluster.engine c in
  let seen = ref 0 in
  let ((), minor, promoted, major), drive_ns =
    Calib.excluding (fun () ->
        Probe.span_opt probe ~req:idx "drive" (fun () ->
            gc_delta (fun () ->
                Probe.drive probe e ~until:(Engine.of_us_float deadline_us) (fun () ->
                    let issued = Cohort.issued co in
                    while !seen < issued do
                      due.(!seen) <- Engine.now e;
                      incr seen
                    done;
                    Cohort.completed co < total))))
  in
  let (), check_ns =
    timed (fun () ->
        Probe.span_opt probe ~req:idx "check" (fun () ->
            List.iter
              (fun (op, result) ->
                if not (String.equal result (null_result op)) then
                  violation "open_1m_f1: op %S returned %S" op result)
              !ops;
            if not (Cluster.committed_histories_consistent c) then
              violation "open_1m_f1: committed histories diverge at %.0f/vs" rate;
            match
              Cluster.check_linearizable c ~service:(fun () -> Bft_sm.Null_service.create ())
            with
            | Ok () -> ()
            | Error m -> violation "open_1m_f1: not linearizable at %.0f/vs: %s" rate m))
  in
  Option.iter (fun p -> Probe.add_cluster p c) probe;
  let commits = Array.of_list (List.rev !commits) in
  let n = Array.length commits in
  let committed =
    if n < 2 then 0.0
    else float_of_int (n - 1) /. (Engine.to_us (Int64.sub commits.(n - 1) commits.(0)) /. 1e6)
  in
  let retx =
    match probe with
    | None -> 0
    | Some p ->
        let base = cfg.Config.n in
        let sends = ref 0 and distinct = Hashtbl.create 1024 in
        for i = env_start to p.Probe.n_envs - 1 do
          match p.Probe.envs.(i) with
          | { Message.sender; body = Request r; _ } when sender >= base ->
              incr sends;
              Hashtbl.replace distinct (r.Message.client, r.Message.timestamp) ()
          | _ -> ()
        done;
        !sends - Hashtbl.length distinct
  in
  let sub =
    {
      offered = rate;
      lat = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list lat));
      committed;
      commits;
      due = Array.sub due 0 !seen;
      attempted = total;
      digest = Cluster.committed_history_digest c;
      events = Engine.events_fired e;
      retx;
    }
  in
  (sub, setup_ns, drive_ns, check_ns, (minor, promoted, major))

(* Longest stretch without a commit after the crash, counting from the
   crash instant, and how many operations fell due inside it: the requests
   that arrived while no primary was serving. *)
let failover_gap s =
  let crash = Engine.of_us_float crash_at_us in
  let gap = ref (0L, crash, crash) and prev = ref crash in
  Array.iter
    (fun t ->
      if Int64.compare t crash >= 0 then begin
        let len, _, _ = !gap in
        if Int64.compare (Int64.sub t !prev) len > 0 then gap := (Int64.sub t !prev, !prev, t);
        prev := t
      end)
    s.commits;
  let len, from, until = !gap in
  let stalled =
    Array.fold_left
      (fun acc d -> if Int64.compare d from >= 0 && Int64.compare d until < 0 then acc + 1 else acc)
      0 s.due
  in
  (Engine.to_ms len, stalled)

(* p99, or the highest percentile the tail rule allows below it. *)
let tail s =
  let sorted = Bstat.sorted s.lat in
  match Bstat.highest_tail (Array.length sorted) with
  | Some p -> Bstat.percentile sorted (Float.min p 0.99)
  | None -> infinity

let run ~seed ~probe =
  let subs =
    List.map (fun (idx, rate, total, crash) -> run_one ~seed ~probe ~idx ~rate ~total ~crash) runs
  in
  let sum g = List.fold_left (fun a x -> a +. g x) 0.0 subs in
  let all = List.map (fun (s, _, _, _, _) -> s) subs in
  let sweep = List.filteri (fun i _ -> i < List.length rates) all in
  let failover = List.nth all (List.length rates) in
  let at rate = List.find (fun s -> s.offered = rate) sweep in
  let points =
    List.map (fun s -> { Bstat.offered = s.offered; committed = s.committed; tail_us = tail s }) sweep
  in
  let knee =
    match Bstat.knee ~limit_us:tail_limit_us ~min_frac:min_committed_frac points with
    | Some p -> p.Bstat.offered
    | None -> 0.0
  in
  let gap_ms, stalled = failover_gap failover in
  let ops = List.fold_left (fun a s -> a + Array.length s.lat) 0 all in
  let attempted = List.fold_left (fun a s -> a + s.attempted) 0 all in
  let cap = (at past_knee).committed in
  let virt =
    (* past the knee the committed rate swings with each arrival stream,
       so the gated throughput is the one at the knee *)
    metric ~samples:(Array.length (at near_knee).lat) "vops_per_vs" "ops/vs"
      (at near_knee).committed
    :: latency_metrics ~prefix:"vlat_write" (at sub_knee).lat
    @ [
        metric ~samples:(List.length points) "knee_rate_per_vs" "ops/vs" knee;
        metric ~samples:(Array.length (at past_knee).lat) "capacity_ops_per_vs" "ops/vs" cap;
        metric ~samples:(Array.length failover.commits) "failover_unavail_ms" "ms" gap_ms;
        metric "failover_due_without_primary" "count" (float_of_int stalled);
      ]
    @ latency_metrics ~prefix:"failover_vlat" failover.lat
    @ List.concat_map
        (fun (s, p) ->
          let r = Printf.sprintf "sweep_%.0f" s.offered in
          [
            metric ~samples:(Array.length s.lat) (r ^ "_committed_per_vs") "ops/vs" s.committed;
            metric ~samples:(Array.length s.lat) (r ^ "_tail_us") "us" p.Bstat.tail_us;
          ])
        (List.combine sweep points)
  in
  let gc_sum g = List.fold_left (fun a (_, _, _, _, x) -> a +. g x) 0.0 subs in
  let rep =
    {
      setup_ns = sum (fun (_, s, _, _, _) -> s);
      drive_ns = sum (fun (_, _, d, _, _) -> d);
      check_ns = sum (fun (_, _, _, c, _) -> c);
      units = 0;
      ops;
      attempted;
      failed = attempted - ops;
      virt;
      fingerprint =
        String.concat " "
          (List.map (fun s -> Printf.sprintf "%s/%d" s.digest s.events) all);
      gc_minor = gc_sum (fun (m, _, _) -> m);
      gc_promoted = gc_sum (fun (_, p, _) -> p);
      gc_major = List.fold_left (fun a (_, _, _, _, (_, _, j)) -> a + j) 0 subs;
    }
  in
  (rep, List.fold_left (fun a s -> a + s.retx) 0 all)

let op_example = Printf.sprintf "put d%d.0 v0" (ops_per_rate - 1)

(* The sub-knee operations, issued back to back by one client against one
   unreplicated server. *)
let unreplicated ~seed =
  let b = Baseline.create ~seed:(Int64.of_int ((seed * 7919) + 5)) ~num_clients:1 () in
  let lat = Array.make ops_per_rate 0.0 in
  let rec issue i =
    if i < ops_per_rate then
      Baseline.invoke b ~client:0 (Printf.sprintf "put d%d.0 v0" i) (fun ~result:_ ~latency_us ->
          lat.(i) <- latency_us;
          issue (i + 1))
  in
  issue 0;
  if
    not
      (Baseline.run_until ~timeout_us:deadline_us b (fun () ->
           Baseline.client_completed b 0 >= ops_per_rate))
  then
    violation "open_1m_f1: unreplicated baseline did not finish";
  Bstat.median (Bstat.sorted lat)

let model ~ops_per_batch =
  let cfg = Config.make ~f () in
  let batch = max 1 (int_of_float (Float.round ops_per_batch)) in
  let predict read_only =
    Bft_perf.Perf_model.predict ~costs:Bft_net.Costs.default ~cfg
      {
        Bft_perf.Perf_model.arg_size = String.length op_example;
        result_size = String.length (null_result op_example);
        read_only;
        batch;
      }
  in
  let w = predict false and r = predict true in
  let open Bft_perf.Perf_model in
  [
    metric "model.vlat_write_us" "us" w.latency_us;
    metric "model.vlat_read_us" "us" r.latency_us;
    metric "model.capacity_ops_per_vs" "ops/vs" w.throughput_ops;
  ]
