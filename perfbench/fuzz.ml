(* fuzz_f1: [Runner]'s fault-injection fuzzer over a fixed range of
   consecutive seeds with [default_params ~f:1]: 2 clients x 10 ops under
   random loss, duplication, jitter, partitions, crashes and Byzantine
   flips, K = 8, every oracle evaluated.

   This covers the fault paths the other workloads never take: view
   changes, retransmission, state transfer, frequent checkpoints and the
   oracles themselves. Each seed runs exactly as [Runner.run_seed] does
   ([prepare], run to completion or the deadline, [finish]); the benchmark
   drives the engine itself so that it can time the three parts apart and
   read exact per-operation latencies between steps. *)

open Bft_core
module Engine = Bft_sim.Engine
module Runner = Bft_check.Runner
module Cohort = Bft_check.Cohort
module Hist = Bft_obs.Hist
open Common

let f = 1

(* 400 seeds x 20 ops = 8000 latency samples per repetition; fewer seeds
   let the fault mix of one seed range swing the virtual throughput. *)
let n_seeds = 400
let first_seed seed = 1 + (seed * n_seeds)
let params ~plant s = { (Runner.default_params ~seed:s ~f) with Runner.expect_no_view_change = plant }

(* Everything a repetition sets up, and nothing else. *)
let setup_trial ~seed () =
  for i = 0 to n_seeds - 1 do
    let p = params ~plant:false (first_seed seed + i) in
    ignore (Runner.prepare p (Runner.generate p))
  done

type seed_run = {
  result : Runner.run_result;
  lat : float list;
  vend_us : float;  (** virtual time when the run stopped *)
  retx : int;
  gc : float * float * int;
  prepare_ns : float;
  run_ns : float;
  oracle_ns : float;
}

(* One seed. Between engine steps the predicate notes which client became
   busy (an issue) and which reply was accepted (a completion); a client
   has at most one operation outstanding, so the pair is that operation's
   latency. *)
let run_seed ~probe ~plant s =
  let p = params ~plant s in
  let lv, prepare_ns =
    timed (fun () ->
        Probe.span_opt probe ~req:s "fuzz.prepare" (fun () ->
            let obs = Option.map (fun _ -> Bft_obs.Obs.registry ()) probe in
            Runner.prepare ?obs p (Runner.generate p)))
  in
  let c = lv.Runner.lv_cluster in
  let e = Cluster.engine c in
  let n = (Cluster.config c).Config.n in
  let issued_at = Array.make p.Runner.clients 0L in
  let busy = Array.make p.Runner.clients false in
  let seen_issued = ref 0 and seen_done = ref 0 and lat = ref [] in
  let observe () =
    let nc = !(lv.Runner.lv_n_completed) in
    if nc > !seen_done then begin
      (match !(lv.Runner.lv_completed) with
      | (client, _, _) :: _ ->
          let slot = client - n in
          lat := Engine.to_us (Int64.sub (Engine.now e) issued_at.(slot)) :: !lat;
          busy.(slot) <- false
      | [] -> ());
      seen_done := nc
    end;
    let iss = Cohort.issued lv.Runner.lv_cohort in
    if iss > !seen_issued then begin
      for slot = 0 to p.Runner.clients - 1 do
        if (not busy.(slot)) && Client.busy (Cluster.client c slot) then begin
          busy.(slot) <- true;
          issued_at.(slot) <- Engine.now e
        end
      done;
      seen_issued := iss
    end;
    nc < lv.Runner.lv_total_ops
  in
  let until = Engine.of_us_float (p.Runner.horizon_us +. p.Runner.drain_us) in
  let ((), minor, promoted, major), run_ns =
    Calib.excluding (fun () ->
        Probe.span_opt probe ~req:s "fuzz.run" (fun () ->
            gc_delta (fun () -> Probe.drive probe e ~until observe)))
  in
  let result, oracle_ns =
    timed (fun () -> Probe.span_opt probe ~req:s "fuzz.oracle" (fun () -> Runner.finish lv))
  in
  if Runner.failed result then
    violation "fuzz_f1: seed %d: %s (replay: %s)" s
      (String.concat "; " result.Runner.failures)
      (Runner.replay_line p result.Runner.schedule);
  (* the latencies read between steps must be the ones the cohort saw *)
  let h = Cohort.latency_hist lv.Runner.lv_cohort in
  let sum = List.fold_left ( +. ) 0.0 !lat in
  if List.length !lat <> Hist.count h || Float.abs (sum -. Hist.sum_us h) > 1e-6 *. (1.0 +. sum)
  then violation "fuzz_f1: seed %d: latency bookkeeping disagrees with the cohort" s;
  Option.iter (fun t -> Probe.add_cluster t c) probe;
  let retx = ref 0 in
  for k = 0 to Cluster.num_clients c - 1 do
    retx := !retx + Client.retransmissions (Cluster.client c k)
  done;
  {
    result;
    lat = !lat;
    vend_us = Engine.to_us (Engine.now e);
    retx = !retx;
    gc = (minor, promoted, major);
    prepare_ns;
    run_ns;
    oracle_ns;
  }

let run ~seed ~probe ~plant =
  let runs =
    List.init n_seeds (fun i -> run_seed ~probe ~plant (first_seed seed + i))
  in
  let sumf g = List.fold_left (fun a r -> a +. g r) 0.0 runs in
  let sumi g = List.fold_left (fun a r -> a + g r) 0 runs in
  let ops = sumi (fun r -> r.result.Runner.completed_ops) in
  let attempted = sumi (fun r -> r.result.Runner.total_ops) in
  let lat = Array.of_list (List.concat_map (fun r -> r.lat) runs) in
  let virt =
    (metric ~samples:ops "vops_per_vs" "ops/vs"
       (float_of_int ops /. (sumf (fun r -> r.vend_us) /. 1e6))
    :: latency_metrics ~prefix:"vlat_write" lat)
    @ [
        metric ~samples:n_seeds "view_changes" "count"
          (float_of_int (sumi (fun r -> r.result.Runner.view_changes)));
        metric ~samples:n_seeds "incomplete_seeds" "count"
          (float_of_int
             (sumi (fun r ->
                  if r.result.Runner.completed_ops < r.result.Runner.total_ops then 1 else 0)));
      ]
  in
  let rep =
    {
      setup_ns = sumf (fun r -> r.prepare_ns);
      drive_ns = sumf (fun r -> r.run_ns);
      check_ns = sumf (fun r -> r.oracle_ns);
      units = n_seeds;
      ops;
      attempted;
      failed = attempted - ops;
      virt;
      fingerprint =
        Bft_crypto.Sha256.hexdigest
          (String.concat "\n"
             (List.map
                (fun r ->
                  Printf.sprintf "%s %d" r.result.Runner.history_digest
                    r.result.Runner.sim.Runner.sc_events_fired)
                runs));
      gc_minor = sumf (fun r -> let m, _, _ = r.gc in m);
      gc_promoted = sumf (fun r -> let _, p, _ = r.gc in p);
      gc_major = sumi (fun r -> let _, _, j = r.gc in j);
    }
  in
  let per_seed g = sumf g /. float_of_int n_seeds /. 1e6 in
  let layers =
    [
      metric ~samples:n_seeds "fuzz.prepare_ms_per_seed" "ms" (per_seed (fun r -> r.prepare_ns));
      metric ~samples:n_seeds "fuzz.run_ms_per_seed" "ms" (per_seed (fun r -> r.run_ns));
      metric ~samples:n_seeds "fuzz.oracle_ms_per_seed" "ms" (per_seed (fun r -> r.oracle_ns));
    ]
  in
  (* [Runner.run_seed] itself must agree with the benchmark's own drive
     loop on the first seed *)
  (match runs with
  | r :: _ when probe <> None ->
      let lib = Runner.run_seed (params ~plant (first_seed seed)) in
      if not (String.equal lib.Runner.history_digest r.result.Runner.history_digest) then
        violation "fuzz_f1: the benchmark's drive loop diverges from Runner.run_seed"
  | _ -> ());
  (rep, sumi (fun r -> r.retx), layers)

(* The fuzz workload's operations on one unreplicated server. *)
let unreplicated () =
  let p = Runner.default_params ~seed:1 ~f in
  let b =
    Baseline.create ~seed:1L ~service:(fun () -> Bft_sm.Kv_service.create ())
      ~num_clients:p.Runner.clients ()
  in
  let lat = ref [] in
  let rec issue slot i =
    if i < p.Runner.ops_per_client then
      Baseline.invoke b ~client:slot (Cohort.op_for ~client_slot:slot ~index:i)
        (fun ~result:_ ~latency_us ->
          lat := latency_us :: !lat;
          issue slot (i + 1))
  in
  for slot = 0 to p.Runner.clients - 1 do
    issue slot 0
  done;
  let total = p.Runner.clients * p.Runner.ops_per_client in
  if not (Baseline.run_until b (fun () -> List.length !lat >= total)) then
    violation "fuzz_f1: unreplicated baseline did not finish";
  Bstat.median (Bstat.sorted (Array.of_list !lat))

let model ~ops_per_batch =
  let cfg = Config.make ~f () in
  let batch = max 1 (int_of_float (Float.round ops_per_batch)) in
  let op = Cohort.op_for ~client_slot:1 ~index:9 in
  let predict read_only =
    Bft_perf.Perf_model.predict ~costs:Bft_net.Costs.default ~cfg
      { Bft_perf.Perf_model.arg_size = String.length op; result_size = 2; read_only; batch }
  in
  let w = predict false and r = predict true in
  let open Bft_perf.Perf_model in
  [
    metric "model.vlat_write_us" "us" w.latency_us;
    metric "model.vlat_read_us" "us" r.latency_us;
    metric "model.capacity_ops_per_vs" "ops/vs" w.throughput_ops;
  ]
