(* kv_rw_f3: closed loop, f = 3 (10 replicas), 8 real clients with one
   request outstanding each and no think time, against the paged
   key-value service. Half the operations are read-only gets, half are
   puts of 1 KB values, over 4096 keys preloaded with 1 KB values.

   This is the crypto-, wire- and service-heavy case: agreement traffic
   grows as n^2 at f = 3, the 1 KB puts exceed [separate_tx_threshold]
   and take the separate-request-transmission path, and the gets take the
   read-only path (Section 5.1.3), so a change that speeds one kind of
   operation at the other's expense shows.

   Eight clients keep the cluster below its knee. Sixteen drive it past
   it: committed throughput drops from about 1,800 to 1,500 ops per
   virtual second, and about a third of seeds fall into a slow episode of
   some 1,000 operations (write p99 22 ms -> 28 ms), so write latency across
   seeds is bimodal and cannot be gated. *)

open Bft_core
module Engine = Bft_sim.Engine
module Rng = Bft_util.Rng
module Service = Bft_sm.Service
open Common

let f = 3
let n_clients = 8
let n_keys = 4096
let value_len = 1024
let page_size = 4096

(* Each client's first operation pays the cluster's start-up (about 15 ms
   of extra virtual time) and is left out of the latency samples. After
   those, exactly half the operations are reads: each kind has 1000
   samples, the fewest for which p99 has 10 samples beyond it. *)
let warmup = n_clients
let measured = 2000
let n_ops = warmup + measured
let deadline_us = 120_000_000.0

type input = {
  preload : string array;  (** initial value of each key *)
  op : string array;
  read : bool array;
  allowed : (int, string list) Hashtbl.t;  (** every value a get of key k may return *)
  key : int array;
}

let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
let put_op k v = Printf.sprintf "put k%d %s" k v

let gen ~seed =
  let rng = Rng.create (Int64.of_int ((seed * 1_000_003) + 7)) in
  let value () = String.init value_len (fun _ -> alphabet.[Rng.int rng (String.length alphabet)]) in
  let preload = Array.init n_keys (fun _ -> value ()) in
  let read = Array.init measured (fun i -> i < measured / 2) in
  Rng.shuffle rng read;
  let read = Array.append (Array.init warmup (fun i -> i mod 2 = 0)) read in
  let key = Array.init n_ops (fun _ -> Rng.int rng n_keys) in
  let allowed = Hashtbl.create n_keys in
  Array.iteri (fun k v -> Hashtbl.replace allowed k [ v ]) preload;
  let op =
    Array.mapi
      (fun i r ->
        let k = key.(i) in
        if r then Printf.sprintf "get k%d" k
        else begin
          let v = value () in
          Hashtbl.replace allowed k (v :: Hashtbl.find allowed k);
          put_op k v
        end)
      read
  in
  { preload; op; read; allowed; key }

(* Each replica's service starts from the preloaded state. *)
let factory inp () =
  let s = Bft_sm.Kv_service.create ~paged:page_size () in
  Array.iteri
    (fun k v ->
      ignore
        (s.Service.execute ~client:Bft_sm.Kv_service.admin_client ~op:(put_op k v) ~nondet:""))
    inp.preload;
  s

let cluster_seed seed = Int64.of_int ((seed * 7919) + 11)

(* Issue op [i], then op [i + n_clients] on completion, and so on: client
   [cl] runs ops cl, cl + n_clients, ... back to back. *)
let closed_loop ~invoke ~on_done =
  let rec issue cl i =
    if i < n_ops then
      invoke cl i (fun ~result ~latency_us ->
          on_done i ~result ~latency_us;
          issue cl (i + n_clients))
  in
  for cl = 0 to n_clients - 1 do
    issue cl cl
  done

let check inp c ~results ~done_ =
  Array.iteri
    (fun i ok ->
      if ok then begin
        let r = results.(i) in
        if inp.read.(i) then begin
          if not (List.exists (String.equal r) (Hashtbl.find inp.allowed inp.key.(i))) then
            violation "kv_rw_f3: get of key %d returned a value never written to it" inp.key.(i)
        end
        else if not (String.equal r "ok") then violation "kv_rw_f3: put returned %S" r
      end)
    done_;
  if not (Cluster.committed_histories_consistent c) then
    violation "kv_rw_f3: committed histories diverge";
  match Cluster.check_linearizable c ~service:(factory inp) with
  | Ok () -> ()
  | Error e -> violation "kv_rw_f3: not linearizable: %s" e

let run inp ~seed ~probe =
  let wrap = match probe with Some p -> Probe.wrap_service p | None -> Fun.id in
  let c, setup_ns =
    timed (fun () ->
        Probe.span_opt probe "prepare" (fun () ->
            let obs = Option.map (fun _ -> Bft_obs.Obs.registry ()) probe in
            Cluster.create ~seed:(cluster_seed seed)
              ~service:(fun () -> wrap (factory inp ()))
              ~num_clients:n_clients ?obs (Config.make ~f ())))
  in
  Option.iter (fun p -> Probe.capture p (Cluster.network c)) probe;
  let lat = Array.make n_ops 0.0 and results = Array.make n_ops "" in
  let done_ = Array.make n_ops false and completed = ref 0 in
  closed_loop
    ~invoke:(fun cl i k ->
      Client.invoke (Cluster.client c cl) ~read_only:inp.read.(i) ~op:inp.op.(i) k)
    ~on_done:(fun i ~result ~latency_us ->
      lat.(i) <- latency_us;
      results.(i) <- result;
      done_.(i) <- true;
      incr completed);
  let e = Cluster.engine c in
  let ((), minor, promoted, major), drive_ns =
    Calib.excluding (fun () ->
        Probe.span_opt probe "drive" (fun () ->
            gc_delta (fun () ->
                Probe.drive probe e ~until:(Engine.of_us_float deadline_us) (fun () ->
                    !completed < n_ops))))
  in
  let (), check_ns =
    timed (fun () -> Probe.span_opt probe "check" (fun () -> check inp c ~results ~done_))
  in
  Option.iter (fun p -> Probe.add_cluster p c) probe;
  let pick want =
    Array.of_list
      (List.filteri
         (fun i _ -> i >= warmup && done_.(i) && inp.read.(i) = want)
         (Array.to_list lat))
  in
  let vsecs = Engine.to_us (Engine.now e) /. 1e6 in
  let st = Bft_net.Network.stats (Cluster.network c) in
  let virt =
    (metric ~samples:!completed "vops_per_vs" "ops/vs" (float_of_int !completed /. vsecs)
    :: latency_metrics ~prefix:"vlat_write" (pick false))
    @ latency_metrics ~prefix:"vlat_read" (pick true)
  in
  let rep =
    {
      setup_ns;
      drive_ns;
      check_ns;
      units = 0;
      ops = !completed;
      attempted = n_ops;
      failed = n_ops - !completed;
      virt;
      fingerprint =
        Printf.sprintf "%s events=%d sent=%d delivered=%d bytes=%d"
          (Cluster.committed_history_digest c) (Engine.events_fired e) st.Bft_net.Network.sent
          st.Bft_net.Network.delivered st.Bft_net.Network.bytes_sent;
      gc_minor = minor;
      gc_promoted = promoted;
      gc_major = major;
    }
  in
  let retx = ref 0 in
  for cl = 0 to n_clients - 1 do
    retx := !retx + Client.retransmissions (Cluster.client c cl)
  done;
  (rep, !retx)

(* The same operations, clients and cost model against one unreplicated
   server: the paper's headline replication overhead. *)
let unreplicated inp ~seed =
  let b =
    Baseline.create ~seed:(cluster_seed seed) ~service:(factory inp) ~num_clients:n_clients ()
  in
  let lat = Array.make n_ops 0.0 and completed = ref 0 in
  closed_loop
    ~invoke:(fun cl i k -> Baseline.invoke b ~client:cl inp.op.(i) k)
    ~on_done:(fun i ~result:_ ~latency_us ->
      lat.(i) <- latency_us;
      incr completed);
  if not (Baseline.run_until ~timeout_us:deadline_us b (fun () -> !completed >= n_ops)) then
    violation "kv_rw_f3: unreplicated baseline did not finish";
  Bstat.median (Bstat.sorted (Array.sub lat warmup measured))

let model ~ops_per_batch =
  let cfg = Config.make ~f () in
  let batch = max 1 (int_of_float (Float.round ops_per_batch)) in
  let predict arg_size result_size read_only =
    Bft_perf.Perf_model.predict ~costs:Bft_net.Costs.default ~cfg
      { Bft_perf.Perf_model.arg_size; result_size; read_only; batch }
  in
  let w = predict (String.length (put_op (n_keys - 1) (String.make value_len 'v'))) 2 false in
  let r = predict (String.length (Printf.sprintf "get k%d" (n_keys - 1))) value_len true in
  let open Bft_perf.Perf_model in
  [
    metric "model.vlat_write_us" "us" w.latency_us;
    metric "model.vlat_read_us" "us" r.latency_us;
    (* half reads, half writes: the mix's saturation rate *)
    metric "model.capacity_ops_per_vs" "ops/vs"
      (1.0 /. ((0.5 /. w.throughput_ops) +. (0.5 /. r.throughput_ops)));
  ]
