(* The traced run's instruments. Every one sits outside lib/ and reaches
   the program only through public functions:
   - spans around the benchmark's own calls into each layer, kept in
     memory and written out at the end;
   - a pass-through [Network.set_adversary] hook that captures each
     transmitted envelope (it always answers [`Pass] and draws no RNG);
   - timers wrapped around the service's [execute], [snapshot] and
     [pg_*] closures;
   - a per-step timer on the engine, through [Engine.run_while]'s
     predicate, which runs once before every step;
   - after the run, a replay of the captured envelopes through
     [Wire.encode], [Hmac] and [Sha256] that times crypto and wire work
     per operation.
   None of them changes what the simulation does: the traced run must
   reproduce the untraced run's history digest and virtual-time metrics
   exactly, and the benchmark fails if it does not. *)

open Bft_core
module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Costs = Bft_net.Costs
module Obs = Bft_obs.Obs
module Hist = Bft_obs.Hist
module Service = Bft_sm.Service
open Common

type span = {
  sp_name : string;
  sp_start : int64;
  mutable sp_stop : int64;
  sp_parent : int;  (** index of the enclosing span, -1 at the root *)
  sp_req : int;  (** request id (a client id or a fuzz seed), -1 if none *)
}

type t = {
  mutable spans : span array;
  mutable n_spans : int;
  mutable stack : int list;
  (* engine *)
  mutable steps : int;
  mutable step_ns : float;
  (* captured transmissions: each distinct send once, with its receivers *)
  mutable envs : Message.envelope array;
  mutable receivers : int array;
  mutable n_envs : int;
  (* service *)
  mutable exec_calls : int;
  mutable exec_model_us : float;
  mutable dirty_pages : int;
  (* work counted across every cluster of the repetition *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes_sent : int;
  mutable events : int;
  mutable max_heap : int;
  mutable backlog_hwm : int;
  mutable executed : int;
  mutable batches : int;
  mutable view_changes : int;
  mutable state_transfers : int;
  mutable checkpoints : int;
  order : Hist.t;  (** request -> pre-prepare, merged over replicas *)
  preprep : Hist.t;  (** pre-prepare -> prepared *)
  prep : Hist.t;  (** prepared -> committed *)
}

let create () =
  {
    spans = [||];
    n_spans = 0;
    stack = [];
    steps = 0;
    step_ns = 0.0;
    envs = [||];
    receivers = [||];
    n_envs = 0;
    exec_calls = 0;
    exec_model_us = 0.0;
    dirty_pages = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    bytes_sent = 0;
    events = 0;
    max_heap = 0;
    backlog_hwm = 0;
    executed = 0;
    batches = 0;
    view_changes = 0;
    state_transfers = 0;
    checkpoints = 0;
    order = Hist.create ();
    preprep = Hist.create ();
    prep = Hist.create ();
  }

let grow a n dummy = if n < Array.length a then a else Array.append a (Array.make (max 64 n) dummy)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span t ?(req = -1) name f =
  let id = t.n_spans in
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s =
    { sp_name = name; sp_start = wall_now (); sp_stop = 0L; sp_parent = parent; sp_req = req }
  in
  t.spans <- grow t.spans id s;
  t.spans.(id) <- s;
  t.n_spans <- id + 1;
  t.stack <- id :: t.stack;
  let r = f () in
  s.sp_stop <- wall_now ();
  t.stack <- List.tl t.stack;
  r

let span_opt probe ?req name f = match probe with None -> f () | Some t -> span t ?req name f

let duration s = ns_between s.sp_start s.sp_stop

(* Total and self time per span name, in first-seen order. Self time is a
   span's duration minus the part covered by its direct children. *)
let span_totals t =
  let child = Array.make t.n_spans 0.0 in
  for i = 0 to t.n_spans - 1 do
    let s = t.spans.(i) in
    if s.sp_parent >= 0 then child.(s.sp_parent) <- child.(s.sp_parent) +. duration s
  done;
  let tbl = Hashtbl.create 16 and order = ref [] in
  for i = 0 to t.n_spans - 1 do
    let s = t.spans.(i) in
    let total, self, n =
      match Hashtbl.find_opt tbl s.sp_name with
      | Some v -> v
      | None ->
          order := s.sp_name :: !order;
          (0.0, 0.0, 0)
    in
    Hashtbl.replace tbl s.sp_name (total +. duration s, self +. duration s -. child.(i), n + 1)
  done;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let total_ns t name =
  match List.assoc_opt name (span_totals t) with Some (total, _, _) -> total | None -> 0.0

let write_spans t path =
  let oc = open_out path in
  for i = 0 to t.n_spans - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"req\":%d}\n"
      i s.sp_name s.sp_start s.sp_stop s.sp_parent s.sp_req
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

(* A multicast consults the hook once per destination, back to back with
   the same physical envelope, so consecutive identical envelopes are one
   send with several receivers. *)
let capture t net =
  Network.set_adversary net (fun ~src:_ ~dst:_ env ->
      let i = t.n_envs - 1 in
      if i >= 0 && t.envs.(i) == env then t.receivers.(i) <- t.receivers.(i) + 1
      else begin
        t.envs <- grow t.envs t.n_envs env;
        t.receivers <- grow t.receivers t.n_envs 0;
        t.envs.(t.n_envs) <- env;
        t.receivers.(t.n_envs) <- 1;
        t.n_envs <- t.n_envs + 1
      end;
      `Pass)

let captured t = Array.sub t.envs 0 t.n_envs

let wrap_service t (s : Service.t) =
  let paged =
    Option.map
      (fun (p : Service.paged) ->
        {
          p with
          Service.pg_pages = (fun () -> span t "service.ckpt_pages" p.Service.pg_pages);
          pg_drain_dirty =
            (fun () ->
              let dirty = span t "service.ckpt_drain" p.Service.pg_drain_dirty in
              t.dirty_pages <- t.dirty_pages + List.length dirty;
              dirty);
        })
      s.Service.paged
  in
  {
    s with
    Service.execute =
      (fun ~client ~op ~nondet ->
        t.exec_calls <- t.exec_calls + 1;
        t.exec_model_us <- t.exec_model_us +. s.Service.exec_cost_us op;
        span t ~req:client "service.execute" (fun () -> s.Service.execute ~client ~op ~nondet));
    snapshot = (fun () -> span t "service.snapshot" s.Service.snapshot);
    paged;
  }

(* Run the engine while [cond ()] holds, up to [until], exactly as
   [Cluster.run_until] does. Untraced, the predicate interleaves the host
   speed calibration; traced, it times each step instead: consecutive
   predicate calls bracket exactly one [Engine.step]. *)
let drive probe engine ~until cond =
  match probe with
  | None ->
      ignore
        (Engine.run_while engine ~until (fun () ->
             Calib.step ();
             cond ()))
  | Some t ->
      let last = ref 0L in
      ignore
        (Engine.run_while engine ~until (fun () ->
             let now = wall_now () in
             if Int64.compare !last 0L > 0 then begin
               t.steps <- t.steps + 1;
               t.step_ns <- t.step_ns +. ns_between !last now
             end;
             let r = cond () in
             last := wall_now ();
             r))

(* Fold one finished cluster's counters into the repetition's totals. *)
let add_cluster t c =
  let net = Cluster.network c and e = Cluster.engine c in
  let st = Network.stats net in
  t.sent <- t.sent + st.Network.sent;
  t.delivered <- t.delivered + st.Network.delivered;
  t.dropped <- t.dropped + st.Network.dropped;
  t.bytes_sent <- t.bytes_sent + st.Network.bytes_sent;
  t.events <- t.events + Engine.events_fired e;
  t.max_heap <- max t.max_heap (Engine.max_heap_size e);
  Array.iter
    (fun r ->
      let k = Replica.counters r in
      t.executed <- t.executed + k.Replica.n_executed;
      t.batches <- t.batches + k.Replica.n_batches;
      t.view_changes <- t.view_changes + k.Replica.n_view_changes;
      t.state_transfers <- t.state_transfers + k.Replica.n_state_transfers;
      t.checkpoints <- t.checkpoints + k.Replica.n_checkpoints;
      t.backlog_hwm <- max t.backlog_hwm (Network.backlog_hwm net ~id:(Replica.id r)))
    (Cluster.replicas c);
  match Cluster.observations c with
  | None -> ()
  | Some reg ->
      let n = (Cluster.config c).Config.n in
      List.iter
        (fun (id, o) ->
          if id < n then begin
            Hist.merge_into t.order (Obs.phase_hist o 0);
            Hist.merge_into t.preprep (Obs.phase_hist o 1);
            Hist.merge_into t.prep (Obs.phase_hist o 2)
          end)
        (Obs.nodes reg)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Median wall time of three passes of [f]. *)
let median3 f =
  let a = Array.init 3 (fun _ -> snd (timed f)) in
  Array.sort Float.compare a;
  a.(1)

type replay = {
  encode_ns : float;
  digest_ns : float;
  mac_ns : float;
  wire_bytes : int;  (** encoded message bodies, once per send *)
  maced_bytes : int;  (** bytes each receiver MACs to verify *)
  crypto_model_us : float;
  wire_model_us : float;
  net_model_us : float;
}

(* Replays every captured send: one encode and one digest per send, and one
   receiver-side MAC verification per receiver. The [*_model_us] fields are
   the virtual time [Costs.default] charges for the same counted work. *)
let replay t =
  let costs = Costs.default in
  let envs = captured t in
  let bytes = Array.map Wire.envelope_bytes envs in
  let key = Bft_crypto.Hmac.precompute ~key:"perfbench-replay-key" in
  let encode_ns =
    median3 (fun () -> Array.iter (fun (e : Message.envelope) -> ignore (Wire.encode e.body)) envs)
  in
  let digest_ns = median3 (fun () -> Array.iter (fun b -> ignore (Bft_crypto.Sha256.digest b)) bytes) in
  let mac_ns =
    median3 (fun () ->
        Array.iteri
          (fun i b ->
            for _ = 1 to t.receivers.(i) do
              ignore
                (Bft_crypto.Hmac.mac_truncated_precomputed key Bft_crypto.Auth.tag_size b)
            done)
          bytes)
  in
  let wire_bytes = ref 0 and maced_bytes = ref 0 in
  let crypto_us = ref 0.0 and wire_us = ref 0.0 and net_us = ref 0.0 in
  Array.iteri
    (fun i (e : Message.envelope) ->
      let len = String.length bytes.(i) and rcv = float_of_int t.receivers.(i) in
      let size = Wire.envelope_size e in
      let gen_us, verify_us =
        match e.auth with
        | Message.Auth_none -> (0.0, 0.0)
        | Auth_mac _ -> (costs.Costs.mac_us, costs.Costs.mac_us)
        | Auth_vector a -> (Costs.auth_gen_us costs (List.length a), costs.Costs.mac_us)
        | Auth_sig _ -> (costs.Costs.sig_gen_us, costs.Costs.sig_verify_us)
      in
      wire_bytes := !wire_bytes + len;
      maced_bytes := !maced_bytes + (len * t.receivers.(i));
      crypto_us := !crypto_us +. gen_us +. (rcv *. verify_us) +. Costs.digest_us costs len;
      wire_us := !wire_us +. (rcv *. Costs.wire_us costs size);
      net_us := !net_us +. Costs.send_cpu_us costs size +. (rcv *. Costs.recv_cpu_us costs size))
    envs;
  {
    encode_ns;
    digest_ns;
    mac_ns;
    wire_bytes = !wire_bytes;
    maced_bytes = !maced_bytes;
    crypto_model_us = !crypto_us;
    wire_model_us = !wire_us;
    net_model_us = !net_us;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let mean_us h = if Hist.count h = 0 then 0.0 else Hist.sum_us h /. float_of_int (Hist.count h)

(* The layer metrics the probe itself measured. [drive_ns] is the wall
   time the engine ran; the time no instrument accounts for is its own
   row, [unattributed.*]. Without captured envelopes (fuzz_f1, where the
   runner owns the adversary hook) the crypto and wire rows read 0. *)
let metrics t ~ops ~drive_ns =
  let per_op x = x /. float_of_int (max 1 ops) in
  let rp = if t.n_envs > 0 then Some (replay t) else None in
  let get f = match rp with Some r -> f r | None -> 0.0 in
  let exec_ns = total_ns t "service.execute" in
  let ckpt_ns =
    total_ns t "service.snapshot" +. total_ns t "service.ckpt_pages" +. total_ns t "service.ckpt_drain"
  in
  let mac_ns = get (fun r -> r.mac_ns)
  and digest_ns = get (fun r -> r.digest_ns)
  and encode_ns = get (fun r -> r.encode_ns) in
  let service_ns = exec_ns +. ckpt_ns and crypto_ns = mac_ns +. digest_ns in
  let rest = drive_ns -. service_ns -. crypto_ns -. encode_ns in
  let frac x = x /. Float.max 1.0 drive_ns in
  let ckpts = max 1 t.checkpoints in
  [
    metric "crypto.bytes_maced_per_op" "B" (get (fun r -> per_op (float_of_int r.maced_bytes)));
    metric "crypto.mac_ns_per_op" "ns" (per_op mac_ns);
    metric "crypto.digest_ns_per_op" "ns" (per_op digest_ns);
    metric "crypto.model_us_per_op" "us" (get (fun r -> per_op r.crypto_model_us));
    metric "crypto.wall_frac" "frac" (frac crypto_ns);
    metric "wire.encode_ns_per_op" "ns" (per_op encode_ns);
    metric "wire.bytes_per_op" "B" (get (fun r -> per_op (float_of_int r.wire_bytes)));
    metric "wire.model_us_per_op" "us" (get (fun r -> per_op r.wire_model_us));
    metric "wire.wall_frac" "frac" (frac encode_ns);
    metric "net.msgs_per_op" "count" (per_op (float_of_int t.sent));
    metric "net.deliveries_per_op" "count" (per_op (float_of_int t.delivered));
    metric "net.bytes_per_op" "B" (per_op (float_of_int t.bytes_sent));
    metric "net.dropped_frac" "frac"
      (float_of_int t.dropped /. float_of_int (max 1 (t.delivered + t.dropped)));
    metric "net.backlog_hwm" "count" (float_of_int t.backlog_hwm);
    metric "net.model_us_per_op" "us" (get (fun r -> per_op r.net_model_us));
    metric "engine.events_per_op" "count" (per_op (float_of_int t.events));
    metric "engine.max_heap" "count" (float_of_int t.max_heap);
    metric ~samples:t.steps "engine.step_ns_per_event" "ns"
      (t.step_ns /. float_of_int (max 1 t.steps));
    metric "replica.ops_per_batch" "count"
      (float_of_int t.executed /. float_of_int (max 1 t.batches));
    metric ~samples:(Hist.count t.order) "replica.order_wait_us" "us" (mean_us t.order);
    metric ~samples:(Hist.count t.prep) "replica.agree_us" "us" (mean_us t.preprep +. mean_us t.prep);
    metric "replica.view_changes" "count" (float_of_int t.view_changes);
    metric "replica.state_transfers" "count" (float_of_int t.state_transfers);
    metric "replica.checkpoints" "count" (float_of_int t.checkpoints);
    metric ~samples:t.exec_calls "service.exec_ns_per_op" "ns" (per_op exec_ns);
    metric "service.ckpt_ns_per_ckpt" "ns" (ckpt_ns /. float_of_int ckpts);
    metric "service.dirty_pages_per_ckpt" "count"
      (float_of_int t.dirty_pages /. float_of_int ckpts);
    metric "service.model_us_per_op" "us" (per_op t.exec_model_us);
    metric "service.wall_frac" "frac" (frac service_ns);
    metric "unattributed.ns_per_op" "ns" (per_op rest);
    metric "unattributed.wall_frac" "frac" (frac rest);
  ]
