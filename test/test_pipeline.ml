(* The replica's ordering pipeline against a reference model of the three
   tables it replaced (queued, assigned, waiting), the primary's request
   FIFO (a plain list), the full-table scan that counted a client's
   in-flight requests and the fold that purged superseded waiting
   requests. Operations follow the replica's call discipline: a body is
   stored before a digest is enqueued or noted waiting. *)

open Bft_core

(* nine digests spread over three clients and three timestamps each *)
let universe = 9
let digest i = Printf.sprintf "digest-%d" i
let client_of i = i mod 3
let ts_of i = Int64.of_int ((i / 3) + 1)

module Model = struct
  type t = {
    requests : (string, int * int64) Hashtbl.t; (* stored bodies *)
    queued : (string, unit) Hashtbl.t;
    mutable fifo : string list; (* the queued digests, oldest first *)
    assigned : (string, unit) Hashtbl.t;
    waiting : (string, int64) Hashtbl.t;
  }

  let create () =
    {
      requests = Hashtbl.create 16;
      queued = Hashtbl.create 16;
      fifo = [];
      assigned = Hashtbl.create 16;
      waiting = Hashtbl.create 16;
    }

  let mem m d = Hashtbl.mem m.queued d || Hashtbl.mem m.assigned d || Hashtbl.mem m.waiting d

  (* the scan the per-client index replaced *)
  let client_inflight m client =
    let seen = Hashtbl.create 16 in
    let note d =
      match Hashtbl.find_opt m.requests d with
      | Some (c, _) when c = client -> Hashtbl.replace seen d ()
      | _ -> ()
    in
    Hashtbl.iter (fun d () -> note d) m.queued;
    Hashtbl.iter (fun d () -> note d) m.assigned;
    Hashtbl.iter (fun d _ -> note d) m.waiting;
    Hashtbl.length seen

  (* the fold the per-client purge replaced; returns the purged digests *)
  let purge m ~client ~ts =
    let dead =
      Hashtbl.fold
        (fun d _ acc ->
          match Hashtbl.find_opt m.requests d with
          | Some (c, t) when c = client && Int64.compare t ts <= 0 -> d :: acc
          | _ -> acc)
        m.waiting []
    in
    List.iter (Hashtbl.remove m.waiting) dead;
    List.sort String.compare dead

  let sorted h = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])
end

type op =
  | Store of int (* body stored, nothing else *)
  | Enqueue of int (* primary admits: store, then queue *)
  | Take of int (* the primary forms a batch of up to k queued digests *)
  | Execute of int (* the batch holding it executed: assigned cleared *)
  | Note_waiting of int (* backup admits: store, then wait *)
  | Clear_waiting of int
  | Purge of int * int (* client, timestamp *)
  | Reset_assigned (* view change *)
  | Crash (* crash_reboot *)

let show_op = function
  | Store i -> Printf.sprintf "store %d" i
  | Enqueue i -> Printf.sprintf "enqueue %d" i
  | Take k -> Printf.sprintf "take %d" k
  | Execute i -> Printf.sprintf "execute %d" i
  | Note_waiting i -> Printf.sprintf "wait %d" i
  | Clear_waiting i -> Printf.sprintf "unwait %d" i
  | Purge (c, ts) -> Printf.sprintf "purge c%d ts<=%d" c ts
  | Reset_assigned -> "reset-assigned"
  | Crash -> "crash"

let gen_op =
  let open QCheck.Gen in
  let d = int_range 0 (universe - 1) in
  frequency
    [
      (2, map (fun i -> Store i) d);
      (4, map (fun i -> Enqueue i) d);
      (4, map (fun k -> Take k) (int_range 0 4));
      (3, map (fun i -> Execute i) d);
      (4, map (fun i -> Note_waiting i) d);
      (2, map (fun i -> Clear_waiting i) d);
      (2, map2 (fun c ts -> Purge (c, ts)) (int_range 0 3) (int_range 0 4));
      (1, return Reset_assigned);
      (1, return Crash);
    ]

(* the replica's [store_request]: report a body only when it is new *)
let store p m i =
  let d = digest i in
  if not (Hashtbl.mem m.Model.requests d) then begin
    Hashtbl.replace m.Model.requests d (client_of i, ts_of i);
    Pipeline.body_stored p d
  end

(* apply [op] to both; [false] when their answers differ *)
let apply p m now op =
  match op with
  | Store i ->
      store p m i;
      true
  | Enqueue i ->
      store p m i;
      let d = digest i in
      let expect = not (Hashtbl.mem m.Model.queued d || Hashtbl.mem m.Model.assigned d) in
      if expect then begin
        Hashtbl.replace m.Model.queued d ();
        m.Model.fifo <- m.Model.fifo @ [ d ]
      end;
      Bool.equal (Pipeline.enqueue p d ~client:(client_of i) ~ts:(ts_of i)) expect
  | Take k ->
      let got = Pipeline.take p k in
      let expect = List.filteri (fun j _ -> j < k) m.Model.fifo in
      (* a digest still assigned is never handed out again *)
      let fresh = List.for_all (fun d -> not (Hashtbl.mem m.Model.assigned d)) got in
      m.Model.fifo <- List.filteri (fun j _ -> j >= k) m.Model.fifo;
      List.iter
        (fun d ->
          Hashtbl.remove m.Model.queued d;
          Hashtbl.replace m.Model.assigned d ())
        expect;
      fresh && List.equal String.equal got expect
  | Execute i ->
      let d = digest i in
      Hashtbl.remove m.Model.assigned d;
      Pipeline.unassign p d;
      true
  | Note_waiting i ->
      store p m i;
      let d = digest i in
      let expect = not (Hashtbl.mem m.Model.waiting d) in
      if expect then Hashtbl.replace m.Model.waiting d now;
      Bool.equal (Pipeline.note_waiting p d ~client:(client_of i) ~ts:(ts_of i) ~now) expect
  | Clear_waiting i ->
      let d = digest i in
      let expect = Hashtbl.find_opt m.Model.waiting d in
      Hashtbl.remove m.Model.waiting d;
      Option.equal Int64.equal (Pipeline.clear_waiting p d) expect
  | Purge (client, ts) ->
      let ts = Int64.of_int ts in
      let before = Pipeline.waiting_digests p in
      let purged = Pipeline.purge_waiting p ~client ~ts in
      let after = Pipeline.waiting_digests p in
      let expect = Model.purge m ~client ~ts in
      Bool.equal purged (not (List.is_empty expect))
      && List.equal String.equal
           (List.filter (fun d -> not (List.exists (String.equal d) after)) before)
           expect
  | Reset_assigned ->
      Hashtbl.reset m.Model.assigned;
      Pipeline.reset_assigned p;
      true
  | Crash ->
      Hashtbl.reset m.Model.requests;
      Hashtbl.reset m.Model.queued;
      m.Model.fifo <- [];
      Hashtbl.reset m.Model.waiting;
      Pipeline.crash p;
      true

let agrees p m =
  List.for_all (fun c -> Pipeline.inflight p c = Model.client_inflight m c) [ 0; 1; 2; 3 ]
  && List.for_all
       (fun i -> Bool.equal (Pipeline.mem p (digest i)) (Model.mem m (digest i)))
       (List.init universe Fun.id)
  && Pipeline.waiting_count p = Hashtbl.length m.Model.waiting
  && Pipeline.queued_count p = List.length m.Model.fifo
  && List.equal String.equal (Pipeline.queued_digests p) m.Model.fifo
  && List.equal String.equal (Pipeline.assigned_digests p) (Model.sorted m.Model.assigned)
  && List.equal String.equal (Pipeline.waiting_digests p) (Model.sorted m.Model.waiting)

let run ops =
  let p = Pipeline.create () and m = Model.create () in
  List.for_all Fun.id
    (List.mapi (fun k op -> apply p m (Int64.of_int k) op && agrees p m) ops)

let prop_model =
  QCheck.Test.make ~count:500 ~name:"pipeline = three tables + scans"
    QCheck.(make ~print:(Print.list show_op) Gen.(list_size (int_range 1 80) gen_op))
    run

(* an assignment outlives its body across a crash: it stays in the
   pipeline but counts for nobody until the body is stored again *)
let test_assigned_outlives_body () =
  let ops = [ Enqueue 0; Enqueue 3; Take 1; Note_waiting 6; Crash ] in
  let p = Pipeline.create () and m = Model.create () in
  List.iteri (fun k op -> assert (apply p m (Int64.of_int k) op)) ops;
  Alcotest.(check bool) "still assigned" true (Pipeline.mem p (digest 0));
  Alcotest.(check bool) "queued digest gone" false (Pipeline.mem p (digest 3));
  Alcotest.(check int) "counts for nobody" 0 (Pipeline.inflight p 0);
  Alcotest.(check int) "waiting cleared" 0 (Pipeline.waiting_count p);
  Alcotest.(check bool) "re-stored body" true (apply p m 9L (Store 0));
  Alcotest.(check int) "counts again" 1 (Pipeline.inflight p 0);
  Alcotest.(check bool) "model agrees" true (agrees p m);
  Alcotest.(check bool) "executes" true (apply p m 10L (Execute 0));
  Alcotest.(check int) "left the pipeline" 0 (Pipeline.inflight p 0);
  Alcotest.(check bool) "gone" false (Pipeline.mem p (digest 0))

let suites =
  [
    ( "core.pipeline",
      [
        Alcotest.test_case "assigned outlives its body" `Quick test_assigned_outlives_body;
        QCheck_alcotest.to_alcotest prop_model;
      ] );
  ]
