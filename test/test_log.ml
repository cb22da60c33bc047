(* Message log: water marks, certificates, garbage collection. *)

open Bft_core
open Message

let cfg = Config.make ~f:1 ~checkpoint_interval:10 ()
let d1 = String.make 32 'a'
let d2 = String.make 32 'b'

let pp ?(view = 0) seq = { pp_view = view; pp_seq = seq; pp_batch = []; pp_nondet = "n" }
let prep ?(view = 0) ~seq ~d i = { pr_view = view; pr_seq = seq; pr_digest = d; pr_replica = i }
let com ?(view = 0) ~seq ~d i = { cm_view = view; cm_seq = seq; cm_digest = d; cm_replica = i }

let test_window () =
  let log = Log.create cfg in
  Alcotest.(check bool) "0 outside" false (Log.in_window log 0);
  Alcotest.(check bool) "1 inside" true (Log.in_window log 1);
  Alcotest.(check bool) "L inside" true (Log.in_window log cfg.Config.log_size);
  Alcotest.(check bool) "L+1 outside" false (Log.in_window log (cfg.Config.log_size + 1));
  Alcotest.check_raises "find outside"
    (Invalid_argument "Log.find: seq 0 outside window (h=0)") (fun () ->
      ignore (Log.find log 0))

let test_accept_pre_prepare_conflict () =
  let log = Log.create cfg in
  Alcotest.(check bool) "first accept" true (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Alcotest.(check bool) "same digest idempotent" true
    (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Alcotest.(check bool) "conflicting digest rejected" false
    (Log.accept_pre_prepare log ~view:0 (pp 1) d2);
  (* a later view may rebind the sequence number *)
  Alcotest.(check bool) "new view may rebind" true
    (Log.accept_pre_prepare log ~view:1 (pp ~view:1 1) d2)

let test_prepared_certificate () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Alcotest.(check bool) "not prepared yet" false (Log.prepared log ~view:0 ~seq:1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 1);
  Alcotest.(check bool) "one prepare insufficient" false (Log.prepared log ~view:0 ~seq:1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 2);
  Alcotest.(check bool) "2f matching prepares" true (Log.prepared log ~view:0 ~seq:1)

let test_prepared_requires_matching_digest_and_view () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Log.add_prepare log (prep ~seq:1 ~d:d2 1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 2);
  Alcotest.(check bool) "digest mismatch does not count" false (Log.prepared log ~view:0 ~seq:1);
  Log.add_prepare log (prep ~view:1 ~seq:1 ~d:d1 3);
  Alcotest.(check bool) "view mismatch does not count" false (Log.prepared log ~view:0 ~seq:1)

let test_primary_prepare_does_not_count () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  (* replica 0 is the primary of view 0; its prepares must be ignored *)
  Log.add_prepare log (prep ~seq:1 ~d:d1 0);
  Log.add_prepare log (prep ~seq:1 ~d:d1 1);
  Alcotest.(check bool) "primary prepare ignored" false (Log.prepared log ~view:0 ~seq:1)

let test_committed_certificate () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 2);
  Log.add_commit log (com ~seq:1 ~d:d1 0);
  Log.add_commit log (com ~seq:1 ~d:d1 1);
  Alcotest.(check bool) "2 commits insufficient" false (Log.committed log ~view:0 ~seq:1);
  Log.add_commit log (com ~seq:1 ~d:d1 2);
  Alcotest.(check bool) "2f+1 commits" true (Log.committed log ~view:0 ~seq:1);
  Alcotest.(check int) "commit count" 3 (Log.commit_count log ~seq:1 d1)

let test_commit_digest_mismatch () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 2);
  Log.add_commit log (com ~seq:1 ~d:d2 0);
  Log.add_commit log (com ~seq:1 ~d:d2 1);
  Log.add_commit log (com ~seq:1 ~d:d2 2);
  Alcotest.(check bool) "mismatching commits do not commit" false
    (Log.committed log ~view:0 ~seq:1)

let test_early_prepare_creates_entry () =
  let log = Log.create cfg in
  Log.add_prepare log (prep ~seq:3 ~d:d1 1);
  Alcotest.(check bool) "entry exists" true (Log.entry log 3 <> None);
  ignore (Log.accept_pre_prepare log ~view:0 (pp 3) d1);
  Log.add_prepare log (prep ~seq:3 ~d:d1 2);
  Alcotest.(check bool) "prepared with early prepare" true (Log.prepared log ~view:0 ~seq:3)

let test_truncate () =
  let log = Log.create cfg in
  for n = 1 to 15 do
    ignore (Log.accept_pre_prepare log ~view:0 (pp n) d1)
  done;
  Log.truncate log 10;
  Alcotest.(check int) "low mark" 10 (Log.low_mark log);
  Alcotest.(check bool) "10 dropped" true (Log.entry log 10 = None);
  Alcotest.(check bool) "11 kept" true (Log.entry log 11 <> None);
  Alcotest.(check bool) "window shifted" true (Log.in_window log (10 + cfg.Config.log_size));
  (* truncation never moves backwards *)
  Log.truncate log 5;
  Alcotest.(check int) "no backward truncate" 10 (Log.low_mark log)

let test_iter_window_ordered () =
  let log = Log.create cfg in
  List.iter (fun n -> ignore (Log.accept_pre_prepare log ~view:0 (pp n) d1)) [ 5; 2; 9 ];
  let seen = ref [] in
  Log.iter_window log (fun e -> seen := e.Log.seq :: !seen);
  Alcotest.(check (list int)) "ascending" [ 2; 5; 9 ] (List.rev !seen)

let test_clear_entries () =
  let log = Log.create cfg in
  Log.truncate log 7;
  ignore (Log.accept_pre_prepare log ~view:0 (pp 8) d1);
  Log.clear_entries log;
  Alcotest.(check bool) "entries gone" true (Log.entry log 8 = None);
  Alcotest.(check int) "low mark kept" 7 (Log.low_mark log)

(* --- model test: the ring log against a Hashtbl reference model --- *)

(* A small window, so random sequences wrap the ring many times. *)
let mcfg = Config.make ~f:1 ~checkpoint_interval:4 ()
let ml = mcfg.Config.log_size
let mn = mcfg.Config.n

(* The reference: a Hashtbl of entries, each vote table a Hashtbl keyed by
   replica id, with votes from ids outside [0, n) ignored. *)
module Model = struct
  type e = {
    mutable pd : string option;
    mutable pv : int;
    prep : (int, int * string) Hashtbl.t;
    com : (int, int * string) Hashtbl.t;
  }

  type t = { mutable h : int; tbl : (int, e) Hashtbl.t }

  let create () = { h = 0; tbl = Hashtbl.create 16 }
  let in_window m n = n > m.h && n <= m.h + ml
  let entry m n = if in_window m n then Hashtbl.find_opt m.tbl n else None

  let find m n =
    if not (in_window m n) then invalid_arg "Model.find";
    match Hashtbl.find_opt m.tbl n with
    | Some e -> e
    | None ->
        let e = { pd = None; pv = -1; prep = Hashtbl.create 4; com = Hashtbl.create 4 } in
        Hashtbl.replace m.tbl n e;
        e

  let accept m ~view ~seq d =
    let e = find m seq in
    match e.pd with
    | Some d' when e.pv = view && not (String.equal d' d) -> false
    | _ ->
        e.pd <- Some d;
        e.pv <- view;
        true

  let vote pick m ~view ~seq ~replica d =
    if in_window m seq && replica >= 0 && replica < mn then
      Hashtbl.replace (pick (find m seq)) replica (view, d)

  let prepared m ~view ~seq =
    match entry m seq with
    | Some { pd = Some d; pv; prep; _ } when pv = view ->
        let primary = Config.primary mcfg ~view in
        Hashtbl.fold
          (fun r (v, d') acc ->
            if r <> primary && v = view && String.equal d' d then acc + 1 else acc)
          prep 0
        >= 2 * mcfg.Config.f
    | _ -> false

  let commit_count m ~seq d =
    match entry m seq with
    | None -> 0
    | Some e ->
        Hashtbl.fold (fun _ (_, d') acc -> if String.equal d' d then acc + 1 else acc) e.com 0

  let committed m ~view ~seq =
    prepared m ~view ~seq
    &&
    match entry m seq with
    | Some { pd = Some d; _ } -> commit_count m ~seq d >= Config.quorum mcfg
    | _ -> false

  let truncate m n =
    if n > m.h then begin
      m.h <- n;
      Hashtbl.filter_map_inplace (fun seq e -> if seq <= n then None else Some e) m.tbl
    end

  let seqs m = List.sort Int.compare (Hashtbl.fold (fun seq _ acc -> seq :: acc) m.tbl [])
end

(* Sequence numbers are offsets from the current low mark, so the run
   follows the window as truncation moves it along the ring. *)
type op =
  | Find of int
  | Accept of int * int * int (* view, offset, digest *)
  | Prepare of int * int * int * int (* view, offset, digest, replica *)
  | Commit of int * int * int * int
  | Truncate of int (* advance *)
  | Clear

let digests = [| d1; d2; String.make 32 'c' |]

let show_op = function
  | Find o -> Printf.sprintf "find h+%d" o
  | Accept (v, o, d) -> Printf.sprintf "accept v%d h+%d d%d" v o d
  | Prepare (v, o, d, r) -> Printf.sprintf "prepare v%d h+%d d%d r%d" v o d r
  | Commit (v, o, d, r) -> Printf.sprintf "commit v%d h+%d d%d r%d" v o d r
  | Truncate a -> Printf.sprintf "truncate h+%d" a
  | Clear -> "clear"

let gen_op =
  let open QCheck.Gen in
  let off = int_range (-2) (ml + 2) and view = int_range 0 2 and dg = int_range 0 2 in
  let replica = int_range (-2) (mn + 2) in
  frequency
    [
      (2, map (fun o -> Find o) off);
      (4, map3 (fun v o d -> Accept (v, o, d)) view off dg);
      (6, map (fun (v, o, d, r) -> Prepare (v, o, d, r)) (quad view off dg replica));
      (6, map (fun (v, o, d, r) -> Commit (v, o, d, r)) (quad view off dg replica));
      (2, map (fun a -> Truncate a) (int_range (-1) (ml + 3)));
      (1, return Clear);
    ]

let outcome f = match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let apply log m = function
  | Find o ->
      let seq = m.Model.h + o in
      outcome (fun () -> ignore (Log.find log seq)) = outcome (fun () -> ignore (Model.find m seq))
  | Accept (view, o, d) ->
      let seq = m.Model.h + o and d = digests.(d) in
      let pp = { pp_view = view; pp_seq = seq; pp_batch = []; pp_nondet = "n" } in
      outcome (fun () -> Log.accept_pre_prepare log ~view pp d)
      = outcome (fun () -> Model.accept m ~view ~seq d)
  | Prepare (view, o, d, r) ->
      let seq = m.Model.h + o in
      Log.add_prepare log (prep ~view ~seq ~d:digests.(d) r);
      Model.vote (fun e -> e.Model.prep) m ~view ~seq ~replica:r digests.(d);
      true
  | Commit (view, o, d, r) ->
      let seq = m.Model.h + o in
      Log.add_commit log (com ~view ~seq ~d:digests.(d) r);
      Model.vote (fun e -> e.Model.com) m ~view ~seq ~replica:r digests.(d);
      true
  | Truncate a ->
      let n = m.Model.h + a in
      Log.truncate log n;
      Model.truncate m n;
      true
  | Clear ->
      Log.clear_entries log;
      Hashtbl.reset m.Model.tbl;
      true

(* the ring's votes as an ascending (replica, vote) list *)
let votes_of arr =
  List.concat_map Option.to_list
    (List.mapi (fun r -> Option.map (fun v -> (r, v))) (Array.to_list arr))

let sorted_votes tbl = List.sort compare (Hashtbl.fold (fun r v acc -> (r, v) :: acc) tbl [])

let agrees log m =
  let seen = ref [] in
  Log.iter_window log (fun e -> seen := e.Log.seq :: !seen);
  Log.low_mark log = m.Model.h
  && List.rev !seen = Model.seqs m
  && List.for_all
       (fun seq ->
         (match (Log.entry log seq, Model.entry m seq) with
         | None, None -> true
         | Some e, Some me ->
             e.Log.seq = seq && e.Log.pp_digest = me.Model.pd && e.Log.pp_view = me.Model.pv
             && votes_of e.Log.prepares = sorted_votes me.Model.prep
             && votes_of e.Log.commits = sorted_votes me.Model.com
         | _ -> false)
         && List.for_all
              (fun view ->
                Log.prepared log ~view ~seq = Model.prepared m ~view ~seq
                && Log.committed log ~view ~seq = Model.committed m ~view ~seq)
              [ 0; 1; 2 ]
         && Array.for_all
              (fun d -> Log.commit_count log ~seq d = Model.commit_count m ~seq d)
              digests)
       (List.init (ml + 7) (fun i -> m.Model.h - 3 + i))

let prop_log_model =
  QCheck.Test.make ~count:300 ~name:"ring log = Hashtbl model"
    QCheck.(make ~print:(Print.list show_op) Gen.(list_size (int_range 1 120) gen_op))
    (fun ops ->
      let log = Log.create mcfg and m = Model.create () in
      List.for_all (fun op -> apply log m op && agrees log m) ops)

(* --- status claims: the window table against List.mem --- *)

let claim_ref ~prepared ~committed n =
  if List.mem n committed then Log.Claimed_committed
  else if List.mem n prepared then Log.Claimed_prepared
  else Log.Unclaimed

(* hostile claim lists: duplicates, any order, negatives, values far past
   the window, and seqs claimed both prepared and committed *)
let gen_claims =
  let open QCheck.Gen in
  int_range (-5) 40 >>= fun lo ->
  int_range 1 16 >>= fun size ->
  let value =
    frequency
      [
        (8, int_range (lo - 4) (lo + size + 4));
        (1, int_range (-1000) (-1));
        (1, oneofl [ min_int; max_int; lo; lo + size; lo + size + 1 ]);
      ]
  in
  list_size (int_range 0 30) value >>= fun prepared ->
  list_size (int_range 0 30) value >>= fun committed ->
  list_size (int_range 0 5) (oneofl (if prepared = [] then [ lo + 1 ] else prepared))
  >>= fun both -> return (lo, size, prepared, both @ committed)

let prop_claims =
  QCheck.Test.make ~count:1000 ~name:"status claims = List.mem"
    QCheck.(
      make
        ~print:(fun (lo, size, p, c) ->
          Printf.sprintf "lo=%d size=%d prepared=%s committed=%s" lo size (Print.(list int) p)
            (Print.(list int) c))
        gen_claims)
    (fun (lo, size, prepared, committed) ->
      let claim = Log.claims ~lo ~size ~prepared ~committed in
      List.for_all
        (fun n ->
          let expect =
            if n > lo && n <= lo + size then claim_ref ~prepared ~committed n else Log.Unclaimed
          in
          claim n = expect)
        (List.init (size + 10) (fun i -> lo - 4 + i)))

let suites =
  [
    ( "core.log",
      [
        Alcotest.test_case "window" `Quick test_window;
        Alcotest.test_case "pre-prepare conflict" `Quick test_accept_pre_prepare_conflict;
        Alcotest.test_case "prepared certificate" `Quick test_prepared_certificate;
        Alcotest.test_case "prepared digest/view match" `Quick test_prepared_requires_matching_digest_and_view;
        Alcotest.test_case "primary prepare ignored" `Quick test_primary_prepare_does_not_count;
        Alcotest.test_case "committed certificate" `Quick test_committed_certificate;
        Alcotest.test_case "commit digest mismatch" `Quick test_commit_digest_mismatch;
        Alcotest.test_case "early prepare" `Quick test_early_prepare_creates_entry;
        Alcotest.test_case "truncate" `Quick test_truncate;
        Alcotest.test_case "iter ordered" `Quick test_iter_window_ordered;
        Alcotest.test_case "clear entries" `Quick test_clear_entries;
        QCheck_alcotest.to_alcotest prop_log_model;
        QCheck_alcotest.to_alcotest prop_claims;
      ] );
  ]
