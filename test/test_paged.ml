(* Incremental checkpointing: the paged record arena, dirty-aware services,
   hardened replica snapshot restore, the ordered reply cache, and paged
   end-to-end clusters. *)

open Bft_core
module Img = Bft_sm.Paged_image

(* --- paged record arena --- *)

let test_image_roundtrip () =
  let a = Img.create ~page_size:64 () in
  Img.set a ~key:"alpha" ~value:"1";
  Img.set a ~key:"beta" ~value:"two";
  Img.set a ~key:"alpha" ~value:"9";
  Alcotest.(check (option string)) "updated" (Some "9") (Img.find a ~key:"alpha");
  Alcotest.(check (option string)) "other" (Some "two") (Img.find a ~key:"beta");
  Alcotest.(check bool) "remove" true (Img.remove a ~key:"beta");
  Alcotest.(check bool) "remove again" false (Img.remove a ~key:"beta");
  Alcotest.(check (option string)) "gone" None (Img.find a ~key:"beta");
  let seen = ref [] in
  Img.iter a (fun k v -> seen := (k, v) :: !seen);
  Alcotest.(check (list (pair string string))) "iter" [ ("alpha", "9") ] !seen;
  Alcotest.(check string) "image = concat pages"
    (String.concat "" (Array.to_list (Img.pages a)))
    (Img.image a);
  (* restore into a fresh arena reproduces the exact bytes *)
  let b = Img.create ~page_size:64 () in
  (match Img.restore b (Img.image a) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  Alcotest.(check string) "restored image" (Img.image a) (Img.image b)

let test_image_page_shape_and_sharing () =
  let a = Img.create ~page_size:32 () in
  for i = 1 to 40 do
    Img.set a ~key:(Printf.sprintf "k%03d" i) ~value:(Printf.sprintf "v%03d" i)
  done;
  let ps = Img.pages a in
  Array.iter (fun p -> Alcotest.(check int) "full page" 32 (String.length p)) ps;
  (* a second call returns physically identical strings *)
  let ps' = Img.pages a in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "shared" true ((p == ps'.(i)) [@lint.allow "digest-compare"]))
    ps;
  (* an in-place overwrite leaves untouched pages physically shared *)
  Img.set a ~key:"k001" ~value:"V001";
  let ps'' = Img.pages a in
  let shared = ref 0 in
  (* physical sharing is the property under test *)
  Array.iteri
    (fun i p ->
      if i < Array.length ps && ((p == ps.(i)) [@lint.allow "digest-compare"]) then incr shared)
    ps'';
  Alcotest.(check bool)
    (Printf.sprintf "most pages shared (%d/%d)" !shared (Array.length ps''))
    true
    (!shared >= Array.length ps'' - 2)

let test_image_dirty_tracking () =
  let a = Img.create ~page_size:32 () in
  ignore (Img.drain_dirty a);
  Alcotest.(check (list int)) "clean after drain" [] (Img.drain_dirty a);
  (* push the record of interest past page 0 so header and record pages
     are distinguishable *)
  Img.set a ~key:"filler" ~value:(String.make 40 'f');
  Img.set a ~key:"k" ~value:(String.make 32 'a');
  ignore (Img.drain_dirty a);
  (* rewriting a record with identical bytes dirties nothing *)
  Img.set a ~key:"k" ~value:(String.make 32 'a');
  Alcotest.(check (list int)) "identical rewrite" [] (Img.drain_dirty a);
  (* a same-length in-place change dirties only the record's pages, not the
     header (no allocation) *)
  Img.set a ~key:"k" ~value:(String.make 32 'b');
  let d = Img.drain_dirty a in
  Alcotest.(check bool) "no header page" true (not (List.mem 0 d));
  Alcotest.(check bool) "some page dirty" true (d <> []);
  (* an allocation moves the bump pointer: page 0 is dirty again *)
  Img.set a ~key:"k2" ~value:"fresh";
  Alcotest.(check bool) "header dirty on alloc" true (List.mem 0 (Img.drain_dirty a))

let test_image_determinism_across_restore () =
  (* a replica that restored mid-history must produce byte-identical
     images from the same subsequent operations *)
  let ops1 = List.init 20 (fun i -> (Printf.sprintf "k%d" i, Printf.sprintf "v%d" i)) in
  let ops2 = List.init 10 (fun i -> (Printf.sprintf "k%d" (2 * i), Printf.sprintf "w%d" i)) in
  let a = Img.create ~page_size:64 () in
  List.iter (fun (k, v) -> Img.set a ~key:k ~value:v) ops1;
  let b = Img.create ~page_size:64 () in
  (match Img.restore b (Img.image a) with Ok _ -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun (k, v) ->
      Img.set a ~key:k ~value:v;
      Img.set b ~key:k ~value:v)
    ops2;
  ignore (Img.remove a ~key:"k3");
  ignore (Img.remove b ~key:"k3");
  Alcotest.(check string) "identical images" (Img.image a) (Img.image b)

let test_image_decode_malformed () =
  let a = Img.create ~page_size:32 () in
  Img.set a ~key:"key" ~value:"value";
  let good = Img.image a in
  let corrupt pos c = String.mapi (fun i ch -> if i = pos then c else ch) good in
  let is_err s =
    match Img.decode ~page_size:32 s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "good decodes" false (is_err good);
  Alcotest.(check bool) "garbage" true (is_err "nonsense");
  Alcotest.(check bool) "empty" true (is_err "");
  Alcotest.(check bool) "bad header" true (is_err (corrupt 6 'x'));
  Alcotest.(check bool) "bad record" true (is_err (corrupt 20 '\255'));
  Alcotest.(check bool) "truncated" true (is_err (String.sub good 0 (String.length good - 1)));
  Alcotest.(check bool) "nonzero tail" true
    (is_err (corrupt (String.length good - 1) 'x'));
  (* restore is atomic: a rejected image leaves the arena untouched *)
  (match Img.restore a (corrupt 20 '\255') with
  | Ok _ -> Alcotest.fail "corrupt image accepted"
  | Error _ -> ());
  Alcotest.(check string) "arena untouched" good (Img.image a);
  Alcotest.(check (option string)) "record intact" (Some "value") (Img.find a ~key:"key")

(* --- paged key-value service --- *)

let exec (s : Bft_sm.Service.t) ?(client = 5) ?(nondet = "") op =
  s.Bft_sm.Service.execute ~client ~op ~nondet

let kv_ops =
  [ "put a 1"; "put b 2"; "put c 3"; "cas a 1 10"; "cas b 9 x"; "del c";
    "touch t"; "put a 11"; "get a"; "get b"; "get c"; "size"; "del nope" ]

let test_kv_paged_equiv_flat () =
  let flat = Bft_sm.Kv_service.create () in
  let paged = Bft_sm.Kv_service.create ~paged:64 () in
  List.iter
    (fun op ->
      Alcotest.(check string) op (exec flat ~nondet:"42" op) (exec paged ~nondet:"42" op))
    kv_ops;
  Alcotest.(check bool) "paged interface present" true
    (paged.Bft_sm.Service.paged <> None);
  Alcotest.(check bool) "flat has none" true (flat.Bft_sm.Service.paged = None)

let test_kv_paged_snapshot_roundtrip () =
  let s = Bft_sm.Kv_service.create ~paged:64 () in
  List.iter (fun op -> ignore (exec s op)) kv_ops;
  let snap = s.Bft_sm.Service.snapshot () in
  let s2 = Bft_sm.Kv_service.create ~paged:64 () in
  s2.Bft_sm.Service.restore snap;
  Alcotest.(check string) "snapshot stable" snap (s2.Bft_sm.Service.snapshot ());
  Alcotest.(check string) "value restored" "11" (exec s2 "get a");
  Alcotest.(check string) "deleted stays deleted" "ENOENT" (exec s2 "get c")

let test_kv_paged_restore_rejects_malformed () =
  let s = Bft_sm.Kv_service.create ~paged:64 () in
  ignore (exec s "put a 1");
  let before = s.Bft_sm.Service.snapshot () in
  (* corrupt arena: rejected, state untouched *)
  s.Bft_sm.Service.restore
    (String.mapi (fun i c -> if i = 25 then '\255' else c) before);
  Alcotest.(check string) "corrupt rejected" before (s.Bft_sm.Service.snapshot ());
  (* structurally valid arena that is not a kv image (no ACL record) *)
  let alien = Img.create ~page_size:64 () in
  Img.set alien ~key:"Bk" ~value:"v";
  s.Bft_sm.Service.restore (Img.image alien);
  Alcotest.(check string) "alien rejected" before (s.Bft_sm.Service.snapshot ());
  Alcotest.(check string) "still serves" "1" (exec s "get a")

let test_kv_paged_acl_sync () =
  let mk () = Bft_sm.Kv_service.create ~paged:64 ~restrict:[ 5 ] () in
  let s = mk () in
  Alcotest.(check string) "acl denies" Bft_sm.Service.denied (exec s ~client:6 "put x 1");
  ignore (exec s ~client:0 "grant 6");
  Alcotest.(check string) "granted" "ok" (exec s ~client:6 "put x 1");
  (* the grant travels through the arena image *)
  let s2 = mk () in
  s2.Bft_sm.Service.restore (s.Bft_sm.Service.snapshot ());
  Alcotest.(check string) "acl restored" "ok" (exec s2 ~client:6 "put y 2")

(* --- paged BFS --- *)

let test_bfs_paged_equiv_flat () =
  let flat = Bft_bfs.Bfs_service.create () in
  let paged = Bft_bfs.Bfs_service.create ~paged:128 () in
  let both op =
    let a = exec flat ~nondet:"7" op and b = exec paged ~nondet:"7" op in
    Alcotest.(check string) op a b;
    a
  in
  ignore (both "mkdir 1 src");
  ignore (both "create 2 main.c");
  ignore (both (Bft_bfs.Bfs_service.op_write ~ino:3 ~off:0 "hello paged world"));
  ignore (both "mkdir 1 doc");
  ignore (both "create 4 readme");
  ignore (both (Bft_bfs.Bfs_service.op_write ~ino:5 ~off:0 (String.make 300 'z')));
  ignore (both "rename 1 src 1 lib");
  ignore (both "truncate 5 100");
  ignore (both "remove 2 main.c");
  ignore (both "readdir 1");
  ignore (both "getattr 5");
  ignore (both (Bft_bfs.Bfs_service.op_read ~ino:5 ~off:0 ~len:100));
  (* paged snapshot roundtrip: byte-identical arena *)
  let snap = paged.Bft_sm.Service.snapshot () in
  let fresh = Bft_bfs.Bfs_service.create ~paged:128 () in
  fresh.Bft_sm.Service.restore snap;
  Alcotest.(check string) "arena roundtrip" snap (fresh.Bft_sm.Service.snapshot ());
  (* a flat snapshot restores into a paged service (canonical rebuild) *)
  let flat_snap = flat.Bft_sm.Service.snapshot () in
  let from_flat = Bft_bfs.Bfs_service.create ~paged:128 () in
  from_flat.Bft_sm.Service.restore flat_snap;
  Alcotest.(check string) "content preserved across formats"
    (exec paged (Bft_bfs.Bfs_service.op_read ~ino:5 ~off:0 ~len:100))
    (exec from_flat (Bft_bfs.Bfs_service.op_read ~ino:5 ~off:0 ~len:100));
  Alcotest.(check string) "directory preserved" (exec paged "readdir 1")
    (exec from_flat "readdir 1")

(* --- replica snapshot hardening --- *)

let make ?(f = 1) ?(seed = 42L) ?service ?(clients = 1) ?(k = 8) ?page_size () =
  let cfg = Config.make ~checkpoint_interval:k ~vc_timeout_us:30_000.0 ~f () in
  (cfg, Cluster.create ~seed ?service ?page_size ~num_clients:clients cfg)

let test_replica_restore_malformed () =
  let _, c = make ~service:(fun () -> Bft_sm.Kv_service.create ()) () in
  for i = 1 to 3 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  let r = Cluster.replica c 0 in
  let good = Replica.full_snapshot r in
  Alcotest.(check bool) "has reply records" true
    (String.length good > String.length (Replica.service_state r) + 8);
  let state = Replica.service_state r in
  let expect_error name s =
    (match Replica.restore_snapshot r s with
    | Ok () -> Alcotest.failf "%s: malformed snapshot accepted" name
    | Error _ -> ());
    Alcotest.(check string) (name ^ ": service untouched") state (Replica.service_state r);
    Alcotest.(check string) (name ^ ": snapshot untouched") good (Replica.full_snapshot r)
  in
  expect_error "no header" "";
  expect_error "non-numeric header" ("xyz\n" ^ String.sub good 4 (String.length good - 4));
  expect_error "length past end" ("999999999\n" ^ good);
  expect_error "truncated reply record" (String.sub good 0 (String.length good - 2));
  expect_error "unterminated reply header" (good ^ "1 2 3");
  expect_error "malformed reply header" (good ^ "1 2\nx");
  expect_error "bad reply ints" (good ^ "a b c d\n");
  expect_error "bad paged header" "PAGED 10 10\n";
  (* the canonical snapshot still restores *)
  (match Replica.restore_snapshot r good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good snapshot rejected: %s" e);
  Alcotest.(check string) "roundtrip" good (Replica.full_snapshot r)

(* --- reply cache: ascending client order, whatever the insertion order --- *)

let max_client = 1_000_000

(* A replica whose network answers every id up to [max_client], so any
   client id in its reply cache is a valid destination. *)
let reply_cache_replica () =
  let cfg, c = make ~service:(fun () -> Bft_sm.Kv_service.create ()) () in
  ignore (Cluster.invoke_sync c ~client:0 "put k v");
  let first = cfg.Config.n + Cluster.num_clients c in
  Bft_net.Network.add_node_range (Cluster.network c) ~first ~last:max_client
    ~handler:(fun _ _ -> ());
  (cfg, c, Cluster.replica c 1)

let reply_record (client, ts, view, res) =
  Printf.sprintf "%d %Ld %d %d\n%s" client ts view (String.length res) res

(* a flat snapshot of [r]'s service with the given reply records, in order *)
let snapshot_with r records =
  let svc = Replica.service_state r in
  String.concat ""
    (Printf.sprintf "%d\n%s" (String.length svc) svc :: List.map reply_record records)

(* the cache the records describe: one entry per client, the last wins *)
let canonical records =
  let last = Hashtbl.create 64 in
  List.iter (fun ((c, _, _, _) as r) -> Hashtbl.replace last c r) records;
  List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)
    (Hashtbl.fold (fun _ r acc -> r :: acc) last [])

let gen_records =
  let open QCheck.Gen in
  list_size (int_range 0 300)
    (map
       (fun (c, ts, v, res) -> (c, Int64.of_int ts, v, res))
       (quad (int_range 0 max_client) (int_range 1 1000) (int_range 0 5)
          (string_size ~gen:printable (int_range 0 12))))
  >>= fun records ->
  (* repeat some clients so a later record must replace an earlier one *)
  list_size (int_range 0 10) (oneofl (if records = [] then [ (7, 1L, 0, "x") ] else records))
  >>= fun again ->
  map (fun ts -> records @ List.map (fun (c, _, v, res) -> (c, Int64.of_int ts, v, res)) again)
    (int_range 1 1000)

let prop_reply_cache_order =
  let replica = lazy (reply_cache_replica ()) in
  QCheck.Test.make ~count:40 ~name:"reply cache encodes in ascending client order"
    (QCheck.make ~print:(fun l -> Printf.sprintf "%d records" (List.length l)) gen_records)
    (fun records ->
      let _, _, r = Lazy.force replica in
      (match Replica.restore_snapshot r (snapshot_with r records) with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "restore rejected: %s" e);
      let encoded = Replica.full_snapshot r in
      let restored =
        match Replica.restore_snapshot r encoded with
        | Ok () -> Replica.full_snapshot r
        | Error e -> QCheck.Test.fail_reportf "re-restore rejected: %s" e
      in
      String.equal encoded (snapshot_with r (canonical records)) && String.equal restored encoded)

let test_rekey_ascending () =
  let cfg, c, r = reply_cache_replica () in
  let rng = Bft_util.Rng.create 13L in
  let records =
    List.init 2000 (fun i ->
        let client = if i mod 400 = 0 then i / 400 else Bft_util.Rng.int rng (max_client + 1) in
        (client, Int64.of_int (i + 1), 0, "ok"))
  in
  (match Replica.restore_snapshot r (snapshot_with r records) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore rejected: %s" e);
  let rekeyed = ref [] in
  Bft_net.Network.set_adversary (Cluster.network c) (fun ~src ~dst (env : Message.envelope) ->
      (match env.body with
      | Message.New_key { nk_keys = [ (k, _) ]; _ } when src = Replica.id r && k = dst ->
          rekeyed := dst :: !rekeyed
      | _ -> ());
      `Drop);
  Replica.force_recovery r;
  let expect =
    List.filter_map
      (fun (client, _, _, _) -> if client >= cfg.Config.n then Some client else None)
      (canonical records)
  in
  Alcotest.(check (list int)) "every client re-keyed once, ascending" expect (List.rev !rekeyed)

(* --- paged clusters end-to-end --- *)

let paged_kv () = Bft_sm.Kv_service.create ~paged:256 ()

let test_paged_cluster_checkpoints () =
  (* checkpoint digests over the paged image must agree across replicas:
     stability requires a quorum of matching roots *)
  let _, c = make ~service:paged_kv ~page_size:256 () in
  for i = 1 to 30 do
    Alcotest.(check string) "put" "ok"
      (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put key%d value%d" i i))
  done;
  ignore
    (Cluster.run_until ~timeout_us:10_000_000.0 c (fun () ->
         Array.for_all (fun r -> Replica.stable_checkpoint r >= 24) (Cluster.replicas c)));
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d stabilized paged checkpoints" (Replica.id r))
        true
        (Replica.stable_checkpoint r >= 24))
    (Cluster.replicas c);
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c);
  Alcotest.(check string) "reads served from paged state" "value7"
    (Cluster.invoke_sync c ~client:0 "get key7")

let test_paged_cluster_state_transfer () =
  (* a rebooted replica fetches a paged checkpoint whose clean pages carry
     older lm values — the rebuilt tree must still match the quorum root *)
  let _, c = make ~service:paged_kv ~page_size:256 () in
  Bft_net.Network.crash (Cluster.network c) ~id:3;
  for i = 1 to 30 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  Bft_net.Network.restart (Cluster.network c) ~id:3;
  Replica.crash_reboot (Cluster.replica c 3);
  let caught =
    Cluster.run_until ~timeout_us:20_000_000.0 c (fun () ->
        Replica.last_executed (Cluster.replica c 3)
        >= Replica.stable_checkpoint (Cluster.replica c 0))
  in
  Alcotest.(check bool) "caught up" true caught;
  Alcotest.(check bool) "used state transfer" true
    ((Replica.counters (Cluster.replica c 3)).Replica.n_state_transfers >= 1);
  Alcotest.(check string) "transferred state serves reads" "v3"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "get k3")

let test_paged_cluster_view_change () =
  let _, c = make ~service:paged_kv ~page_size:256 () in
  ignore (Cluster.invoke_sync c ~client:0 "put survived yes");
  Replica.mute (Cluster.replica c 0) true;
  ignore (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "put extra 1");
  Alcotest.(check string) "committed data preserved across views" "yes"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "get survived");
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c)

(* --- checkpoint cost: pages and bytes digested per checkpoint --- *)

(* A 1 MiB paged KV store (4 KiB pages, branching 16) takes three
   checkpoints after rewriting a rotating window of 1% or 10% of its keys.
   The incremental path (drain the dirty set, [Partition_tree.update]) must
   reach the same root as a flat rebuild from the snapshot string and a
   copy-on-write [build_pages] over the same pages. The pin is each
   checkpoint's dirty pages and the bytes each path re-hashed: a change
   that makes checkpoints digest more than the pages a write touched fails
   here. *)
let checkpoint_pins =
  [
    (0.01, [ (4, 16384, 16384); (3, 12288, 12288); (4, 16384, 16384) ]);
    (0.10, [ (27, 110592, 110592); (26, 106496, 106496); (27, 110592, 110592) ]);
  ]

let test_checkpoint_digest_cost_pinned () =
  let page_size = 4096 and branching = 16 and vlen = 1024 in
  let n_keys = 1_048_576 / (vlen + 16) in
  List.iter
    (fun (frac, expect) ->
      let svc = Bft_sm.Kv_service.create ~paged:page_size () in
      let put i c =
        let op = Printf.sprintf "put key%06d %s" i (String.make vlen c) in
        ignore (svc.Bft_sm.Service.execute ~client:0 ~op ~nondet:"")
      in
      for i = 0 to n_keys - 1 do
        put i 'a'
      done;
      let pg = Option.get svc.Bft_sm.Service.paged in
      let pages0 = pg.Bft_sm.Service.pg_pages () in
      ignore (pg.Bft_sm.Service.pg_drain_dirty ());
      let incr = ref (Partition_tree.build_pages ~seq:0 ~page_size ~branching pages0) in
      let flat = ref (Partition_tree.build ~seq:0 ~page_size ~branching (svc.snapshot ())) in
      let dirty_keys = max 1 (int_of_float (frac *. float_of_int n_keys)) in
      let got =
        List.init 3 (fun k ->
            let seq = k + 1 in
            let base = seq * dirty_keys mod n_keys in
            for j = 0 to dirty_keys - 1 do
              put ((base + j) mod n_keys) (Char.chr (Char.code 'b' + seq))
            done;
            let pages = pg.Bft_sm.Service.pg_pages () in
            let dirty = pg.Bft_sm.Service.pg_drain_dirty () in
            let cow = Partition_tree.build_pages ~prev:!incr ~seq ~page_size ~branching pages in
            incr := Partition_tree.update !incr ~seq ~pages ~dirty;
            flat := Partition_tree.build ~prev:!flat ~seq ~page_size ~branching (svc.snapshot ());
            let root = Partition_tree.root_digest !incr in
            Alcotest.(check string) "incremental root = flat root" (Partition_tree.root_digest !flat)
              root;
            Alcotest.(check string) "incremental root = CoW root" (Partition_tree.root_digest cow)
              root;
            ( List.length dirty,
              Partition_tree.digested_bytes !incr,
              Partition_tree.digested_bytes !flat ))
      in
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "%.0f%% locality: dirty pages, incremental and flat bytes digested"
           (frac *. 100.0))
        expect got)
    checkpoint_pins

let suites =
  [
    ( "sm.paged_image",
      [
        Alcotest.test_case "record roundtrip" `Quick test_image_roundtrip;
        Alcotest.test_case "page shape and sharing" `Quick test_image_page_shape_and_sharing;
        Alcotest.test_case "dirty tracking" `Quick test_image_dirty_tracking;
        Alcotest.test_case "determinism across restore" `Quick test_image_determinism_across_restore;
        Alcotest.test_case "malformed images rejected" `Quick test_image_decode_malformed;
      ] );
    ( "sm.paged_services",
      [
        Alcotest.test_case "kv: paged = flat" `Quick test_kv_paged_equiv_flat;
        Alcotest.test_case "kv: snapshot roundtrip" `Quick test_kv_paged_snapshot_roundtrip;
        Alcotest.test_case "kv: malformed restore rejected" `Quick test_kv_paged_restore_rejects_malformed;
        Alcotest.test_case "kv: acl through arena" `Quick test_kv_paged_acl_sync;
        Alcotest.test_case "bfs: paged = flat" `Quick test_bfs_paged_equiv_flat;
      ] );
    ( "core.paged_replica",
      [
        Alcotest.test_case "restore_snapshot rejects malformed" `Quick test_replica_restore_malformed;
        QCheck_alcotest.to_alcotest prop_reply_cache_order;
        Alcotest.test_case "re-key clients in ascending order" `Quick test_rekey_ascending;
        Alcotest.test_case "paged checkpoints stabilize" `Quick test_paged_cluster_checkpoints;
        Alcotest.test_case "paged state transfer" `Quick test_paged_cluster_state_transfer;
        Alcotest.test_case "paged view change" `Quick test_paged_cluster_view_change;
        Alcotest.test_case "checkpoint digest cost pinned" `Quick
          test_checkpoint_digest_cost_pinned;
      ] );
  ]
