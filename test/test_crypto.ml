(* Tests for bft_crypto: FIPS/RFC vectors plus structural properties. *)

open Bft_crypto

let check_hex msg expected actual = Alcotest.(check string) msg expected (Bft_util.Hex.encode actual)

(* --- SHA-256: FIPS 180-4 / NIST vectors --- *)

let test_sha256_empty () =
  check_hex "sha256('')"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "")

let test_sha256_abc () =
  check_hex "sha256('abc')"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc")

let test_sha256_two_blocks () =
  check_hex "sha256(448-bit msg)"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_fox () =
  check_hex "sha256(fox)"
    "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
    (Sha256.digest "The quick brown fox jumps over the lazy dog")

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed ctx chunk
  done;
  check_hex "sha256(10^6 * 'a')"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.finalize ctx)

let test_sha256_incremental_matches_oneshot () =
  let msg = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  let one_shot = Sha256.digest msg in
  (* feed in irregular chunk sizes crossing block boundaries *)
  let sizes = [ 1; 63; 64; 65; 127; 128; 500; 2052 ] in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  List.iter
    (fun sz ->
      let len = min sz (String.length msg - !pos) in
      Sha256.feed_sub ctx msg !pos len;
      pos := !pos + len)
    sizes;
  Sha256.feed_sub ctx msg !pos (String.length msg - !pos);
  Alcotest.(check string) "incremental = one-shot" one_shot (Sha256.finalize ctx)

let test_sha256_boundary_lengths () =
  (* padding edge cases: lengths around the 55/56/63/64 block boundaries *)
  List.iter
    (fun len ->
      let msg = String.make len 'x' in
      let d1 = Sha256.digest msg in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) msg;
      let d2 = Sha256.finalize ctx in
      Alcotest.(check string)
        (Printf.sprintf "len=%d byte-at-a-time" len)
        (Bft_util.Hex.encode d1) (Bft_util.Hex.encode d2))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 128; 129 ]

(* --- SHA-256: the C compression kernels against the specification --- *)

(* Both kernel implementations, bypassing the load-time dispatch. They are
   declared here rather than exported from Sha256. *)
external compress_portable :
  int array -> string -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "bft_sha256_compress_portable_byte" "bft_sha256_compress_portable"
[@@noalloc]

external compress_shani : int array -> string -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "bft_sha256_compress_shani_byte" "bft_sha256_compress_shani"
[@@noalloc]

external shani_supported : unit -> bool = "bft_sha256_shani_supported"

(* FIPS 180-4 section 6.2.2, written for clarity over 32-bit words in ints. *)
let spec_k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]

let spec_compress h s off n =
  let m32 x = x land 0xFFFFFFFF in
  let rotr x r = m32 ((x lsr r) lor (x lsl (32 - r))) in
  let w = Array.make 64 0 in
  for b = 0 to n - 1 do
    for t = 0 to 15 do
      w.(t) <- m32 (Int32.to_int (String.get_int32_be s (off + (64 * b) + (4 * t))))
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- m32 (w.(t - 16) + s0 + w.(t - 7) + s1)
    done;
    let v = Array.copy h in
    for t = 0 to 63 do
      let a = v.(0) and e = v.(4) in
      let ch = (e land v.(5)) lxor (m32 (lnot e) land v.(6)) in
      let maj = (a land v.(1)) lxor (a land v.(2)) lxor (v.(1) land v.(2)) in
      let t1 = v.(7) + (rotr e 6 lxor rotr e 11 lxor rotr e 25) + ch + spec_k.(t) + w.(t) in
      let t2 = (rotr a 2 lxor rotr a 13 lxor rotr a 22) + maj in
      Array.blit v 0 v 1 7;
      v.(4) <- m32 (v.(4) + t1);
      v.(0) <- m32 (t1 + t2)
    done;
    Array.iteri (fun i x -> h.(i) <- m32 (h.(i) + x)) v
  done

(* Pad and hash [s] with the specification compression. *)
let spec_sha256 s =
  let len = String.length s in
  let padded = Bytes.make ((len + 8) / 64 * 64 + 64) '\x00' in
  Bytes.blit_string s 0 padded 0 len;
  Bytes.set padded len '\x80';
  Bytes.set_int64_be padded (Bytes.length padded - 8) (Int64.of_int (len * 8));
  let h =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
       0x5be0cd19 |]
  in
  spec_compress h (Bytes.to_string padded) 0 (Bytes.length padded / 64);
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))

let test_spec_vectors () =
  Alcotest.(check string) "spec sha256('abc')"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (spec_sha256 "abc");
  Alcotest.(check string) "spec sha256(448-bit msg)"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (spec_sha256 "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

(* A random state, a block count of 0..5 and the blocks themselves,
   preceded by 0..7 junk bytes so the kernel sees a nonzero offset. *)
let arb_blocks =
  let open QCheck.Gen in
  let word32 = map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF) in
  let gen =
    array_size (return 8) word32 >>= fun h ->
    int_bound 5 >>= fun n ->
    int_bound 7 >>= fun off ->
    string_size ~gen:char (return (off + (64 * n))) >>= fun s -> return (h, s, off, n)
  in
  QCheck.make
    ~print:(fun (_, s, off, n) -> Printf.sprintf "off=%d n=%d bytes=%d" off n (String.length s))
    gen

let kernel_prop name kernel =
  QCheck.Test.make ~name ~count:300 arb_blocks (fun (h, s, off, n) ->
      let got = Array.copy h and want = Array.copy h in
      kernel got s off n;
      spec_compress want s off n;
      Array.for_all2 Int.equal got want)

let test_kernel_shani () =
  if shani_supported () then
    QCheck.Test.check_exn (kernel_prop "sha-ni kernel = spec" compress_shani)
  else begin
    print_endline "SHA-NI is not available on this host: skipping the SHA-NI kernel check";
    Alcotest.skip ()
  end

(* Every length 0..300 and each 64-byte boundary +-1 up to 64 blocks,
   through the one-shot, streaming and midstate entry points. *)
let test_framing_lengths () =
  let boundaries =
    List.concat_map (fun k -> [ (64 * k) - 1; 64 * k; (64 * k) + 1 ]) (List.init 64 succ)
  in
  let key_block = String.init 64 (fun i -> Char.chr (0x36 lxor i)) in
  let key_ctx = Sha256.init () in
  Sha256.feed key_ctx key_block;
  let mid = Sha256.midstate key_ctx in
  List.iter
    (fun len ->
      let msg = String.init len (fun i -> Char.chr (((i * 131) + len) land 0xFF)) in
      let want = spec_sha256 msg in
      let hex = Bft_util.Hex.encode in
      Alcotest.(check string) (Printf.sprintf "digest len=%d" len) want (hex (Sha256.digest msg));
      let framed = "pre" ^ msg ^ "post" and split = len / 3 in
      let ctx = Sha256.init () in
      Sha256.feed_sub ctx framed 3 split;
      Sha256.feed_sub ctx framed (3 + split) (len - split);
      Alcotest.(check string)
        (Printf.sprintf "feed_sub len=%d" len)
        want (hex (Sha256.finalize ctx));
      Alcotest.(check string)
        (Printf.sprintf "digest_from_midstate len=%d" len)
        (spec_sha256 (key_block ^ msg))
        (hex (Sha256.digest_from_midstate mid msg)))
    (List.init 301 Fun.id @ boundaries)

(* --- HMAC-SHA256: RFC 4231 vectors --- *)

let test_hmac_rfc4231_case1 () =
  check_hex "hmac case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There")

let test_hmac_rfc4231_case2 () =
  check_hex "hmac case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  check_hex "hmac case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_rfc4231_case6 () =
  check_hex "hmac case 6 (oversized key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_truncated_verify () =
  let key = "secret-key" and msg = "payload" in
  let tag = Hmac.mac_truncated ~key 8 msg in
  Alcotest.(check int) "tag length" 8 (String.length tag);
  Alcotest.(check bool) "verifies" true (Hmac.verify ~key ~tag msg);
  Alcotest.(check bool) "wrong msg" false (Hmac.verify ~key ~tag "payload2");
  Alcotest.(check bool) "wrong key" false (Hmac.verify ~key:"other" ~tag msg)

(* HMAC as RFC 2104 writes it, on one-shot digests only: the key (hashed
   first when longer than a block) zero-padded to 64 bytes, then
   H((K xor opad) || H((K xor ipad) || m)) *)
let spec_hmac ~key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let block = key ^ String.make (64 - String.length key) '\x00' in
  let pad b = String.map (fun c -> Char.chr (Char.code c lxor b)) block in
  Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

let gen_key_msg =
  let open QCheck.Gen in
  let key_len = oneof [ oneofl [ 0; 1; 63; 64; 65; 200 ]; int_range 0 300 ] in
  pair (string_size ~gen:char key_len) (string_size ~gen:char (int_range 0 300))

let prop_hmac_spec =
  QCheck.Test.make ~count:500 ~name:"precomputed hmac = spec"
    QCheck.(
      make
        ~print:(fun (k, m) -> Printf.sprintf "key %d bytes, msg %d bytes" (String.length k) (String.length m))
        gen_key_msg)
    (fun (key, msg) ->
      let expect = spec_hmac ~key msg in
      let pre = Hmac.precompute ~key in
      String.equal (Hmac.mac_precomputed pre msg) expect
      && String.equal (Hmac.mac ~key msg) expect
      && String.equal (Hmac.mac_truncated_precomputed pre 8 msg) (String.sub expect 0 8)
      && Hmac.verify_precomputed pre ~tag:(String.sub expect 0 8) msg)

(* a derived key is HMAC(group secret, "key:<src>><dst>") in decimal, and
   its precomputed pads MAC like the spec under that key *)
let prop_group_derive_spec =
  let secret = "group-derive-secret" in
  let g = Keychain.group ~first:0 ~last:1 ~secret in
  let id =
    QCheck.Gen.(
      oneof
        [
          int_range (-5) 20;
          int_range 1_000_000 50_000_000;
          oneofl [ -1_000_001; min_int; max_int; 1_000_000 ];
        ])
  in
  QCheck.Test.make ~count:300 ~name:"group_derive = spec hmac of key:src>dst"
    QCheck.(make ~print:Print.(pair int int) Gen.(pair id id))
    (fun (src, dst) ->
      let key, pre = Keychain.group_derive g ~src ~dst in
      let expect = spec_hmac ~key:secret (Printf.sprintf "key:%d>%d" src dst) in
      String.equal key.Keychain.secret expect
      && key.Keychain.epoch = 1
      && String.equal (Hmac.mac_precomputed pre "msg") (spec_hmac ~key:expect "msg"))

(* --- Hex --- *)

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Bft_util.Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Bft_util.Hex.decode "00ff10");
  Alcotest.(check string) "decode upper" "\xab" (Bft_util.Hex.decode "AB")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Bft_util.Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Bft_util.Hex.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> String.equal (Bft_util.Hex.decode (Bft_util.Hex.encode s)) s)

(* --- AdHash --- *)

let rand_digest rng () = Adhash.of_digest (Sha256.digest (Bft_util.Rng.bytes rng 20))

let test_adhash_group_laws () =
  let rng = Bft_util.Rng.create 7L in
  let d = rand_digest rng in
  for _ = 1 to 50 do
    let a = d () and b = d () and c = d () in
    Alcotest.(check bool) "commutative" true (Adhash.equal (Adhash.add a b) (Adhash.add b a));
    Alcotest.(check bool) "associative" true
      (Adhash.equal (Adhash.add a (Adhash.add b c)) (Adhash.add (Adhash.add a b) c));
    Alcotest.(check bool) "identity" true (Adhash.equal (Adhash.add a Adhash.zero) a);
    Alcotest.(check bool) "inverse" true (Adhash.equal (Adhash.sub (Adhash.add a b) b) a)
  done

let test_adhash_incremental_update () =
  (* replacing one element of a sum gives the same result as recomputing *)
  let rng = Bft_util.Rng.create 9L in
  let d = rand_digest rng in
  let elems = Array.init 10 (fun _ -> d ()) in
  let total = Array.fold_left Adhash.add Adhash.zero elems in
  let replacement = d () in
  let updated = Adhash.add (Adhash.sub total elems.(3)) replacement in
  elems.(3) <- replacement;
  let recomputed = Array.fold_left Adhash.add Adhash.zero elems in
  Alcotest.(check bool) "incremental = recomputed" true (Adhash.equal updated recomputed)

(* --- Keychain + authenticators --- *)

let make_pair () =
  let rng = Bft_util.Rng.create 42L in
  let kc0 = Keychain.create ~my_id:0 and kc1 = Keychain.create ~my_id:1 in
  (* 1 generates the key 0 must use to reach 1, and ships it to 0 *)
  let k01 = Keychain.fresh_in_key kc1 rng ~peer:0 in
  assert (Keychain.install_out_key kc0 ~peer:1 k01);
  let k10 = Keychain.fresh_in_key kc0 rng ~peer:1 in
  assert (Keychain.install_out_key kc1 ~peer:0 k10);
  (rng, kc0, kc1)

let test_mac_roundtrip () =
  let _, kc0, kc1 = make_pair () in
  let msg = "pre-prepare v0 n1" in
  match Auth.compute_mac kc0 ~peer:1 msg with
  | None -> Alcotest.fail "no out key"
  | Some mac ->
      Alcotest.(check bool) "verifies at 1" true (Auth.verify_mac kc1 ~peer:0 mac msg);
      Alcotest.(check bool) "wrong msg" false (Auth.verify_mac kc1 ~peer:0 mac "other")

let test_mac_stale_epoch_rejected () =
  let rng, kc0, kc1 = make_pair () in
  let msg = "checkpoint n100" in
  let mac = Option.get (Auth.compute_mac kc0 ~peer:1 msg) in
  (* 1 refreshes the key 0 should use: old-epoch MACs must now be rejected *)
  let _new_key = Keychain.fresh_in_key kc1 rng ~peer:0 in
  Alcotest.(check bool) "stale epoch rejected" false (Auth.verify_mac kc1 ~peer:0 mac msg)

let test_stale_new_key_rejected () =
  let rng, _, kc1 = make_pair () in
  let kc0 = Keychain.create ~my_id:0 in
  let k_new = Keychain.fresh_in_key kc1 rng ~peer:0 in
  Alcotest.(check bool) "fresh accepted" true (Keychain.install_out_key kc0 ~peer:1 k_new);
  Alcotest.(check bool) "replay rejected" false (Keychain.install_out_key kc0 ~peer:1 k_new)

let test_authenticator () =
  let rng = Bft_util.Rng.create 5L in
  let n = 4 in
  let chains = Array.init n (fun i -> Keychain.create ~my_id:i) in
  (* full pairwise key establishment *)
  for receiver = 0 to n - 1 do
    for sender = 0 to n - 1 do
      if sender <> receiver then begin
        let k = Keychain.fresh_in_key chains.(receiver) rng ~peer:sender in
        assert (Keychain.install_out_key chains.(sender) ~peer:receiver k)
      end
    done
  done;
  let msg = "view-change v3" in
  let receivers = List.init n Fun.id in
  let auth = Auth.compute_authenticator chains.(0) ~receivers msg in
  Alcotest.(check int) "n-1 entries" (n - 1) (List.length auth);
  Alcotest.(check int) "wire size 8+8(n-1)" (8 + (8 * (n - 1))) (Auth.size auth);
  for i = 1 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d verifies" i)
      true
      (Auth.verify_authenticator chains.(i) ~peer:0 auth msg)
  done;
  (* corrupting replica 2's entry breaks only replica 2's check *)
  let corrupt = Auth.corrupt_entry auth 2 in
  Alcotest.(check bool) "2 rejects" false (Auth.verify_authenticator chains.(2) ~peer:0 corrupt msg);
  Alcotest.(check bool) "1 still accepts" true
    (Auth.verify_authenticator chains.(1) ~peer:0 corrupt msg)

(* Randomized faulty-MAC mixes against an explicit spec oracle. One
   receiver (id 0) holds session keys from senders 5, 6 and 8; sender 7
   never exchanged keys. Each item is a MAC, an authenticator or a digest
   check, possibly made faulty: a corrupt tag, a stale epoch, a dropped
   own entry, an unkeyed sender or a wrong digest. The oracle recomputes
   the HMAC under the sender's out-key, then applies the epoch and
   own-entry rules; digests are checked with the spec SHA-256. *)

let spec_receiver = 0
let spec_keyed = [ 5; 6; 8 ]
let spec_unkeyed = 7

(* Keyed senders also hold keys to replicas 1..3, so an authenticator
   carries other receivers' entries around ours. *)
let spec_recv, spec_senders =
  let rng = Bft_util.Rng.create 0xBEEFL in
  let recv = Keychain.create ~my_id:spec_receiver in
  let replicas = recv :: List.map (fun id -> Keychain.create ~my_id:id) [ 1; 2; 3 ] in
  let keyed =
    List.map
      (fun s ->
        let kc = Keychain.create ~my_id:s in
        List.iter
          (fun r ->
            let key = Keychain.fresh_in_key r rng ~peer:s in
            assert (Keychain.install_out_key kc ~peer:(Keychain.my_id r) key))
          replicas;
        (s, kc))
      spec_keyed
  in
  (recv, (spec_unkeyed, Keychain.create ~my_id:spec_unkeyed) :: keyed)

let spec_messages =
  Array.init 16 (fun i -> Printf.sprintf "payload-%d-%s" i (String.make (i * 7) 'x'))

type spec_item =
  | S_mac of int * int * bool * bool (* sender, msg#, corrupt?, stale? *)
  | S_auth of int * int * bool * bool (* sender, msg#, corrupt-our-entry?, drop-our-entry? *)
  | S_digest of int * bool (* msg#, wrong? *)

let spec_item_to_string = function
  | S_mac (s, m, c, st) -> Printf.sprintf "mac(s=%d,m=%d,corrupt=%b,stale=%b)" s m c st
  | S_auth (s, m, c, d) -> Printf.sprintf "auth(s=%d,m=%d,corrupt=%b,drop=%b)" s m c d
  | S_digest (m, w) -> Printf.sprintf "digest(m=%d,wrong=%b)" m w

let flip_first s = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s

(* The spec verdict for one MAC from [sender]: the sender's out-key to us
   exists, carries the MAC's epoch, and its spec HMAC starts with the tag. *)
let spec_mac_ok sender (mac : Auth.mac) msg =
  match Keychain.out_key (List.assoc sender spec_senders) ~peer:spec_receiver with
  | None -> false
  | Some key ->
      key.Keychain.epoch = mac.Auth.epoch
      && String.equal mac.Auth.tag (String.sub (spec_hmac ~key:key.Keychain.secret msg) 0 Auth.tag_size)

(* (implementation verdict, spec verdict) for one generated item *)
let spec_verdicts item =
  match item with
  | S_mac (s, m, corrupt, stale) ->
      let msg = spec_messages.(m) in
      let mac =
        match Auth.compute_mac (List.assoc s spec_senders) ~peer:spec_receiver msg with
        | Some mac -> mac
        | None -> { Auth.tag = String.make Auth.tag_size '\x00'; epoch = 1 }
      in
      let mac = if corrupt then { mac with Auth.tag = flip_first mac.Auth.tag } else mac in
      let mac = if stale then { mac with Auth.epoch = mac.Auth.epoch + 1 } else mac in
      (Auth.verify_mac spec_recv ~peer:s mac msg, spec_mac_ok s mac msg)
  | S_auth (s, m, corrupt, drop) ->
      let msg = spec_messages.(m) in
      let auth =
        Auth.compute_authenticator (List.assoc s spec_senders)
          ~receivers:[ 1; 2; spec_receiver; 3 ] msg
      in
      let auth = if corrupt then Auth.corrupt_entry auth spec_receiver else auth in
      let auth = if drop then List.remove_assoc spec_receiver auth else auth in
      let spec =
        match List.assoc_opt spec_receiver auth with
        | None -> false
        | Some mac -> spec_mac_ok s mac msg
      in
      (Auth.verify_authenticator spec_recv ~peer:s auth msg, spec)
  | S_digest (m, wrong) ->
      let msg = spec_messages.(m) in
      let expect = Sha256.digest msg in
      let expect = if wrong then flip_first expect else expect in
      ( String.equal expect (Sha256.digest msg),
        String.equal (Bft_util.Hex.encode expect) (spec_sha256 msg) )

let prop_verify_spec =
  let gen_item =
    let open QCheck.Gen in
    let sender = oneofl (spec_unkeyed :: spec_keyed) in
    let msg = int_bound (Array.length spec_messages - 1) in
    oneof
      [
        map (fun (s, m, c, st) -> S_mac (s, m, c, st)) (quad sender msg bool bool);
        map (fun (s, m, c, d) -> S_auth (s, m, c, d)) (quad sender msg bool bool);
        map (fun (m, w) -> S_digest (m, w)) (pair msg bool);
      ]
  in
  QCheck.Test.make ~count:120 ~name:"verify_mac/verify_authenticator = spec (faulty mixes)"
    (QCheck.make
       ~print:(fun items -> String.concat "; " (List.map spec_item_to_string items))
       QCheck.Gen.(list_size (int_bound 24) gen_item))
    (fun items ->
      List.for_all
        (fun item ->
          let got, want = spec_verdicts item in
          got = want
          || QCheck.Test.fail_reportf "%s: verify %b, spec %b" (spec_item_to_string item) got
               want)
        items)

(* --- Group-derived keys (million-client cohorts) --- *)

let test_group_keys () =
  let g = Keychain.group ~first:100 ~last:1_000_099 ~secret:"group-secret" in
  let replica = Keychain.create ~my_id:1 in
  Keychain.set_group replica g;
  (* a virtual client in range sends to replica 1: both sides derive the
     same directional key, so the MAC round-trips *)
  let client = 100_000 in
  let key, pre = Keychain.group_derive g ~src:client ~dst:1 in
  let msg = "put k v" in
  let tag = Hmac.mac_truncated_precomputed pre Auth.tag_size msg in
  let mac = { Auth.tag; epoch = key.Keychain.epoch } in
  Alcotest.(check bool) "replica verifies derived mac" true
    (Auth.verify_mac replica ~peer:client mac msg);
  Alcotest.(check bool) "out of range has no key" false
    (Auth.verify_mac replica ~peer:99 mac msg);
  Alcotest.(check int) "derived epoch is 1" 1 (Keychain.in_epoch replica ~peer:client);
  (* explicitly installed pairwise keys win over the group fallback *)
  let rng = Bft_util.Rng.create 9L in
  let k = Keychain.fresh_in_key replica rng ~peer:client in
  Alcotest.(check bool) "pairwise key shadows group" false
    (Auth.verify_mac replica ~peer:client mac msg);
  ignore k

(* --- Signatures --- *)

let test_signature_roundtrip () =
  let rng = Bft_util.Rng.create 11L in
  let reg = Signature.create_registry () in
  let s0 = Signature.register reg rng 0 in
  let s1 = Signature.register reg rng 1 in
  let msg = "new-key i=0 t=5" in
  let sig0 = Signature.sign s0 msg in
  Alcotest.(check bool) "valid" true (Signature.verify reg sig0 msg);
  Alcotest.(check bool) "wrong msg" false (Signature.verify reg sig0 "tampered");
  let sig1 = Signature.sign s1 msg in
  Alcotest.(check bool) "other signer valid" true (Signature.verify reg sig1 msg);
  Alcotest.(check bool) "claimed id mismatch" false
    (Signature.verify reg { sig1 with signer_id = 0 } msg)

let test_signature_forgery_fails () =
  let rng = Bft_util.Rng.create 13L in
  let reg = Signature.create_registry () in
  let _ = Signature.register reg rng 0 in
  Alcotest.(check bool) "forgery rejected" false
    (Signature.verify reg (Signature.forge ~signer_id:0) "request")

let test_signature_unregistered () =
  let reg = Signature.create_registry () in
  Alcotest.(check bool) "unknown signer" false
    (Signature.verify reg (Signature.forge ~signer_id:9) "x")

(* --- Rng sanity --- *)

let test_rng_determinism () =
  let a = Bft_util.Rng.create 99L and b = Bft_util.Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Bft_util.Rng.int64 a) (Bft_util.Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Bft_util.Rng.create 99L in
  let c = Bft_util.Rng.split a in
  let x = Bft_util.Rng.int64 c and y = Bft_util.Rng.int64 a in
  Alcotest.(check bool) "streams differ" true (x <> y)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Bft_util.Rng.create (Int64.of_int seed) in
      let v = Bft_util.Rng.int rng bound in
      v >= 0 && v < bound)

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "empty" `Quick test_sha256_empty;
        Alcotest.test_case "abc" `Quick test_sha256_abc;
        Alcotest.test_case "two blocks" `Quick test_sha256_two_blocks;
        Alcotest.test_case "fox" `Quick test_sha256_fox;
        Alcotest.test_case "million a" `Slow test_sha256_million_a;
        Alcotest.test_case "incremental" `Quick test_sha256_incremental_matches_oneshot;
        Alcotest.test_case "boundary lengths" `Quick test_sha256_boundary_lengths;
      ] );
    ( "crypto.sha256_kernel",
      [
        Alcotest.test_case "spec vectors" `Quick test_spec_vectors;
        QCheck_alcotest.to_alcotest (kernel_prop "portable kernel = spec" compress_portable);
        Alcotest.test_case "sha-ni kernel = spec" `Quick test_kernel_shani;
        Alcotest.test_case "framing lengths" `Quick test_framing_lengths;
      ] );
    ( "crypto.hmac",
      [
        Alcotest.test_case "rfc4231 case1" `Quick test_hmac_rfc4231_case1;
        Alcotest.test_case "rfc4231 case2" `Quick test_hmac_rfc4231_case2;
        Alcotest.test_case "rfc4231 case3" `Quick test_hmac_rfc4231_case3;
        Alcotest.test_case "rfc4231 case6" `Quick test_hmac_rfc4231_case6;
        Alcotest.test_case "truncated verify" `Quick test_hmac_truncated_verify;
        QCheck_alcotest.to_alcotest prop_hmac_spec;
        QCheck_alcotest.to_alcotest prop_group_derive_spec;
      ] );
    ( "crypto.hex",
      [
        Alcotest.test_case "known" `Quick test_hex_known;
        Alcotest.test_case "errors" `Quick test_hex_errors;
        QCheck_alcotest.to_alcotest prop_hex_roundtrip;
      ] );
    ( "crypto.adhash",
      [
        Alcotest.test_case "group laws" `Quick test_adhash_group_laws;
        Alcotest.test_case "incremental update" `Quick test_adhash_incremental_update;
      ] );
    ( "crypto.auth",
      [
        Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
        Alcotest.test_case "stale epoch rejected" `Quick test_mac_stale_epoch_rejected;
        Alcotest.test_case "stale new-key rejected" `Quick test_stale_new_key_rejected;
        Alcotest.test_case "authenticator" `Quick test_authenticator;
        Alcotest.test_case "group-derived keys" `Quick test_group_keys;
        QCheck_alcotest.to_alcotest prop_verify_spec;
      ] );
    ( "crypto.signature",
      [
        Alcotest.test_case "roundtrip" `Quick test_signature_roundtrip;
        Alcotest.test_case "forgery fails" `Quick test_signature_forgery_fails;
        Alcotest.test_case "unregistered" `Quick test_signature_unregistered;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        QCheck_alcotest.to_alcotest prop_rng_int_bounds;
      ] );
  ]
