let block_size = 64

(* Key-block precomputation: the SHA-256 midstates after absorbing the ipad
   and opad blocks. A MAC over a short message then costs ~2 compressions
   instead of 4 — the pad blocks are paid once per key, not per message —
   and each of those runs on the allocation-free midstate path instead of
   copying a streaming context. Both pads are built in one buffer: the key
   (hashed first if longer than a block) XOR 0x36, zero-extended to a
   block, then flipped in place to XOR 0x5c. *)
type precomputed = { p_inner : Sha256.midstate; p_outer : Sha256.midstate }

let precompute ~key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad = Bytes.make block_size '\x36' in
  String.iteri (fun i c -> Bytes.unsafe_set pad i (Char.unsafe_chr (Char.code c lxor 0x36))) key;
  let absorb () =
    let ctx = Sha256.init () in
    Sha256.feed_bytes ctx pad 0 block_size;
    Sha256.midstate ctx
  in
  let p_inner = absorb () in
  for i = 0 to block_size - 1 do
    Bytes.unsafe_set pad i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get pad i) lxor (0x36 lxor 0x5c)))
  done;
  { p_inner; p_outer = absorb () }

let mac_precomputed pre msg =
  let inner_digest = Sha256.digest_from_midstate pre.p_inner msg in
  Sha256.digest_from_midstate pre.p_outer inner_digest

let mac_truncated_precomputed pre n msg =
  let t = mac_precomputed pre msg in
  if n >= String.length t then t else String.sub t 0 n

let mac ~key msg = mac_precomputed (precompute ~key) msg

let mac_truncated ~key n msg =
  let t = mac ~key msg in
  if n >= String.length t then t else String.sub t 0 n

let constant_time_eq a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

let verify ~key ~tag msg =
  let n = String.length tag in
  constant_time_eq tag (mac_truncated ~key n msg)

let verify_precomputed pre ~tag msg =
  constant_time_eq tag (mac_truncated_precomputed pre (String.length tag) msg)
