(* SHA-256 (FIPS 180-4). The compression function is a C kernel
   (sha256_stubs.c): SHA-NI instructions on x86-64 hosts that have them, a
   portable C loop everywhere else, chosen once when the program loads.
   Each call compresses a whole run of contiguous 64-byte blocks straight
   from the source string, so this module only frames the input: block
   runs, the buffered partial block, and the padded tail. *)

let digest_size = 32

(* [compress h8 s off n] compresses the [n] blocks at [s.[off ..
   off + 64n - 1]] into [h8]. Callers guarantee the range is in bounds. *)
external compress : int array -> string -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "bft_sha256_compress_byte" "bft_sha256_compress"
[@@noalloc]
[@@lint.pure
  "reads the string range and writes only the state array it is given; no global state, \
   I/O, clock or exception"]

let iv () =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array; (* 8 working hash words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64; (* total bytes fed *)
}

let init () = { h = iv (); buf = Bytes.create 64; buf_len = 0; total = 0L }

(* Snapshot a midstate (HMAC key-block precomputation): the copy owns fresh
   buffers so feeding it never mutates the original. *)
let copy ctx = { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf }

let feed_sub ctx s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.feed_sub";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref pos and remaining = ref len in
  (* top up a partial block first *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need !remaining in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0 1;
      ctx.buf_len <- 0
    end
  end;
  (* the remaining full blocks compress straight from the source, in one call *)
  let blocks = !remaining / 64 in
  if blocks > 0 then compress ctx.h s !pos blocks;
  let rem = !remaining - (blocks * 64) in
  if rem > 0 then begin
    Bytes.blit_string s (!pos + (blocks * 64)) ctx.buf 0 rem;
    ctx.buf_len <- rem
  end

let feed ctx s = feed_sub ctx s 0 (String.length s)

(* Zero-copy feed from a byte buffer (e.g. a Buffer's backing store): the
   bytes are only read within this call, so the unsafe view is sound even
   if the caller mutates the buffer afterwards. *)
let feed_bytes ctx b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes";
  feed_sub ctx (Bytes.unsafe_to_string b) pos len

let output_digest h8 =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int (Array.unsafe_get h8 i))
  done;
  Bytes.unsafe_to_string out

let finalize ctx =
  let bit_len = Int64.mul ctx.total 8L in
  (* padding: 0x80, zeros, 64-bit big-endian length *)
  let pad_len =
    let rem = (ctx.buf_len + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let pad = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad pad_len bit_len;
  feed ctx (Bytes.unsafe_to_string pad);
  (* total fed is now a multiple of 64 and buffer is empty *)
  assert (ctx.buf_len = 0);
  output_digest ctx.h

(* One-shot hashing: no streaming context, no staging copies, no per-call
   allocation beyond the result -- full blocks compress straight from the
   source, the padded tail is built in [scratch_tail], and the working
   state lives in [scratch_h]. Neither one-shot entry point re-enters
   itself, so sharing the module scratch is sound. Callers needing
   reentrancy use the streaming [ctx] API. *)
let scratch_h = Array.make 8 0
let scratch_tail = Bytes.make 128 '\x00'

(* Absorb [s.[pos .. pos + len - 1]] into [scratch_h], which already holds
   the state after [prior] bytes (a multiple of 64); pad and emit. *)
let finish s pos len ~prior =
  let h8 = scratch_h in
  let blocks = len / 64 in
  if blocks > 0 then compress h8 s pos blocks;
  let rem = len - (blocks * 64) in
  let tail_len = if rem < 56 then 64 else 128 in
  let tail = scratch_tail in
  Bytes.fill tail 0 tail_len '\x00';
  Bytes.blit_string s (pos + (blocks * 64)) tail 0 rem;
  Bytes.set tail rem '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int ((prior + len) * 8));
  compress h8 (Bytes.unsafe_to_string tail) 0 (tail_len / 64);
  output_digest h8

let digest_sub s pos len =
  let h8 = scratch_h in
  h8.(0) <- 0x6a09e667; h8.(1) <- 0xbb67ae85;
  h8.(2) <- 0x3c6ef372; h8.(3) <- 0xa54ff53a;
  h8.(4) <- 0x510e527f; h8.(5) <- 0x9b05688c;
  h8.(6) <- 0x1f83d9ab; h8.(7) <- 0x5be0cd19;
  finish s pos len ~prior:0

let digest s = digest_sub s 0 (String.length s)

(* One-shot digest of a byte-buffer prefix (e.g. a Wire_arena's backing
   store): the bytes are only read within this call, so the unsafe view is
   sound even if the caller mutates the buffer afterwards. *)
let digest_bytes b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.digest_bytes";
  digest_sub (Bytes.unsafe_to_string b) pos len

(* Resumable midstates (HMAC key-block precomputation): a snapshot of the
   eight hash words at a block boundary. [digest_from_midstate] finishes a
   hash from such a snapshot on the same scratch-state path as [digest]. *)

type midstate = { mh : int array; m_fed : int (* bytes absorbed, multiple of 64 *) }

let midstate ctx =
  if ctx.buf_len <> 0 then invalid_arg "Sha256.midstate: stream not block-aligned";
  { mh = Array.copy ctx.h; m_fed = Int64.to_int ctx.total }

let digest_from_midstate m s =
  Array.blit m.mh 0 scratch_h 0 8;
  finish s 0 (String.length s) ~prior:m.m_fed

let hexdigest s = Bft_util.Hex.encode (digest s)
