(* Host-speed calibration for the untraced wall-clock metrics.

   On a shared host the speed of the CPU drifts by tens of percent over
   seconds to minutes, and identical repetitions of a workload drift with
   it. A fixed reference kernel, written here so that no change to the
   program under test can speed it up, runs in short slices interleaved
   with the measured work (every [every] engine steps). Each repetition's
   wall times are then scaled by the kernel's mean slice time relative to
   [reference_ns]: they read as on a host where one slice takes 0.53 ms.
   Slice time is excluded from the measured work. The kernel mixes what the
   simulator spends its time on: small allocations, hash-table churn,
   string building and byte crunching. *)

let kernel ~iters =
  let h = Hashtbl.create 4096 in
  let buf = Bytes.create 256 in
  let acc = ref 0 in
  for i = 0 to iters - 1 do
    let k = (i * 7919) land 4095 in
    Hashtbl.replace h k [ i; k; i lxor k ];
    (match Hashtbl.find_opt h ((k * 31) land 4095) with
    | Some l -> acc := !acc + List.fold_left ( + ) 0 l
    | None -> ());
    let s = string_of_int (i * 13) in
    Bytes.blit_string s 0 buf (i land 127) (String.length s);
    let x = ref (i lor 1) in
    for j = 0 to 15 do
      x := (!x lsl 5) lxor (!x lsr 3) lxor Char.code (Bytes.unsafe_get buf (j * 7))
    done;
    acc := !acc + (!x land 255)
  done;
  !acc

let slice_iters = 2_000
let reference_ns = 530_000.0
let every = 2048

(* Off in the traced run, which reports raw per-layer times and must not
   count the kernel's allocations as the program's. *)
let enabled = ref false

let spent = ref 0.0
let slices = ref 0
let steps = ref 0

let slice () =
  if !enabled then begin
    let t0 = Common.wall_now () in
    ignore (Sys.opaque_identity (kernel ~iters:slice_iters));
    spent := !spent +. Common.ns_between t0 (Common.wall_now ());
    incr slices
  end

let step () =
  incr steps;
  if !steps land (every - 1) = 0 then slice ()

(* [f ()], its wall time less the slices run inside it. *)
let excluding f =
  let s0 = !spent in
  let r, ns = Common.timed f in
  (r, ns -. (!spent -. s0))

(* [f ()] and the host's slowness over it: mean slice time inside
   [f] relative to the reference (1.0 without slices). *)
let window f =
  let s0 = !spent and n0 = !slices in
  let r = f () in
  let n = !slices - n0 in
  (r, if n = 0 then 1.0 else (!spent -. s0) /. float_of_int n /. reference_ns)
