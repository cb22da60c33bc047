(* Types shared by the workloads and the report. *)

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* What one repetition of a workload reports. Everything except the wall
   times is a function of the seed alone, so two repetitions, or a traced
   and an untraced one, must agree on [virt] and [fingerprint] exactly. *)
type rep = {
  setup_ns : float;  (** wall time building the cluster(s) and loading state *)
  drive_ns : float;  (** wall time the engine ran the workload *)
  check_ns : float;  (** wall time of the correctness checks *)
  units : int;  (** seeds for fuzz_f1, else 0 *)
  ops : int;  (** committed client operations *)
  attempted : int;
  failed : int;  (** timed out, refused, or never completed *)
  virt : metric list;  (** virtual-time metrics and counts *)
  fingerprint : string;  (** committed-history digests and work counts *)
  gc_minor : float;
  gc_promoted : float;
  gc_major : int;
}

let wall_now () = Monotonic_clock.now ()
let ns_between a b = Int64.to_float (Int64.sub b a)

(* Wall time of [f ()] in nanoseconds. *)
let timed f =
  let t0 = wall_now () in
  let r = f () in
  (r, ns_between t0 (wall_now ()))

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.promoted_words -. g0.Gc.promoted_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* Virtual-time latency summary: median and p99 under the tail rule. The
   workloads are sized so that p99 always has enough samples beyond it;
   if it does not, the run is misconfigured and fails rather than
   printing a p99 that is really a maximum. *)
let latency_metrics ~prefix samples =
  let s = Bstat.sorted samples in
  let n = Array.length s in
  if not (Bstat.tail_ok ~n 0.99) then
    violation "%s: %d latency samples are too few for an exact p99" prefix n;
  [
    metric ~samples:n (prefix ^ "_p50_us") "us" (Bstat.median s);
    metric ~samples:n (prefix ^ "_p99_us") "us" (Bstat.percentile s 0.99);
  ]
