(* Exact order statistics over raw latency samples, and the knee rule of
   the offered-load sweep. Nothing here reads a clock: the functions are
   pure so the self-test can pin them. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Rank (1-based) of the p-quantile among n samples, nearest-rank
   definition. The epsilon keeps 0.99 *. 1000. from rounding up to 991. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

(* [percentile sorted p]: the smallest sample such that at least a share
   [p] of all samples are at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Bstat.percentile: no samples";
  sorted.(rank ~n p - 1)

let median sorted = percentile sorted 0.5

(* A tail percentile is reported only when at least [min_beyond] samples
   lie strictly beyond its rank; fewer would make it the maximum of a
   handful of samples. *)
let min_beyond = 10

let tail_ok ~n p = n > 0 && n - rank ~n p >= min_beyond

let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest percentile of [ladder] that [tail_ok] allows for [n]
   samples, if any. *)
let highest_tail n = List.find_opt (fun p -> tail_ok ~n p) ladder

(* One point of the offered-load sweep. [committed] is the committed rate
   in ops per virtual second, [tail_us] the tail latency the knee rule
   limits. *)
type point = { offered : float; committed : float; tail_us : float }

(* The knee is the highest offered rate that keeps the tail latency at or
   below [limit_us] while committing at least [min_frac] of the offered
   rate. *)
let knee ~limit_us ~min_frac points =
  List.fold_left
    (fun best p ->
      if p.tail_us <= limit_us && p.committed >= min_frac *. p.offered then
        match best with Some b when b.offered >= p.offered -> best | _ -> Some p
      else best)
    None points
