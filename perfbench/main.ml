(* The repository benchmark.

     perfbench/main.exe --workload kv_rw_f3|open_1m_f1|fuzz_f1 --seed N
       --seconds S --trace 0|1

   Inputs are made from the seed. With [--trace 0] the workload runs
   untraced, repeated in process for S seconds after one warm-up
   repetition; every repetition runs the same inputs, so each must
   reproduce the first one's history digests and virtual-time metrics
   exactly. Wall-clock metrics are medians over the repetitions. With
   [--trace 1] one untraced and one traced repetition follow the warm-up,
   and the per-layer metrics come from the traced one; the traced run must
   also reproduce the untraced one exactly (tracing is inert).

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The line before it is a
   JSON detail record with the host fingerprint and every metric's sample
   count, including the workload-only metrics that are not gated. Any
   correctness violation prints "correct": false and exits 1. *)

open Common

type workload = {
  rep : probe:Probe.t option -> rep * int * metric list;
      (** one repetition; client retransmissions; runner-layer metrics *)
  model : ops_per_batch:float -> metric list;
  unreplicated : unit -> float;
  setup_trial : (unit -> unit) option;
      (** one repetition's set-up alone, for workloads whose set-up is too
          short to time once per repetition *)
}

let workload name ~seed ~plant =
  match name with
  | "kv_rw_f3" ->
      let inp = Kv.gen ~seed in
      {
        rep =
          (fun ~probe ->
            let r, retx = Kv.run inp ~seed ~probe in
            (r, retx, []));
        model = Kv.model;
        unreplicated = (fun () -> Kv.unreplicated inp ~seed);
        setup_trial = None;
      }
  | "open_1m_f1" ->
      {
        rep =
          (fun ~probe ->
            let r, retx = Open1m.run ~seed ~probe in
            (r, retx, []));
        model = Open1m.model;
        unreplicated = (fun () -> Open1m.unreplicated ~seed);
        setup_trial = Some (Open1m.setup_trial ~seed);
      }
  | "fuzz_f1" ->
      {
        rep = (fun ~probe -> Fuzz.run ~seed ~probe ~plant);
        model = Fuzz.model;
        unreplicated = Fuzz.unreplicated;
        setup_trial = Some (Fuzz.setup_trial ~seed);
      }
  | _ -> invalid_arg name

(* ------------------------------------------------------------------ *)
(* Repetitions                                                         *)
(* ------------------------------------------------------------------ *)

(* Each repetition starts from the same process state: no memoized
   encodings from the previous one, and a compacted heap. Its wall times
   are scaled to the reference host speed (see [Calib]); [slowness] is the
   factor they were divided by. *)
let fresh_rep w ~probe =
  Bft_core.Wire.clear_memos ();
  Gc.compact ();
  let (r, retx, runner), slowness = Calib.window (fun () -> w.rep ~probe) in
  let r =
    {
      r with
      setup_ns = r.setup_ns /. slowness;
      drive_ns = r.drive_ns /. slowness;
      check_ns = r.check_ns /. slowness;
    }
  in
  (r, retx, runner, slowness)

let same_outcome ~what a b =
  if not (String.equal a.fingerprint b.fingerprint) then
    violation "%s: committed-history digest or work counts differ" what;
  List.iter2
    (fun x y ->
      if not (String.equal x.name y.name && Float.equal x.value y.value) then
        violation "%s: %s is %.17g, expected %.17g" what x.name y.value x.value)
    a.virt b.virt

let median xs = Bstat.median (Bstat.sorted (Array.of_list xs))

(* Stop adding repetitions here even if fewer than [min_reps] ran, so a
   slow host still finishes inside the per-run time limit. *)
let hard_stop_s = 90.0
let min_reps = 3

let measure w ~seconds =
  let warm, _, _, _ = fresh_rep w ~probe:None in
  let t0 = wall_now () in
  let elapsed () = ns_between t0 (wall_now ()) /. 1e9 in
  let rec loop acc =
    let n = List.length acc in
    if n >= 1 && (elapsed () >= hard_stop_s || (elapsed () >= seconds && n >= min_reps)) then
      List.rev acc
    else begin
      let r, _, _, slowness = fresh_rep w ~probe:None in
      same_outcome ~what:"repetitions disagree" warm r;
      loop ((r, slowness) :: acc)
    end
  in
  (warm, loop [])

(* Set-up times: the repetitions' own, or, where one set-up takes
   milliseconds, the median of many set-up trials run for about a second,
   each followed by a calibration slice. *)
let setup_samples w reps =
  match w.setup_trial with
  | None -> List.map (fun r -> r.setup_ns) reps
  | Some trial ->
      let t0 = wall_now () in
      let rec loop acc n =
        if n >= 1000 || (n >= 11 && ns_between t0 (wall_now ()) >= 1e9) then acc
        else begin
          let ns = snd (timed trial) in
          Calib.slice ();
          loop (ns :: acc) (n + 1)
        end
      in
      let samples, slowness = Calib.window (fun () -> loop [] 0) in
      List.map (fun ns -> ns /. slowness) samples

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let rate units ns = float_of_int units /. (ns /. 1e9)

(* End-to-end metrics: medians of the wall-clock figures over the measured
   repetitions, virtual-time figures from the (identical) repetitions. *)
let end_to_end w ~name (warm : rep) reps =
  let n = List.length reps in
  let unscaled = median (List.map (fun (r, slow) -> rate r.ops (r.drive_ns *. slow)) reps) in
  let slowness = median (List.map snd reps) in
  let reps = List.map fst reps in
  let setups = setup_samples w reps in
  let wall =
    [
      metric ~samples:(List.length setups) "setup_s" "s" (median setups /. 1e9);
      metric ~samples:n "wall_ops_per_s" "ops/s"
        (median (List.map (fun r -> rate r.ops r.drive_ns) reps));
      metric ~samples:1 "heap_peak_mb" "MB" (heap_peak_mb ());
      metric ~samples:n "host_slowness" "ratio" slowness;
      metric ~samples:n "wall_ops_per_s_unscaled" "ops/s" unscaled;
      metric ~samples:warm.attempted "ops_failed_frac" "frac"
        (float_of_int warm.failed /. float_of_int (max 1 warm.attempted));
    ]
  in
  let fuzz =
    if String.equal name "fuzz_f1" then
      [
        metric ~samples:n "fuzz_seeds_per_s" "seeds/s"
          (median
             (List.map (fun r -> rate r.units (r.setup_ns +. r.drive_ns +. r.check_ns)) reps));
      ]
    else []
  in
  wall @ fuzz @ warm.virt

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let spans_path ~name ~seed = Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" name seed

let traced w ~name ~seed =
  let warm, _, _, _ = fresh_rep w ~probe:None in
  let plain, _, _, _ = fresh_rep w ~probe:None in
  same_outcome ~what:"repetitions disagree" warm plain;
  let probe = Probe.create () in
  let tr, retx, runner, _ = fresh_rep w ~probe:(Some probe) in
  same_outcome ~what:"tracing is not inert" plain tr;
  let per_op x = x /. float_of_int (max 1 plain.ops) in
  let layers = Probe.metrics probe ~ops:tr.ops ~drive_ns:tr.drive_ns in
  let ops_per_batch =
    (List.find (fun m -> String.equal m.name "replica.ops_per_batch") layers).value
  in
  let runner =
    if runner <> [] then runner
    else
      (* one repetition stands in for one seed: build, drive, check *)
      [
        metric "fuzz.prepare_ms_per_seed" "ms" (tr.setup_ns /. 1e6);
        metric "fuzz.run_ms_per_seed" "ms" (tr.drive_ns /. 1e6);
        metric "fuzz.oracle_ms_per_seed" "ms" (tr.check_ns /. 1e6);
      ]
  in
  let metrics =
    layers @ runner
    @ [
        metric "client.retransmits_per_op" "count" (per_op (float_of_int retx));
        metric "gc.minor_words_per_op" "words" (per_op plain.gc_minor);
        metric "gc.promoted_words_per_op" "words" (per_op plain.gc_promoted);
        metric "gc.major_collections" "count" (float_of_int plain.gc_major);
        metric "obs.overhead_frac" "frac" ((tr.drive_ns /. plain.drive_ns) -. 1.0);
        metric "unreplicated.vlat_p50_us" "us" (w.unreplicated ());
      ]
    @ w.model ~ops_per_batch
  in
  (try
     if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
     Probe.write_spans probe (spans_path ~name ~seed)
   with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n" e);
  (plain, metrics, Probe.span_totals probe)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let commit () =
  let read path =
    try
      let ic = open_in path in
      let s = input_line ic in
      close_in ic;
      Some (String.trim s)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.equal (String.sub head 0 5) "ref: " ->
      Option.value ~default:"unknown" (read (".git/" ^ String.sub head 5 (String.length head - 5)))
  | Some hash -> hash
  | None -> "unknown"

let host_json () =
  Printf.sprintf "{\"cores\":%d,\"ocaml\":%S,\"vpool_domains\":%d,\"commit\":%S}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Bft_crypto.Vpool.default_domains ())
    (commit ())

let detail_line ~name ~seed ~trace ~reps metrics =
  Printf.sprintf "{\"workload\":%S,\"seed\":%d,\"trace\":%d,\"reps\":%d,\"host\":%s,\"metrics\":[%s]}"
    name seed trace reps (host_json ())
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "{\"name\":%S,\"value\":%s,\"unit\":%S,\"samples\":%d}" m.name
              (json_float m.value) m.unit_ m.samples)
          metrics))

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value)
              m.unit_)
          metrics))

(* The gated metrics in table order; a missing one is a benchmark bug. *)
let select names metrics =
  List.map
    (fun (n, u) ->
      match List.find_opt (fun m -> String.equal m.name n) metrics with
      | Some m when String.equal m.unit_ u -> m
      | Some m -> violation "benchmark bug: %s is in %s, not %s" n m.unit_ u
      | None -> violation "benchmark bug: metric %s was not produced" n)
    names

let print_table metrics =
  List.iter
    (fun m -> Printf.eprintf "  %-32s %16.4f %-8s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload kv_rw_f3|open_1m_f1|fuzz_f1 --seed N --seconds S --trace 0|1 \
     [--plant-failure]";
  exit 2

let () =
  let workload_name = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let plant = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload_name := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := Option.value ~default:(-1) (int_of_string_opt v);
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value ~default:0 (int_of_string_opt v);
        parse rest
    | "--trace" :: v :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt v);
        parse rest
    (* a planted failure: every fuzz seed that view-changes fails an oracle *)
    | "--plant-failure" :: rest ->
        plant := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let name = !workload_name in
  if
    (not (List.mem_assoc name Names.workloads))
    || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
    || (!plant && not (String.equal name "fuzz_f1"))
  then usage ();
  let seed = !seed and trace = !trace in
  let w = workload name ~seed ~plant:!plant in
  try
    let attempted, failed, gated, detail, reps =
      if trace = 0 then begin
        Calib.enabled := true;
        let warm, reps = measure w ~seconds:(float_of_int !seconds) in
        let all = end_to_end w ~name warm reps in
        List.iter
          (fun (n, ws) ->
            if List.mem name ws && not (List.exists (fun m -> String.equal m.name n) all) then
              violation "benchmark bug: metric %s was not produced" n)
          Names.workload_only;
        let gated = select (List.map (fun (n, u, _, _) -> (n, u)) Names.end_to_end) all in
        (warm.attempted, warm.failed, gated, all, List.length reps)
      end
      else begin
        let plain, layers, spans = traced w ~name ~seed in
        Printf.eprintf "perfbench: span totals (total ms / self ms / count)\n";
        List.iter
          (fun (n, (total, self, count)) ->
            Printf.eprintf "  %-24s %12.3f %12.3f %8d\n" n (total /. 1e6) (self /. 1e6) count)
          spans;
        let gated = select (List.map (fun (n, u, _) -> (n, u)) Names.per_layer) layers in
        (plain.attempted, plain.failed, gated, layers @ plain.virt, 1)
      end
    in
    Printf.eprintf "perfbench: %s seed %d trace %d, %d repetitions\n" name seed trace reps;
    print_table detail;
    print_endline (detail_line ~name ~seed ~trace ~reps detail);
    print_endline (result_line ~correct:true ~attempted ~failed gated)
  with Violation msg ->
    Printf.eprintf "perfbench: CORRECTNESS VIOLATION: %s\n%!" msg;
    print_endline (result_line ~correct:false ~attempted:1 ~failed:1 []);
    exit 1
