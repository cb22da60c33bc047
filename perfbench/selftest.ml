(* Self-test of the benchmark's own logic: the exact percentile and tail
   rule, the knee selection, and the agreement of BENCHMARK.json with the
   metric tables in [Names]. The planted-failure test is a rule in the dune
   file: it runs the benchmark with [--plant-failure] and expects exit 1. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

(* ------------------------------------------------------------------ *)
(* Percentiles and the knee                                            *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let s = Bstat.sorted (Array.init 1000 (fun i -> float_of_int (1000 - i))) in
  check "p50 of 1..1000" (Bstat.percentile s 0.5 = 500.0);
  check "p99 of 1..1000 (no float round-up)" (Bstat.percentile s 0.99 = 990.0);
  check "p100 is the maximum" (Bstat.percentile s 1.0 = 1000.0);
  check "p0 is the minimum" (Bstat.percentile s 0.0 = 1.0);
  check "one sample" (Bstat.percentile [| 7.0 |] 0.99 = 7.0);
  check "empty input raises"
    (match Bstat.percentile [||] 0.5 with _ -> false | exception Invalid_argument _ -> true);
  check "p99 allowed at 1000 samples" (Bstat.tail_ok ~n:1000 0.99);
  check "p99 refused at 999 samples" (not (Bstat.tail_ok ~n:999 0.99));
  check "highest tail at 1000" (Bstat.highest_tail 1000 = Some 0.99);
  check "highest tail at 10000" (Bstat.highest_tail 10000 = Some 0.999);
  check "highest tail at 50" (Bstat.highest_tail 50 = Some 0.75);
  check "no tail at 10 samples" (Bstat.highest_tail 10 = None)

let pt offered committed tail_us = { Bstat.offered; committed; tail_us }

let test_knee () =
  let knee pts = Option.map (fun p -> p.Bstat.offered) (Bstat.knee ~limit_us:20_000.0 ~min_frac:0.95 pts) in
  let sweep =
    [
      pt 16_000.0 15_900.0 30_000.0 (* tail over the limit *);
      pt 4_000.0 3_990.0 5_000.0;
      pt 12_000.0 11_000.0 11_000.0 (* commits under 0.95 of offered *);
      pt 8_000.0 7_900.0 9_000.0;
    ]
  in
  check "knee is the highest rate meeting both limits" (knee sweep = Some 8_000.0);
  check "limits are inclusive" (knee [ pt 10_000.0 9_500.0 20_000.0 ] = Some 10_000.0);
  check "no rate qualifies" (knee [ pt 10_000.0 5_000.0 1_000.0 ] = None);
  check "empty sweep" (knee [] = None)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

exception Bad_json of int

(* A small JSON reader: enough for BENCHMARK.json. *)
let parse_json s =
  let n = String.length s and i = ref 0 in
  let rec ws () = if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; ws ()) in
  let expect c = ws (); if !i < n && s.[!i] = c then incr i else raise (Bad_json !i) in
  let rec value () =
    ws ();
    if !i >= n then raise (Bad_json !i);
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            let k = (match value () with Str k -> k | _ -> raise (Bad_json !i)) in
            expect ':';
            let v = value () in
            ws ();
            if s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        ws ();
        if s.[!i] = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if s.[!i] = ',' then (incr i; items (v :: acc)) else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' ->
        incr i;
        let b = Buffer.create 16 in
        while s.[!i] <> '"' do
          if s.[!i] = '\\' then incr i;
          Buffer.add_char b s.[!i];
          incr i
        done;
        incr i;
        Str (Buffer.contents b)
    | 't' -> i := !i + 4; Bool true
    | 'f' -> i := !i + 5; Bool false
    | 'n' -> i := !i + 4; Null
    | _ ->
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
        (match float_of_string_opt (String.sub s j (!i - j)) with
        | Some f -> Num f
        | None -> raise (Bad_json j))
  in
  let v = value () in
  ws ();
  if !i <> n then raise (Bad_json !i);
  v

let field k = function Obj l -> List.assoc_opt k l | _ -> None
let str = function Some (Str s) -> s | _ -> ""
let num = function Some (Num f) -> f | _ -> nan
let arr = function Some (Arr l) -> l | _ -> []

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let valid_unit u =
  String.length u >= 1 && String.length u <= 16
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || String.contains "_/%.-" c)
       u

(* Every metric the benchmark's definition names, end to end and per
   layer. Each must be printed by the benchmark. *)
let defined =
  [
    "setup_s"; "wall_ops_per_s"; "fuzz_seeds_per_s"; "vops_per_vs"; "vlat_write_p50_us";
    "vlat_write_p99_us"; "vlat_read_p50_us"; "vlat_read_p99_us"; "knee_rate_per_vs";
    "capacity_ops_per_vs"; "failover_unavail_ms"; "ops_failed_frac"; "heap_peak_mb";
    "crypto.bytes_maced_per_op"; "crypto.mac_ns_per_op"; "crypto.digest_ns_per_op";
    "wire.encode_ns_per_op"; "wire.bytes_per_op"; "net.msgs_per_op"; "net.deliveries_per_op";
    "net.bytes_per_op"; "net.dropped_frac"; "net.backlog_hwm"; "engine.events_per_op";
    "engine.max_heap"; "engine.step_ns_per_event"; "replica.ops_per_batch";
    "replica.order_wait_us"; "replica.agree_us"; "replica.view_changes";
    "replica.state_transfers"; "replica.checkpoints"; "client.retransmits_per_op";
    "service.exec_ns_per_op"; "service.ckpt_ns_per_ckpt"; "service.dirty_pages_per_ckpt";
    "fuzz.prepare_ms_per_seed"; "fuzz.run_ms_per_seed"; "fuzz.oracle_ms_per_seed";
    "gc.minor_words_per_op"; "gc.promoted_words_per_op"; "gc.major_collections";
    "obs.overhead_frac"; "model.vlat_write_us"; "model.vlat_read_us";
    "model.capacity_ops_per_vs"; "unreplicated.vlat_p50_us";
  ]

let test_names path =
  let e2e = List.map (fun (n, _, _, _) -> n) Names.end_to_end in
  let all = e2e @ List.map (fun (n, _, _) -> n) Names.per_layer @ List.map fst Names.workload_only in
  List.iter (fun n -> check ("valid name " ^ n) (Names.valid_name n)) all;
  check "names are unique" (List.length (List.sort_uniq compare all) = List.length all);
  check "1..16 end-to-end metrics" (List.length e2e >= 1 && List.length e2e <= 16);
  check "1..128 per-layer metrics"
    (List.length Names.per_layer >= 1 && List.length Names.per_layer <= 128);
  check "setup_s is gated, in seconds, lower is better"
    (List.exists (fun (n, u, b, _) -> n = "setup_s" && u = "s" && b = Names.Lower) Names.end_to_end);
  List.iter
    (fun n ->
      check ("defined metric printed: " ^ n) (List.mem n all))
    defined;
  let j = parse_json (read_file path) in
  let keys = match j with Obj l -> List.map fst l | _ -> [] in
  check "BENCHMARK.json keys"
    (List.sort compare keys
    = [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]);
  let jn section = List.map (fun m -> str (field "name" m)) (arr (field section j)) in
  check "BENCHMARK.json end_to_end matches Names.end_to_end" (jn "end_to_end" = e2e);
  let better = function Names.Higher -> "higher" | Lower -> "lower" in
  check "BENCHMARK.json per_layer matches Names.per_layer"
    (List.map
       (fun m -> (str (field "name" m), str (field "unit" m), str (field "better" m)))
       (arr (field "per_layer" j))
    = List.map (fun (n, u, b) -> (n, u, better b)) Names.per_layer);
  check "BENCHMARK.json workloads match Names.workloads"
    (jn "workloads" = List.map fst Names.workloads);
  List.iter2
    (fun m (n, u, b, bound) ->
      check ("end_to_end entry " ^ n)
        (str (field "unit" m) = u
        && str (field "better" m) = better b
        && num (field "bound" m) = bound
        && bound > 0.0 && bound <= 0.25))
    (arr (field "end_to_end" j))
    Names.end_to_end;
  List.iter
    (fun m ->
      let u = str (field "unit" m) in
      check ("unit of " ^ str (field "name" m)) (valid_unit u))
    (arr (field "end_to_end" j) @ arr (field "per_layer" j))

let () =
  test_percentiles ();
  test_knee ();
  test_names (if Array.length Sys.argv > 1 then Sys.argv.(1) else "../BENCHMARK.json");
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "perfbench selftest: ok"
