(* Parent-vs-change gate over perfbench runs.

   Usage: perfcmp BENCHMARK.json BASE_DIR CHANGE_DIR

   Each directory holds one file per run, named <workload>.<pair>.json,
   holding the last line perfbench printed. For every workload and every
   gated end-to-end metric in BENCHMARK.json, the change's median is
   compared with the base's; the gate fails (exit 1) when a median is
   worse than the metric's bound, when a change run is not correct, or
   when the change fails more operations than the base. Both files are
   read with a plain key scan, so the tool needs nothing beyond Stdlib. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Index just past the first [key] at or after [from]. *)
let find s ~from key =
  let n = String.length key in
  let rec go i =
    if i + n > String.length s then None
    else if String.equal (String.sub s i n) key then Some (i + n)
    else go (i + 1)
  in
  go from

let skip_blanks s i =
  let i = ref i in
  while !i < String.length s && (s.[!i] = ' ' || s.[!i] = '\t') do
    incr i
  done;
  !i

let number_at s i =
  let j = skip_blanks s i in
  let k = ref j in
  while
    !k < String.length s
    && match s.[!k] with '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true | _ -> false
  do
    incr k
  done;
  float_of_string (String.sub s j (!k - j))

let string_at s i =
  let j = skip_blanks s i + 1 in
  String.sub s j (String.index_from s j '"' - j)

(* The value of ["<key>": <number>], or of ["<key>": {"value": <number>}]. *)
let key_float s key =
  match find s ~from:0 (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i -> (
      match s.[skip_blanks s i] with
      | '{' -> Option.map (number_at s) (find s ~from:i "\"value\":")
      | _ -> Some (number_at s i))

(* Every ["name": "..."] in [s] between the [start] and [stop] keys, each
   with the text up to the next name. *)
let named_entries s ~start ~stop =
  let lo = Option.get (find s ~from:0 start) in
  let hi = match find s ~from:lo stop with Some i -> i | None -> String.length s in
  let rec go i acc =
    match find s ~from:i "\"name\":" with
    | Some j when j < hi ->
        let next = match find s ~from:j "\"name\":" with Some k -> min k hi | None -> hi in
        go j ((string_at s j, String.sub s j (next - j)) :: acc)
    | _ -> List.rev acc
  in
  go lo []

type gate = { metric : string; higher_better : bool; bound : float }

let gates bench =
  List.map
    (fun (metric, entry) ->
      let better = string_at entry (Option.get (find entry ~from:0 "\"better\":")) in
      {
        metric;
        higher_better = String.equal better "higher";
        bound = Option.get (key_float entry "bound");
      })
    (named_entries bench ~start:"\"end_to_end\"" ~stop:"\"per_layer\"")

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let runs dir workload =
  Sys.readdir dir |> Array.to_list
  |> List.filter (String.starts_with ~prefix:(workload ^ "."))
  |> List.sort String.compare
  |> List.map (fun f -> read_file (Filename.concat dir f))

let () =
  match Array.to_list Sys.argv with
  | [ _; bench_path; base_dir; change_dir ] ->
      let bench = read_file bench_path in
      let workloads =
        List.map fst (named_entries bench ~start:"\"workloads\"" ~stop:"\"end_to_end\"")
      in
      let ok = ref true in
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            ok := false;
            print_endline ("FAIL " ^ msg))
          fmt
      in
      List.iter
        (fun w ->
          let base = runs base_dir w and change = runs change_dir w in
          if List.length base = 0 || List.length change <> List.length base then
            fail "%s: %d base runs, %d change runs" w (List.length base) (List.length change)
          else begin
            List.iter
              (fun r ->
                if Option.is_none (find r ~from:0 "\"correct\": true") then
                  fail "%s: a change run is not correct" w)
              change;
            let failed rs =
              List.fold_left
                (fun a r -> a +. Option.value (key_float r "failed") ~default:0.0)
                0.0 rs
            in
            if failed change > failed base then
              fail "%s: failed operations rose from %.0f to %.0f" w (failed base) (failed change);
            List.iter
              (fun g ->
                let values rs = List.map (fun r -> Option.get (key_float r g.metric)) rs in
                let b = median (values base) and c = median (values change) in
                let worse = (if g.higher_better then b -. c else c -. b) /. b in
                Printf.printf
                  "%-11s %-18s base %12.3f  change %12.3f  worse %+6.1f%%  bound %4.0f%%\n" w
                  g.metric b c (100.0 *. worse) (100.0 *. g.bound);
                if worse > g.bound then
                  fail "%s: %s median is %.1f%% worse than the base (bound %.0f%%)" w g.metric
                    (100.0 *. worse) (100.0 *. g.bound))
              (gates bench)
          end)
        workloads;
      exit (if !ok then 0 else 1)
  | _ ->
      prerr_endline "usage: perfcmp BENCHMARK.json BASE_DIR CHANGE_DIR";
      exit 64
