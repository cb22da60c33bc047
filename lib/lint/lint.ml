(* Driver: run the syntactic rules over [.ml] sources, the type-aware
   rules over the [.cmt] files dune leaves under [.objs/byte], then the
   whole-program pass (call graph -> effect fixpoint -> pool escape,
   and the dead-export check of lib/'s [.cmti] interfaces) over every
   loaded typedtree at once; apply the per-directory allowlist and
   report sorted findings. *)

(* Built-in per-directory allowlist: unchecked accesses are the point of
   the crypto kernels and the arenas. No domain primitive is allowed
   anywhere in lib/: the simulator, and every MAC and digest check in it,
   runs on one domain.

   bench/ and bin/ are drivers: wall-clock timing and environment
   lookups are their job (the simulator itself never sees them), so the
   determinism fence stops at lib/ + the protocol-reachable roots. *)
let default_allowlist =
  [
    ("lib/crypto/", Rule.unsafe_op);
    ("lib/statemachine/paged_image.ml", Rule.unsafe_op);
    ("lib/net/wire_arena.ml", Rule.unsafe_op);
  ]

let contains_sub = Bft_util.Strutil.contains_sub

let allowed_by allowlist (f : Finding.t) =
  List.exists
    (fun (prefix, rule) -> String.equal rule f.Finding.rule && contains_sub f.Finding.file prefix)
    allowlist

(* --allow PREFIX:RULE specs: a malformed spec is a hard usage error
   (empty prefix, empty/unknown rule id) — silently dropping one would
   run the gate with different rules than the caller asked for. *)
let parse_allow spec =
  match String.index_opt spec ':' with
  | None -> Error (Printf.sprintf "malformed --allow %S (want PREFIX:RULE)" spec)
  | Some i ->
      let prefix = String.sub spec 0 i
      and rule = String.sub spec (i + 1) (String.length spec - i - 1) in
      if String.length prefix = 0 || String.length rule = 0 then
        Error (Printf.sprintf "malformed --allow %S (want PREFIX:RULE)" spec)
      else if not (List.exists (String.equal rule) Rule.ids) then
        Error (Printf.sprintf "unknown rule %S in --allow %S" rule spec)
      else Ok (prefix, rule)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_impl ~filename src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf filename;
  Parse.implementation lexbuf

(* Lint one [.ml] source file (syntactic rules only). [filename] is the
   path recorded in findings; [path], when given, is where to read it. *)
let lint_ml_file ?path filename =
  let src = read_file (Option.value path ~default:filename) in
  Syntactic.lint (parse_impl ~filename src)

(* Load one [.cmt] file. Findings carry the source path recorded at
   compile time, e.g. "lib/core/replica.ml". *)
let load_cmt path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation tstr ->
      Some
        {
          Callgraph.u_name = cmt.Cmt_format.cmt_modname;
          u_file = Option.value cmt.Cmt_format.cmt_sourcefile ~default:path;
          u_str = tstr;
        }
  | _ -> None

(* The exports of one [.cmti] file whose source is an interface in lib/. *)
let load_cmti path =
  let cmt = Cmt_format.read_cmt path in
  match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
  | Cmt_format.Interface sg, Some src when String.starts_with ~prefix:"lib/" src ->
      Dead_export.of_signature ~owner:cmt.Cmt_format.cmt_modname sg
  | _ -> []

(* The whole-program pass: build the cross-module call graph, run the
   effect fixpoint, then the transitive-nondet and pool escape rules. *)
let interprocedural units =
  let cg = Callgraph.build units in
  let summaries = Effects.infer cg in
  Effects.findings cg summaries @ Effects.pure_findings cg @ Escape.findings cg summaries

(* Typecheck a standalone snippet against the initial environment so the
   fixture corpus can exercise the type-aware rules without dune in the
   loop. Returns [Error] when the snippet does not typecheck (fixtures
   for the determinism rules reference Unix etc., which is not on the
   load path — their typed findings are necessarily empty). *)
let initial_env =
  lazy
    (Compmisc.init_path ();
     (* fixtures are deliberately scruffy; keep the typechecker from
        printing warnings while linting them *)
     let (_ : Warnings.alert option) = Warnings.parse_options false "-a" in
     Compmisc.initial_env ())

let typecheck str =
  match Typemod.type_structure (Lazy.force initial_env) str with
  | tstr, _, _, _, _ -> Ok tstr
  | exception exn -> Error (Printexc.to_string exn)

let modname_of_filename filename =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename filename))

(* Lint a source string with every rule set (the whole-program pass runs
   on the single unit, so intra-file module laundering is visible). The
   second component tells the caller whether the typed passes ran. *)
let lint_source ~filename src =
  let str = parse_impl ~filename src in
  let syntactic = Syntactic.lint str in
  match typecheck str with
  | Ok tstr ->
      let unit_name = modname_of_filename filename in
      let unit = { Callgraph.u_name = unit_name; u_file = filename; u_str = tstr } in
      let dead =
        Dead_export.findings ~exports:(Dead_export.of_structure ~unit_name tstr) [ unit ]
      in
      ( List.sort Finding.compare_pos
          (syntactic @ Typed.lint tstr @ interprocedural [ unit ] @ dead),
        Ok () )
  | Error e -> (List.sort Finding.compare_pos syntactic, Error e)

(* Walk [root/path] collecting sources, cmt and cmti artifacts. Sources
   are reported relative to [root]; directory order is sorted so runs are
   deterministic. [.cmti] files (interfaces) carry no expressions, only
   the exports the dead-export check needs; wrapper/alias cmts are
   harmless to scan. Paths matching [exclude] (substring) are skipped —
   the lint-fixture corpus violates the rules on purpose. *)
let default_exclude = [ "lint_fixtures" ]

(* Top-level paths whose code is read only as use sites of lib/'s
   exports: the benchmark and the examples are not linted themselves,
   but a value they call is not dead. *)
let use_site_only = [ "perfbench"; "examples" ]

let gather ?(exclude = default_exclude) ~root paths =
  let excluded rel = List.exists (fun e -> contains_sub rel e) exclude in
  let mls = ref [] and cmts = ref [] and cmtis = ref [] in
  let rec walk rel =
    let full = Filename.concat root rel in
    if excluded rel then ()
    else if Sys.is_directory full then
      Array.iter
        (fun name -> walk (Filename.concat rel name))
        (let names = Sys.readdir full in
         Array.sort String.compare names;
         names)
    else if String.ends_with ~suffix:".ml" rel then mls := rel :: !mls
    else if String.ends_with ~suffix:".cmt" rel then cmts := rel :: !cmts
    else if String.ends_with ~suffix:".cmti" rel then cmtis := rel :: !cmtis
  in
  List.iter (fun p -> if Sys.file_exists (Filename.concat root p) then walk p) paths;
  (List.rev !mls, List.rev !cmts, List.rev !cmtis)

type run = {
  findings : Finding.t list;
  errors : string list;  (* files that failed to parse/load *)
  files_scanned : int;
  cmts_scanned : int;
}

(* Lint a tree: syntactic rules over every [.ml], typed rules over every
   [.cmt], the whole-program pass over all loaded units together, the
   dead-export check of lib/'s interfaces against every unit (those under
   [use_site_only] paths included), and the allowlist applied to
   everything. [allow] extends the built-in per-directory allowlist with
   (path-prefix, rule-id) pairs. *)
let lint_tree ?(allow = []) ?exclude ~root paths =
  let allowlist = allow @ default_allowlist in
  let use_paths, lint_paths =
    List.partition (fun p -> List.mem (Filename.basename p) use_site_only) paths
  in
  let mls, cmts, cmtis = gather ?exclude ~root lint_paths in
  let _, use_cmts, _ = gather ?exclude ~root use_paths in
  let errors = ref [] in
  let of_ml rel =
    match lint_ml_file ~path:(Filename.concat root rel) rel with
    | fs -> fs
    | exception exn ->
        errors := Printf.sprintf "%s: %s" rel (Printexc.to_string exn) :: !errors;
        []
  in
  let load f ~default rel =
    match f (Filename.concat root rel) with
    | x -> x
    | exception exn ->
        errors := Printf.sprintf "%s: %s" rel (Printexc.to_string exn) :: !errors;
        default
  in
  let units = ref [] in
  let of_cmt rel =
    match load load_cmt ~default:None rel with
    | Some u ->
        units := u :: !units;
        Typed.lint u.Callgraph.u_str
    | None -> []
  in
  let raw = List.concat_map of_ml mls @ List.concat_map of_cmt cmts in
  let units = List.rev !units in
  let use_units = List.filter_map (load load_cmt ~default:None) use_cmts in
  let exports = List.concat_map (load load_cmti ~default:[]) cmtis in
  let raw =
    raw @ interprocedural units @ Dead_export.findings ~exports (units @ use_units)
  in
  let findings =
    List.sort Finding.compare_pos (List.filter (fun f -> not (allowed_by allowlist f)) raw)
  in
  {
    findings;
    errors = List.rev !errors;
    files_scanned = List.length mls;
    cmts_scanned = List.length cmts;
  }
