(* dead-export: an interface [val] that no other compilation unit
   references. An export nobody outside its module calls is code the
   system does not need, and a public name that keeps it from being
   deleted.

   Exports come from the [.cmti] of each library unit (in single-file
   mode, from each top-level module sealed by an explicit signature,
   which stands in for an [.mli]). Uses are the value paths of every
   loaded typedtree, resolved through module aliases
   ([module R = Bft_core.Replica]) and dune's wrapped-library names to
   the "<unit>.<inner path>" keys {!Callgraph} uses. A use counts only
   from outside the exporting module: a value its own module calls is
   still dead as an export. *)

open Typedtree

type export = { key : string; owner : string; loc : Location.t; allows : string list }

(* Every [val] of a signature, nested module signatures included. *)
let rec of_signature ~owner (sg : signature) =
  List.concat_map
    (fun si ->
      match si.sig_desc with
      | Tsig_value vd ->
          [
            {
              key = owner ^ "." ^ vd.val_name.txt;
              owner;
              loc = vd.val_loc;
              allows = Syntactic.attr_allows vd.val_attributes;
            };
          ]
      | Tsig_module
          { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
        ->
          of_signature ~owner:(owner ^ "." ^ name) sg
      | _ -> [])
    sg.sig_items

let of_structure ~unit_name (str : structure) =
  List.concat_map
    (fun si ->
      match si.str_desc with
      | Tstr_module
          {
            mb_name = { txt = Some name; _ };
            mb_expr =
              {
                mod_desc =
                  Tmod_constraint (_, _, Tmodtype_explicit { mty_desc = Tmty_signature sg; _ }, _);
                _;
              };
            _;
          } ->
          of_signature ~owner:(unit_name ^ "." ^ name) sg
      | _ -> [])
    str.str_items

(* Call [note ~scope key] for every key a value path of [u] may denote: a
   module of [u] itself, the literal path, and the real unit behind a
   wrapped-library alias. [scope] is the unit or unit.Module path the
   reference sits in. *)
let references (u : Callgraph.unit_info) ~note =
  let aliases = Hashtbl.create 16 in
  let scope = ref u.Callgraph.u_name in
  let expand path =
    match Path.flatten path with
    | `Contains_apply -> None
    | `Ok (head, rest) -> (
        match Hashtbl.find_opt aliases (Ident.unique_name head) with
        | Some target -> Some (target @ rest)
        | None -> Some (Ident.name head :: rest))
  in
  let rec alias id (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Option.iter (Hashtbl.replace aliases (Ident.unique_name id)) (expand p)
    | Tmod_constraint (me, _, _, _) -> alias id me
    | _ -> ()
  in
  let note_path comps =
    let path = String.concat "." comps in
    let wrapped =
      match comps with
      | head :: second :: more -> [ String.concat "." (Callgraph.join_units head second :: more) ]
      | _ -> []
    in
    List.iter (note ~scope:!scope) ((u.Callgraph.u_name ^ "." ^ path) :: path :: wrapped)
  in
  let super = Tast_iterator.default_iterator in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident ((Path.Pdot _ as p), _, _) -> Option.iter note_path (expand p)
    | Texp_letmodule (Some id, _, _, me, _) -> alias id me
    | _ -> ());
    super.expr self e
  in
  let module_binding self mb =
    Option.iter (fun id -> alias id mb.mb_expr) mb.mb_id;
    let saved = !scope in
    Option.iter (fun name -> scope := saved ^ "." ^ name) mb.mb_name.txt;
    super.module_binding self mb;
    scope := saved
  in
  let it = { super with expr; module_binding } in
  it.structure it u.Callgraph.u_str

(* [exports] that no unit of [units] references from outside their owner. *)
let findings ~exports units =
  let wanted = Hashtbl.create 256 and used = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace wanted e.key e) exports;
  let note ~scope key =
    match Hashtbl.find_opt wanted key with
    | Some e
      when not (String.equal scope e.owner || String.starts_with ~prefix:(e.owner ^ ".") scope)
      ->
        Hashtbl.replace used key ()
    | _ -> ()
  in
  List.iter (references ~note) units;
  List.filter_map
    (fun e ->
      if Hashtbl.mem used e.key || List.exists (String.equal Rule.dead_export) e.allows then None
      else
        Some
          (Finding.v ~rule:Rule.dead_export ~loc:e.loc
             (Printf.sprintf
                "%s is exported but no other compilation unit uses it; delete it, or keep it \
                 with [@@lint.allow \"dead-export\"] and a comment saying why"
                (Callgraph.unit_base e.key))))
    exports
