(* Static race detection at a domain boundary.

   lib/ runs on one domain and has no pool, so these rules find nothing
   in the tree today; they stay so that any code handing work to another
   domain must show that the work reads only immutable data. Two rules:

   - [pool-escape]: a closure passed across the boundary ([Vpool.run],
     [Vpool.run_inline], [Vpool.submit], or a raw [Domain.spawn])
     captures a mutable value — a ref, an array/[Bytes], a record with
     mutable fields, or an imperative container. Captured names
     containing "scratch" or "arena" are exempt: those are the
     documented read-only scratch buffers (written only before
     submission).

   - [mutable-global]: the closure (or a function it references,
     transitively through the effect fixpoint) writes top-level mutable
     state — a data race with the submitting domain even if the closure
     itself captures nothing.

   Soundness caveats (documented in DESIGN.md): closures reaching the
   boundary through a function parameter or stored in mutable state are
   not tracked; reads of global mutable state referenced *indirectly*
   (through a called function rather than a captured ident) are only
   caught when some function in the chain writes. *)

let submit_names = [ "run"; "run_inline"; "submit"; "spawn" ]

let is_pool_boundary (cg : Callgraph.t) ~unit_name p =
  match Callgraph.resolve cg ~unit_name p with
  | Callgraph.Def d -> (
      match List.rev (String.split_on_char '.' d.Callgraph.d_disp) with
      | leaf :: mods when List.exists (String.equal leaf) submit_names ->
          let owner =
            match mods with m :: _ -> m | [] -> Callgraph.unit_base d.Callgraph.d_unit
          in
          String.equal owner "Vpool"
      | _ -> false)
  | Callgraph.External comps -> (
      match List.rev comps with
      | [ "spawn"; "Domain" ] | [ "spawn"; "Domain"; "Stdlib" ] -> true
      | leaf :: owner :: _ ->
          List.exists (String.equal leaf) submit_names && String.equal owner "Vpool"
      | _ -> false)
  | Callgraph.Local -> false

let scratch_allowed name =
  Bft_util.Strutil.contains_sub name "scratch" || Bft_util.Strutil.contains_sub name "arena"

(* Idents bound anywhere inside [e] (params, lets, match cases, for
   loops): references to anything else are captures. *)
let bound_idents (e : Typedtree.expression) =
  let bound = Hashtbl.create 16 in
  let add id = Hashtbl.replace bound (Ident.unique_name id) () in
  let pat (type k) (it : Tast_iterator.iterator) (p : k Typedtree.general_pattern) =
    (match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) -> add id
    | Typedtree.Tpat_alias (_, id, _) -> add id
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_function { param; _ } -> add param
    | Typedtree.Texp_for (id, _, _, _, _, _) -> add id
    | Typedtree.Texp_letop { param; _ } -> add param
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with pat = (fun it p -> pat it p); expr } in
  it.expr it e;
  bound

type ctx = {
  cg : Callgraph.t;
  summaries : (string, Effects.summary) Hashtbl.t;
  mutable findings : Finding.t list;
  mutable seen : (string * string * int * int) list;  (* (rule, file, line, col) dedup *)
}

let report ctx ~(def : Callgraph.def) ~rule ~loc ?(witness = []) msg =
  if not (List.exists (String.equal rule) def.Callgraph.d_allows) then begin
    let f = Finding.v ~witness ~rule ~loc msg in
    let k = (f.Finding.rule, f.Finding.file, f.Finding.line, f.Finding.col) in
    if not (List.mem k ctx.seen) then begin
      ctx.seen <- k :: ctx.seen;
      ctx.findings <- f :: ctx.findings
    end
  end

(* A referenced definition whose inferred effect writes global state:
   flag it with the call-path witness to the actual write. *)
let check_mutating_def ctx ~def ~loc (d' : Callgraph.def) =
  match Hashtbl.find_opt ctx.summaries d'.Callgraph.d_key with
  | Some s when s.Effects.s_eff.Effects.mutates ->
      let witness =
        Option.value
          (Effects.witness ctx.cg ctx.summaries
             ~pred:(fun e -> e.Effects.mutates)
             d'.Callgraph.d_key)
          ~default:[]
      in
      report ctx ~def ~rule:Rule.mutable_global ~loc ~witness
        (Printf.sprintf
           "closure crossing the Vpool boundary calls %s, whose inferred effect writes \
            top-level mutable state — a data race across the deterministic-merge boundary \
            (bftlint --why prints the call path)"
           d'.Callgraph.d_disp)
  | _ -> ()

(* Analyze one closure expression crossing the boundary. *)
let check_closure ctx ~(def : Callgraph.def) (fn_e : Typedtree.expression) =
  let bound = bound_idents fn_e in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, { loc; _ }, _) -> (
        match p with
        | Path.Pident id when Hashtbl.mem bound (Ident.unique_name id) -> ()
        | _ -> (
            match Callgraph.resolve ctx.cg ~unit_name:def.Callgraph.d_unit p with
            | Callgraph.Def d' ->
                check_mutating_def ctx ~def ~loc d';
                if
                  Callgraph.is_mutable_type e.Typedtree.exp_env e.Typedtree.exp_type
                  && not (scratch_allowed d'.Callgraph.d_disp)
                then
                  report ctx ~def ~rule:Rule.pool_escape ~loc
                    (Printf.sprintf
                       "closure crossing the Vpool boundary captures top-level mutable value \
                        %s; parallel jobs must only read immutable data"
                       d'.Callgraph.d_disp)
            | Callgraph.Local ->
                let name = Path.last p in
                if
                  Callgraph.is_mutable_type e.Typedtree.exp_env e.Typedtree.exp_type
                  && not (scratch_allowed name)
                then
                  report ctx ~def ~rule:Rule.pool_escape ~loc
                    (Printf.sprintf
                       "closure crossing the Vpool boundary captures mutable local '%s'; \
                        parallel jobs must only read immutable data (rename it *scratch* / \
                        *arena* if it is a pre-submission read-only buffer)"
                       name)
            | Callgraph.External _ -> ()))
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it fn_e

(* An argument crossing the boundary: literal closures get the full
   capture analysis; named functions and partial applications get the
   transitive mutates_global check. *)
let check_arg ctx ~(def : Callgraph.def) (a : Typedtree.expression) =
  match a.Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> check_closure ctx ~def a
  | _ when Callgraph.is_arrow_type a.Typedtree.exp_env a.Typedtree.exp_type -> (
      match a.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, { loc; _ }, _) -> (
          match Callgraph.resolve ctx.cg ~unit_name:def.Callgraph.d_unit p with
          | Callgraph.Def d' -> check_mutating_def ctx ~def ~loc d'
          | _ -> ())
      | _ ->
          (* partial application etc.: every referenced def is checked *)
          let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
            (match e.Typedtree.exp_desc with
            | Typedtree.Texp_ident (p, { loc; _ }, _) -> (
                match Callgraph.resolve ctx.cg ~unit_name:def.Callgraph.d_unit p with
                | Callgraph.Def d' -> check_mutating_def ctx ~def ~loc d'
                | _ -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr it e
          in
          let it = { Tast_iterator.default_iterator with expr } in
          it.expr it a)
  | _ -> ()  (* data arguments (job arrays, strings) are the merge boundary's job *)

let findings (cg : Callgraph.t) summaries =
  let ctx = { cg; summaries; findings = []; seen = [] } in
  List.iter
    (fun key ->
      let def = Hashtbl.find cg.Callgraph.defs key in
      match def.Callgraph.d_body with
      | None -> ()
      | Some body ->
          let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
            (match e.Typedtree.exp_desc with
            | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
              when is_pool_boundary cg ~unit_name:def.Callgraph.d_unit p ->
                List.iter (fun (_, argo) -> Option.iter (check_arg ctx ~def) argo) args
            | _ -> ());
            Tast_iterator.default_iterator.expr it e
          in
          let it = { Tast_iterator.default_iterator with expr } in
          it.expr it body)
    cg.Callgraph.order;
  List.rev ctx.findings
