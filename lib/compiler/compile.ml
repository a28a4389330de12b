open Divm_ring
open Divm_calc
open Divm_calc.Calc
open Divm_delta

type options = { factorize : bool; preaggregate : bool }

let default_options = { factorize = true; preaggregate = true }

(* safety bound on recursive materialization *)
let max_maps = 512

type mode = Recursive | Classical

type st = {
  opts : options;
  mode : mode;
  streams : (string * Schema.t) list;
  canon : (string, string) Hashtbl.t;
  mutable maps : Prog.map_decl list; (* reverse creation order *)
  mutable worklist : Prog.map_decl list;
  mutable stmts : (string * Prog.stmt) list; (* (trigger rel, stmt), reverse *)
  mutable counter : int;
}

let is_stream st r = List.mem_assoc r st.streams

let fresh st hint =
  st.counter <- st.counter + 1;
  Printf.sprintf "%s_%d" hint st.counter

let declare st ~kind ~hint ~schema ~def =
  let key = Calc.canon_key ~schema def in
  match Hashtbl.find_opt st.canon key with
  | Some name -> name
  | None ->
      if List.length st.maps >= max_maps then
        failwith "Compile: materialized map limit exceeded";
      let name = fresh st hint in
      let decl =
        { Prog.mname = name; mschema = schema; mkind = kind; definition = def }
      in
      st.maps <- decl :: st.maps;
      st.worklist <- decl :: st.worklist;
      Hashtbl.add st.canon key name;
      name

let base_map st rname rvars =
  declare st ~kind:Prog.Base ~hint:("BASE_" ^ rname) ~schema:rvars
    ~def:(Rel { rname; rvars })

(* Replace every base-relation atom by its (full-schema) base map. *)
let rec subst_base st e =
  match e with
  | Rel r -> Map { mname = base_map st r.rname r.rvars; mvars = r.rvars }
  | DeltaRel _ | Map _ | Const _ | Value _ | Cmp _ -> e
  | Lift (v, q) -> Lift (v, subst_base st q)
  | Exists q -> Exists (subst_base st q)
  | Sum (gb, q) -> Sum (gb, subst_base st q)
  | Prod es -> Prod (List.map (subst_base st) es)
  | Add es -> Add (List.map (subst_base st) es)

(* Variables an expression can bind when evaluated standalone; empty for
   filters and anything that cannot be typed without context. *)
let visible f =
  match Calc.schema ~bound:[] f with s -> s | exception Type_error _ -> []

let is_filter f =
  match f with
  | Cmp _ | Value _ | Const _ -> true
  | Lift (_, q) -> not (Calc.has_base_rels q || Calc.has_deltas q)
  | _ -> false

let filter_vars f = Calc.all_vars f

(* ------------------------------------------------------------------ *)
(* Materialization of update-independent parts                         *)
(* ------------------------------------------------------------------ *)

(* Group pure relational factors into connected components of the join
   graph, by shared visible variables. Returns a list of (vars, members)
   with members carrying their original factor index. *)
let components pure =
  List.fold_left
    (fun comps (i, f) ->
      let vs = visible f in
      let sharing, rest =
        List.partition (fun (cvs, _) -> Schema.inter cvs vs <> []) comps
      in
      let merged_vars =
        List.fold_left (fun acc (cvs, _) -> Schema.union acc cvs) vs sharing
      in
      let merged_members =
        List.concat_map snd sharing @ [ (i, f) ]
      in
      (merged_vars, merged_members) :: rest)
    [] pure
  |> List.rev

let rec mat_expr st ~ctx ~bound e =
  add (List.map (mat_mono st ~ctx ~bound) (Poly.monomials e))

and mat_mono st ~ctx ~bound m =
  match m with
  | Sum (gb, body) ->
      (* Everything outside the projection sees only [gb], so the context
         narrows to it — nested aggregates then materialize as genuinely
         aggregated maps (e.g. Q17's per-pkey quantity sums) instead of
         over-keyed copies. Outer variables that occur inside the body are
         equality correlations (shared names) and must stay. *)
      let ctx' = Schema.union gb (Schema.inter (Calc.all_vars body) ctx) in
      sum gb (mat_product st ~ctx:ctx' ~bound body)
  | body -> mat_product st ~ctx ~bound body

and mat_product st ~ctx ~bound body =
  if not (Calc.has_base_rels body) then body
  else
    let fs = Poly.factors body in

    let fs_arr = Array.of_list fs in
    let preceding_visible i =
      let acc = ref bound in
      Array.iteri
        (fun j f -> if j < i then acc := Schema.union !acc (visible f))
        fs_arr;
      !acc
    in
    (* What a factor exposes to its siblings: its output schema, its free
       input variables (comparison operands), and — for Lift/Exists, whose
       semantics depend on evaluation-time boundness — every variable of
       theirs that was bound at their position (group-by correlations).
       Variables internal to Sum/Lift bodies do not leak. *)
    let exposes j f =
      let base = Schema.union (visible f) (Calc.inputs f) in
      match f with
      | Lift _ ->
          Schema.union base
            (Schema.inter (Calc.all_vars f) (preceding_visible j))
      | _ -> base
    in
    let sibling_vars i =
      let acc = ref ctx in
      Array.iteri
        (fun j f -> if j <> i then acc := Schema.union !acc (exposes j f))
        fs_arr;
      !acc
    in
    (* A factor is materializable on its own only when it can be typed
       standalone; factors correlated with their siblings (e.g. a Lift whose
       body compares against an outer variable) keep their shell inline and
       have their relational insides materialized recursively. *)
    let typable f =
      match Calc.schema ~bound:[] f with
      | _ -> true
      | exception Type_error _ -> false
    in
    (* A Lift/Exists factor correlated with earlier factors cannot leave its
       binding context: lifting over a bound variable is a lookup with
       default 0, over a free one an iteration of non-zero groups.
       Materializing such a factor standalone would flip the semantics. *)
    let correlated i f =
      match f with
      | Lift _ ->
          Schema.inter (preceding_visible i) (Calc.all_vars f) <> []
      | _ -> false
    in
    let fs =
      List.mapi
        (fun i f ->
          let must_recurse =
            Calc.has_deltas f
            || (Calc.has_base_rels f && not (typable f))
            || (Calc.has_base_rels f && correlated i f)
          in
          if must_recurse || (Calc.has_base_rels f && st.mode = Classical)
          then
            let ictx = sibling_vars i and ibound = preceding_visible i in
            match f with
            | Lift (v, q) when must_recurse ->
                (i, Lift (v, mat_expr st ~ctx:ictx ~bound:ibound q))
            | Exists q when must_recurse ->
                (i, Exists (mat_expr st ~ctx:ictx ~bound:ibound q))
            | Sum (gb, q) when must_recurse ->
                let ictx' =
                  Schema.union gb (Schema.inter (Calc.all_vars q) ictx)
                in
                (i, sum gb (mat_expr st ~ctx:ictx' ~bound:ibound q))
            | f when st.mode = Classical && Calc.has_base_rels f ->
                (i, subst_base st f)
            | f -> (i, f)
          else (i, f))
        fs
    in
    if st.mode = Classical then
      let ordered =
        match Poly.reorder ~bound (List.map snd fs) with
        | Some o -> o
        | None -> List.map snd fs
      in
      prod ordered
    else
      (* Recursive mode: factor pure relational parts into components. *)
      let pure, _rest =
        List.partition
          (fun (_, f) ->
            Calc.has_base_rels f && not (Calc.has_deltas f)
            && not (is_filter f) && typable f)
          fs
      in
      let pure =
        if st.opts.factorize then pure
        else
          (* ablation: one monolithic component *)
          pure
      in
      let comps =
        if st.opts.factorize then components pure
        else
          match pure with
          | [] -> []
          | _ ->
              [
                ( List.fold_left
                    (fun acc (_, f) -> Schema.union acc (visible f))
                    [] pure,
                  pure );
              ]
      in
      let filters = List.filter (fun (_, f) -> is_filter f) fs in
      (* Attach each filter to the first component covering its variables. *)
      let attached = Hashtbl.create 8 in
      let comps =
        List.map
          (fun (cvs, members) ->
            let extra =
              List.filter
                (fun (i, f) ->
                  (not (Hashtbl.mem attached i))
                  && filter_vars f <> []
                  && Schema.subset (filter_vars f) cvs
                  &&
                  (Hashtbl.add attached i ();
                   true))
                filters
            in
            (cvs, members, extra))
          comps
      in
      (* Materialize each component as a map. *)
      let replacements = Hashtbl.create 8 in
      let consumed = Hashtbl.create 8 in
      List.iter
        (fun (cvs, members, extra) ->
          let member_idxs = List.map fst members @ List.map fst extra in
          let first = List.fold_left min max_int member_idxs in
          List.iter (fun i -> Hashtbl.replace consumed i ()) member_idxs;
          let others =
            let acc = ref ctx in
            Array.iteri
              (fun j f ->
                if not (List.mem j member_idxs) then
                  acc := Schema.union !acc (exposes j f))
              fs_arr;
            !acc
          in
          let matvars = Schema.inter cvs others in
          let body_factors = List.map snd members @ List.map snd extra in
          let ordered =
            match Poly.reorder ~bound:[] body_factors with
            | Some o -> o
            | None -> body_factors
          in
          let def = sum matvars (prod ordered) in
          let kind =
            match ordered with
            | [ Rel r ] when Schema.equal_as_sets matvars r.rvars -> Prog.Base
            | _ -> Prog.Auxiliary
          in
          let hint =
            match kind with
            | Prog.Base -> (
                match ordered with
                | [ Rel r ] -> "BASE_" ^ r.rname
                | _ -> "V")
            | _ ->
                let rels = Calc.base_rels (prod ordered) in
                "V_"
                ^ String.concat ""
                    (List.map (fun r -> String.sub r 0 (min 2 (String.length r))) rels)
          in
          let name = declare st ~kind ~hint ~schema:matvars ~def in
          Hashtbl.replace replacements first
            (Map { mname = name; mvars = matvars }))
        comps;
      let new_fs =
        List.filter_map
          (fun (i, f) ->
            match Hashtbl.find_opt replacements i with
            | Some m -> Some (m, None)
            | None ->
                if Hashtbl.mem consumed i then None
                else
                  (* order-sensitive factors carry the boundness of their
                     original position as the semantic reference *)
                  let o =
                    match f with
                    | Lift _ | Exists _ -> Some (preceding_visible i)
                    | _ -> None
                  in
                  Some (f, o))
          fs
      in
      let ordered =
        match
          Poly.reorder ~bound ~orig:(List.map snd new_fs) (List.map fst new_fs)
        with
        | Some o -> o
        | None -> List.map fst new_fs
      in
      prod ordered

(* ------------------------------------------------------------------ *)
(* Trigger derivation                                                  *)
(* ------------------------------------------------------------------ *)

let push st rel stmt = st.stmts <- (rel, stmt) :: st.stmts

(* Re-evaluation path (Example 3.3): recompute the map from scratch per
   batch, but "speed up the computation by materializing the query
   piecewise" — the definition's connected components become incrementally
   maintained auxiliary views, and the assignment reads them post-update
   (scheduling places it after their refresh statements). In Classical
   mode only base relations are materialized. *)
let emit_reeval st (m : Prog.map_decl) rel =
  let rhs =
    match st.mode with
    | Classical -> sum m.mschema (subst_base st m.definition)
    | Recursive ->
        let piecewise =
          sum m.mschema (mat_expr st ~ctx:m.mschema ~bound:[] m.definition)
        in
        (* a definition that is one single component materializes back to
           the target itself — recompute it from base tables instead *)
        if List.mem m.mname (Calc.map_refs piecewise) then
          sum m.mschema (subst_base st m.definition)
        else piecewise
  in
  push st rel
    { Prog.target = m.mname; target_vars = m.mschema; op = Assign; rhs }

let derive st (m : Prog.map_decl) rel =
  let d =
    try Delta.of_expr ~rel m.definition
    with Type_error msg ->
      raise
        (Type_error
           (Printf.sprintf "deriving d%s of map %s := %s: %s" rel m.mname
              (Calc.to_string m.definition) msg))
  in
  if Calc.is_zero d.expr then ()
  else if d.expensive then emit_reeval st m rel
  else
    let rhss =
      List.map
        (fun mono -> sum m.mschema (mat_mono st ~ctx:m.mschema ~bound:[] mono))
        (Poly.merge ~bound:[] (Poly.monomials d.expr))
    in
    (* A statement's RHS reads pre-update map state; if any monomial reads
       the target itself, all monomials must apply atomically — merge them
       into one statement. *)
    let self_reading =
      List.exists (fun rhs -> List.mem m.mname (Calc.map_refs rhs)) rhss
    in
    let emit rhs =
      push st rel
        { Prog.target = m.mname; target_vars = m.mschema; op = Add_to; rhs }
    in
    if self_reading then emit (add rhss) else List.iter emit rhss

(* ------------------------------------------------------------------ *)
(* Statement scheduling                                                *)
(* ------------------------------------------------------------------ *)

(* Order statements so that incremental (+=) statements read pre-update map
   state and re-evaluation (:=) statements read post-update state: for an
   incremental reader, reads precede writes of the same map; for an
   assigning reader, writes precede it. Relative order of writers to the
   same target is preserved. Cycles (which the degree-decreasing structure
   of recursive IVM avoids) fall back to degree-descending order. *)
let schedule st stmts =
  let arr = Array.of_list stmts in
  let n = Array.length arr in
  let edges = Array.make n [] in
  let indeg = Array.make n 0 in
  let add_edge i j =
    if i <> j && not (List.mem j edges.(i)) then begin
      edges.(i) <- j :: edges.(i);
      indeg.(j) <- indeg.(j) + 1
    end
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if String.equal arr.(i).Prog.target arr.(j).Prog.target then
        add_edge i j
    done
  done;
  for i = 0 to n - 1 do
    let reads = Calc.map_refs arr.(i).Prog.rhs in
    for j = 0 to n - 1 do
      if i <> j && List.mem arr.(j).Prog.target reads then
        match arr.(i).Prog.op with
        | Prog.Add_to -> add_edge i j (* read pre-state: reader first *)
        | Prog.Assign -> add_edge j i (* re-eval: writer first *)
    done
  done;
  let out = ref [] in
  let done_ = Array.make n false in
  let remaining = ref n in
  let progress = ref true in
  while !remaining > 0 && !progress do
    progress := false;
    (* pick the smallest-index ready node for stability *)
    let ready = ref (-1) in
    for i = n - 1 downto 0 do
      if (not done_.(i)) && indeg.(i) = 0 then ready := i
    done;
    if !ready >= 0 then begin
      let i = !ready in
      done_.(i) <- true;
      decr remaining;
      progress := true;
      out := i :: !out;
      List.iter (fun j -> indeg.(j) <- indeg.(j) - 1) edges.(i)
    end
  done;
  if !remaining > 0 then begin
    Logs.warn (fun k ->
        k "Compile.schedule: dependency cycle among %d statements; falling \
           back to degree order"
          !remaining);
    let degree_of s =
      match
        List.find_opt (fun m -> m.Prog.mname = s.Prog.target) st.maps
      with
      | Some m -> Calc.degree m.definition
      | None -> 0
    in
    let rest =
      List.init n Fun.id
      |> List.filter (fun i -> not done_.(i))
      |> List.sort (fun a b ->
             compare (degree_of arr.(b)) (degree_of arr.(a)))
    in
    out := List.rev_append rest !out
  end;
  List.rev_map (fun i -> arr.(i)) !out

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run_worklist st =
  let rec loop () =
    match st.worklist with
    | [] -> ()
    | m :: rest ->
        st.worklist <- rest;
        let rels =
          List.filter (is_stream st) (Calc.base_rels m.Prog.definition)
        in
        List.iter (derive st m) rels;
        loop ()
  in
  loop ()

let init ?(options = default_options) ~mode ~streams () =
  {
    opts = options;
    mode;
    streams;
    canon = Hashtbl.create 64;
    maps = [];
    worklist = [];
    stmts = [];
    counter = 0;
  }

let declare_queries st queries =
  List.map
    (fun (qn, def) ->
      let schema = Calc.schema def in
      let decl =
        { Prog.mname = qn; mschema = schema; mkind = Query; definition = def }
      in
      st.maps <- decl :: st.maps;
      st.worklist <- decl :: st.worklist;
      Hashtbl.replace st.canon (Calc.canon_key ~schema def) qn;
      (qn, qn))
    queries

let assemble st queries =
  let triggers =
    List.map
      (fun (r, _) ->
        let stmts =
          List.rev st.stmts
          |> List.filter_map (fun (r', s) ->
                 if String.equal r r' then Some s else None)
        in
        { Prog.relation = r; stmts = schedule st stmts })
      st.streams
  in
  {
    Prog.maps = List.rev st.maps;
    triggers;
    queries;
    streams = st.streams;
  }

let compile ?(options = default_options) ~streams queries =
  let st = init ~options ~mode:Recursive ~streams () in
  let qs = declare_queries st queries in
  run_worklist st;
  let prog = assemble st qs in
  if options.preaggregate then Preagg.apply prog else prog

let compile_classical ?(options = default_options) ~streams queries =
  let st = init ~options ~mode:Classical ~streams () in
  let qs = declare_queries st queries in
  run_worklist st;
  assemble st qs

let compile_reeval ~streams queries =
  let st = init ~mode:Classical ~streams () in
  let qs = declare_queries st queries in
  (* Only materialize base relations; recompute every query per batch.
     Drop the queries' canonical keys first: a query that is literally a
     bare base relation (Q := R(A,B)) would otherwise be found by the
     canonical-key dedup when [subst_base] asks for R's base map, turning
     the re-evaluation into the self-assignment Q := Q with no maintained
     base map at all. *)
  List.iter
    (fun (_, def) ->
      Hashtbl.remove st.canon (Calc.canon_key ~schema:(Calc.schema def) def))
    queries;
  st.worklist <- [];
  List.iter (fun (_, def) -> ignore (subst_base st def)) queries;
  let triggers =
    List.map
      (fun (r, _) ->
        let base_updates =
          List.filter_map
            (fun m ->
              match m.Prog.mkind with
              | Prog.Base when Calc.base_rels m.definition = [ r ] ->
                  Some
                    {
                      Prog.target = m.mname;
                      target_vars = m.mschema;
                      op = Prog.Add_to;
                      rhs = DeltaRel { rname = r; rvars = m.mschema };
                    }
              | _ -> None)
            st.maps
        in
        let reevals =
          List.filter_map
            (fun (qn, def) ->
              if List.mem r (Calc.base_rels def) then
                Some
                  {
                    Prog.target = qn;
                    target_vars = Calc.schema def;
                    op = Prog.Assign;
                    rhs = sum (Calc.schema def) (subst_base st def);
                  }
              else None)
            queries
        in
        { Prog.relation = r; stmts = base_updates @ reevals })
      streams
  in
  { Prog.maps = List.rev st.maps; triggers; queries = qs; streams }
