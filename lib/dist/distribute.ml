open Divm_ring
open Divm_calc
open Divm_calc.Calc
open Divm_compiler

type options = { level : int; delta_at : [ `Workers | `Driver ] }

let default_options = { level = 3; delta_at = `Workers }

type locus = LLocal | LKey of Schema.t | LRepl | LRandom

(* One access of a map: its name and the variables it is read with. Two
   accesses of one map (a self-join) may need different transfers. *)
let access_key (m : map_access) =
  (m.mname, List.map (fun (v : Schema.var) -> v.name) m.mvars)

(* Map references with their variables, in evaluation order, deduplicated by
   access. *)
let refs_of expr =
  let acc = ref [] in
  let rec go e =
    match e with
    | Map m ->
        let key = access_key m in
        if not (List.mem_assoc key !acc) then acc := !acc @ [ (key, m) ]
    | Lift (_, q) | Exists q | Sum (_, q) -> go q
    | Prod es | Add es -> List.iter go es
    | _ -> ()
  in
  go expr;
  List.map snd !acc

let key_vars mvars positions =
  List.map (fun i -> List.nth mvars i) (Array.to_list positions)

let positions_of kvars vars =
  (* positions (into [vars]) of the variables of [kvars]; None when a key
     variable is absent *)
  try
    Some
      (Array.of_list
         (List.map
            (fun (k : Schema.var) ->
              let rec idx i = function
                | [] -> raise Not_found
                | (v : Schema.var) :: tl ->
                    if Schema.var_equal v k then i else idx (i + 1) tl
              in
              idx 0 vars)
            kvars))
  with Not_found -> None

(* ------------------------------------------------------------------ *)
(* Per-statement planning                                              *)
(* ------------------------------------------------------------------ *)

(* The planner tries several plans per statement and keeps one. Every map
   a candidate creates goes into [created] with its location. A losing
   candidate's entries stay. The counter rolls back over a losing
   candidate's own names only, so a later candidate may reuse one of them
   (and overwrite its entry) but never a name of a plan still kept.
   [compile] declares only the created maps the kept plan names. *)
type st = {
  opts : options;
  mutable counter : int;
  created : (string, Prog.map_decl * Loc.t) Hashtbl.t;
  catalog : Loc.catalog;
  prog : Prog.t;
}

let create st (m : Prog.map_decl) loc =
  Hashtbl.replace st.created m.mname (m, loc)

let decl st name =
  match Hashtbl.find_opt st.created name with
  | Some (m, _) -> m
  | None -> Prog.find_map st.prog name

let loc_of st name =
  match Hashtbl.find_opt st.created name with
  | Some (_, loc) -> loc
  | None -> Loc.find st.catalog name

(* Batch-derived maps: the program's transients and every created map. *)
let transient st name = (decl st name).mkind = Prog.Transient

let fresh_transfer st ~kind ~key ~source ~dest_loc =
  st.counter <- st.counter + 1;
  let sdecl = decl st source in
  let suffix =
    match kind with
    | Dprog.Scatter -> "scatter"
    | Dprog.Repart -> "repart"
    | Dprog.Gather -> "gather"
  in
  let tname = Printf.sprintf "%s_%s%d" source suffix st.counter in
  create st
    {
      Prog.mname = tname;
      mschema = sdecl.mschema;
      mkind = Prog.Transient;
      definition = Map { mname = source; mvars = sdecl.mschema };
    }
    dest_loc;
  (tname, Dprog.Transfer { tname; tkind = kind; key; source })

(* Plan the transfers needed to make one map reference readable at the
   locus. Returns (transfers, replacement name, still_random). *)
let plan_ref st locus (m : map_access) =
  let loc = loc_of st m.mname in
  let fail = ref false in
  let transfers = ref [] in
  let emit kind key dest_loc src =
    let name, tr = fresh_transfer st ~kind ~key ~source:src ~dest_loc in
    transfers := !transfers @ [ tr ];
    name
  in
  let name, random =
    match (locus, loc) with
    | LLocal, Loc.Local -> (m.mname, false)
    | LLocal, (Loc.Dist _ | Loc.Random | Loc.Replicated) ->
        (emit Dprog.Gather [||] Loc.Local m.mname, false)
    | LKey _, Loc.Replicated -> (m.mname, false)
    | LKey kv, Loc.Local -> (
        match positions_of kv m.mvars with
        | Some pos -> (emit Dprog.Scatter pos (Loc.Dist pos) m.mname, false)
        | None -> (emit Dprog.Scatter [||] Loc.Replicated m.mname, false))
    | LKey kv, Loc.Dist pos
      when Schema.equal_as_sets (key_vars m.mvars pos) kv ->
        (m.mname, false)
    | LKey kv, (Loc.Dist _ | Loc.Random) -> (
        match positions_of kv m.mvars with
        | Some pos -> (emit Dprog.Repart pos (Loc.Dist pos) m.mname, false)
        | None ->
            let g = emit Dprog.Gather [||] Loc.Local m.mname in
            (emit Dprog.Scatter [||] Loc.Replicated g, false))
    | LRepl, Loc.Replicated -> (m.mname, false)
    | LRepl, Loc.Local ->
        (emit Dprog.Scatter [||] Loc.Replicated m.mname, false)
    | LRepl, (Loc.Dist _ | Loc.Random) ->
        let g = emit Dprog.Gather [||] Loc.Local m.mname in
        (emit Dprog.Scatter [||] Loc.Replicated g, false)
    | LRandom, Loc.Random -> (m.mname, true)
    | LRandom, Loc.Replicated -> (m.mname, false)
    | LRandom, Loc.Local ->
        (emit Dprog.Scatter [||] Loc.Replicated m.mname, false)
    | LRandom, Loc.Dist _ ->
        fail := true;
        (m.mname, false)
  in
  if !fail then None else Some (!transfers, name, random)

(* Result location of evaluating at [locus] a statement producing
   [target_vars]; [has_random] marks an in-place random factor. *)
let result_loc locus target_vars ~has_random =
  match locus with
  | LLocal -> Loc.Local
  | LRepl -> Loc.Replicated
  | LRandom -> Loc.Random
  | LKey kv -> (
      if has_random then Loc.Random
      else
        match positions_of kv target_vars with
        | Some pos -> Loc.Dist pos
        | None -> Loc.Random)

let rename_refs find expr =
  let rec go e =
    match e with
    | Map m -> (
        match find m with
        | Some n -> Map { m with mname = n }
        | None -> e)
    | Lift (v, q) -> Lift (v, go q)
    | Exists q -> Exists (go q)
    | Sum (gb, q) -> Sum (gb, go q)
    | Prod es -> Prod (List.map go es)
    | Add es -> Add (List.map go es)
    | e -> e
  in
  go expr

(* Build the full plan (transfers + compute statements) for one statement at
   one locus. Returns (cost, dstmts) or None when infeasible. *)
let plan_stmt st locus (s : Prog.stmt) =
  let saved_counter = st.counter in
  let rollback () = st.counter <- saved_counter in
  let refs = refs_of s.rhs in
  let rec plan_all acc subst n_random = function
    | [] -> Some (acc, subst, n_random)
    | m :: rest -> (
        match plan_ref st locus m with
        | None -> None
        | Some (trs, name, random) ->
            let subst =
              if name = m.mname then subst else (access_key m, name) :: subst
            in
            plan_all (acc @ trs) subst
              (n_random + if random then 1 else 0)
              rest)
  in
  match plan_all [] [] 0 refs with
  | None ->
      rollback ();
      None
  | Some (_, _, n_random) when n_random > 1 ->
      rollback ();
      None
  | Some (transfers, subst, n_random) ->
      let rloc = result_loc locus s.target_vars ~has_random:(n_random > 0) in
      let tloc = loc_of st s.target in
      let rhs =
        rename_refs (fun m -> List.assoc_opt (access_key m) subst) s.rhs
      in
      let stmts, extra =
        if Loc.equal rloc tloc then ([ Dprog.Compute { s with rhs } ], [])
        else begin
          (* materialize at the locus, transfer, apply at the target *)
          st.counter <- st.counter + 1;
          let out = Printf.sprintf "%s_part%d" s.target st.counter in
          create st
            {
              Prog.mname = out;
              mschema = s.target_vars;
              mkind = Prog.Transient;
              definition = rhs;
            }
            rloc;
          let move =
            match tloc with
            | Loc.Local -> [ (Dprog.Gather, [||], Loc.Local) ]
            | Loc.Dist pos -> (
                match rloc with
                | Loc.Local -> [ (Dprog.Scatter, pos, Loc.Dist pos) ]
                | _ -> [ (Dprog.Repart, pos, Loc.Dist pos) ])
            | Loc.Replicated -> (
                match rloc with
                | Loc.Local -> [ (Dprog.Scatter, [||], Loc.Replicated) ]
                | _ ->
                    [
                      (Dprog.Gather, [||], Loc.Local);
                      (Dprog.Scatter, [||], Loc.Replicated);
                    ])
            | Loc.Random -> [ (Dprog.Gather, [||], Loc.Local) ]
          in
          let src = ref out in
          let moves =
            List.map
              (fun (kind, key, dloc) ->
                let name, tr =
                  fresh_transfer st ~kind ~key ~source:!src ~dest_loc:dloc
                in
                src := name;
                tr)
              move
          in
          ( [
              Dprog.Compute
                {
                  Prog.target = out;
                  target_vars = s.target_vars;
                  op = Prog.Assign;
                  rhs;
                };
            ]
            @ moves
            @ [
                Dprog.Compute
                  {
                    Prog.target = s.target;
                    target_vars = s.target_vars;
                    op = s.op;
                    rhs = Map { mname = !src; mvars = s.target_vars };
                  };
              ],
            moves )
        end
      in
      let all = transfers @ stmts in
      let n_transfers =
        List.length transfers + List.length extra
      in
      let gathers =
        List.length
          (List.filter
             (function
               | Dprog.Transfer { tkind = Dprog.Gather; _ } -> true
               | _ -> false)
             all)
      in
      (* size rank: shuffling batch-derived transients is cheap *)
      let rank =
        List.fold_left
          (fun acc d ->
            match d with
            | Dprog.Transfer { source; _ } ->
                acc + if transient st source then 1 else 10
            | _ -> acc)
          0 all
      in
      Some ((n_transfers, rank, gathers), all, rollback)

(* Candidate loci for a statement. *)
let candidates st (s : Prog.stmt) =
  let refs = refs_of s.rhs in
  let target_loc = loc_of st s.target in
  let base = [ LLocal; LRepl; LRandom ] in
  let from_target =
    match target_loc with
    | Loc.Dist pos -> [ LKey (key_vars s.target_vars pos) ]
    | _ -> []
  in
  let from_refs =
    List.filter_map
      (fun (m : map_access) ->
        match loc_of st m.mname with
        | Loc.Dist pos -> Some (LKey (key_vars m.mvars pos))
        | _ -> None)
      refs
  in
  (* dedup LKey candidates by variable-name sets *)
  let seen = ref [] in
  List.filter
    (fun c ->
      match c with
      | LKey kv ->
          let names =
            List.sort compare (List.map (fun (v : Schema.var) -> v.name) kv)
          in
          if List.mem names !seen then false
          else begin
            seen := names :: !seen;
            true
          end
      | _ -> true)
    (from_target @ from_refs @ base)

let naive_candidate st (s : Prog.stmt) =
  (* bottom-up annotation without optimization: adopt the location of the
     last relational factor, whatever the cost *)
  match List.rev (refs_of s.rhs) with
  | m :: _ -> (
      match loc_of st m.mname with
      | Loc.Local -> LLocal
      | Loc.Replicated -> LRepl
      | Loc.Random -> LRandom
      | Loc.Dist pos -> LKey (key_vars m.mvars pos))
  | [] -> LLocal

let add3 (a1, a2, a3) (b1, b2, b3) = (a1 + b1, a2 + b2, a3 + b3)

(* Best single-locus plan for one statement. *)
let single_locus_plan st (s : Prog.stmt) =
  let cands =
    if st.opts.level = 0 then [ naive_candidate st s ] else candidates st s
  in
  let best = ref None in
  List.iter
    (fun c ->
      match plan_stmt st c s with
      | None -> ()
      | Some (cost, dstmts, rollback) -> (
          match !best with
          | Some (bcost, _) when bcost <= cost -> rollback ()
          | _ -> best := Some (cost, dstmts)))
    cands;
  !best

(* Multi-stage plans: split the product at a join boundary, materialize the
   (usually batch-derived) prefix as an intermediate at the location the
   suffix wants, and continue — the partial-join-then-repartition idiom of
   the Figure 5 programs. Replaces Gather∘Scatter round-trips of whole
   views with one shuffle of a small intermediate. *)
let rec best_plan st ~depth (s : Prog.stmt) =
  let base = single_locus_plan st s in
  if depth >= 1 || st.opts.level < 1 then base
  else
    match try_splits st ~depth s with
    | Some (c2, d2) -> (
        match base with
        | Some (c1, _) when c1 <= c2 -> base
        | _ -> Some (c2, d2))
    | None -> base

and try_splits st ~depth (s : Prog.stmt) =
  let gb, fs =
    match s.rhs with
    | Sum (g, b) -> (Some g, Divm_delta.Poly.factors b)
    | e -> (None, Divm_delta.Poly.factors e)
  in
  let n = List.length fs in
  if n < 3 then None
  else begin
    let arr = Array.of_list fs in
    let best = ref None in
    for i = 1 to n - 1 do
      let prefix = Calc.prod (Array.to_list (Array.sub arr 0 i)) in
      let suffix_fs = Array.to_list (Array.sub arr i (n - i)) in
      let suffix = Calc.prod suffix_fs in
      if refs_of prefix <> [] && refs_of suffix <> [] then begin
        match Calc.schema ~bound:[] prefix with
        | exception Type_error _ -> ()
        | psch -> (
            let needed =
              Schema.union (Calc.all_vars suffix) s.target_vars
            in
            let keep = Schema.inter psch needed in
            match Calc.schema ~bound:keep suffix with
            | exception Type_error _ -> ()
            | _ ->
                st.counter <- st.counter + 1;
                let tname = Printf.sprintf "%s_stage%d" s.target st.counter in
                (* co-partition the intermediate with the first suffix view
                   it joins; replicate when no key fits (it is small) *)
                let tloc =
                  let rec pick = function
                    | [] -> Loc.Replicated
                    | (m : map_access) :: rest -> (
                        match loc_of st m.mname with
                        | Loc.Dist pos -> (
                            match
                              positions_of (key_vars m.mvars pos) keep
                            with
                            | Some p -> Loc.Dist p
                            | None -> pick rest)
                        | _ -> pick rest)
                  in
                  pick (refs_of suffix)
                in
                create st
                  {
                    Prog.mname = tname;
                    mschema = keep;
                    mkind = Prog.Transient;
                    definition = Calc.sum keep prefix;
                  }
                  tloc;
                let stmt1 =
                  {
                    Prog.target = tname;
                    target_vars = keep;
                    op = Prog.Assign;
                    rhs = Calc.sum keep prefix;
                  }
                in
                let body2 =
                  Calc.prod (Map { mname = tname; mvars = keep } :: suffix_fs)
                in
                let rhs2 =
                  match gb with Some g -> Calc.sum g body2 | None -> body2
                in
                let stmt2 = { s with rhs = rhs2 } in
                match
                  ( best_plan st ~depth:(depth + 1) stmt1,
                    best_plan st ~depth:(depth + 1) stmt2 )
                with
                | Some (c1, d1), Some (c2, d2) -> (
                    let c = add3 c1 c2 in
                    match !best with
                    | Some (bc, _) when bc <= c -> ()
                    | _ -> best := Some (c, d1 @ d2))
                | _ -> ())
      end
    done;
    !best
  end

let compile_stmt st (s : Prog.stmt) =
  (* transient delta pre-aggregations are pinned where batches arrive *)
  let is_delta_def =
    match Prog.find_map st.prog s.target with
    | { Prog.mkind = Prog.Transient; _ } -> Calc.delta_rels s.rhs <> []
    | _ -> false
    | exception _ -> false
  in
  if is_delta_def then [ Dprog.Compute s ]
  else begin
    if Calc.delta_rels s.rhs <> [] then
      invalid_arg
        ("Distribute: statement of " ^ s.target
       ^ " reads the update batch directly; the distributed compiler needs \
          batch pre-aggregation (compile with preaggregate)");
    match best_plan st ~depth:0 s with
    | Some (_, dstmts) -> dstmts
    | None -> (
        (* fall back to full gather at the driver *)
        match plan_stmt st LLocal s with
        | Some (_, dstmts, _) -> dstmts
        | None -> failwith ("Distribute: no plan for stmt of " ^ s.target))
  end

(* ------------------------------------------------------------------ *)
(* CSE + DCE over transfers                                            *)
(* ------------------------------------------------------------------ *)

let cse_dce st dstmts =
  (* forward pass: identical transfers — and identical assignments into
     transient intermediates — collapse to the first occurrence *)
  let subst = Hashtbl.create 8 in
  let seen = Hashtbl.create 8 in
  let seen_assign = Hashtbl.create 8 in
  let resolve n =
    match Hashtbl.find_opt subst n with Some n' -> n' | None -> n
  in
  let dstmts =
    List.filter_map
      (fun d ->
        match d with
        | Dprog.Transfer t ->
            let source = resolve t.source in
            let key = (t.tkind, t.key, source) in
            (match Hashtbl.find_opt seen key with
            | Some existing ->
                Hashtbl.replace subst t.tname existing;
                None
            | None ->
                Hashtbl.replace seen key t.tname;
                Some (Dprog.Transfer { t with source }))
        | Dprog.Compute s -> (
            let rhs =
              rename_refs
                (fun (m : map_access) -> Hashtbl.find_opt subst m.mname)
                s.rhs
            in
            let s = { s with rhs } in
            if s.op = Prog.Assign && transient st s.target then begin
              let key =
                ( Calc.to_string s.rhs,
                  List.map (fun (v : Schema.var) -> v.name) s.target_vars,
                  loc_of st s.target )
              in
              match Hashtbl.find_opt seen_assign key with
              | Some existing ->
                  Hashtbl.replace subst s.target existing;
                  None
              | None ->
                  Hashtbl.replace seen_assign key s.target;
                  Some (Dprog.Compute s)
            end
            else Some (Dprog.Compute s)))
      dstmts
  in
  (* backward pass: drop writes to transients nobody reads *)
  let rec dce rev_stmts live =
    match rev_stmts with
    | [] -> []
    | d :: rest ->
        let w = Dprog.writes d in
        if transient st w && not (List.mem w live) then dce rest live
        else d :: dce rest (Dprog.reads d @ live)
  in
  List.rev (dce (List.rev dstmts) [])

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let compile ?(options = default_options) ~catalog (prog : Prog.t) =
  let catalog =
    match options.delta_at with
    | `Workers -> catalog
    | `Driver ->
        List.map
          (fun (n, l) ->
            match
              (l, List.find_opt (fun m -> m.Prog.mname = n) prog.maps)
            with
            | _, Some { Prog.mkind = Prog.Transient; _ } -> (n, Loc.Local)
            | _ -> (n, l))
          catalog
  in
  let st =
    { opts = options; counter = 0; created = Hashtbl.create 64; catalog; prog }
  in
  let planned =
    List.map
      (fun (tr : Prog.trigger) ->
        let dstmts = List.concat_map (compile_stmt st) tr.stmts in
        ( tr.relation,
          if options.level >= 3 then cse_dce st dstmts else dstmts ))
      prog.triggers
  in
  (* declare, in first-use order, the created maps the kept plan names:
     each entry leaves the table when it is first named *)
  let take n =
    let e = Hashtbl.find_opt st.created n in
    Hashtbl.remove st.created n;
    e
  in
  let created =
    List.concat_map
      (fun (_, dstmts) ->
        List.concat_map
          (fun d -> List.filter_map take (Dprog.writes d :: Dprog.reads d))
          dstmts)
      planned
  in
  let locs =
    List.map (fun ((m : Prog.map_decl), l) -> (m.mname, l)) created @ catalog
  in
  let dtriggers =
    List.map
      (fun (drelation, dstmts) ->
        let blocks = Dprog.promote locs dstmts in
        let blocks = if options.level >= 2 then Dprog.fuse blocks else blocks in
        { Dprog.drelation; blocks })
      planned
  in
  {
    Dprog.base = { prog with maps = prog.maps @ List.map fst created };
    locs;
    dtriggers;
  }
