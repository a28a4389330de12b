open Divm_ring
open Divm_calc
open Divm_calc.Calc
open Divm_compiler

type options = { level : int; delta_at : [ `Workers | `Driver ] }

let default_options = { level = 4; delta_at = `Workers }

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

type env = { level : int; catalog : Loc.catalog; prog : Prog.t }

(* A candidate plan of one statement, as a value: its statements and the
   maps it created with their locations (both newest first), and the next
   free name number. Every candidate of a statement starts from the same
   number and sees only the maps it created itself, so a losing one is
   dropped with everything it made. *)
type plan = {
  stmts : Dprog.dstmt list;
  maps : (string * (Prog.map_decl * Loc.t)) list;
  next : int;
}

(* [find] looks a name up among created maps; any other map is the
   program's, located by the catalog. *)
let decl env find name =
  match find name with
  | Some (m, _) -> m
  | None -> Prog.find_map env.prog name

let loc_of env find name =
  match find name with
  | Some (_, loc) -> loc
  | None -> Loc.find env.catalog name

(* Batch-derived maps: the program's transients and every created map. *)
let transient env find name = (decl env find name).mkind = Prog.Transient
let in_plan p name = List.assoc_opt name p.maps
let fresh p stem = Printf.sprintf "%s%d" stem p.next
let extend p stmts = { p with stmts = List.rev_append stmts p.stmts }

(* [p] extended by a transient map it creates at [loc], and [stmts]. *)
let create p mname mschema definition loc stmts =
  let m = { Prog.mname; mschema; mkind = Prog.Transient; definition } in
  let p = extend p stmts in
  { p with maps = (mname, (m, loc)) :: p.maps; next = p.next + 1 }

(* The transfers that move a map from [src] to [dest], as data: each one's
   kind, key and destination location, in order. *)
let moves src dest =
  let gather = (Dprog.Gather, [||], Loc.Local)
  and replicate = (Dprog.Scatter, [||], Loc.Replicated) in
  match (dest, src) with
  | Loc.Dist pos, Loc.Local -> [ (Dprog.Scatter, pos, dest) ]
  | Loc.Dist pos, _ -> [ (Dprog.Repart, pos, dest) ]
  | Loc.Replicated, Loc.Local -> [ replicate ]
  | Loc.Replicated, _ -> [ gather; replicate ]
  | (Loc.Local | Loc.Random), _ -> [ gather ]

(* The transfers that make a reference to a map at [loc] readable at the
   locus, or None when it cannot be read there. *)
let plan_ref locus loc (m : map_access) =
  match (locus, loc) with
  | LLocal, Loc.Local
  | (LKey _ | LRepl | LRandom), Loc.Replicated
  | LRandom, Loc.Random ->
      Some []
  | LKey kv, Loc.Dist pos when Schema.equal_as_sets (key_vars m.mvars pos) kv
    ->
      Some []
  | LRandom, Loc.Dist _ -> None
  | LLocal, _ -> Some (moves loc Loc.Local)
  | LKey kv, _ ->
      Some
        (moves loc
           (match positions_of kv m.mvars with
           | Some pos -> Loc.Dist pos
           | None -> Loc.Replicated))
  | (LRepl | LRandom), _ -> Some (moves loc Loc.Replicated)

(* [p] extended by a chain of transfers from [source], each into a new
   map that is the next one's source; also returns the last map's name. *)
let chain env p source route =
  List.fold_left
    (fun (p, src) (tkind, key, loc) ->
      let suffix =
        match tkind with
        | Dprog.Scatter -> "_scatter"
        | Dprog.Repart -> "_repart"
        | Dprog.Gather -> "_gather"
      in
      let tname = fresh p (src ^ suffix) in
      let mschema = (decl env (in_plan p) src).mschema in
      ( create p tname mschema
          (Map { mname = src; mvars = mschema })
          loc
          [ Dprog.Transfer { tname; tkind; key; source = src } ],
        tname ))
    (p, source) route

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

(* [expr] with each map reference [find] names renamed. A node none of
   whose children changed is returned itself, so the renamed expression
   shares its unchanged subtrees with [expr] (and [Init] marshals them
   once). *)
let rename_refs find expr =
  let rec go e =
    match e with
    | Map m -> (
        match find m with
        | Some n -> Map { m with mname = n }
        | None -> e)
    | Lift (v, q) -> keep1 e q (fun q -> Lift (v, q))
    | Exists q -> keep1 e q (fun q -> Exists q)
    | Sum (gb, q) -> keep1 e q (fun q -> Sum (gb, q))
    | Prod es -> keep_list e es (fun es -> Prod es)
    | Add es -> keep_list e es (fun es -> Add es)
    | e -> e
  and keep1 e q mk =
    let q' = go q in
    if q' == q then e else mk q'
  and keep_list e es mk =
    let es' = List.map go es in
    if List.for_all2 ( == ) es es' then e else mk es'
  in
  go expr

(* [p] extended by the plan of one statement at one locus, or None when a
   reference cannot be read there or more than one stays random in place:
   the chains that bring each reference to the locus, then the statement.
   When its result lands elsewhere than its target, the statement fills a
   partial result and a chain moves that to the target. *)
let plan_stmt env p locus (s : Prog.stmt) =
  let rec plan_refs p subst n_random = function
    | [] -> if n_random > 1 then None else Some (p, subst, n_random > 0)
    | (m : map_access) :: rest -> (
        let loc = loc_of env (in_plan p) m.mname in
        match plan_ref locus loc m with
        | None -> None
        | Some [] ->
            let random = locus = LRandom && Loc.equal loc Loc.Random in
            plan_refs p subst (n_random + Bool.to_int random) rest
        | Some route ->
            let p, name = chain env p m.mname route in
            plan_refs p ((access_key m, name) :: subst) n_random rest)
  in
  match plan_refs p [] 0 (refs_of s.rhs) with
  | None -> None
  | Some (p, subst, has_random) ->
      let rhs =
        rename_refs (fun m -> List.assoc_opt (access_key m) subst) s.rhs
      in
      let rloc = result_loc locus s.target_vars ~has_random in
      let tloc = loc_of env (in_plan p) s.target in
      if Loc.equal rloc tloc then
        Some (extend p [ Dprog.Compute { s with rhs } ])
      else
        let out = fresh p (s.target ^ "_part") in
        let p =
          create p out s.target_vars rhs rloc
            [ Dprog.Compute { s with target = out; op = Prog.Assign; rhs } ]
        in
        let p, src = chain env p out (moves rloc tloc) in
        let rhs = Map { mname = src; mvars = s.target_vars } in
        Some (extend p [ Dprog.Compute { s with rhs } ])

(* A plan's cost: its transfers, then their size rank (shuffling
   batch-derived transients is cheap), then its gathers. *)
let cost env p =
  let rec go n rank gathers = function
    | [] -> (n, rank, gathers)
    | Dprog.Transfer { tkind; source; _ } :: rest ->
        go (n + 1)
          (rank + if transient env (in_plan p) source then 1 else 10)
          (gathers + if tkind = Dprog.Gather then 1 else 0)
          rest
    | Dprog.Compute _ :: rest -> go n rank gathers rest
  in
  go 0 0 0 p.stmts

(* The cheapest feasible plan, the earliest on a tie. It chooses between
   loci, between split points, and between one locus and a split. *)
let cheapest env plans =
  match List.filter_map (Option.map (fun p -> (cost env p, p))) plans with
  | [] -> None
  | first :: rest ->
      Some
        (snd
           (List.fold_left
              (fun (bc, bp) (c, p) -> if c < bc then (c, p) else (bc, bp))
              first rest))

(* Candidate loci for a statement. *)
let candidates env p (s : Prog.stmt) =
  let refs = refs_of s.rhs in
  let target_loc = loc_of env (in_plan p) s.target in
  let base = [ LLocal; LRepl; LRandom ] in
  let from_target =
    match target_loc with
    | Loc.Dist pos -> [ LKey (key_vars s.target_vars pos) ]
    | _ -> []
  in
  let from_refs =
    List.filter_map
      (fun (m : map_access) ->
        match loc_of env (in_plan p) m.mname with
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

let naive_candidate env p (s : Prog.stmt) =
  (* bottom-up annotation without optimization: adopt the location of the
     last relational factor, whatever the cost *)
  match List.rev (refs_of s.rhs) with
  | m :: _ -> (
      match loc_of env (in_plan p) m.mname with
      | Loc.Local -> LLocal
      | Loc.Replicated -> LRepl
      | Loc.Random -> LRandom
      | Loc.Dist pos -> LKey (key_vars m.mvars pos))
  | [] -> LLocal

(* Best single-locus plan for one statement. *)
let single_locus env p (s : Prog.stmt) =
  let loci =
    if env.level = 0 then [ naive_candidate env p s ]
    else candidates env p s
  in
  cheapest env (List.map (fun locus -> plan_stmt env p locus s) loci)

(* Multi-stage plans: split the product at a join boundary, materialize the
   (usually batch-derived) prefix as an intermediate at the location the
   suffix wants, and continue — the partial-join-then-repartition idiom of
   the Figure 5 programs. Replaces Gather∘Scatter round-trips of whole
   views with one shuffle of a small intermediate. One plan per split
   point, None where the split does not type or a half reads no map. *)
let splits env p (s : Prog.stmt) =
  let gb, fs =
    match s.rhs with
    | Sum (g, b) -> (Some g, Divm_delta.Poly.factors b)
    | e -> (None, Divm_delta.Poly.factors e)
  in
  let split i =
    let prefix = Calc.prod (List.filteri (fun j _ -> j < i) fs) in
    let suffix_fs = List.filteri (fun j _ -> j >= i) fs in
    let suffix = Calc.prod suffix_fs in
    if refs_of prefix = [] || refs_of suffix = [] then None
    else
      match Calc.schema ~bound:[] prefix with
      | exception Type_error _ -> None
      | psch -> (
          let needed = Schema.union (Calc.all_vars suffix) s.target_vars in
          let keep = Schema.inter psch needed in
          match Calc.schema ~bound:keep suffix with
          | exception Type_error _ -> None
          | _ ->
              let stage = fresh p (s.target ^ "_stage") in
              (* co-partition the intermediate with the first suffix view
                 it joins; replicate when no key fits (it is small) *)
              let loc =
                List.find_map
                  (fun (m : map_access) ->
                    match loc_of env (in_plan p) m.mname with
                    | Loc.Dist pos ->
                        Option.map
                          (fun k -> Loc.Dist k)
                          (positions_of (key_vars m.mvars pos) keep)
                    | _ -> None)
                  (refs_of suffix)
                |> Option.value ~default:Loc.Replicated
              in
              let def = Calc.sum keep prefix in
              let p = create p stage keep def loc [] in
              let body =
                Calc.prod (Map { mname = stage; mvars = keep } :: suffix_fs)
              in
              let rhs =
                match gb with Some g -> Calc.sum g body | None -> body
              in
              let fill =
                {
                  Prog.target = stage;
                  target_vars = keep;
                  op = Prog.Assign;
                  rhs = def;
                }
              in
              Option.bind (single_locus env p fill) (fun p ->
                  single_locus env p { s with rhs }))
  in
  let n = List.length fs in
  if n < 3 then [] else List.init (n - 1) (fun i -> split (i + 1))

(* The kept plan of one statement, its created maps numbered from
   [next]. *)
let plan_of env next (s : Prog.stmt) =
  let p = { stmts = []; maps = []; next } in
  (* transient delta pre-aggregations are pinned where batches arrive *)
  let is_delta_def =
    match Prog.find_map env.prog s.target with
    | { Prog.mkind = Prog.Transient; _ } -> Calc.delta_rels s.rhs <> []
    | _ -> false
    | exception _ -> false
  in
  if is_delta_def then extend p [ Dprog.Compute s ]
  else begin
    if Calc.delta_rels s.rhs <> [] then
      invalid_arg
        ("Distribute: statement of " ^ s.target
       ^ " reads the update batch directly; the distributed compiler needs \
          batch pre-aggregation (compile with preaggregate)");
    let best =
      if env.level = 0 then single_locus env p s
      else cheapest env (single_locus env p s :: splits env p s)
    in
    match best with
    | Some p -> p
    | None -> (
        (* fall back to full gather at the driver *)
        match plan_stmt env p LLocal s with
        | Some p -> p
        | None -> failwith ("Distribute: no plan for stmt of " ^ s.target))
  end

(* ------------------------------------------------------------------ *)
(* CSE + DCE over transfers                                            *)
(* ------------------------------------------------------------------ *)

(* [kept] holds the kept plans' maps; the definitions of those a kept
   statement writes are renamed as the statements are. *)
let cse_dce env kept dstmts =
  let find = Hashtbl.find_opt kept in
  (* forward pass: identical transfers — and identical assignments into
     transient intermediates — collapse to the first occurrence *)
  let subst = Hashtbl.create 8 in
  let seen = Hashtbl.create 8 in
  let seen_assign = Hashtbl.create 8 in
  let resolve n =
    match Hashtbl.find_opt subst n with Some n' -> n' | None -> n
  in
  let rename =
    rename_refs (fun (m : map_access) -> Hashtbl.find_opt subst m.mname)
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
            let s = { s with rhs = rename s.rhs } in
            if s.op = Prog.Assign && transient env find s.target then begin
              let key =
                ( Calc.to_string s.rhs,
                  List.map (fun (v : Schema.var) -> v.name) s.target_vars,
                  loc_of env find s.target )
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
  List.iter
    (fun d ->
      let w = Dprog.writes d in
      Option.iter
        (fun ((m : Prog.map_decl), loc) ->
          let m = { m with definition = rename m.definition } in
          Hashtbl.replace kept w (m, loc))
        (find w))
    dstmts;
  (* backward pass: drop writes to transients nobody reads *)
  let rec dce rev_stmts live =
    match rev_stmts with
    | [] -> []
    | d :: rest ->
        let w = Dprog.writes d in
        if transient env find w && not (List.mem w live) then dce rest live
        else d :: dce rest (Dprog.reads d @ live)
  in
  List.rev (dce (List.rev dstmts) [])

(* ------------------------------------------------------------------ *)
(* One trigger                                                         *)
(* ------------------------------------------------------------------ *)

(* Where a trigger's created maps [made] and the catalog's maps live. *)
let locs_of env made =
  Hashtbl.fold (fun n (_, l) acc -> (n, l) :: acc) made env.catalog

(* The plan of one trigger, as a value: its statements (after CSE and DCE
   from level 3) and their blocks (fused from level 2), the maps its kept
   plans created with their declarations and locations, the next free
   name number, and where its batch is dealt: on a stream column, with
   the pre-aggregations that moved with it, or round-robin. A block's mode
   is where its statements' targets live, and the compiled program
   locates every map a trigger writes as the trigger's plan does, so the
   kept plan's blocks are the program's. *)
type tplan = {
  dstmts : Dprog.dstmt list;
  blocks : Dprog.block list;
  made : (string, Prog.map_decl * Loc.t) Hashtbl.t;
  tnext : int;
  deal : int option;
  moved : Loc.catalog;
}

let plan_trigger ?deal ?(moved = []) env next (tr : Prog.trigger) =
  let tnext, plans =
    List.fold_left_map
      (fun next s ->
        let p = plan_of env next s in
        (p.next, p))
      next tr.stmts
  in
  let made = Hashtbl.create 16 in
  List.iter
    (fun p -> List.iter (fun (n, e) -> Hashtbl.replace made n e) p.maps)
    plans;
  let dstmts = List.concat_map (fun p -> List.rev p.stmts) plans in
  let dstmts = if env.level >= 3 then cse_dce env made dstmts else dstmts in
  let blocks = Dprog.promote (locs_of env made) dstmts in
  let blocks = if env.level >= 2 then Dprog.fuse blocks else blocks in
  { dstmts; blocks; made; tnext; deal; moved }

(* A trigger plan's round trips per batch, after fusion, then its
   transfers. *)
let score env tp =
  let locs = locs_of env tp.made in
  let steps = Dprog.steps { drelation = ""; blocks = tp.blocks; deal = None } in
  ( Dprog.round_trips locs steps (Dprog.calls locs steps),
    List.length
      (List.filter (function Dprog.Transfer _ -> true | _ -> false) tp.dstmts) )

(* ------------------------------------------------------------------ *)
(* Level 4: deal each batch on the key its trigger repartitions by     *)
(* ------------------------------------------------------------------ *)

(* The stream column a pre-aggregation's variable [v] holds: its position
   in each delta atom of the definition [def], when every atom has it at
   the same position and no lift binds it. *)
let batch_column def (v : Schema.var) =
  let at = ref [] and lifted = ref false in
  let rec go = function
    | DeltaRel r ->
        at :=
          List.find_index (fun (u : Schema.var) -> u.name = v.name) r.rvars
          :: !at
    | Lift (u, q) ->
        if u.name = v.name then lifted := true;
        go q
    | Exists q | Sum (_, q) -> go q
    | Prod es | Add es -> List.iter go es
    | _ -> ()
  in
  go def;
  match !at with
  | Some c :: rest when (not !lifted) && List.for_all (( = ) (Some c)) rest ->
      Some c
  | _ -> None

(* The trigger's pre-aggregations of the batch that live where it
   arrives, on the workers at random. *)
let preaggs env (tr : Prog.trigger) =
  List.filter_map
    (fun (s : Prog.stmt) ->
      match Prog.find_map env.prog s.target with
      | { Prog.mkind = Prog.Transient; _ } as m
        when Calc.delta_rels s.rhs <> []
             && Loc.equal (Loc.find env.catalog s.target) Loc.Random ->
          Some m
      | _ -> None
      | exception _ -> None)
    tr.stmts

(* The stream columns on which [dstmts] repartition a pre-aggregation of
   [pre], ascending. *)
let deal_candidates pre dstmts =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Dprog.Transfer { tkind = Dprog.Repart; key = [| k |]; source; _ } ->
             Option.bind
               (List.find_opt (fun (m : Prog.map_decl) -> m.mname = source) pre)
               (fun (m : Prog.map_decl) ->
                 batch_column m.definition (List.nth m.mschema k))
         | _ -> None)
       dstmts)

(* Where a batch dealt on column [c] leaves each pre-aggregation: one that
   groups by the column is partitioned on it; any other stays random,
   since a hash partition of the batch is still a random one. *)
let dealt_on pre c =
  List.filter_map
    (fun (m : Prog.map_decl) ->
      Option.map
        (fun i -> (m.mname, Loc.Dist [| i |]))
        (List.find_index (fun v -> batch_column m.definition v = Some c) m.mschema))
    pre

(* The trigger's plan: from level 4, the best of dealing its batch on each
   column its level-3 plan repartitions a pre-aggregation on, re-planned
   with the pre-aggregations that move, when it makes fewer round trips
   per batch than the level-3 plan, or as many and fewer transfers. *)
let plan_dealt env next tr =
  let l3 = plan_trigger env next tr in
  let pre = if env.level >= 4 then preaggs env tr else [] in
  match deal_candidates pre l3.dstmts with
  | [] -> l3
  | cs ->
      snd
        (List.fold_left
           (fun (best, bp) c ->
             let moved = dealt_on pre c in
             let env = { env with catalog = moved @ env.catalog } in
             let tp = plan_trigger ~deal:c ~moved env next tr in
             let s = score env tp in
             if s < best then (s, tp) else (best, bp))
           (score env l3, l3) cs)

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
  let env = { level = options.level; catalog; prog } in
  (* names of created maps are numbered along the kept plans *)
  let _, planned =
    List.fold_left_map
      (fun next (tr : Prog.trigger) ->
        let tp = plan_dealt env next tr in
        (tp.tnext, (tr.relation, tp)))
      1 prog.triggers
  in
  let moved = List.concat_map (fun (_, tp) -> tp.moved) planned in
  let catalog =
    List.map
      (fun (n, l) -> (n, Option.value ~default:l (List.assoc_opt n moved)))
      catalog
  in
  let kept = Hashtbl.create 64 in
  List.iter (fun (_, tp) -> Hashtbl.iter (Hashtbl.replace kept) tp.made) planned;
  (* declare, in first-use order, the created maps the kept statements
     name: each entry leaves the table when it is first named *)
  let take n =
    let e = Hashtbl.find_opt kept n in
    Hashtbl.remove kept n;
    e
  in
  let created =
    List.concat_map
      (fun (_, tp) ->
        List.concat_map
          (fun d -> List.filter_map take (Dprog.writes d :: Dprog.reads d))
          tp.dstmts)
      planned
  in
  let locs =
    List.map (fun ((m : Prog.map_decl), l) -> (m.mname, l)) created @ catalog
  in
  let dtriggers =
    List.map
      (fun (drelation, tp) ->
        { Dprog.drelation; blocks = tp.blocks; deal = tp.deal })
      planned
  in
  {
    Dprog.base = { prog with maps = prog.maps @ List.map fst created };
    locs;
    dtriggers;
  }
