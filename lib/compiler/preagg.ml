open Divm_ring
open Divm_calc
open Divm_calc.Calc

(* Split an RHS into (optional top-level group-by, product factors). *)
let split_rhs = function
  | Sum (gb, body) -> (Some gb, Divm_delta.Poly.factors body)
  | e -> (None, Divm_delta.Poly.factors e)

let rejoin gb fs =
  let body = prod fs in
  match gb with Some gb -> sum gb body | None -> body

(* A factor is attachable to the batch pre-aggregation when its variables
   are all bound by the batch columns: comparisons filter the batch, value
   terms weight the pre-aggregated multiplicity. *)
let attachable rvars f =
  match f with
  | Cmp _ | Value _ -> Schema.subset (Calc.all_vars f) rvars
  | _ -> false

(* Can [e] be pre-aggregated standalone? It must read the batch (so there
   is something to pre-aggregate), touch no stores or base relations (so it
   is computable from the batch alone), and be closed (no free input
   variables from the enclosing expression). This is deliberately
   recursive: [Sum_[k](Exists(dR ⋈ filters))] qualifies even though the
   delta sits under an Exists, which is exactly the shape the vectorized
   join executor wants as a compacted transient. *)
let batch_closed e =
  Calc.has_deltas e
  && (not (Calc.has_base_rels e))
  && Calc.map_refs e = []
  && match Calc.inputs ~bound:[] e with
     | [] -> true
     | _ :: _ -> false
     | exception Type_error _ -> false

let apply (prog : Prog.t) =
  let new_maps = ref [] in
  let counter = ref 0 in
  let triggers =
    List.map
      (fun (tr : Prog.trigger) ->
        let cache : (string, string * Schema.t) Hashtbl.t = Hashtbl.create 8 in
        let transients = ref [] in
        let intern def schema =
          let key = Calc.canon_key ~schema def in
          match Hashtbl.find_opt cache key with
          | Some (n, u) -> (n, u)
          | None ->
              incr counter;
              let n = Printf.sprintf "DELTA_%s_%d" tr.relation !counter in
              Hashtbl.replace cache key (n, schema);
              new_maps :=
                {
                  Prog.mname = n;
                  mschema = schema;
                  mkind = Prog.Transient;
                  definition = def;
                }
                :: !new_maps;
              transients :=
                {
                  Prog.target = n;
                  target_vars = schema;
                  op = Prog.Assign;
                  rhs = def;
                }
                :: !transients;
              (n, schema)
        in
        (* Recursive extraction of batch-only subexpressions nested inside
           Lift/Exists/Sum bodies, so distributed programs can ship
           pre-aggregated deltas instead of raw batches. *)
        let rec extract e =
          match e with
          | DeltaRel r ->
              let name, _ = intern (DeltaRel r) r.rvars in
              Map { mname = name; mvars = r.rvars }
          | Sum (gb, body)
            when batch_closed (Sum (gb, body))
                 && (match Calc.schema ~bound:[] (Sum (gb, body)) with
                    | _ -> true
                    | exception Type_error _ -> false) ->
              let name, uvars = intern (Sum (gb, body)) gb in
              ignore uvars;
              Map { mname = name; mvars = gb }
          | Sum (gb, q) -> Sum (gb, extract q)
          | Lift (v, q) -> Lift (v, extract q)
          | Exists q -> Exists (extract q)
          | Prod es -> Prod (List.map extract es)
          | Add es -> Add (List.map extract es)
          | e -> e
        in
        let rewrite (s : Prog.stmt) =
          if s.op <> Prog.Add_to then s
          else
            let gb, fs = split_rhs s.rhs in
            let idxs =
              List.mapi (fun i f -> (i, f)) fs
              |> List.filter (fun (_, f) ->
                     match f with DeltaRel _ -> true | _ -> false)
            in
            match idxs with
            | (i0, DeltaRel r) :: _ ->
                let attached =
                  List.mapi (fun i f -> (i, f)) fs
                  |> List.filter (fun (i, f) ->
                         i <> i0 && attachable r.rvars f)
                in
                let attached_idx = List.map fst attached in
                let others =
                  List.mapi (fun i f -> (i, f)) fs
                  |> List.filter (fun (i, _) ->
                         i <> i0 && not (List.mem i attached_idx))
                  |> List.map snd
                  |> List.fold_left
                       (fun acc f -> Schema.union acc (Calc.all_vars f))
                       (match gb with
                       | Some g -> Schema.union s.target_vars g
                       | None -> s.target_vars)
                in
                let used = Schema.inter r.rvars others in
                let def =
                  sum used (prod (DeltaRel r :: List.map snd attached))
                in
                (* the canonical key is positional, so the shared transient
                   is accessed with *this* occurrence's variables *)
                let name, _decl_vars = intern def used in
                let fs' =
                  List.mapi (fun i f -> (i, f)) fs
                  |> List.filter_map (fun (i, f) ->
                         if i = i0 then
                           Some (Map { mname = name; mvars = used })
                         else if List.mem i attached_idx then None
                         else Some f)
                in
                { s with rhs = rejoin gb fs' }
            | _ -> s
        in
        (* Second pass: extract batch-only subexpressions still nested inside
           Lift/Exists bodies (the top-level pass only touches the product's
           own delta factor). *)
        let rewrite s =
          let s = rewrite s in
          if s.Prog.op = Prog.Add_to && Calc.has_deltas s.rhs then
            { s with rhs = extract s.rhs }
          else s
        in
        let stmts = List.map rewrite tr.stmts in
        { tr with stmts = List.rev !transients @ stmts })
      prog.triggers
  in
  { prog with maps = prog.maps @ List.rev !new_maps; triggers }
