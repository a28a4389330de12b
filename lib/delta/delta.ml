open Divm_ring
open Divm_calc
open Divm_calc.Calc

type result = { expr : expr; expensive : bool }

let unchanged = { expr = zero; expensive = false }

let rec delta ~rel ~bound (e : expr) : result =
  match e with
  | Rel r when String.equal r.rname rel ->
      { expr = DeltaRel r; expensive = false }
  | Rel _ | Map _ | Const _ | Value _ | Cmp _ | DeltaRel _ -> unchanged
  | Add es ->
      let ds = List.map (delta ~rel ~bound) es in
      {
        expr = add (List.map (fun d -> d.expr) ds);
        expensive = List.exists (fun d -> d.expensive) ds;
      }
  | Sum (gb, q) ->
      let d = delta ~rel ~bound q in
      { d with expr = sum gb d.expr }
  | Prod es -> fst (delta_prod ~rel ~bound es)
  | Exists _ | Lift _ -> fst (delta_factor ~rel ~bound e)

(* Product rule over a factor list, threading the binding context
   left-to-right (deltas preserve schemas, so the context of the i-th factor
   is the same in every expansion term). Besides the change it returns the
   product after the update when some factor is a Lift/Exists whose body
   the update changes, with each such factor kept whole over its updated
   body. A rest r holding one gives Δ(e·r) = Δe·r′ + e·Δr, so the lift's
   new-minus-old is not multiplied through the other factors; any other
   rest keeps the Leibniz terms Δe·r + e·Δr + Δe·Δr in that order. *)
and delta_prod ~rel ~bound es =
  match es with
  | [] -> (unchanged, None)
  | [ e ] -> delta_factor ~rel ~bound e
  | e :: rest ->
      let de, e_after = delta_factor ~rel ~bound e in
      let bound' = Schema.union bound (Calc.schema ~bound e) in
      let rest_e = match rest with [ x ] -> x | xs -> Prod xs in
      let drest, rest_after = delta_prod ~rel ~bound:bound' rest in
      let expr =
        match rest_after with
        | None ->
            add
              [
                prod [ de.expr; rest_e ];
                prod [ e; drest.expr ];
                prod [ de.expr; drest.expr ];
              ]
        | Some rest' -> add [ prod [ de.expr; rest' ]; prod [ e; drest.expr ] ]
      in
      let after =
        match (e_after, rest_after) with
        | None, None -> None
        | _ ->
            let updated x d = function
              | Some x' -> x'
              | None -> add [ x; d.expr ]
            in
            Some
              (prod
                 [ updated e de e_after; updated rest_e drest rest_after ])
      in
      ({ expr; expensive = de.expensive || drest.expensive }, after)

(* A factor's change, and the factor after the update when it is a
   Lift/Exists whose body the update changes. *)
and delta_factor ~rel ~bound e =
  match e with
  | Exists q -> delta_diff ~rel ~bound exists q
  | Lift (v, q) -> delta_diff ~rel ~bound (lift v) q
  | e -> (delta ~rel ~bound e, None)

(* Revised delta rule for Lift/Exists: Qdom ⋈ (mk(Q+ΔQ) − mk(Q)), where
   Qdom is the extracted domain of ΔQ projected onto the variables the
   difference term can actually be restricted by: context-bound variables
   (equality correlations) and the difference's own output variables. *)
and delta_diff ~rel ~bound mk q =
  let dq = delta ~rel ~bound q in
  if is_zero dq.expr then (unchanged, None)
  else
    let after = mk (add [ q; dq.expr ]) in
    let dom = Domain.extract dq.expr in
    let restrictable =
      Schema.union bound
        (match Calc.schema ~bound q with
        | s -> s
        | exception Type_error _ -> [])
    in
    let corr = Schema.inter (Domain.bound_vars dom) restrictable in
    let diff = add [ after; neg (mk q) ] in
    match corr with
    | [] -> ({ expr = diff; expensive = true }, Some after)
    | _ ->
        let qdom = exists (sum corr (Domain.to_expr ~bound dom)) in
        ({ expr = prod [ qdom; diff ]; expensive = dq.expensive }, Some after)

let of_expr ~rel ?(bound = []) e = delta ~rel ~bound e
let expr ~rel ?(bound = []) e = (of_expr ~rel ~bound e).expr
