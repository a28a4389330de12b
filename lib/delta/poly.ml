open Divm_ring
open Divm_calc
open Divm_calc.Calc

let rec monomials (e : expr) : expr list =
  match e with
  | Add es -> List.concat_map monomials es
  | Prod es ->
      let parts = List.map monomials es in
      let combos =
        List.fold_left
          (fun acc ms ->
            List.concat_map (fun pref -> List.map (fun m -> m :: pref) ms) acc)
          [ [] ] parts
      in
      List.filter_map
        (fun rev ->
          let m = Calc.prod (List.rev rev) in
          if Calc.is_zero m then None else Some m)
        combos
  | Sum (gb, q) ->
      List.filter_map
        (fun m ->
          let s = Calc.sum gb m in
          if Calc.is_zero s then None else Some s)
        (monomials q)
  | e -> if Calc.is_zero e then [] else [ e ]

let factors = function Prod es -> es | e -> [ e ]

(* Factor scheduling priority: cheap filters as soon as they are bound,
   then batch-derived factors (iteration starts from the small delta),
   then the rest in original order. *)
let priority e =
  match e with
  | Const _ | Value _ | Cmp _ -> 0
  | Lift (_, q) when not (Calc.has_base_rels q || Calc.has_deltas q) -> 1
  | DeltaRel _ -> 2
  | _ when Calc.has_deltas e -> 3
  | _ -> 4

(* The variables bound before each factor when [fs] evaluate left to
   right from [bound]. *)
let bound_before ~bound fs =
  List.fold_left
    (fun (acc, b) f ->
      let b' =
        match Calc.schema ~bound:b f with
        | s -> Schema.union b s
        | exception Type_error _ -> b
      in
      (b :: acc, b'))
    ([], bound) fs
  |> fst |> List.rev

let reorder ~bound ?orig fs =
  (* Boundness of each factor's variables at its position in the input
     order; Lift/Exists semantics depend on it (a lift over a bound
     variable set is a lookup with default 0; over free variables it
     iterates non-zero groups), so those factors may only move to positions
     with the same boundness of their variables. [orig] overrides the
     reference boundness per factor when the caller knows the semantic
     context the factor came from (e.g. after materialization rewrote the
     product around it). *)
  let input_bound = bound_before ~bound fs in
  let orig_bound =
    match orig with
    | None -> input_bound
    | Some os ->
        List.map2
          (fun inp o -> match o with Some b -> b | None -> inp)
          input_bound os
  in
  let indexed = List.mapi (fun i f -> (i, f)) fs in
  (* Only Lift is order-sensitive: a lift over a bound variable set is a
     lookup with default 0, over free variables an iteration of non-zero
     groups. Exists always yields its support with multiplicity one, so
     filter and iterator placements agree in a product. *)
  let sensitive = function Lift _ -> true | _ -> false in
  let ready cur_bound (i, f) =
    (match Calc.schema ~bound:cur_bound f with
    | _ -> true
    | exception Type_error _ -> false)
    && (not (sensitive f))
    ||
    (sensitive f
    &&
    let vs = Calc.all_vars f in
    Schema.equal_as_sets
      (Schema.inter vs cur_bound)
      (Schema.inter vs (List.nth orig_bound i)))
  in
  let rec go bound acc remaining =
    match remaining with
    | [] -> Some (List.rev acc)
    | _ -> (
        let candidates = List.filter (ready bound) remaining in
        match candidates with
        | [] -> None
        | _ ->
            let best =
              List.fold_left
                (fun (bi, bf) (i, f) ->
                  let p = priority f and bp = priority bf in
                  if p < bp || (p = bp && i < bi) then (i, f) else (bi, bf))
                (List.hd candidates) (List.tl candidates)
            in
            let i, f = best in
            let bound =
              match Calc.schema ~bound f with
              | s -> Schema.union bound s
              | exception Type_error _ -> bound
            in
            go bound (f :: acc) (List.filter (fun (j, _) -> j <> i) remaining))
  in
  go bound [] indexed

(* A monomial as its projection, coefficient and remaining factors, with
   an order-independent hash of the factors that rules most pairs out
   before any comparison. *)
type term = {
  mono : expr;
  gb : Schema.t option;
  coef : float;
  fs : expr list;
  hash : int;
  bound_at : Schema.t list Lazy.t;
}

let term ~bound m =
  let gb, body = match m with Sum (gb, q) -> (Some gb, q) | q -> (None, q) in
  let coef, fs =
    match factors body with Const c :: fs -> (c, fs) | fs -> (1., fs)
  in
  {
    mono = m;
    gb;
    coef;
    fs;
    hash = List.fold_left (fun h f -> h + Hashtbl.hash f) 0 fs;
    bound_at = lazy (bound_before ~bound fs);
  }

(* The same factors up to order, each Lift matched with one that has the
   same of its variables bound at its position. *)
let same_factors a b =
  let with_bound t = List.combine t.fs (Lazy.force t.bound_at) in
  let rec go gs = function
    | [] -> true
    | (f, bf) :: fs -> (
        let matches (g, bg) =
          Calc.equal f g
          &&
          match f with
          | Lift _ ->
              let vs = Calc.all_vars f in
              Schema.equal_as_sets (Schema.inter vs bf) (Schema.inter vs bg)
          | _ -> true
        in
        match List.find_opt matches gs with
        | None -> false
        | Some m -> go (List.filter (( != ) m) gs) fs)
  in
  go (with_bound b) (with_bound a)

let equal a b =
  a.hash = b.hash
  && List.compare_lengths a.fs b.fs = 0
  && Option.equal (List.equal Schema.var_equal) a.gb b.gb
  && same_factors a b

let merge ~bound ms =
  let rec group = function
    | [] -> []
    | t :: rest -> (
        match List.partition (equal t) rest with
        | [], _ -> t.mono :: group rest
        | same, rest ->
            let c = List.fold_left (fun c u -> c +. u.coef) t.coef same in
            if Calc.is_zero (Const c) then group rest
            else
              let p = Calc.prod (Const c :: t.fs) in
              (match t.gb with Some gb -> Calc.sum gb p | None -> p)
              :: group rest)
  in
  group (List.map (term ~bound) ms)
