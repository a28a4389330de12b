open Divm_ring

type cmp_op = Eq | Neq | Lt | Lte | Gt | Gte
type rel = { rname : string; rvars : Schema.t }
type map_access = { mname : string; mvars : Schema.t }

type expr =
  | Const of float
  | Value of Vexpr.t
  | Cmp of cmp_op * Vexpr.t * Vexpr.t
  | Rel of rel
  | DeltaRel of rel
  | Map of map_access
  | Lift of Schema.var * expr
  | Exists of expr
  | Sum of Schema.t * expr
  | Prod of expr list
  | Add of expr list

exception Type_error of string

let one = Const 1.
let zero = Const 0.
let const c = Const c
let is_zero = function Const c -> Float.abs c < Mult.zero_eps | _ -> false
let rel rname rvars = Rel { rname; rvars }
let delta_rel rname rvars = DeltaRel { rname; rvars }
let map_ mname mvars = Map { mname; mvars }

let prod es =
  let es = List.concat_map (function Prod xs -> xs | e -> [ e ]) es in
  if List.exists is_zero es then zero
  else
    (* Fold adjacent constants together but keep evaluation order of the
       non-constant factors: binding flows left to right. *)
    let c, rest =
      List.fold_left
        (fun (c, acc) e ->
          match e with Const k -> (c *. k, acc) | e -> (c, e :: acc))
        (1., []) es
    in
    let rest = List.rev rest in
    match (rest, c) with
    | [], _ -> Const c
    | es, 1. -> ( match es with [ e ] -> e | es -> Prod es)
    | es, c -> Prod (Const c :: es)

let add es =
  let es = List.concat_map (function Add xs -> xs | e -> [ e ]) es in
  let es = List.filter (fun e -> not (is_zero e)) es in
  match es with [] -> zero | [ e ] -> e | es -> Add es

let neg e = prod [ Const (-1.); e ]

let lift v e = Lift (v, e)
let exists e = match e with Const c when c <> 0. -> one | e -> Exists e
let cmp op a b = Cmp (op, a, b)
let cmp_vars op a b = Cmp (op, Vexpr.Var a, Vexpr.Var b)
let value v = match v with Vexpr.Const (Value.Float f) -> Const f | v -> Value v

let eval_cmp op a b =
  let c = Value.compare_approx a b in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Lte -> c <= 0
  | Gt -> c > 0
  | Gte -> c >= 0

(* ------------------------------------------------------------------ *)
(* Schema inference                                                    *)
(* ------------------------------------------------------------------ *)

let rec schema ?(bound = []) e =
  match e with
  | Const _ -> []
  | Value v ->
      let unbound = Schema.diff (Vexpr.vars v) bound in
      if unbound <> [] then
        raise
          (Type_error
             (Printf.sprintf "Value with unbound variables %s"
                (Schema.to_string unbound)))
      else []
  | Cmp (_, a, b) ->
      let unbound = Schema.diff (Schema.union (Vexpr.vars a) (Vexpr.vars b)) bound in
      if unbound <> [] then
        raise
          (Type_error
             (Printf.sprintf "Cmp with unbound variables %s"
                (Schema.to_string unbound)))
      else []
  | Rel r | DeltaRel r -> Schema.diff r.rvars bound
  | Map m -> Schema.diff m.mvars bound
  | Lift (v, q) ->
      let sq = schema ~bound q in
      if Schema.mem v bound then sq else Schema.union sq [ v ]
  | Exists q -> schema ~bound q
  | Sum (gb, q) ->
      let sq = schema ~bound q in
      let missing = Schema.diff gb (Schema.union sq bound) in
      if missing <> [] then
        raise
          (Type_error
             (Printf.sprintf "Sum group-by vars %s not produced (have %s)"
                (Schema.to_string missing) (Schema.to_string sq)))
      else Schema.diff gb bound
  | Prod es ->
      let _, out =
        List.fold_left
          (fun (bound, out) e ->
            let s = schema ~bound e in
            (Schema.union bound s, Schema.union out s))
          (bound, []) es
      in
      out
  | Add es -> (
      match es with
      | [] -> []
      | hd :: tl ->
          let s = schema ~bound hd in
          List.iter
            (fun e ->
              let s' = schema ~bound e in
              if not (Schema.equal_as_sets s s') then
                raise
                  (Type_error
                     (Printf.sprintf "Add members with schemas %s vs %s"
                        (Schema.to_string s) (Schema.to_string s'))))
            tl;
          s)

let sum gb e =
  if is_zero e then zero
  else
    (* Drop the projection when it is an exact no-op (same variables, same
       order) — this lets alpha-canonical map reuse unify e.g.
       Sum_[A](Exists q) with Exists q. *)
    let noop =
      match schema ~bound:[] e with
      | s ->
          List.length s = List.length gb
          && List.for_all2 Schema.var_equal s gb
      | exception Type_error _ -> false
    in
    if noop then e
    else
      match e with
      (* Collapse nested projections: Sum_gb(Sum_gb2 q) = Sum_gb q when
         gb is a subset of gb2. *)
      | Sum (gb2, q) when Schema.subset gb gb2 -> Sum (gb, q)
      | e -> Sum (gb, e)

(* ------------------------------------------------------------------ *)
(* Analyses                                                            *)
(* ------------------------------------------------------------------ *)

let rec all_vars = function
  | Const _ -> []
  | Value v -> Vexpr.vars v
  | Cmp (_, a, b) -> Schema.union (Vexpr.vars a) (Vexpr.vars b)
  | Rel r | DeltaRel r -> r.rvars
  | Map m -> m.mvars
  | Lift (v, q) -> Schema.union [ v ] (all_vars q)
  | Exists q -> all_vars q
  | Sum (gb, q) -> Schema.union gb (all_vars q)
  | Prod es | Add es ->
      List.fold_left (fun acc e -> Schema.union acc (all_vars e)) [] es

let rec inputs ?(bound = []) e =
  match e with
  | Const _ | Rel _ | DeltaRel _ | Map _ -> []
  | Value v -> Schema.diff (Vexpr.vars v) bound
  | Cmp (_, a, b) ->
      Schema.diff (Schema.union (Vexpr.vars a) (Vexpr.vars b)) bound
  | Lift (_, q) | Exists q | Sum (_, q) -> inputs ~bound q
  | Add es ->
      List.fold_left (fun acc e -> Schema.union acc (inputs ~bound e)) [] es
  | Prod es ->
      let acc, _ =
        List.fold_left
          (fun (acc, bound) e ->
            let acc = Schema.union acc (inputs ~bound e) in
            let bound =
              match schema ~bound e with
              | s -> Schema.union bound s
              | exception Type_error _ -> Schema.union bound (all_vars e)
            in
            (acc, bound))
          ([], bound) es
      in
      acc

let collect f e =
  let acc = ref [] in
  let push x = if not (List.mem x !acc) then acc := x :: !acc in
  let rec go e =
    f push e;
    match e with
    | Lift (_, q) | Exists q | Sum (_, q) -> go q
    | Prod es | Add es -> List.iter go es
    | _ -> ()
  in
  go e;
  List.rev !acc

let base_rels e =
  collect (fun push -> function Rel r -> push r.rname | _ -> ()) e

let delta_rels e =
  collect (fun push -> function DeltaRel r -> push r.rname | _ -> ()) e

let map_refs e =
  collect (fun push -> function Map m -> push m.mname | _ -> ()) e

let has_base_rels e = base_rels e <> []
let has_deltas e = delta_rels e <> []

let rec degree = function
  | Const _ | Value _ | Cmp _ -> 0
  | Rel _ | DeltaRel _ | Map _ -> 1
  | Lift (_, q) | Exists q | Sum (_, q) -> degree q
  | Prod es -> List.fold_left (fun acc e -> acc + degree e) 0 es
  | Add es -> List.fold_left (fun acc e -> max acc (degree e)) 0 es

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let rec rename f = function
  | Const c -> Const c
  | Value v -> Value (Vexpr.rename f v)
  | Cmp (op, a, b) -> Cmp (op, Vexpr.rename f a, Vexpr.rename f b)
  | Rel r -> Rel { r with rvars = List.map f r.rvars }
  | DeltaRel r -> DeltaRel { r with rvars = List.map f r.rvars }
  | Map m -> Map { m with mvars = List.map f m.mvars }
  | Lift (v, q) -> Lift (f v, rename f q)
  | Exists q -> Exists (rename f q)
  | Sum (gb, q) -> Sum (List.map f gb, rename f q)
  | Prod es -> Prod (List.map (rename f) es)
  | Add es -> Add (List.map (rename f) es)

let rename_by_assoc assoc e =
  rename
    (fun v ->
      match List.assoc_opt v.Schema.name assoc with
      | Some v' -> v'
      | None -> v)
    e

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Float.equal x y
  | Value x, Value y -> Vexpr.equal x y
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) ->
      o1 = o2 && Vexpr.equal a1 a2 && Vexpr.equal b1 b2
  | Rel r1, Rel r2 | DeltaRel r1, DeltaRel r2 ->
      String.equal r1.rname r2.rname
      && List.length r1.rvars = List.length r2.rvars
      && List.for_all2 Schema.var_equal r1.rvars r2.rvars
  | Map m1, Map m2 ->
      String.equal m1.mname m2.mname
      && List.length m1.mvars = List.length m2.mvars
      && List.for_all2 Schema.var_equal m1.mvars m2.mvars
  | Lift (v1, q1), Lift (v2, q2) -> Schema.var_equal v1 v2 && equal q1 q2
  | Exists q1, Exists q2 -> equal q1 q2
  | Sum (g1, q1), Sum (g2, q2) ->
      List.length g1 = List.length g2
      && List.for_all2 Schema.var_equal g1 g2
      && equal q1 q2
  | Prod e1, Prod e2 | Add e1, Add e2 ->
      List.length e1 = List.length e2 && List.for_all2 equal e1 e2
  | _ -> false

let alpha_canon ~keep e =
  let tbl = Hashtbl.create 16 in
  let counter = ref 0 in
  let f (v : Schema.var) =
    if Schema.mem v keep then v
    else
      match Hashtbl.find_opt tbl v.name with
      | Some v' -> v'
      | None ->
          let v' = { v with Schema.name = Printf.sprintf "!c%d" !counter } in
          incr counter;
          Hashtbl.add tbl v.name v';
          v'
  in
  rename f e

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_cmp_op ppf op =
  Format.pp_print_string ppf
    (match op with
    | Eq -> "="
    | Neq -> "!="
    | Lt -> "<"
    | Lte -> "<="
    | Gt -> ">"
    | Gte -> ">=")

let rec pp ppf = function
  | Const c -> Format.fprintf ppf "%g" c
  | Value v -> Format.fprintf ppf "{%a}" Vexpr.pp v
  | Cmp (op, a, b) ->
      Format.fprintf ppf "{%a %a %a}" Vexpr.pp a pp_cmp_op op Vexpr.pp b
  | Rel r -> Format.fprintf ppf "%s(%a)" r.rname pp_vars r.rvars
  | DeltaRel r -> Format.fprintf ppf "d%s(%a)" r.rname pp_vars r.rvars
  | Map m -> Format.fprintf ppf "%s[%a]" m.mname pp_vars m.mvars
  | Lift (v, q) -> Format.fprintf ppf "(%s := %a)" v.Schema.name pp q
  | Exists q -> Format.fprintf ppf "Exists(%a)" pp q
  | Sum (gb, q) -> Format.fprintf ppf "Sum_[%a](%a)" pp_vars gb pp q
  | Prod es ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " * ")
           pp)
        es
  | Add es ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
           pp)
        es

and pp_vars ppf vs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    Schema.pp_var ppf vs

let to_string e = Format.asprintf "%a" pp e

let canon_key ~schema def =
  let tbl = Hashtbl.create 16 in
  let counter = ref 0 in
  let f (v : Schema.var) =
    match Hashtbl.find_opt tbl v.Schema.name with
    | Some v' -> v'
    | None ->
        let v' = { v with Schema.name = Printf.sprintf "!c%d" !counter } in
        incr counter;
        Hashtbl.add tbl v.Schema.name v';
        v'
  in
  let cschema = List.map f schema in
  let cdef = rename f def in
  to_string cdef ^ " | "
  ^ String.concat "," (List.map (fun (v : Schema.var) -> v.name) cschema)
