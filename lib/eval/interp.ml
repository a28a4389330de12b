open Divm_ring
open Divm_storage
open Divm_calc
open Divm_calc.Calc

type source = {
  rel : string -> Gmr.t;
  delta : string -> Gmr.t;
  map : string -> Gmr.t;
}

let source_of_rels rels =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (n, g) -> Hashtbl.replace tbl n g) rels;
  let get n =
    match Hashtbl.find_opt tbl n with Some g -> g | None -> raise Not_found
  in
  { rel = get; delta = get; map = get }

(* Per-eval-call cache of hash indexes over relation contents, keyed by
   (atom kind, name, bound column positions). *)
type ctx = {
  src : source;
  cache : (string, (Vtuple.t * float) list Vtuple.Tbl.t) Hashtbl.t;
}

let domain env = Env.domain env

let contents ctx kind name =
  match kind with
  | `Rel -> ctx.src.rel name
  | `Delta -> ctx.src.delta name
  | `Map -> ctx.src.map name

let index ctx kind name positions =
  let key =
    Printf.sprintf "%s/%s/%s"
      (match kind with `Rel -> "r" | `Delta -> "d" | `Map -> "m")
      name
      (String.concat "," (List.map string_of_int positions))
  in
  match Hashtbl.find_opt ctx.cache key with
  | Some idx -> idx
  | None ->
      let g = contents ctx kind name in
      let idx = Vtuple.Tbl.create (max 16 (Gmr.cardinal g)) in
      let pos = Array.of_list positions in
      Gmr.iter
        (fun tup m ->
          let sub = Vtuple.project tup pos in
          let prev =
            match Vtuple.Tbl.find_opt idx sub with Some l -> l | None -> []
          in
          Vtuple.Tbl.replace idx sub ((tup, m) :: prev))
        g;
      Hashtbl.replace ctx.cache key idx;
      idx

(* Bind the columns of [tup] to [rvars] on top of [env], respecting
   already-bound variables and repeated column variables as equality
   constraints. Returns [None] on constraint violation. *)
let bind_columns env (rvars : Schema.t) (tup : Vtuple.t) =
  let rec go env i = function
    | [] -> Some env
    | v :: rest -> (
        let x = tup.(i) in
        match Env.find env v with
        | Some y -> if Value.equal x y then go env (i + 1) rest else None
        | None -> go (Env.bind env v x) (i + 1) rest)
  in
  go env 0 rvars

let rec iter_expr ctx env e (k : Env.t -> float -> unit) =
  match e with
  | Const c -> if c <> 0. then k env c
  | Value v ->
      let x = Vexpr.eval (Env.find_exn env) v in
      let f = Value.to_float x in
      if f <> 0. then k env f
  | Cmp (op, a, b) ->
      let x = Vexpr.eval (Env.find_exn env) a
      and y = Vexpr.eval (Env.find_exn env) b in
      if Calc.eval_cmp op x y then k env 1.
  | Rel r -> iter_atom ctx env `Rel r.rname r.rvars k
  | DeltaRel r -> iter_atom ctx env `Delta r.rname r.rvars k
  | Map m -> iter_atom ctx env `Map m.mname m.mvars k
  | Exists q ->
      let sch, g = materialize ctx env q in
      Gmr.iter
        (fun tup _m ->
          match bind_columns env sch tup with
          | Some env' -> k env' 1.
          | None -> ())
        g
  | Lift (v, q) -> (
      let sch, g = materialize ctx env q in
      match sch with
      | [] -> (
          (* Scalar lift: always produces one binding, 0 when empty, matching
             SQL scalar aggregates over empty inputs. *)
          let total = Gmr.mult g Vtuple.empty in
          match Env.find env v with
          | Some x ->
              if Value.compare_approx x (Value.Float total) = 0 then k env 1.
          | None -> k (Env.bind env v (Value.Float total)) 1.)
      | _ ->
          Gmr.iter
            (fun tup m ->
              match bind_columns env sch tup with
              | None -> ()
              | Some env' -> (
                  match Env.find env' v with
                  | Some x ->
                      if Value.compare_approx x (Value.Float m) = 0 then k env' 1.
                  | None -> k (Env.bind env' v (Value.Float m)) 1.))
            g)
  | Sum (gb, q) ->
      let out = List.filter (fun v -> not (Env.is_bound env v)) gb in
      let sch, g = materialize ctx env q in
      let pos = Schema.positions out sch in
      let groups = Gmr.create ~size:(Gmr.cardinal g) () in
      Gmr.iter (fun tup m -> Gmr.add groups (Vtuple.project tup pos) m) g;
      Gmr.iter
        (fun tup m ->
          match bind_columns env out tup with
          | Some env' -> k env' m
          | None -> ())
        groups
  | Prod es ->
      let rec go env mult = function
        | [] -> k env mult
        | e :: rest ->
            iter_expr ctx env e (fun env' m -> go env' (mult *. m) rest)
      in
      go env 1. es
  | Add es -> List.iter (fun e -> iter_expr ctx env e k) es

and iter_atom ctx env kind name rvars k =
  let bound_pos =
    List.mapi (fun i v -> (i, v)) rvars
    |> List.filter (fun (_, v) -> Env.is_bound env v)
    |> List.map fst
  in
  let g = contents ctx kind name in
  let visit tup m =
    match bind_columns env rvars tup with
    | Some env' -> k env' m
    | None -> ()
  in
  if List.length bound_pos = List.length rvars then (
    (* Fully bound: direct lookup. *)
    let tup = Env.project env rvars in
    let m = Gmr.mult g tup in
    if m <> 0. then k env m)
  else if bound_pos = [] then Gmr.iter visit g
  else
    let idx = index ctx kind name bound_pos in
    let sub =
      Array.of_list (List.map (fun i -> Env.find_exn env (List.nth rvars i)) bound_pos)
    in
    match Vtuple.Tbl.find_opt idx sub with
    | None -> ()
    | Some entries -> List.iter (fun (tup, m) -> visit tup m) entries

and materialize ctx env e =
  let bound = domain env in
  let sch = Calc.schema ~bound e in
  let out = Gmr.create () in
  iter_expr ctx env e (fun env' m -> Gmr.add out (Env.project env' sch) m);
  (sch, out)

let eval ?bound src env e =
  let ctx = { src; cache = Hashtbl.create 8 } in
  let bound = match bound with Some b -> b | None -> domain env in
  let sch = Calc.schema ~bound e in
  let out = Gmr.create () in
  iter_expr ctx env e (fun env' m -> Gmr.add out (Env.project env' sch) m);
  (sch, out)

let eval_closed src e = eval ~bound:[] src Env.empty e

let eval_scalar src e =
  let sch, g = eval_closed src e in
  if sch <> [] then
    invalid_arg
      (Printf.sprintf "eval_scalar: expression has schema %s"
         (Schema.to_string sch));
  Gmr.mult g Vtuple.empty
