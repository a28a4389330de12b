open Divm_ring
open Divm_storage
open Divm_compiler
module Obs = Divm_obs.Obs

let m_batches = Obs.Counter.make "divm_exec_batches_total"

type t = {
  prog : Prog.t;
  store : (string, Gmr.t) Hashtbl.t;
}

let create (prog : Prog.t) =
  let store = Hashtbl.create 32 in
  List.iter
    (fun (m : Prog.map_decl) ->
      Hashtbl.replace store m.mname (Gmr.create ()))
    prog.maps;
  { prog; store }

let prog t = t.prog

let map_contents t name =
  match Hashtbl.find_opt t.store name with
  | Some g -> g
  | None -> invalid_arg ("Exec.map_contents: unknown map " ^ name)

let result t qname =
  match List.assoc_opt qname t.prog.queries with
  | Some m -> map_contents t m
  | None -> invalid_arg ("Exec.result: unknown query " ^ qname)

(* Evaluate [rhs] and re-key the result in [target_vars] order (the
   interpreter returns tuples in inferred-schema order). *)
let eval_rhs source (s : Prog.stmt) =
  let sch, g = Divm_eval.Interp.eval_closed source s.rhs in
  if Schema.equal_as_sets sch s.target_vars && sch = s.target_vars then g
  else begin
    let pos = Schema.positions s.target_vars sch in
    let out = Gmr.create ~size:(Gmr.cardinal g) () in
    Gmr.iter (fun tup m -> Gmr.add out (Vtuple.project tup pos) m) g;
    out
  end

(* Evaluate a map definition over base tables, keyed in declaration order. *)
let eval_definition tables (m : Prog.map_decl) =
  let src = Divm_eval.Interp.source_of_rels tables in
  let sch, g = Divm_eval.Interp.eval_closed src m.definition in
  if sch = m.mschema then g
  else begin
    let pos = Schema.positions m.mschema sch in
    let out = Gmr.create ~size:(Gmr.cardinal g) () in
    Gmr.iter (fun tup mm -> Gmr.add out (Vtuple.project tup pos) mm) g;
    out
  end

let load t tables =
  let tables =
    tables
    @ List.filter_map
        (fun (r, _) ->
          if List.mem_assoc r tables then None else Some (r, Gmr.create ()))
        t.prog.streams
  in
  List.iter
    (fun (m : Prog.map_decl) ->
      match m.mkind with
      | Prog.Transient -> ()
      | _ -> Hashtbl.replace t.store m.mname (eval_definition tables m))
    t.prog.maps

let apply_batch t ~rel batch =
  let tr = Prog.find_trigger t.prog rel in
  let source =
    {
      Divm_eval.Interp.rel =
        (fun n -> invalid_arg ("Exec: statement references base relation " ^ n));
      delta =
        (fun n -> if String.equal n rel then batch else raise Not_found);
      map =
        (fun n ->
          match Hashtbl.find_opt t.store n with
          | Some g -> g
          | None -> raise Not_found);
    }
  in
  Obs.Counter.incr m_batches;
  Obs.span ("exec:trigger:" ^ rel) (fun () ->
      List.iter
        (fun (s : Prog.stmt) ->
          Obs.span ("exec:stmt:" ^ s.target) (fun () ->
              let v = eval_rhs source s in
              match s.op with
              | Prog.Assign -> Hashtbl.replace t.store s.target v
              | Prog.Add_to ->
                  let g = map_contents t s.target in
                  Gmr.union_into g v))
        tr.stmts)
