open Divm_storage
open Divm_compiler
open Divm_runtime

type engine = Reeval | Classical | Rivm_interp | Rivm

let engine_name = function
  | Reeval -> "re-eval"
  | Classical -> "classical-ivm"
  | Rivm_interp -> "rivm-interpreted"
  | Rivm -> "rivm-specialized"

type t = Interp of Exec.t | Compiled of Runtime.t

let create engine ~streams queries =
  match engine with
  | Reeval -> Interp (Exec.create (Compile.compile_reeval ~streams queries))
  | Classical ->
      Interp (Exec.create (Compile.compile_classical ~streams queries))
  | Rivm_interp -> Interp (Exec.create (Compile.compile ~streams queries))
  | Rivm -> Compiled (Runtime.create (Compile.compile ~streams queries))

let load t tables =
  match t with
  | Interp ex -> Exec.load ex tables
  | Compiled rt ->
      List.iter (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b)) tables

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let apply_batch t ~rel batch =
  match t with
  | Interp ex -> timed (fun () -> Exec.apply_batch ex ~rel batch)
  | Compiled rt -> (Runtime.apply_batch rt ~rel batch).Runtime.wall

let apply_single t ~rel tup m =
  match t with
  | Compiled rt -> (Runtime.apply_single rt ~rel tup m).Runtime.wall
  | Interp ex ->
      timed (fun () ->
          Exec.apply_batch ex ~rel (Gmr.of_list [ (tup, m) ]))

let result t q =
  match t with
  | Interp ex -> Exec.result ex q
  | Compiled rt -> Runtime.result rt q
