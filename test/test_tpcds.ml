open Divm_storage
open Divm_compiler
open Divm_runtime
open Divm_tpcds

let cfg = { Gen.scale = 0.3; seed = 5 }
let batches = lazy (Gen.stream cfg ~batch_size:60)
let full_tables = lazy (Gen.tables cfg)

let oracle qdef =
  let src = Divm_eval.Interp.source_of_rels (Lazy.force full_tables) in
  snd (Divm_eval.Interp.eval_closed src qdef)

let check_query (q : Queries.t) () =
  let prog = Compile.compile ~streams:Schema.streams q.maps in
  let ex = Exec.create prog in
  let rt = Runtime.create prog in
  List.iter
    (fun (rel, b) ->
      Exec.apply_batch ex ~rel b;
      ignore (Runtime.apply_batch rt ~rel b))
    (Lazy.force batches);
  List.iter
    (fun (mname, qdef) ->
      let expect = oracle qdef in
      let got = Exec.result ex mname in
      if not (Gmr.equal ~eps:2e-4 expect got) then
        Alcotest.failf "%s (interpreted) diverged on %s: %d vs %d tuples"
          q.qname mname (Gmr.cardinal got) (Gmr.cardinal expect);
      let got_rt = Runtime.result rt mname in
      if not (Gmr.equal ~eps:2e-4 expect got_rt) then
        Alcotest.failf "%s (compiled) diverged on %s: %d vs %d tuples" q.qname
          mname (Gmr.cardinal got_rt) (Gmr.cardinal expect))
    q.maps

let test_nonempty () =
  List.iter
    (fun qn ->
      let q = Queries.find qn in
      let mname, qdef = List.hd q.maps in
      Alcotest.(check bool) (qn ^ "/" ^ mname ^ " nonempty") true
        (not (Gmr.is_empty (oracle qdef))))
    [ "DS3"; "DS7"; "DS19"; "DS27"; "DS42"; "DS43"; "DS52"; "DS79" ]

(* The CLIs build their stream with [Workload.stream], which must pick
   the TPC-DS generator for a TPC-DS query: the local engine accepts
   every batch (a TPC-H stream has no trigger for its relations). *)
let test_workload_stream () =
  let module Workload = Divm_workload.Workload in
  let module Engine = Divm_engine.Engine in
  List.iter
    (fun (q : Queries.t) ->
      let w = Workload.find q.qname in
      let eng = Engine.create ~config:(Engine.config ~domains:1 ()) w in
      List.iter
        (fun (rel, b) -> ignore (Engine.apply_batch eng ~rel b))
        (Workload.stream w ~scale:0.05 ~seed:42 ~batch_size:100))
    Queries.all

let suites =
  [
    ( "tpcds",
      Alcotest.test_case "key results nonempty" `Quick test_nonempty
      :: Alcotest.test_case "the workload stream feeds every query" `Quick
           test_workload_stream
      :: List.map
           (fun (q : Queries.t) ->
             Alcotest.test_case
               (Printf.sprintf "%s incremental = from-scratch" q.qname)
               `Slow (check_query q))
           Queries.all );
  ]
