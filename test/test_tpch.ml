open Divm_storage
open Divm_compiler
open Divm_runtime
open Divm_tpch

let cfg = { Gen.scale = 0.12; seed = 7 }
let batches = lazy (Gen.stream cfg ~batch_size:50)
let full_tables = lazy (Gen.tables cfg)

let oracle qdef =
  let src = Divm_eval.Interp.source_of_rels (Lazy.force full_tables) in
  snd (Divm_eval.Interp.eval_closed src qdef)

(* Run one query's maintenance over the full stream with the interpreted
   executor and the compiled runtime; both must match the from-scratch
   evaluation of the final database. *)
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
        Alcotest.failf "%s (interpreted) diverged on %s: %d vs %d tuples@.%a@.vs %a"
          q.qname mname (Gmr.cardinal got) (Gmr.cardinal expect) Gmr.pp got
          Gmr.pp expect;
      let got_rt = Runtime.result rt mname in
      if not (Gmr.equal ~eps:2e-4 expect got_rt) then
        Alcotest.failf "%s (compiled) diverged on %s: %d vs %d tuples" q.qname
          mname (Gmr.cardinal got_rt) (Gmr.cardinal expect))
    q.maps

let test_gen_sanity () =
  let tables = Lazy.force full_tables in
  let card n = Gmr.cardinal (List.assoc n tables) in
  Alcotest.(check int) "regions" 5 (card "region");
  Alcotest.(check int) "nations" 25 (card "nation");
  Alcotest.(check int) "orders" 180 (card "orders");
  Alcotest.(check bool) "lineitems ~4x orders" true (card "lineitem" > 100);
  (* stream covers exactly the tables *)
  let sums = Hashtbl.create 8 in
  List.iter
    (fun (n, b) ->
      Hashtbl.replace sums n
        ((match Hashtbl.find_opt sums n with Some x -> x | None -> 0)
        + Gmr.cardinal b))
    (Lazy.force batches);
  List.iter
    (fun (n, g) ->
      Alcotest.(check int)
        ("stream covers " ^ n)
        (Gmr.cardinal g)
        (match Hashtbl.find_opt sums n with Some x -> x | None -> 0))
    tables

let test_nonempty_results () =
  (* Guard against vacuous tests: these queries must produce output on the
     generated data. *)
  List.iter
    (fun qn ->
      let q = Queries.find qn in
      let mname, qdef = List.hd q.maps in
      let g = oracle qdef in
      Alcotest.(check bool) (qn ^ "/" ^ mname ^ " nonempty") true
        (not (Gmr.is_empty g)))
    [ "Q1"; "Q3"; "Q4"; "Q6"; "Q9"; "Q10"; "Q12"; "Q13"; "Q18" ]

(* Distributed spot checks: the cluster simulation of representative TPC-H
   queries matches local execution under the §6.2 partitioning heuristic,
   at levels 3 (batches dealt round-robin) and 4 (dealt on a key), on 2,
   3 and 4 workers, and every map lives where its location puts it after
   every batch. *)
let check_query_cluster qname () =
  let q = Queries.find qname in
  let prog = Compile.compile ~streams:Schema.streams q.maps in
  let catalog = Divm_dist.Loc.heuristic ~keys:Schema.partition_keys prog in
  let ex = Exec.create prog in
  let clusters =
    List.concat_map
      (fun level ->
        let dp =
          Divm_dist.Distribute.compile
            ~options:{ Divm_dist.Distribute.default_options with level }
            ~catalog prog
        in
        List.map
          (fun workers ->
            ( Printf.sprintf "L%d/W%d" level workers,
              Divm_cluster.Cluster.create
                ~config:(Divm_cluster.Cluster.config ~workers ())
                dp ))
          [ 2; 3; 4 ])
      [ 3; 4 ]
  in
  List.iter
    (fun (rel, b) ->
      Exec.apply_batch ex ~rel b;
      List.iter
        (fun (_, c) ->
          ignore (Divm_cluster.Cluster.apply_batch c ~rel b);
          Divm_cluster.Cluster.check_placement c)
        clusters)
    (Lazy.force batches);
  List.iter
    (fun (cname, c) ->
      List.iter
        (fun (mname, _) ->
          let expect = Exec.result ex mname in
          let got = Divm_cluster.Cluster.result c mname in
          if not (Gmr.equal ~eps:2e-4 expect got) then
            Alcotest.failf "%s cluster %s diverged on %s: %d vs %d tuples"
              qname cname mname (Gmr.cardinal got) (Gmr.cardinal expect))
        q.maps)
    clusters

(* The comparison engines of Fig 8 / Table 1 must themselves be correct:
   classical IVM and re-evaluation match the oracle on real queries. *)
let check_query_baselines qname () =
  let q = Queries.find qname in
  let engines =
    List.map
      (fun e -> (e, Divm_baseline.Baseline.create e ~streams:Schema.streams q.maps))
      [ Divm_baseline.Baseline.Reeval; Divm_baseline.Baseline.Classical ]
  in
  List.iter
    (fun (rel, b) ->
      List.iter
        (fun (_, e) -> ignore (Divm_baseline.Baseline.apply_batch e ~rel b))
        engines)
    (Lazy.force batches);
  List.iter
    (fun (mname, qdef) ->
      let expect = oracle qdef in
      List.iter
        (fun (kind, e) ->
          let got = Divm_baseline.Baseline.result e mname in
          if not (Gmr.equal ~eps:2e-4 expect got) then
            Alcotest.failf "%s (%s) diverged on %s: %d vs %d tuples" qname
              (Divm_baseline.Baseline.engine_name kind)
              mname (Gmr.cardinal got) (Gmr.cardinal expect))
        engines)
    q.maps

let suites =
  [
    ( "tpch",
      Alcotest.test_case "generator sanity" `Quick test_gen_sanity
      :: Alcotest.test_case "key results nonempty" `Quick test_nonempty_results
      :: (List.map
            (fun (q : Queries.t) ->
              Alcotest.test_case
                (Printf.sprintf "%s incremental = from-scratch" q.qname)
                `Slow (check_query q))
            Queries.all
         @ List.map
             (fun qn ->
               Alcotest.test_case
                 (Printf.sprintf "%s cluster = local" qn)
                 `Slow (check_query_cluster qn))
             [ "Q1"; "Q3"; "Q6"; "Q12"; "Q14"; "Q17" ]
         @ List.map
             (fun qn ->
               Alcotest.test_case
                 (Printf.sprintf "%s baselines = from-scratch" qn)
                 `Slow (check_query_baselines qn))
             [ "Q1"; "Q3"; "Q6"; "Q13"; "Q17"; "Q22" ]) );
  ]
