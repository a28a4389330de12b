open Divm_ring
open Divm_storage
open Divm_calc
open Divm_calc.Calc
open Divm_compiler
open Divm_dist
open Divm_runtime
open Divm_cluster

let i x = Value.Int x
let va = Schema.var "A"
let vb = Schema.var "B"
let vc = Schema.var "C"
let vd = Schema.var "D"
let vx = Schema.var "X"

let streams_rst = [ ("R", [ va; vb ]); ("S", [ vb; vc ]); ("T", [ vc; vd ]) ]

let q_running =
  sum [ vb ]
    (prod [ rel "R" [ va; vb ]; rel "S" [ vb; vc ]; rel "T" [ vc; vd ] ])

let mk2 l = Gmr.of_list (List.map (fun (a, b, m) -> ([| i a; i b |], m)) l)

let batches_running =
  [
    ("R", mk2 [ (1, 10, 1.); (2, 10, 1.); (4, 30, 1.) ]);
    ("S", mk2 [ (10, 100, 1.); (20, 200, 2.); (30, 100, 1.) ]);
    ("T", mk2 [ (100, 7, 1.); (200, 8, 1.) ]);
    ("R", mk2 [ (3, 20, 2.); (1, 10, -1.) ]);
    ("S", mk2 [ (20, 100, 1.); (10, 100, -1.) ]);
    ("T", mk2 [ (100, 9, 3.); (200, 8, -1.) ]);
  ]

let compile_dist ?(level = 3) ?(delta_at = `Workers) ~keys queries =
  let prog = Compile.compile ~streams:streams_rst queries in
  let catalog = Loc.heuristic ~keys prog in
  Distribute.compile
    ~options:{ Distribute.level; delta_at }
    ~catalog prog

(* Equivalence: the cluster simulation matches the local runtime after
   every batch, for all optimization levels and several worker counts. *)
let run_cluster_equiv ?(msg = "dist") ~keys ~queries batches =
  let prog = Compile.compile ~streams:streams_rst queries in
  let local = Exec.create prog in
  let clusters =
    List.concat_map
      (fun level ->
        List.concat_map
          (fun w ->
            List.map
              (fun delta_at ->
                let dp = compile_dist ~level ~delta_at ~keys queries in
                ( Printf.sprintf "L%d/W%d/%s" level w
                    (match delta_at with `Workers -> "wk" | `Driver -> "dr"),
                  Cluster.create ~config:(Cluster.config ~workers:w ()) dp ))
              [ `Workers; `Driver ])
          [ 1; 3; 5 ])
      [ 0; 3 ]
  in
  List.iteri
    (fun bi (rel_name, batch) ->
      Exec.apply_batch local ~rel:rel_name batch;
      List.iter
        (fun (_cname, c) -> ignore (Cluster.apply_batch c ~rel:rel_name batch);
          Cluster.check_replicas c)
        clusters;
      List.iter
        (fun (qname, _) ->
          let expect = Exec.result local qname in
          List.iter
            (fun (cname, c) ->
              let got = Cluster.result c qname in
              if not (Gmr.equal expect got) then
                Alcotest.failf "%s: cluster %s diverged on %s at batch %d:@.%a@.vs %a"
                  msg cname qname bi Gmr.pp got Gmr.pp expect)
            clusters)
        queries)
    batches

let test_cluster_running () =
  run_cluster_equiv ~msg:"running" ~keys:[ "B"; "C" ]
    ~queries:[ ("Q", q_running) ]
    batches_running

let test_cluster_scalar () =
  (* Q6 shape: single aggregate, driver-resident result. *)
  let q = sum [] (prod [ rel "R" [ va; vb ]; value (Vexpr.var va) ]) in
  run_cluster_equiv ~msg:"scalar" ~keys:[ "B" ]
    ~queries:[ ("Q6ish", q) ]
    [
      ("R", mk2 [ (1, 10, 1.); (2, 20, 3.) ]);
      ("R", mk2 [ (5, 10, 2.); (1, 10, -1.) ]);
    ]

let test_cluster_count () =
  (* COUNT( * ): the workers' delta pre-aggregation reads none of the
     batch's columns, yet still needs its rows and multiplicities. *)
  let q = sum [] (rel "R" [ va; vb ]) in
  run_cluster_equiv ~msg:"count" ~keys:[ "B" ]
    ~queries:[ ("Qcount", q) ]
    [
      ("R", mk2 [ (1, 10, 1.); (2, 20, 3.); (3, 30, 1.) ]);
      ("R", mk2 [ (5, 10, 2.); (1, 10, -1.) ]);
    ]

let test_cluster_nested () =
  (* Q17 shape: correlated nested aggregate, co-partitioned on B. *)
  let q =
    sum []
      (prod
         [
           rel "R" [ va; vb ];
           lift vx (sum [ vb ] (rel "S" [ vb; vc ]));
           cmp_vars Lt va vx;
         ])
  in
  run_cluster_equiv ~msg:"nested" ~keys:[ "B" ]
    ~queries:[ ("QN", q) ]
    [
      ("R", mk2 [ (0, 10, 1.); (1, 20, 1.) ]);
      ("S", mk2 [ (10, 1, 1.); (20, 2, 2.) ]);
      ("S", mk2 [ (10, 1, -1.); (20, 9, 1.) ]);
      ("R", mk2 [ (0, 10, -1.); (2, 20, 5.) ]);
    ]

let test_block_fusion_reduces () =
  let dp0 = compile_dist ~level:1 ~keys:[ "B"; "C" ] [ ("Q", q_running) ] in
  let dp2 = compile_dist ~level:2 ~keys:[ "B"; "C" ] [ ("Q", q_running) ] in
  List.iter
    (fun (t0 : Dprog.dtrigger) ->
      let t2 = Dprog.find_trigger dp2 t0.drelation in
      let n0 = List.length t0.blocks and n2 = List.length t2.blocks in
      Alcotest.(check bool)
        (Printf.sprintf "fusion reduces blocks for %s (%d -> %d)" t0.drelation
           n0 n2)
        true (n2 <= n0))
    dp0.dtriggers;
  (* and at least one trigger actually fuses something *)
  let total d =
    List.fold_left (fun a (t : Dprog.dtrigger) -> a + List.length t.blocks) 0
      d.Dprog.dtriggers
  in
  Alcotest.(check bool) "some fusion happened" true (total dp2 < total dp0)

let test_fuse_algorithm_direct () =
  (* the Appendix C.3 example structure: alternating modes fuse into at
     most one block per mode when statements commute *)
  let mk_stmt t reads =
    Dprog.Compute
      {
        Prog.target = t;
        target_vars = [];
        op = Prog.Add_to;
        rhs = add (List.map (fun r -> map_ r []) reads);
      }
  in
  let locs = [ ("L1", Loc.Local); ("L2", Loc.Local); ("D1", Loc.Dist [| 0 |]); ("D2", Loc.Dist [| 0 |]) ] in
  let stmts =
    [ mk_stmt "L1" []; mk_stmt "D1" [ "L1" ]; mk_stmt "L2" []; mk_stmt "D2" [ "L2" ] ]
  in
  let blocks = Dprog.promote locs stmts in
  Alcotest.(check int) "before" 4 (List.length blocks);
  let fused = Dprog.fuse blocks in
  (* L2 commutes with D1, so: [L1; L2] [D1; D2] *)
  Alcotest.(check int) "after" 2 (List.length fused);
  match fused with
  | [ b1; b2 ] ->
      Alcotest.(check bool) "local first" true (b1.Dprog.bmode = Dprog.MLocal);
      Alcotest.(check int) "two local stmts" 2 (List.length b1.bstmts);
      Alcotest.(check bool) "dist second" true (b2.Dprog.bmode = Dprog.MDist)
  | _ -> Alcotest.fail "unexpected fusion shape"

let test_fuse_respects_dependencies () =
  let mk_stmt t reads loc_t =
    ignore loc_t;
    Dprog.Compute
      {
        Prog.target = t;
        target_vars = [];
        op = Prog.Add_to;
        rhs = add (List.map (fun r -> map_ r []) reads);
      }
  in
  let locs = [ ("A", Loc.Local); ("B", Loc.Dist [| 0 |]); ("C", Loc.Local) ] in
  (* C reads B, B reads A: no reordering of C before B allowed *)
  let stmts =
    [ mk_stmt "A" [] `L; mk_stmt "B" [ "A" ] `D; mk_stmt "C" [ "B" ] `L ]
  in
  let fused = Dprog.fuse (Dprog.promote locs stmts) in
  Alcotest.(check int) "cannot fuse across dependency" 3 (List.length fused)

let test_jobs_stages () =
  let dp = compile_dist ~level:3 ~keys:[ "B"; "C" ] [ ("Q", q_running) ] in
  List.iter
    (fun (tr : Dprog.dtrigger) ->
      let jobs, stages = Dprog.jobs_and_stages dp tr.drelation in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs %d <= stages %d, both small" tr.drelation
           jobs stages)
        true
        (jobs >= 1 && jobs <= stages && stages <= 6))
    dp.dtriggers

let test_optimization_reduces_shuffle () =
  (* O0 repartitions big views; O3 ships pre-aggregated deltas: on the same
     stream, O3 must shuffle no more bytes than O0. *)
  let run level =
    let dp = compile_dist ~level ~keys:[ "B"; "C" ] [ ("Q", q_running) ] in
    let c = Cluster.create ~config:(Cluster.config ~workers:4 ()) dp in
    List.fold_left
      (fun acc (r, b) ->
        let m = Cluster.apply_batch c ~rel:r b in
        acc + m.Cluster.bytes_shuffled)
      0 batches_running
  in
  let b0 = run 0 and b3 = run 3 in
  Alcotest.(check bool)
    (Printf.sprintf "O3 shuffles <= O0 (%d vs %d)" b3 b0)
    true (b3 <= b0)

let test_plan_quality_no_view_gather () =
  (* At full optimization the planner must ship batch-derived data, never
     round-trip whole views through the driver: no Gather whose source is a
     non-transient map (scalar query results excepted — they are tiny). *)
  let q = Divm_tpch.Queries.find "Q3" in
  let prog =
    Divm_compiler.Compile.compile ~streams:Divm_tpch.Schema.streams q.maps
  in
  let catalog = Loc.heuristic ~keys:Divm_tpch.Schema.partition_keys prog in
  let dp = Distribute.compile ~catalog prog in
  let transient name =
    match List.find_opt (fun m -> m.Prog.mname = name) dp.Dprog.base.maps with
    | Some { Prog.mkind = Prog.Transient; _ } -> true
    | _ -> false
  in
  List.iter
    (fun (tr : Dprog.dtrigger) ->
      List.iter
        (fun b ->
          List.iter
            (fun d ->
              match d with
              | Dprog.Transfer { tkind = Dprog.Gather; source; _ } ->
                  Alcotest.(check bool)
                    (Printf.sprintf "gather of %s is batch-derived" source)
                    true (transient source)
              | _ -> ())
            b.Dprog.bstmts)
        tr.blocks)
    dp.dtriggers;
  (* the orders trigger splits into two distributed stages (the partial
     join with customer, then the okey-side joins), like Figure 5 *)
  let _, stages = Dprog.jobs_and_stages dp "orders" in
  Alcotest.(check bool)
    (Printf.sprintf "orders trigger multi-stage (%d)" stages)
    true (stages >= 2)

let suites =
  [
    ( "dist",
      [
        Alcotest.test_case "cluster = local (running)" `Quick
          test_cluster_running;
        Alcotest.test_case "cluster = local (scalar agg)" `Quick
          test_cluster_scalar;
        Alcotest.test_case "cluster = local (count, no column read)" `Quick
          test_cluster_count;
        Alcotest.test_case "cluster = local (nested)" `Quick
          test_cluster_nested;
        Alcotest.test_case "block fusion reduces blocks" `Quick
          test_block_fusion_reduces;
        Alcotest.test_case "fusion algorithm (C.3)" `Quick
          test_fuse_algorithm_direct;
        Alcotest.test_case "fusion respects dependencies" `Quick
          test_fuse_respects_dependencies;
        Alcotest.test_case "jobs and stages" `Quick test_jobs_stages;
        Alcotest.test_case "optimization reduces shuffling" `Quick
          test_optimization_reduces_shuffle;
        Alcotest.test_case "plan quality: no whole-view gathers" `Quick
          test_plan_quality_no_view_gather;
      ] );
  ]
