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
   every batch, at levels 0, 3 and 4 and several worker counts, and every
   map lives where its location puts it ([Cluster.check_placement]). *)
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
          [ 1; 2; 3; 5 ])
      [ 0; 3; 4 ]
  in
  List.iteri
    (fun bi (rel_name, batch) ->
      Exec.apply_batch local ~rel:rel_name batch;
      List.iter
        (fun (_cname, c) -> ignore (Cluster.apply_batch c ~rel:rel_name batch);
          Cluster.check_placement c)
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

(* A distributed program as text, up to the names of the maps the planner
   created ([created n]): those are numbered #1, #2, ... in first-use
   order, each statement's reads before its write. Each trigger's deal
   column (when its batches are dealt on a key), every block's mode,
   every statement with its full right-hand side, every transfer's kind,
   key and source, then each declaration in order (a created map with its
   schema and location, and every other map's location when it is not
   the catalog's) and their count. *)
let canonical ~created ?catalog (dp : Dprog.t) =
  let names = Hashtbl.create 64 in
  let name n =
    if not (created n) then n
    else
      match Hashtbl.find_opt names n with
      | Some c -> c
      | None ->
          let c = Printf.sprintf "#%d" (Hashtbl.length names + 1) in
          Hashtbl.replace names n c;
          c
  in
  let rec rename e =
    match e with
    | Map m -> Map { m with mname = name m.mname }
    | Lift (v, q) -> Lift (v, rename q)
    | Exists q -> Exists (rename q)
    | Sum (gb, q) -> Sum (gb, rename q)
    | Prod es -> Prod (List.map rename es)
    | Add es -> Add (List.map rename es)
    | e -> e
  in
  let schema s =
    String.concat ","
      (List.map
         (fun (v : Schema.var) -> v.name ^ ":" ^ Value.ty_to_string v.ty)
         s)
  in
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  List.iter
    (fun (tr : Dprog.dtrigger) ->
      (match tr.deal with
      | Some c -> line "on %s dealt on %d" tr.drelation c
      | None -> line "on %s" tr.drelation);
      List.iter
        (fun (bl : Dprog.block) ->
          line " %s block"
            (match bl.bmode with Dprog.MLocal -> "local" | MDist -> "dist");
          List.iter
            (function
              | Dprog.Compute s ->
                  let rhs = Calc.to_string (rename s.rhs) in
                  let target = name s.target in
                  line "  %s[%s] %s %s" target (schema s.target_vars)
                    (match s.op with Prog.Add_to -> "+=" | Assign -> ":=")
                    rhs
              | Dprog.Transfer t ->
                  let source = name t.source in
                  let tname = name t.tname in
                  line "  %s := %s<%s> %s" tname
                    (match t.tkind with
                    | Dprog.Scatter -> "scatter"
                    | Repart -> "repart"
                    | Gather -> "gather")
                    (String.concat ","
                       (Array.to_list (Array.map string_of_int t.key)))
                    source)
            bl.bstmts)
        tr.blocks)
    dp.dtriggers;
  List.iter
    (fun (m : Prog.map_decl) ->
      if created m.mname then
        let n = name m.mname in
        line "map %s[%s] %s" n (schema m.mschema)
          (Format.asprintf "%a" Loc.pp (Loc.find dp.locs m.mname))
      else
        let loc = Loc.find dp.locs m.mname in
        match catalog with
        | Some cat when not (Loc.equal loc (Loc.find cat m.mname)) ->
            line "map %s %s" m.mname (Format.asprintf "%a" Loc.pp loc)
        | _ -> line "map %s" m.mname)
    dp.base.maps;
  line "declared %d" (List.length dp.base.maps);
  Buffer.contents b

(* One digest per query of [canonical] over its programs at levels 0–3:
   the plans, pinned up to the names of created maps. A change that alters
   a plan on purpose (a new search, a new cost) re-pins them from the
   failure message, which names each changed query and its new digest. *)
let pinned_plans =
  [
    ("Q1", "efd7eb9dd29dbed6137256831f30d84e");
    ("Q2", "fce4dad1c4db2f737ebc96c5da8bb237");
    ("Q3", "7c9644e8ae8258f6301bb837a6cac2fc");
    ("Q4", "f0973b19f51973d1ad4752e1ea19e80c");
    ("Q5", "dcee37d2bc0bd5587b464156386def6a");
    ("Q6", "b85ad3fd4b3e42ba23ee00ba531a931b");
    ("Q7", "5d86f49a63c99928c6357336ca09bb52");
    ("Q8", "4559e9ed0be14a37dfeb207d042a23cb");
    ("Q9", "97cd114054133f9c84b59edc7f5a3f2e");
    ("Q10", "38b9990e84fb8a32078b1d14cc0a0e9b");
    ("Q11", "b57b7778f352da429176455dee5b3802");
    ("Q12", "38d036abd450da31637a296a6d519eab");
    ("Q13", "f409e8403f09e9988b5ebd592d3e0872");
    ("Q14", "c1386d3c942845a591414c973eb1db1a");
    ("Q15", "3f9f28218506d6c6c3d67b91319c46d8");
    ("Q16", "53970412678e6376e288466401847f13");
    ("Q17", "5fa888ed8d930407aaa09bb1c204972a");
    ("Q18", "3b2c13c58182c40f37867f96d84a8264");
    ("Q19", "b4f9d80863929da9c125391d0df337bd");
    ("Q20", "0d7d5877f476b2bc6c205d8324ddc782");
    ("Q21", "8947fd8a14ae78d56e77ec18a18cf9d6");
    ("Q22", "84516d235b2b59a86a4e446ef98fc38b");
    ("DS3", "4b6a8ee700aeeec73aae67489959801f");
    ("DS7", "b721ca5eb8f5a01df3e7104d38265a9f");
    ("DS19", "14092b5b78389b6c47ef8134b6583279");
    ("DS27", "59bfe3e0c4c2ee85767a71917ec34e6d");
    ("DS34", "bd8e238d6c2ed4af18aca33543032908");
    ("DS42", "0ef739bf11bfa510cff41642d5276f34");
    ("DS43", "d4611b11fede9aa931ed3110f5768412");
    ("DS46", "77d831325b6c625ec0a891dbea270416");
    ("DS52", "1ac10f97478cc7e4ce7bf14eb920be08");
    ("DS55", "06ec55dbd6074291bdb8ea01a4783c3b");
    ("DS68", "2e167c102f4fb861f97c8e11e51e7fc3");
    ("DS73", "ee2e61f003a48969ab52a0352f2ca3ed");
    ("DS79", "9f9df83549470eda3e748461608ab13a");
  ]

(* Level 4's plans, pinned as [pinned_plans] pins levels 0–3: one digest
   per query of [canonical] over its level-4 program, which also names
   each trigger's deal column and the pre-aggregations that moved. *)
let pinned_plans_l4 =
  [
    ("Q1", "c9bab3b0a31eaf1a39bf6a7cd1ed9d66");
    ("Q2", "6ee59bf04297a7c986b120c08dc2cbed");
    ("Q3", "bdfaecefe9e005956e4edfd15c9d2aa8");
    ("Q4", "b5dce9d2349d51921d4fc8eaecf5fb54");
    ("Q5", "b9a401cfcd6eaaba1b6e3f349ae0657f");
    ("Q6", "f7e92224e255232bed15d59d5ffe2d61");
    ("Q7", "097f3c420efa349da541eb7096a2f8b8");
    ("Q8", "1f406181f64a9bb1b74cc083cfc1f1b4");
    ("Q9", "a9b7d530b6c5ec841478e667b2cd351e");
    ("Q10", "7da5d559c3508e70f1ad249b2d404e09");
    ("Q11", "9b2ddbce5852c8a81bca088c9c633507");
    ("Q12", "a4d9f4a85f855742ec78face79dd583d");
    ("Q13", "fd6ce5ef4feba6b42b2cabda2e540fd5");
    ("Q14", "eff6bc8c780f3a5d6e2e53332d5a4246");
    ("Q15", "b75d692c06b2e15cee9db144420d5f08");
    ("Q16", "870c6ad0e77b20722344ebace6d6bc99");
    ("Q17", "898d6127a974fcaffeac1de23461aff5");
    ("Q18", "d9f9b832bd93b781d7fb150e73a6faa0");
    ("Q19", "74f3aa64ef8191e74c97905de19bc4a6");
    ("Q20", "8de756e9f9bac231c1918037655c5316");
    ("Q21", "302ddbd1cbc8d9345c99f14a7bda337d");
    ("Q22", "4f43c298ec1746358b6d3f583014a260");
    ("DS3", "e08c002a973d8909cdca3142f386cbaf");
    ("DS7", "a21764d56f77c91f4fab0c8689abe1a0");
    ("DS19", "b073baf71ca57ff89fa39e8230f159ae");
    ("DS27", "0834da833ac2ed9fb52d57451b3ca937");
    ("DS34", "02b81868d5ac212c54d02c5ca5fbdfed");
    ("DS42", "4322ab0a79d696f0cfd8cd0d053f6200");
    ("DS43", "eaac008a1b4faee198707d5bdc10a142");
    ("DS46", "b37648cc95811f340924436267add9d8");
    ("DS52", "b0e4aa7a9c5a40df96366aeef10bf516");
    ("DS55", "ba553b4079d393abb2867eb36950c591");
    ("DS68", "ebbcd8e1835aab8073a0e361d3f1a7a1");
    ("DS73", "d0557cca46143da039503af87712a4f9");
    ("DS79", "b4911fea45cf9c69a49898850178c31a");
  ]

(* A distributed program declares the maps its statements and transfers
   name, and no other map the planner created: a candidate the planner
   discards leaves no declaration, location or pool behind. Over every
   TPC-H and TPC-DS query at every level, each named map is declared
   once, each created one has one location, and each declared map's
   definition names only declared maps. Compiling a program twice gives
   equal programs, and each query's plans equal [pinned_plans] (levels
   0–3) and [pinned_plans_l4] up to the names of created maps. The
   level-3 and level-4 totals of declarations are pinned; they may only
   go down. *)
let test_declares_named_maps () =
  let module Workload = Divm_workload.Workload in
  let count h n = Option.value ~default:0 (Hashtbl.find_opt h n) in
  let counts names =
    let h = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace h n (1 + count h n)) names;
    h
  in
  let decl_names = List.map (fun (m : Prog.map_decl) -> m.mname) in
  let declared_l3 = ref 0 and declared_l4 = ref 0 in
  let changed_plans = ref [] in
  List.iter
    (fun qn ->
      let w = Workload.find qn in
      let prog = Workload.compile w in
      let input = counts (decl_names prog.maps) in
      let plans = Buffer.create 4096 and plans_l4 = Buffer.create 4096 in
      for level = 0 to 4 do
        let dp = Workload.distribute ~level w prog in
        let created n = count input n = 0 in
        if level < 4 then Buffer.add_string plans (canonical ~created dp)
        else
          Buffer.add_string plans_l4
            (canonical ~created
               ~catalog:(Loc.heuristic ~keys:w.partition_keys prog)
               dp);
        let named =
          counts
            (List.concat_map
               (fun (tr : Dprog.dtrigger) ->
                 List.concat_map
                   (fun (b : Dprog.block) ->
                     List.concat_map
                       (fun d -> Dprog.writes d :: Dprog.reads d)
                       b.bstmts)
                   tr.blocks)
               dp.dtriggers)
        in
        let declared = counts (decl_names dp.base.maps) in
        let located = counts (List.map fst dp.locs) in
        let fail fmt =
          Printf.ksprintf
            (fun msg ->
              Alcotest.failf "%s at level %d (%d maps declared, %d named): %s"
                qn level (List.length dp.base.maps) (Hashtbl.length named) msg)
            fmt
        in
        Hashtbl.iter
          (fun n _ ->
            if count input n = 0 && count named n = 0 then
              fail "%s is declared but no statement or transfer names it" n)
          declared;
        Hashtbl.iter
          (fun n _ ->
            if count declared n <> 1 then
              fail "%s is named and declared %d times" n (count declared n);
            if count input n = 0 && count located n <> 1 then
              fail "%s was created and has %d locations" n (count located n))
          named;
        List.iter
          (fun (m : Prog.map_decl) ->
            List.iter
              (fun r ->
                if count declared r = 0 then
                  fail "%s's definition names %s, which is not declared"
                    m.mname r)
              (Calc.map_refs m.definition))
          dp.base.maps;
        if Workload.distribute ~level w prog <> dp then
          fail "compiling the program again gives a different program";
        if level = 3 then
          declared_l3 := !declared_l3 + List.length dp.base.maps;
        if level = 4 then
          declared_l4 := !declared_l4 + List.length dp.base.maps
      done;
      List.iter
        (fun (what, pins, buf) ->
          let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
          if List.assoc_opt qn pins <> Some digest then
            changed_plans :=
              Printf.sprintf "%s %s (%s)" qn what digest :: !changed_plans)
        [ ("levels 0-3", pinned_plans, plans); ("level 4", pinned_plans_l4, plans_l4) ])
    Tpch_suite.all_queries;
  if !changed_plans <> [] then
    Alcotest.failf "plans differ from the pinned ones up to renaming: %s"
      (String.concat ", " (List.rev !changed_plans));
  List.iter
    (fun (level, declared, pinned) ->
      if declared <> pinned then
        Alcotest.failf "the programs declare %d maps at level %d, pinned at %d%s"
          declared level pinned
          (if declared < pinned then ": the count fell, lower the pin to it"
           else ""))
    [ (3, !declared_l3, 2653); (4, !declared_l4, 2474) ]

(* Level 4 deals each batch on a key only where that makes fewer round
   trips per batch (or as many and fewer transfers): over the 35
   queries, no trigger makes more round trips per batch than at level 3,
   and their total is pinned; it may only go down. *)
let test_level4_round_trips () =
  let module Workload = Divm_workload.Workload in
  let round_trips (dp : Dprog.t) (tr : Dprog.dtrigger) =
    let steps = Dprog.steps tr in
    Dprog.round_trips dp.locs steps (Dprog.calls dp.locs steps)
  in
  let total = ref 0 and total_l3 = ref 0 in
  List.iter
    (fun qn ->
      let w = Workload.find qn in
      let prog = Workload.compile w in
      let dp3 = Workload.distribute ~level:3 w prog in
      let dp4 = Workload.distribute ~level:4 w prog in
      List.iter2
        (fun (t3 : Dprog.dtrigger) (t4 : Dprog.dtrigger) ->
          let r3 = round_trips dp3 t3 and r4 = round_trips dp4 t4 in
          if r4 > r3 then
            Alcotest.failf "%s %s: %d round trips per batch at level 4, %d at 3"
              qn t4.drelation r4 r3;
          if t4.deal = None && r4 <> r3 then
            Alcotest.failf "%s %s: dealt round-robin, yet %d round trips, not %d"
              qn t4.drelation r4 r3;
          total_l3 := !total_l3 + r3;
          total := !total + r4)
        dp3.dtriggers dp4.dtriggers)
    Tpch_suite.all_queries;
  Alcotest.(check int) "level-3 round trips over the 35 programs" 856 !total_l3;
  let pinned = 689 in
  if !total <> pinned then
    Alcotest.failf "level 4: %d round trips per batch over the 35 programs, \
                    pinned at %d%s"
      !total pinned
      (if !total < pinned then ": the count fell, lower the pin to it" else "")

(* A cluster without workers would run no stage and report an empty
   view: creating one is an error, as it is for the process engine. *)
let test_cluster_rejects_no_workers () =
  let dp = compile_dist ~level:3 ~keys:[ "B"; "C" ] [ ("Q", q_running) ] in
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "%d workers" w)
        (Invalid_argument "Cluster.create: workers must be >= 1")
        (fun () ->
          ignore (Cluster.create ~config:(Cluster.config ~workers:w ()) dp)))
    [ 0; -1 ]

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
        Alcotest.test_case "cluster rejects fewer than one worker" `Quick
          test_cluster_rejects_no_workers;
        Alcotest.test_case "a distributed program declares the maps it names"
          `Quick test_declares_named_maps;
        Alcotest.test_case "level 4 makes no trigger take more round trips"
          `Quick test_level4_round_trips;
      ] );
  ]
