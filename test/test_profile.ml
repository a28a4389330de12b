(* Profiling & EXPLAIN subsystem: static plans, per-statement attribution,
   and the reconciliation of slot sums against registry totals. *)

open Divm_ring
open Divm_storage
open Divm_calc.Calc
open Divm_compiler
open Divm_runtime
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Profile = Divm_profile.Profile
module Workload = Divm_workload.Workload

let i x = Value.Int x
let va = Schema.var "A"
let vb = Schema.var "B"
let vc = Schema.var "C"
let streams_rs = [ ("R", [ va; vb ]); ("S", [ vb; vc ]) ]
let q_join = sum [ vb ] (prod [ rel "R" [ va; vb ]; rel "S" [ vb; vc ] ])
let mk2 l = Gmr.of_list (List.map (fun (a, b, m) -> ([| i a; i b |], m)) l)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go k = k + n <= m && (String.sub s k n = affix || go (k + 1)) in
  n = 0 || go 0

let with_profiler f =
  Prof.reset ();
  Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Profile.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)
(* ------------------------------------------------------------------ *)

let test_explain_local () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let p = Profile.explain ~name:"rs" prog in
  Alcotest.(check bool) "local plan" false p.Profile.pl_dist;
  Alcotest.(check (list string)) "no transfers" []
    (List.map (fun t -> t.Profile.tp_label) p.Profile.pl_transfers);
  (* one plan entry per compiled statement (columnar routes replace the
     plain entry for the statement they serve) *)
  let stmts_of tr =
    List.length
      (List.filter (fun s -> s.Profile.sp_trigger = tr) p.Profile.pl_stmts)
  in
  List.iter
    (fun (tr : Prog.trigger) ->
      Alcotest.(check int)
        ("statements of " ^ tr.relation)
        (List.length tr.stmts) (stmts_of tr.relation))
    prog.Prog.triggers;
  (* every compiled statement drives off a full scan of the incoming
     (pre-aggregated) delta; the other reads are gets or slices *)
  List.iter
    (fun s ->
      if not s.Profile.sp_columnar then
        Alcotest.(check bool)
          (s.Profile.sp_label ^ " scans its delta input")
          true
          (List.exists
             (fun a -> a.Profile.a_path = Patterns.Foreach)
             s.Profile.sp_accesses))
    p.Profile.pl_stmts;
  let txt = Profile.render p in
  Alcotest.(check bool) "header" true (contains ~affix:"== EXPLAIN rs" txt);
  Alcotest.(check bool) "trigger sections" true
    (contains ~affix:"ON UPDATE R:" txt && contains ~affix:"ON UPDATE S:" txt);
  (* the R/S join vectorizes end to end: transient assigns take the
     columnar pre-aggregation route, the store-reading statements fuse *)
  Alcotest.(check bool) "columnar route shown" true
    (contains ~affix:"[columnar:" txt);
  Alcotest.(check bool) "fused route shown" true
    (contains ~affix:"[fused:" txt
    && contains ~affix:"fused columnar group" txt)

(* Route labels on a store-joining query: Q17's delta statements probe
   materialized maps, so EXPLAIN must show the batched-join and fused
   routes, while the pure transient copies stay on the generic path with
   their access plans rendered. *)
let test_explain_routes () =
  let w = Workload.find "Q17" in
  let prog = Workload.compile w in
  let p = Profile.explain ~name:"Q17" prog in
  let txt = Profile.render p in
  Alcotest.(check bool) "columnar-join route" true
    (contains ~affix:"[columnar-join:" txt
    && contains ~affix:"vectorized batched join (key-grouped probes)" txt);
  Alcotest.(check bool) "fused route" true (contains ~affix:"[fused:" txt);
  Alcotest.(check bool) "generic route remains" true
    (contains ~affix:"[stmt:" txt
    && contains ~affix:"via foreach (full scan)" txt);
  Alcotest.(check bool) "Q17 takes a vectorized route" true
    (List.exists
       (fun s ->
         s.Profile.sp_trigger = "lineitem"
         && s.Profile.sp_target = "Q17" && s.Profile.sp_columnar)
       p.Profile.pl_stmts)

(* EXPLAIN says what a firing does with the batch. Q6 transposes 4 of
   lineitem's 14 columns. A group groups the batch by probe key only
   when a member probes or slices a store, so only those rows say so:
   Q1's and Q17's DELTA pre-aggregations read no store and are summed
   per target key, while Q3's and Q17's store-probing groups group the
   batch. *)
let test_explain_batch_columns_and_grouping () =
  let explain qn = Profile.explain ~name:qn (Workload.compile (Workload.find qn)) in
  Alcotest.(check bool) "Q6 batch columns" true
    (contains
       ~affix:"batch columns: 4 of 14 (l_qty, l_price, l_disc, l_sdate)"
       (Profile.render (explain "Q6")));
  (* the detail line under each statement whose label starts [prefix] *)
  let details p prefix =
    let rec go acc = function
      | l :: d :: tl when String.starts_with ~prefix:("  [" ^ prefix) l ->
          go (d :: acc) tl
      | _ :: tl -> go acc tl
      | [] -> List.rev acc
    in
    go [] (String.split_on_char '\n' (Profile.render p))
  in
  let expect what p prefix pass =
    let ds = details p prefix in
    Alcotest.(check bool) (what ^ ": rows found") true (ds <> []);
    List.iter
      (fun d ->
        Alcotest.(check bool)
          (what ^ ": " ^ String.trim d)
          true
          (contains
             ~affix:
               (match pass with
               | Runtime.Key_groups -> "batch grouped by probe key"
               | Runtime.Summed -> "summed per target key: one record per distinct key"
               | Runtime.Rows -> "no store reads")
             d))
      ds;
    List.iter
      (fun s ->
        if String.starts_with ~prefix s.Profile.sp_label then
          Alcotest.(check bool) (what ^ ": sp_pass") true (s.Profile.sp_pass = pass))
      p.Profile.pl_stmts
  in
  let q1 = explain "Q1" and q3 = explain "Q3" and q17 = explain "Q17" in
  expect "Q1 DELTA group" q1 "fused-selvec:DELTA_lineitem" Runtime.Summed;
  expect "Q17 DELTA pre-aggregation" q17 "fused:DELTA_lineitem" Runtime.Summed;
  expect "Q3 store-probing groups" q3 "fused:Q3" Runtime.Key_groups;
  expect "Q17 store-probing join" q17 "columnar-join:Q17" Runtime.Key_groups;
  expect "Q17 store-probing groups" q17 "fused:Q17" Runtime.Key_groups

(* EXPLAIN names what runs: every slot a firing charges — local trigger
   units, worker block units, the coordinator's driver runs, transfers —
   is a (trigger, label) row of the plan explaining the same program.
   Driver statements are planned like every other block, so at least
   one fires under a planner label and none under a [driver:] one. *)
let test_explain_matches_runtime_columnar () =
  (* a worker row merged across processes reads "LABEL@wI" *)
  let strip_worker l =
    match String.rindex_opt l '@' with Some i -> String.sub l 0 i | None -> l
  in
  let driver_rows = ref 0 in
  let fired () =
    List.filter_map
      (fun r ->
        if r.Prof.r_firings > 0 && not (String.starts_with ~prefix:"stage:" r.Prof.r_label)
        then Some (r.Prof.r_trigger, strip_worker r.Prof.r_label)
        else None)
      (Prof.rows ())
  in
  let check what (plan : Profile.plan) rows =
    let rows_of_plan =
      List.map (fun s -> (s.Profile.sp_trigger, s.Profile.sp_label)) plan.pl_stmts
      @ List.map
          (fun t -> (t.Profile.tp_trigger, t.Profile.tp_label))
          plan.pl_transfers
    in
    Alcotest.(check bool) (what ^ ": some slot fired") true (rows <> []);
    List.iter
      (fun (tr, lbl) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s/%s is in the plan" what tr lbl)
          true
          (List.mem (tr, lbl) rows_of_plan);
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s is not a driver: label" what lbl)
          false
          (String.starts_with ~prefix:"driver:" lbl))
      rows
  in
  List.iter
    (fun qn ->
      let w = Workload.find qn in
      let prog = Workload.compile w in
      let stream =
        Divm_tpch.Gen.stream { Divm_tpch.Gen.scale = 0.02; seed = 5 }
          ~batch_size:200
      in
      let local =
        with_profiler (fun () ->
            let rt = Runtime.create prog in
            List.iter (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b)) stream;
            fired ())
      in
      check (qn ^ " local") (Profile.explain prog) local;
      let dp = Workload.distribute w prog in
      let dist =
        with_profiler (fun () ->
            let c =
              Divm_cluster.Cluster.create
                ~config:(Divm_cluster.Cluster.config ~workers:2 ())
                dp
            in
            List.iter
              (fun (rel, b) -> ignore (Divm_cluster.Cluster.apply_batch c ~rel b))
              stream;
            fired ())
      in
      let plan = Profile.explain_dist dp in
      check (qn ^ " simulator") plan dist;
      List.iter
        (fun s ->
          if
            s.Profile.sp_stage = None
            && List.mem (s.Profile.sp_trigger, s.Profile.sp_label) dist
          then incr driver_rows)
        plan.Profile.pl_stmts)
    [ "Q3"; "Q6"; "Q17" ];
  (* Q3 runs every statement on the workers; Q6 and Q17 finish on the
     driver *)
  Alcotest.(check bool) "a driver statement fired" true (!driver_rows > 0)

let test_explain_dist () =
  let w = Workload.find "Q3" in
  let prog = Workload.compile w in
  let dp = Workload.distribute w prog in
  let p = Profile.explain_dist ~name:"Q3" dp in
  Alcotest.(check bool) "distributed plan" true p.Profile.pl_dist;
  Alcotest.(check bool) "has transfers" true (p.Profile.pl_transfers <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Profile.sp_label ^ " has a block")
        true
        (s.Profile.sp_block <> None);
      Alcotest.(check bool)
        (s.Profile.sp_label ^ " has a location")
        true
        (s.Profile.sp_loc <> None))
    p.Profile.pl_stmts;
  let txt = Profile.render p in
  Alcotest.(check bool) "block structure rendered" true
    (contains ~affix:"block 0 [distributed, stage 1]" txt);
  Alcotest.(check bool) "transfers rendered" true
    (contains ~affix:"[transfer:" txt);
  Alcotest.(check bool) "location tags rendered" true
    (contains ~affix:"@DIST<" txt || contains ~affix:"@RANDOM" txt);
  (* JSON exporter emits something structurally plausible for both shapes *)
  let j = Profile.plan_json p in
  Alcotest.(check bool) "plan JSON has statements, transfers and calls" true
    (contains ~affix:"\"statements\"" j
    && contains ~affix:"\"transfers\"" j
    && contains ~affix:"\"calls\"" j);
  Alcotest.(check bool) "plan JSON names the lineitem deal" true
    (contains ~affix:"\"trigger\":\"lineitem\",\"kind\":\"stage\",\"stage\":1,\"share\":true,\"deal\":\"okey\"" j);
  (* Each trigger ends with its transport calls: Q3's customer trigger,
     dealt on ckey, is stage 1 carrying the share and its gather, the
     driver-bound scatter and stage 2; its level-3 plan repartitioned
     the pre-aggregation in an exchange between the last two. *)
  Alcotest.(check (list (pair string int)))
    "Q3 customer calls"
    [ ("stage", 1); ("driver", 1); ("stage", 1) ]
    (List.filter_map
       (fun c ->
         if c.Profile.cp_trigger = "customer" then
           Some (c.Profile.cp_kind, c.Profile.cp_round_trips)
         else None)
       p.Profile.pl_calls);
  Alcotest.(check bool) "the first stage carries the share and the gather"
    true
    (List.exists
       (fun c ->
         c.Profile.cp_trigger = "customer" && c.Profile.cp_share
         && c.Profile.cp_deal = Some "ckey"
         && c.Profile.cp_stage = Some 1
         && List.length c.Profile.cp_transfers = 1)
       p.Profile.pl_calls);
  let q17 =
    Profile.render
      (Profile.explain_dist ~name:"Q17"
         (Workload.distribute (Workload.find "Q17")
            (Workload.compile (Workload.find "Q17"))))
  in
  (* the lineitem trigger's lines: up to the next trigger's header *)
  let lineitem =
    let lines = String.split_on_char '\n' q17 in
    let rec from = function
      | [] -> []
      | l :: tl when l = "ON UPDATE lineitem:" -> upto tl
      | _ :: tl -> from tl
    and upto = function
      | l :: _ when String.starts_with ~prefix:"ON UPDATE" l -> []
      | l :: tl -> l :: upto tl
      | [] -> []
    in
    String.concat "\n" (from lines)
  in
  (* dealt on pkey, the trigger runs one stage; its gathers ride the
     reply *)
  Alcotest.(check bool) "Q17 lineitem: 1 round trip per batch" true
    (contains ~affix:"round trips per batch: 1" lineitem
    && contains
         ~affix:"call 1 (1 round trip): stage 1 + batch share dealt on pkey, \
                 gathers ride the reply"
         lineitem
    && not (contains ~affix:"exchange" lineitem))

(* ------------------------------------------------------------------ *)
(* Attribution: slot sums = registry deltas                            *)
(* ------------------------------------------------------------------ *)

let check_reconciles what diff =
  List.iter
    (fun (name, slots, registry) ->
      Alcotest.(check int) (what ^ ": " ^ name ^ " slots = registry") registry
        slots)
    (Profile.reconcile ~diff)

let test_profile_local_reconciles () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let rt = Runtime.create prog in
  with_profiler (fun () ->
      let earlier = Obs.snapshot () in
      ignore (Runtime.apply_batch rt ~rel:"R" (mk2 [ (1, 10, 1.); (2, 20, 1.) ]));
      ignore (Runtime.apply_batch rt ~rel:"S" (mk2 [ (10, 5, 1.); (20, 6, 2.) ]));
      ignore (Runtime.apply_single rt ~rel:"R" [| i 7; i 10 |] 1.);
      let diff = Obs.diff ~later:(Obs.snapshot ()) ~earlier in
      check_reconciles "local" diff;
      let rows = Prof.rows () in
      Alcotest.(check bool) "some statement fired" true
        (List.exists (fun r -> r.Prof.r_firings > 0) rows);
      Alcotest.(check bool) "ops attributed" true
        (List.fold_left (fun a r -> a + r.Prof.r_ops) 0 rows > 0))

let test_profile_cluster_reconciles () =
  let w = Workload.find "Q3" in
  let prog = Workload.compile w in
  let dp = Workload.distribute w prog in
  let c =
    Divm_cluster.Cluster.create
      ~config:(Divm_cluster.Cluster.config ~workers:4 ())
      dp
  in
  let stream =
    Divm_tpch.Gen.stream { Divm_tpch.Gen.scale = 0.05; seed = 7 }
      ~batch_size:300
  in
  with_profiler (fun () ->
      let earlier = Obs.snapshot () in
      List.iter
        (fun (rel, b) -> ignore (Divm_cluster.Cluster.apply_batch c ~rel b))
        stream;
      let diff = Obs.diff ~later:(Obs.snapshot ()) ~earlier in
      check_reconciles "cluster" diff;
      let rows = Prof.rows () in
      let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
      Alcotest.(check bool) "shuffle bytes attributed to transfer slots" true
        (sum (fun r -> r.Prof.r_bytes) > 0);
      Alcotest.(check bool) "transfer slots registered" true
        (List.exists
           (fun r ->
             r.Prof.r_bytes > 0
             && String.length r.Prof.r_label > 9
             && String.sub r.Prof.r_label 0 9 = "transfer:")
           rows))

(* Selection-vector execution must stay exactly attributable: drive Q6
   (whose delta statement compiles to solo selvec kernels) on the Local
   backend with the profiler on, demand nonzero selvec counters in the
   registry diff, per-slot svscan/svsel sums that reconcile exactly
   against them, and a "selvec"-labelled slot owning the rows. *)
let test_profile_selvec_reconciles () =
  let w = Workload.find "Q6" in
  let prog = Workload.compile w in
  let rt = Runtime.create prog in
  let stream =
    Divm_tpch.Gen.stream { Divm_tpch.Gen.scale = 0.05; seed = 11 }
      ~batch_size:400
  in
  with_profiler (fun () ->
      let earlier = Obs.snapshot () in
      List.iter (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b)) stream;
      let diff = Obs.diff ~later:(Obs.snapshot ()) ~earlier in
      let counter name = Obs.counter_value diff name in
      let scanned = counter "divm_selvec_rows_scanned_total" in
      let selected = counter "divm_selvec_rows_selected_total" in
      Alcotest.(check bool) "selvec kernels scanned rows" true (scanned > 0);
      Alcotest.(check bool) "selvec selected <= scanned" true
        (selected >= 0 && selected <= scanned);
      check_reconciles "selvec" diff;
      let rows = Prof.rows () in
      let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
      Alcotest.(check int) "svscan slot sums = registry" scanned
        (sum (fun r -> r.Prof.r_svscan));
      Alcotest.(check int) "svsel slot sums = registry" selected
        (sum (fun r -> r.Prof.r_svsel));
      Alcotest.(check bool) "a selvec-labelled slot owns the scans" true
        (List.exists
           (fun r ->
             contains ~affix:"selvec" r.Prof.r_label && r.Prof.r_svscan > 0)
           rows))

let test_profile_disabled_attributes_nothing () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let rt = Runtime.create prog in
  Prof.reset ();
  Profile.set_enabled false;
  ignore (Runtime.apply_batch rt ~rel:"R" (mk2 [ (1, 10, 1.) ]));
  Alcotest.(check int) "no firings recorded" 0
    (List.fold_left (fun a r -> a + r.Prof.r_firings) 0 (Prof.rows ()))

let test_profile_results_unchanged () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let batches =
    [
      ("R", mk2 [ (1, 10, 1.); (2, 20, 3.) ]);
      ("S", mk2 [ (10, 5, 1.); (20, 6, -1.) ]);
      ("R", mk2 [ (1, 10, -1.) ]);
    ]
  in
  let run () =
    let rt = Runtime.create prog in
    List.iter (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b)) batches;
    Runtime.result rt "Q"
  in
  let plain = run () in
  let profiled = with_profiler run in
  Alcotest.(check bool) "profiling does not change results" true
    (Gmr.equal plain profiled)

(* ------------------------------------------------------------------ *)
(* Reports and storage self-metrics                                    *)
(* ------------------------------------------------------------------ *)

let test_report_renders () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let rt = Runtime.create prog in
  let plan = Profile.explain ~name:"rs" prog in
  with_profiler (fun () ->
      let earlier = Obs.snapshot () in
      ignore (Runtime.apply_batch rt ~rel:"R" (mk2 [ (1, 10, 1.) ]));
      ignore (Runtime.apply_batch rt ~rel:"S" (mk2 [ (10, 5, 1.) ]));
      let diff = Obs.diff ~later:(Obs.snapshot ()) ~earlier in
      let storage = Runtime.storage_stats rt in
      let txt = Profile.report ~plan ~storage ~diff () in
      Alcotest.(check bool) "report header" true
        (contains ~affix:"== PROFILE rs" txt);
      Alcotest.(check bool) "totals row" true (contains ~affix:"-- totals:" txt);
      Alcotest.(check bool) "reconciliation OK" true (contains ~affix:" OK" txt);
      Alcotest.(check bool) "no mismatch" false
        (contains ~affix:"MISMATCH" txt);
      Alcotest.(check bool) "storage section" true
        (contains ~affix:"-- storage:" txt);
      let j = Profile.report_json ~plan ~storage ~diff () in
      Alcotest.(check bool) "json has slots + reconciliation" true
        (contains ~affix:"\"slots\"" j
        && contains ~affix:"\"reconciliation\"" j))

let test_storage_stats_invariants () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let rt = Runtime.create prog in
  ignore (Runtime.apply_batch rt ~rel:"R" (mk2 [ (1, 10, 1.); (2, 20, 1.) ]));
  ignore (Runtime.apply_batch rt ~rel:"S" (mk2 [ (10, 5, 1.); (20, 6, 1.) ]));
  let stats = Runtime.storage_stats rt in
  Alcotest.(check bool) "one entry per map and batch pool" true
    (List.length stats = List.length prog.Prog.maps + List.length prog.Prog.streams);
  List.iter
    (fun ((name : string), (s : Pool.stats)) ->
      Alcotest.(check string) "name matches pool" name s.Pool.s_name;
      Alcotest.(check bool)
        (name ^ " load in bounds")
        true
        (s.Pool.s_load >= 0. && s.Pool.s_load <= 0.75);
      Alcotest.(check int)
        (name ^ " probe histogram covers live records")
        s.Pool.s_live
        (Array.fold_left ( + ) 0 s.Pool.s_probe_hist))
    stats;
  (* observing publishes gauges under pool-labeled names *)
  List.iter (fun (_, (s : Pool.stats)) -> ignore s) stats;
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "live-slot gauge registered" true
    (List.exists
       (fun (n, _) -> contains ~affix:"divm_pool_live_slots{pool=" n)
       snap)

let suites =
  [
    ( "profile",
      [
        Alcotest.test_case "explain: local plan" `Quick test_explain_local;
        Alcotest.test_case "explain: vectorized route labels" `Quick
          test_explain_routes;
        Alcotest.test_case "explain: columnar route matches runtime" `Quick
          test_explain_matches_runtime_columnar;
        Alcotest.test_case "explain: distributed plan" `Quick test_explain_dist;
        Alcotest.test_case "explain: batch columns and grouping" `Quick
          test_explain_batch_columns_and_grouping;
        Alcotest.test_case "profiler: local slot sums = registry deltas" `Quick
          test_profile_local_reconciles;
        Alcotest.test_case "profiler: cluster slot sums = registry deltas"
          `Quick test_profile_cluster_reconciles;
        Alcotest.test_case "profiler: selvec counters reconcile exactly"
          `Quick test_profile_selvec_reconciles;
        Alcotest.test_case "profiler: disabled attributes nothing" `Quick
          test_profile_disabled_attributes_nothing;
        Alcotest.test_case "profiler: results unchanged" `Quick
          test_profile_results_unchanged;
        Alcotest.test_case "report: text and JSON" `Quick test_report_renders;
        Alcotest.test_case "storage stats invariants" `Quick
          test_storage_stats_invariants;
      ] );
  ]
