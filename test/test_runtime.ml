open Divm_ring
open Divm_storage
open Divm_calc
open Divm_calc.Calc
open Divm_compiler
open Divm_runtime
module Prof = Divm_obs.Prof

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

(* A relation with no trigger (a static table) cannot be loaded by
   firing: add each table's rows to the pools of [prog]'s base maps of
   it, the maps defined as the bare relation (e.g. BASE_S_1[B] := S(B)). *)
let fill_base rt (prog : Prog.t) tables =
  List.iter
    (fun (r, g) ->
      let bases =
        List.filter
          (fun (m : Prog.map_decl) ->
            m.definition = Rel { rname = r; rvars = m.mschema })
          prog.maps
      in
      if bases = [] then Alcotest.failf "no base map of %s" r;
      List.iter
        (fun (m : Prog.map_decl) ->
          Gmr.iter (Pool.add (Runtime.map_pool rt m.mname)) g)
        bases)
    tables

(* Run the same stream through the interpreted executor and the compiled
   runtime (batch and single-tuple paths) and demand identical query maps
   after every batch. *)
let check_runtime_equiv ?(msg = "rt") ~streams ~queries batches =
  let prog = Compile.compile ~streams queries in
  let prog_nopre =
    Compile.compile
      ~options:{ Compile.default_options with preaggregate = false }
      ~streams queries
  in
  let ex = Exec.create prog in
  let rt = Runtime.create prog in
  let rt_single = Runtime.create prog_nopre in
  List.iteri
    (fun bi (rel_name, batch) ->
      Exec.apply_batch ex ~rel:rel_name batch;
      let _ = Runtime.apply_batch rt ~rel:rel_name batch in
      Gmr.iter
        (fun tup m ->
          ignore (Runtime.apply_single rt_single ~rel:rel_name tup m))
        batch;
      List.iter
        (fun (qname, _) ->
          let expect = Exec.result ex qname in
          let got = Runtime.result rt qname in
          if not (Gmr.equal expect got) then
            Alcotest.failf "%s: compiled runtime diverged at batch %d:@.%a@.vs %a"
              msg bi Gmr.pp got Gmr.pp expect;
          let got1 = Runtime.result rt_single qname in
          if not (Gmr.equal expect got1) then
            Alcotest.failf
              "%s: single-tuple runtime diverged at batch %d:@.%a@.vs %a" msg
              bi Gmr.pp got1 Gmr.pp expect)
        queries)
    batches

let test_rt_running () =
  check_runtime_equiv ~msg:"running" ~streams:streams_rst
    ~queries:[ ("Q", q_running) ]
    [
      ("R", mk2 [ (1, 10, 1.); (2, 10, 1.) ]);
      ("S", mk2 [ (10, 100, 1.); (20, 200, 2.) ]);
      ("T", mk2 [ (100, 7, 1.); (200, 8, 1.) ]);
      ("R", mk2 [ (3, 20, 2.); (1, 10, -1.) ]);
      ("S", mk2 [ (20, 100, 1.); (10, 100, -1.) ]);
      ("T", mk2 [ (100, 9, 3.); (200, 8, -1.) ]);
    ]

let test_rt_nested () =
  let q =
    sum []
      (prod
         [
           rel "R" [ va; vb ];
           lift vx (sum [ vb ] (rel "S" [ vb; vc ]));
           cmp_vars Lt va vx;
         ])
  in
  check_runtime_equiv ~msg:"nested" ~streams:streams_rst
    ~queries:[ ("QN", q) ]
    [
      ("R", mk2 [ (0, 10, 1.); (1, 20, 1.) ]);
      ("S", mk2 [ (10, 1, 1.); (20, 2, 2.) ]);
      ("S", mk2 [ (10, 1, -1.); (20, 9, 1.) ]);
      ("R", mk2 [ (0, 10, -1.); (2, 20, 5.) ]);
    ]

let test_rt_distinct () =
  let q =
    exists
      (sum [ va ]
         (prod [ rel "R" [ va; vb ]; cmp Gt (Vexpr.var vb) (Vexpr.const_i 5) ]))
  in
  check_runtime_equiv ~msg:"distinct" ~streams:[ ("R", [ va; vb ]) ]
    ~queries:[ ("QD", q) ]
    [
      ("R", mk2 [ (1, 10, 1.); (2, 3, 1.) ]);
      ("R", mk2 [ (1, 20, 2.); (3, 8, 1.) ]);
      ("R", mk2 [ (1, 10, -1.); (1, 20, -2.) ]);
    ]

let test_rt_filters_values () =
  let q =
    sum [ vb ]
      (prod
         [
           rel "R" [ va; vb ];
           cmp Lt (Vexpr.var va) (Vexpr.const_i 3);
           rel "S" [ vb; vc ];
           value (Vexpr.var va);
         ])
  in
  check_runtime_equiv ~msg:"filters" ~streams:streams_rst
    ~queries:[ ("QF", q) ]
    [
      ("R", mk2 [ (1, 10, 1.); (5, 10, 1.); (2, 20, 3.) ]);
      ("S", mk2 [ (10, 1, 1.); (20, 2, 1.) ]);
      ("R", mk2 [ (1, 10, -1.); (2, 20, 1.) ]);
      ("S", mk2 [ (10, 1, -1.); (10, 3, 2.) ]);
    ]

let qcheck_rt_agree =
  let open QCheck in
  let gen_batch =
    Gen.(
      list_size (int_range 1 5)
        (triple (int_range 0 3) (int_range 0 3) (int_range (-2) 2)))
  in
  let gen_stream =
    Gen.(list_size (int_range 1 6) (pair (int_range 0 2) gen_batch))
  in
  let arb = QCheck.make ~print:(fun _ -> "<stream>") gen_stream in
  QCheck.Test.make ~name:"compiled runtime agrees on random streams" ~count:40
    arb (fun stream ->
      let rels = [| "R"; "S"; "T" |] in
      let batches =
        List.map
          (fun (ri, tuples) ->
            ( rels.(ri),
              mk2 (List.map (fun (a, b, m) -> (a, b, float_of_int m)) tuples)
            ))
          stream
      in
      check_runtime_equiv ~msg:"qcheck" ~streams:streams_rst
        ~queries:[ ("Q", q_running) ]
        batches;
      true)

(* Vectorized-executor equivalence: the same random TPC-H stream replayed
   through columnar-on and columnar-off runtimes must leave every
   non-transient store identical, on every route [Tpch_suite] covers —
   insert-only, and with every batch retracted three batches later. On
   the retraction stream the columnar-on views must also match [Exec]
   re-evaluated over the net base contents. Q3, Q16 and Q17 also run
   compiled without pre-aggregation, so their store-probing groups read
   the raw batch, where rows equal on every column a group reads can
   occur (Q16's do; see the grouping census in EXPERIMENTS.md). Q16 also
   runs as compiled by default: its transient sources carry string
   columns, which are dictionary-encoded when the source is built. The
   first draw is a fixed stream of 500-row batches, wider than any
   random draw. *)
let qcheck_columnar_equiv =
  let module Workload = Divm_workload.Workload in
  let module Tpch = Divm_tpch in
  let arb =
    QCheck.(
      make
        ~print:(Print.pair Print.int Print.int)
        (Gen.graft_corners
           Gen.(pair (int_range 0 10_000) (int_range 1 40))
           [ (13, 500) ] ()))
  in
  QCheck.Test.make ~name:"columnar on/off stores agree on random TPC-H streams"
    ~count:5 arb
    (fun (seed, batch_size) ->
      let inserts =
        Tpch.Gen.stream { Tpch.Gen.scale = 0.03; seed } ~batch_size
      in
      let retractions = Tpch_suite.with_retractions ~k:3 inserts in
      let net = Tpch_suite.net_contents retractions in
      List.iter
        (fun (what, stream, oracle) ->
          List.iter
            (fun (qn, preaggregate) ->
              let prog = Workload.compile ~preaggregate (Workload.find qn) in
              let qn = if preaggregate then qn else qn ^ " without preagg" in
              let on = Runtime.create ~columnar:true prog in
              let off = Runtime.create ~columnar:false prog in
              List.iter
                (fun (rel, b) ->
                  ignore (Runtime.apply_batch on ~rel b);
                  ignore (Runtime.apply_batch off ~rel b))
                stream;
              List.iter
                (fun (m : Prog.map_decl) ->
                  if m.mkind <> Prog.Transient then
                    let g_on = Runtime.map_contents on m.mname in
                    let g_off = Runtime.map_contents off m.mname in
                    if not (Gmr.equal ~eps:1e-6 g_on g_off) then
                      Alcotest.failf
                        "%s (%s): store %s diverges between columnar and \
                         generic paths"
                        qn what m.mname)
                prog.Prog.maps;
              if oracle then begin
                let ex = Exec.create prog in
                Exec.load ex net;
                List.iter
                  (fun (name, _) ->
                    let want = Exec.result ex name
                    and got = Runtime.result on name in
                    match Tpch_suite.view_difference want got with
                    | None -> ()
                    | Some key ->
                        Alcotest.failf
                          "%s (%s): view %s differs from Exec at %s: \
                           expected %.17g, got %.17g"
                          qn what name (Vtuple.to_string key)
                          (Gmr.mult want key) (Gmr.mult got key))
                  prog.Prog.queries
              end)
            (List.map (fun qn -> (qn, true)) Tpch_suite.queries
            @ [ ("Q16", true); ("Q3", false); ("Q16", false); ("Q17", false) ]))
        [ ("inserts", inserts, false); ("retractions", retractions, true) ];
      true)

(* Domain-parallel executor equivalence: the same random TPC-H stream
   replayed through serial and parallel runtimes must leave every
   non-transient store identical (exactly for integer multiplicities,
   within summation-order epsilon for float aggregates — the same
   contract as columnar on/off). [par_min_rows:1] forces even the
   smallest random batches through the parallel fan-out. *)
let qcheck_parallel_equiv =
  let module Workload = Divm_workload.Workload in
  let module Tpch = Divm_tpch in
  let arb =
    QCheck.(
      make
        ~print:(Print.pair Print.int Print.int)
        Gen.(pair (int_range 0 10_000) (int_range 1 40)))
  in
  QCheck.Test.make
    ~name:"parallel (2,4 domains) stores agree with serial on TPC-H streams"
    ~count:4 arb
    (fun (seed, batch_size) ->
      let stream =
        Tpch.Gen.stream { Tpch.Gen.scale = 0.03; seed } ~batch_size
      in
      List.iter
        (fun qn ->
          let w = Workload.find qn in
          let prog = Workload.compile w in
          let seq = Runtime.create ~domains:1 prog in
          let par2 = Runtime.create ~domains:2 ~par_min_rows:1 prog in
          let par4 = Runtime.create ~domains:4 ~par_min_rows:1 prog in
          List.iter
            (fun (rel, b) ->
              ignore (Runtime.apply_batch seq ~rel b);
              ignore (Runtime.apply_batch par2 ~rel b);
              ignore (Runtime.apply_batch par4 ~rel b))
            stream;
          List.iter
            (fun (m : Prog.map_decl) ->
              if m.mkind <> Prog.Transient then begin
                let g_seq = Runtime.map_contents seq m.mname in
                List.iter
                  (fun (d, rt) ->
                    if
                      not
                        (Gmr.equal ~eps:1e-6 g_seq (Runtime.map_contents rt m.mname))
                    then
                      Alcotest.failf
                        "%s: store %s diverges between serial and %d-domain \
                         execution"
                        qn m.mname d)
                  [ (2, par2); (4, par4) ]
              end)
            prog.Prog.maps)
        Tpch_suite.queries;
      true)

(* A store-free pre-aggregation runs as a hash aggregation and leaves its
   target as per-row upserts of the batch rows would: a key that cancels
   inside the batch frees its slot, and the next new key takes it. For
   Q = Sum_[A] R(A,B) and the batch (1,5,+1) (2,5,+1) (1,7,-1) (3,5,+1),
   the transient and Q both iterate <3>, <2>. *)
let test_summed_slot_order () =
  let prog =
    Compile.compile ~streams:[ ("R", [ va; vb ]) ]
      [ ("Q", sum [ va ] (rel "R" [ va; vb ])) ]
  in
  let trig = Prog.find_trigger prog "R" in
  let delta =
    match Runtime.block_routes_ex prog ~rel:"R" [ ([], trig.stmts) ] with
    | [ (s, _, _, _, Runtime.Summed, _) :: _ ] -> s.Prog.target
    | _ -> Alcotest.fail "expected the pre-aggregation on the summed route"
  in
  let rt = Runtime.create prog in
  ignore
    (Runtime.apply_batch rt ~rel:"R"
       (mk2 [ (1, 5, 1.); (2, 5, 1.); (1, 7, -1.); (3, 5, 1.) ]));
  let order name =
    List.rev (Gmr.fold (fun t m acc -> (t, m) :: acc) (Runtime.map_contents rt name) [])
  in
  let want = [ ([| i 3 |], 1.); ([| i 2 |], 1.) ] in
  let show l =
    String.concat " "
      (List.map (fun (t, m) -> Printf.sprintf "%s:%g" (Vtuple.to_string t) m) l)
  in
  List.iter
    (fun name ->
      Alcotest.(check string) (name ^ " iteration order") (show want) (show (order name)))
    [ delta; "Q" ]

(* The hash aggregation against a replay of the per-row rule: random
   small batches with duplicate keys and mixed signs, through
   [T[key] := Sum_[key] (src(ΔR(A,B,C)) * (B < k) * weights)] with the
   source Exists-wrapped or not and the key one or two columns; the
   transient must equal, in bits and iteration order, a GMR that
   [Gmr.add]s each surviving row's weight in batch order. Half the cases
   force grouping-hash collisions. *)
let qcheck_summed_replay =
  let vc_f = Schema.var "C" in
  let gen =
    QCheck.Gen.(
      let row =
        quad (int_range 0 3) (int_range 0 4)
          (oneofl [ -2.; -1.; 0.; 0.5; 1.; 2.5 ])
          (oneofl [ -2.; -1.; 1.; 2.; 3. ])
      in
      tup5 bool bool (int_range 1 5) (int_range 0 2) (list_size (int_range 0 40) row))
  in
  let print (exists, two, k, wf, rows) =
    Printf.sprintf "exists=%b two-column key=%b B<%d weights=%d rows=[%s]" exists two k wf
      (String.concat "; "
         (List.map (fun (a, b, c, m) -> Printf.sprintf "(%d,%d,%g,%g)" a b c m) rows))
  in
  QCheck.Test.make ~name:"hash aggregation = per-row replay (bits, slot order)"
    ~count:200 (QCheck.make ~print gen)
    (fun ((exists, two, k, wf, rows) as case) ->
      let vars = [ va; vb; vc_f ] in
      let key = if two then [ va; vb ] else [ va ] in
      let src = delta_rel "R" vars in
      let weights =
        match wf with
        | 0 -> []
        | 1 -> [ Vexpr.Var vc_f ]
        | _ -> [ Vexpr.Var vc_f; Vexpr.Add (Vexpr.Var vc_f, Vexpr.Var va) ]
      in
      let rhs =
        Sum
          ( key,
            Prod
              ((if exists then Exists src else src)
               :: Cmp (Lt, Vexpr.Var vb, Vexpr.Const (Value.Int k))
               :: List.map (fun w -> Value w) weights) )
      in
      let prog : Prog.t =
        {
          maps =
            [ { mname = "T"; mschema = key; mkind = Prog.Transient; definition = rhs } ];
          triggers =
            [ { relation = "R"; stmts = [ { target = "T"; target_vars = key; op = Prog.Assign; rhs } ] } ];
          queries = [];
          streams = [ ("R", vars) ];
        }
      in
      (match Runtime.block_routes_ex prog ~rel:"R" [ ([], (List.hd prog.triggers).stmts) ] with
      | [ [ (_, _, _, _, Runtime.Summed, _) ] ] -> ()
      | _ -> Alcotest.fail "expected T on the summed route");
      let batch =
        Gmr.of_list
          (List.map (fun (a, b, c, m) -> ([| i a; i b; Value.Float c |], m)) rows)
      in
      let want = Gmr.create () in
      Gmr.iter
        (fun (t : Vtuple.t) m ->
          let f = Value.to_float in
          if f t.(1) < float_of_int k then begin
            let w = ref (if exists then 1. else m) and live = ref true in
            List.iter
              (fun e ->
                let x =
                  match e with
                  | Vexpr.Var _ -> f t.(2)
                  | _ -> f t.(2) +. f t.(0)
                in
                if !live then if x <> 0. then w := !w *. x else live := false)
              weights;
            if !live then Gmr.add want (if two then [| t.(0); t.(1) |] else [| t.(0) |]) !w
          end)
        batch;
      let bits g =
        List.rev
          (Gmr.fold
             (fun t m acc -> (Vtuple.to_string t, Int64.bits_of_float m) :: acc)
             g [])
      in
      List.iter
        (fun hb ->
          Colbatch.hash_bits_for_tests := hb;
          Fun.protect
            ~finally:(fun () -> Colbatch.hash_bits_for_tests := None)
            (fun () ->
              let rt = Runtime.create ~domains:1 prog in
              (* twice: the second firing reuses the first one's scratch *)
              for _ = 1 to 2 do
                ignore (Runtime.apply_batch rt ~rel:"R" batch);
                if bits (Runtime.map_contents rt "T") <> bits want then
                  QCheck.Test.fail_reportf "%s (hash bits %s): T differs from the replay"
                    (print case)
                    (match hb with None -> "all" | Some b -> string_of_int b)
              done))
        [ (if List.length rows mod 2 = 0 then None else Some 2) ];
      true)

(* The hash-aggregation census: every vectorized pre-aggregation (an
   Assign of a transient in a group that reads no store) runs as a hash
   aggregation ([Runtime.Summed]); one that falls back fails, named.
   Over the 35 local programs the summed members are pinned, and over
   the 35 level-4 distributed programs so are the store-free groups that
   stay on the per-row chain: each also holds a [+=] member. *)
let test_summed_census () =
  let module Workload = Divm_workload.Workload in
  let module Dprog = Divm_dist.Dprog in
  let census qn (prog : Prog.t) ~rel blocks summed rows =
    let transient n =
      List.exists
        (fun (m : Prog.map_decl) -> m.mname = n && m.mkind = Prog.Transient)
        prog.maps
    in
    List.iter
      (fun routes ->
        List.iter
          (fun ((s : Prog.stmt), label, _, _, pass, _) ->
            match pass with
            | Runtime.Summed -> incr summed
            | Runtime.Rows
              when s.op = Prog.Assign && transient s.target
                   && not (String.starts_with ~prefix:"stmt:" label) ->
                let group = qn ^ " " ^ label in
                if not (List.mem group !rows) then rows := group :: !rows
            | _ -> ())
          routes)
      (Runtime.block_routes_ex prog ~rel blocks)
  in
  let local = ref 0 and local_rows = ref [] in
  let dist = ref 0 and dist_rows = ref [] in
  List.iter
    (fun qn ->
      let w = Workload.find qn in
      let prog = Workload.compile w in
      List.iter
        (fun (tr : Prog.trigger) ->
          census qn prog ~rel:tr.relation [ ([], tr.stmts) ] local local_rows)
        prog.triggers;
      let dp = Workload.distribute w prog in
      let cprog = Dprog.compute_prog dp in
      List.iter
        (fun (tr : Dprog.dtrigger) ->
          census qn cprog ~rel:tr.drelation (Dprog.worker_blocks tr) dist dist_rows;
          census qn cprog ~rel:tr.drelation (Dprog.driver_blocks tr) dist dist_rows)
        dp.dtriggers)
    Tpch_suite.all_queries;
  List.iter (Alcotest.failf "a local pre-aggregation left the summed route: %s") !local_rows;
  Alcotest.(check int) "local summed members" 208 !local;
  Alcotest.(check (list string))
    "level-4 store-free groups on the per-row chain"
    [
      "Q8 fused:V_lisuor_26+V_lisuorcuna_22_stage232";
      "Q9 fused:V_supa_24+V_supapa_10_stage171";
    ]
    (List.sort compare !dist_rows);
  Alcotest.(check int) "level-4 summed members" 208 !dist

(* The generic-route census (ROADMAP item 5): over every TPC-H and
   TPC-DS query as compiled by default, each trigger planned as one
   block, the statements [block_routes_ex] leaves on the generic closure
   route ("stmt:"), counted by the planner rule that left them there.
   The total and each rule's count are pinned; they may only go down. *)
let test_generic_route_census () =
  let module Workload = Divm_workload.Workload in
  let total = ref 0 and by_reason = Hashtbl.create 16 in
  List.iter
    (fun qn ->
      let prog = Workload.compile (Workload.find qn) in
      List.iter
        (fun (tr : Prog.trigger) ->
          List.iter
            (List.iter (fun (_, label, _, _, _, reason) ->
                 incr total;
                 match reason with
                 | Some r ->
                     if not (String.starts_with ~prefix:"stmt:" label) then
                       Alcotest.failf "%s has a generic reason" label;
                     Hashtbl.replace by_reason r
                       (1 + Option.value ~default:0 (Hashtbl.find_opt by_reason r))
                 | None ->
                     if String.starts_with ~prefix:"stmt:" label then
                       Alcotest.failf "%s has no generic reason" label))
            (Runtime.block_routes_ex prog ~rel:tr.relation [ ([], tr.stmts) ]))
        prog.Prog.triggers)
    Tpch_suite.all_queries;
  Alcotest.(check int) "statements" 1371 !total;
  let pins =
    [
      ("lone copy of a transient", 77);
      ("first factor is neither the batch nor a ready transient", 49);
      ("lift of a non-map expression", 43);
      ("reads its own target", 12);
      ("a slice on a bound variable", 10);
      ("another factor kind", 6);
      ("lift term not keyed by source columns", 6);
    ]
  in
  let counted r = Option.value ~default:0 (Hashtbl.find_opt by_reason r) in
  Hashtbl.iter
    (fun r _ ->
      if not (List.mem_assoc r pins) then
        Alcotest.failf "%d statements are generic for an unpinned reason: %s"
          (counted r) r)
    by_reason;
  let pin what n pinned =
    if n <> pinned then
      Alcotest.failf "%d statements %s, pinned at %d%s" n what pinned
        (if n < pinned then ": the count fell, lower the pin to it" else "")
  in
  List.iter
    (fun (r, pinned) -> pin ("are generic because: " ^ r) (counted r) pinned)
    pins;
  pin
    (Printf.sprintf "of %d take the generic route" !total)
    (Hashtbl.fold (fun _ n acc -> n + acc) by_reason 0)
    203

(* A fixed-stream oracle under retractions: every TPC-H and TPC-DS
   query, compiled with pre-aggregation on and off and run with the
   vectorized executor on and off, replays a stream whose every batch is
   retracted three batches later; each view must equal [Exec]
   re-evaluated over the net base contents. Beyond the 11-query suite
   this reaches Q2, Q5, Q8, Q9 (steps after a slice), Q20 and Q21, and
   TPC-DS under retractions. At these sizes only Q1, Q4, Q6 and Q13 ever
   hold a non-empty view, so for the rest the check is that every
   insert's effect cancels with its retraction's, made against other
   store contents three batches later. *)
let test_oracle_retractions () =
  let module Workload = Divm_workload.Workload in
  let streams = Hashtbl.create 2 in
  let stream (w : Workload.t) =
    let tpcds = Workload.is_tpcds w in
    match Hashtbl.find_opt streams tpcds with
    | Some s -> s
    | None ->
        let inserts =
          if tpcds then Workload.stream w ~scale:0.1 ~seed:1 ~batch_size:20
          else Workload.stream w ~scale:0.03 ~seed:1 ~batch_size:13
        in
        let s = Tpch_suite.with_retractions ~k:3 inserts in
        let s = (s, Tpch_suite.net_contents s) in
        Hashtbl.replace streams tpcds s;
        s
  in
  List.iter
    (fun qn ->
      let w = Workload.find qn in
      let stream, net = stream w in
      List.iter
        (fun preaggregate ->
          let prog = Workload.compile ~preaggregate w in
          let ex = Exec.create prog in
          Exec.load ex net;
          List.iter
            (fun columnar ->
              let rt = Runtime.create ~columnar prog in
              List.iter
                (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b))
                stream;
              List.iter
                (fun (name, _) ->
                  let want = Exec.result ex name
                  and got = Runtime.result rt name in
                  match Tpch_suite.view_difference want got with
                  | None -> ()
                  | Some key ->
                      Alcotest.failf
                        "%s (preaggregate %b, columnar %b): view %s differs \
                         from Exec at %s: expected %.17g, got %.17g"
                        qn preaggregate columnar name (Vtuple.to_string key)
                        (Gmr.mult want key) (Gmr.mult got key))
                prog.Prog.queries)
            [ true; false ])
        [ true; false ])
    Tpch_suite.all_queries

(* The oracle where the views hold rows: at [test_oracle_retractions]'
   sizes the views of Q2, Q17 and Q21 stay empty, so there the check
   reduces to cancellation. At scale 4 in batches of 500 each view holds
   rows at the end (Q2 two, Q17 one, Q21 four) and must equal [Exec]
   re-evaluated over the net base contents. Q17's stream retracts every
   other lineitem or orders batch five batches later; retractions empty
   Q21's view, so its stream only inserts, as Q2's does. *)
let test_oracle_nonempty_views () =
  let module Workload = Divm_workload.Workload in
  let inserts =
    Divm_tpch.Gen.stream { Divm_tpch.Gen.scale = 4.; seed = 1 } ~batch_size:500
  in
  let retracted =
    List.mapi (fun i (rel, _) -> (i, rel)) inserts
    |> List.filter (fun (_, rel) -> rel = "lineitem" || rel = "orders")
    |> List.filteri (fun j _ -> j mod 2 = 0)
    |> List.map fst
  in
  let retractions =
    Tpch_suite.with_retractions
      ~retract:(fun i -> List.mem i retracted)
      ~k:5 inserts
  in
  List.iter
    (fun (qn, stream) ->
      let net = Tpch_suite.net_contents stream in
      let prog = Workload.compile (Workload.find qn) in
      let ex = Exec.create prog in
      Exec.load ex net;
      let rt = Runtime.create prog in
      List.iter (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b)) stream;
      List.iter
        (fun (name, _) ->
          let want = Exec.result ex name and got = Runtime.result rt name in
          if Gmr.is_empty want then
            Alcotest.failf "%s: view %s is empty, so the check shows nothing"
              qn name;
          match Tpch_suite.view_difference want got with
          | None -> ()
          | Some key ->
              Alcotest.failf
                "%s: view %s differs from Exec at %s: expected %.17g, got \
                 %.17g"
                qn name (Vtuple.to_string key) (Gmr.mult want key)
                (Gmr.mult got key))
        prog.Prog.queries)
    [ ("Q2", inserts); ("Q17", retractions); ("Q21", inserts) ]

(* A worker's column share installed under generic Δ readers (a
   [columnar:false] runtime reads Δ only through the batch pool) must
   fill the pool with one row per share row, as the same batch installed
   as rows does. *)
let test_share_fills_batch_pool () =
  let module Workload = Divm_workload.Workload in
  let module Tpch = Divm_tpch in
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 5 } ~batch_size:40
  in
  List.iter
    (fun qn ->
      let prog = Workload.compile (Workload.find qn) in
      let runtime () =
        let rt = Runtime.create ~columnar:false prog in
        ( rt,
          List.map
            (fun (tr : Prog.trigger) ->
              ( tr.relation,
                Runtime.compile_blocks rt ~rel:tr.relation [ ([], tr.stmts) ] ))
            prog.Prog.triggers )
      in
      let rows, rows_bk = runtime () and shares, shares_bk = runtime () in
      List.iter
        (fun (rel, b) ->
          match (List.assoc_opt rel rows_bk, List.assoc_opt rel shares_bk) with
          | Some bk, Some bk' ->
              Runtime.set_batch rows bk (Runtime.Rows b);
              Runtime.run_block rows bk 0;
              let width = List.length (List.assoc rel prog.Prog.streams) in
              Runtime.set_batch shares bk'
                (Runtime.Share (Colbatch.of_gmr ~width b));
              Runtime.run_block shares bk' 0
          | _ -> ())
        stream;
      List.iter
        (fun (m : Prog.map_decl) ->
          if
            m.mkind <> Prog.Transient
            && not
                 (Gmr.equal ~eps:1e-6
                    (Runtime.map_contents rows m.mname)
                    (Runtime.map_contents shares m.mname))
          then
            Alcotest.failf "%s: store %s differs between Rows and Share" qn
              m.mname)
        prog.Prog.maps)
    [ "Q1"; "Q3"; "Q6"; "Q12" ]

let test_rt_ops_counter () =
  let prog = Compile.compile ~streams:streams_rst [ ("Q", q_running) ] in
  let rt = Runtime.create prog in
  Runtime.reset_ops rt;
  let rep = Runtime.apply_batch rt ~rel:"R" (mk2 [ (1, 10, 1.) ]) in
  Alcotest.(check bool) "ops counted" true (Runtime.ops rt > 0);
  Alcotest.(check int) "report matches counter" (Runtime.ops rt) rep.Runtime.ops;
  Alcotest.(check int) "tuples counted" 1 rep.Runtime.tuples;
  Runtime.reset_ops rt;
  Alcotest.(check int) "ops reset" 0 (Runtime.ops rt)

let test_columnar_path () =
  (* The §5.2.2 columnar pre-aggregation path must agree with the generic
     closure path, including filters, value weights, and deletions. *)
  let q =
    sum [ vb ]
      (prod
         [
           rel "R" [ va; vb ];
           cmp Lt (Vexpr.var va) (Vexpr.const_i 3);
           value (Vexpr.var va);
         ])
  in
  let streams = [ ("R", [ va; vb ]) ] in
  let prog = Compile.compile ~streams [ ("QC", q) ] in
  let on = Runtime.create ~columnar:true prog in
  let off = Runtime.create ~columnar:false prog in
  let batches =
    [
      mk2 [ (1, 10, 1.); (5, 10, 1.); (2, 20, 3.) ];
      mk2 [ (1, 10, -1.); (0, 20, 2.) ];
    ]
  in
  List.iter
    (fun b ->
      let _ = Runtime.apply_batch on ~rel:"R" b in
      ignore (Runtime.apply_batch off ~rel:"R" b))
    batches;
  Alcotest.(check bool) "columnar = generic" true
    (Gmr.equal (Runtime.result on "QC") (Runtime.result off "QC"));
  (* b=20: row (2,20) mult 3 weighted by a=2 -> 6; (0,20) weighs 0 *)
  Alcotest.(check (float 1e-6)) "value correct" 6.
    (Gmr.mult (Runtime.result on "QC") [| i 20 |])

(* ------------------------------------------------------------------ *)
(* PR 9: selection-vector kernels vs the per-row closure path          *)
(* ------------------------------------------------------------------ *)

(* Random typed batches through the same compiled filter program on a
   columnar runtime (constant filters hoist to selection-vector kernels,
   string operands dictionary-encode) and a columnar-off runtime (the
   per-row closure path). Stream R has a fixed column typing — A int or
   date, B int (the group key), C float, D string — so the batch
   transposes to the unboxed reps the kernels specialize on. The float
   pool includes NaN and two [fcompare_approx] epsilon edges (1+1e-12
   and 1e9+0.5, both approx-equal to a filter constant); the second
   round forces 2-bit grouping hash collisions, which must not change
   results even for dictionary-coded keys. Half the cases also probe a
   store S keyed by B, compiled without pre-aggregation so the filters
   stay on the Δ statement: its batch is then grouped by B, and the
   kernels run inside key groups that start past row 0 (B = 3 is absent
   from S, so some groups probe 0). *)
let vds = Schema.var ~ty:Value.TString "D"

type sv_filter =
  | FInt of cmp_op * int
  | FFloat of cmp_op * float
  | FStr of bool * string
  | FDyn of cmp_op  (** A vs C+1: dynamic operand, stays per-row *)

let sv_ops = [ Eq; Neq; Lt; Lte; Gt; Gte ]
let sv_floats = [ 0.; 1.; 1.5; -2.5; Float.nan; 1. +. 1e-12; 1e9; 1e9 +. 0.5 ]
let sv_strs = [ "AIR"; "RAIL"; "MAIL" ]

let gen_selvec_case =
  let open QCheck.Gen in
  let gen_filter =
    frequency
      [
        (3, map2 (fun op k -> FInt (op, k)) (oneofl sv_ops) (int_range 0 4));
        ( 3,
          map2
            (fun op x -> FFloat (op, x))
            (oneofl sv_ops)
            (oneofl [ 1.; 0.; 1e9 ]) );
        (2, map2 (fun eq s -> FStr (eq, s)) bool (oneofl sv_strs));
        (1, map (fun op -> FDyn op) (oneofl sv_ops));
      ]
  in
  let gen_row =
    map2
      (fun (a, b) (c, (d, m)) -> (a, b, c, d, m))
      (pair (int_range 0 4) (int_range 0 3))
      (pair (oneofl sv_floats)
         (pair (oneofl sv_strs) (map float_of_int (oneofl [ -2; -1; 1; 2 ]))))
  in
  triple (pair bool bool)
    (list_size (int_range 1 4) gen_filter)
    (list_size (int_range 1 2) (list_size (int_range 0 30) gen_row))

let show_selvec_case ((use_date, probe), filters, batches) =
  let op_s = function
    | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Lte -> "<=" | Gt -> ">"
    | Gte -> ">="
  in
  Printf.sprintf "date=%b probe=%b filters=[%s] batches=%s" use_date probe
    (String.concat "; "
       (List.map
          (function
            | FInt (op, k) -> Printf.sprintf "A %s %d" (op_s op) k
            | FFloat (op, x) -> Printf.sprintf "C %s %h" (op_s op) x
            | FStr (true, s) -> Printf.sprintf "D = %s" s
            | FStr (false, s) -> Printf.sprintf "D <> %s" s
            | FDyn op -> Printf.sprintf "A %s C+1" (op_s op))
          filters))
    (String.concat " | "
       (List.map
          (fun rows ->
            String.concat ";"
              (List.map
                 (fun (a, b, c, d, m) ->
                   Printf.sprintf "(%d,%d,%h,%s)*%g" a b c d m)
                 rows))
          batches))

let qcheck_selvec_equiv =
  let arb = QCheck.make ~print:show_selvec_case gen_selvec_case in
  QCheck.Test.make ~name:"selection vectors = per-row filter evaluation"
    ~count:150 arb (fun ((use_date, probe), filters, batches) ->
      let mk_a a = if use_date then Value.Date a else Value.Int a in
      let q =
        sum [ vb ]
          (prod
             (rel "R" [ va; vb; vc; vds ]
             :: (if probe then [ rel "S" [ vb ] ] else [])
             @ List.map
                  (function
                    | FInt (op, k) ->
                        cmp op (Vexpr.var va) (Vexpr.Const (mk_a k))
                    | FFloat (op, x) ->
                        cmp op (Vexpr.var vc) (Vexpr.const_f x)
                    | FStr (eq, s) ->
                        cmp
                          (if eq then Eq else Neq)
                          (Vexpr.var vds)
                          (Vexpr.Const (Value.String s))
                    | FDyn op ->
                        cmp op (Vexpr.var va)
                          (Vexpr.Add (Vexpr.var vc, Vexpr.const_f 1.)))
                  filters))
      in
      let prog =
        Compile.compile
          ~options:{ Compile.default_options with preaggregate = not probe }
          ~streams:
            (("R", [ va; vb; vc; vds ]) :: (if probe then [ ("S", [ vb ]) ] else []))
          [ ("Q", q) ]
      in
      let r_trigger =
        List.find (fun (t : Prog.trigger) -> t.relation = "R") prog.Prog.triggers
      in
      if probe then
        List.iter
          (List.iter (fun (_, _, _, _, pass, _) ->
               if pass <> Runtime.Key_groups then
                 Alcotest.fail "the S probe must group ΔR by B"))
          (Runtime.block_routes_ex prog ~rel:"R" [ ([], r_trigger.stmts) ]);
      let s_rows = Gmr.of_list [ ([| i 0 |], 1.); ([| i 1 |], 2.); ([| i 2 |], -1.) ] in
      let gmrs =
        List.map
          (fun rows ->
            Gmr.of_list
              (List.map
                 (fun (a, b, c, d, m) ->
                   ([| mk_a a; i b; Value.Float c; Value.String d |], m))
                 rows))
          batches
      in
      List.iter
        (fun bits ->
          let vec = Runtime.create prog in
          let row = Runtime.create ~columnar:false prog in
          if probe then begin
            ignore (Runtime.apply_batch vec ~rel:"S" s_rows);
            ignore (Runtime.apply_batch row ~rel:"S" s_rows)
          end;
          List.iter
            (fun g ->
              Colbatch.hash_bits_for_tests := bits;
              Fun.protect
                ~finally:(fun () -> Colbatch.hash_bits_for_tests := None)
                (fun () -> ignore (Runtime.apply_batch vec ~rel:"R" g));
              ignore (Runtime.apply_batch row ~rel:"R" g))
            gmrs;
          if
            not
              (Gmr.equal ~eps:1e-6 (Runtime.result vec "Q")
                 (Runtime.result row "Q"))
          then
            Alcotest.failf "selvec diverged (bits=%s):@.%a@.vs %a"
              (match bits with None -> "none" | Some b -> string_of_int b)
              Gmr.pp (Runtime.result vec "Q") Gmr.pp (Runtime.result row "Q"))
        [ None; Some 2 ];
      true)

(* The planner actually hoists those filters: constant int/float/string
   comparisons count as selvec in the EXPLAIN split and the dynamic
   A-vs-C+1 operand stays rowwise, as [block_routes_ex] reports it for the
   trigger's one block. *)
let test_selvec_route_split () =
  let q =
    sum [ vb ]
      (prod
         [
           rel "R" [ va; vb; vc; vds ];
           cmp Lt (Vexpr.var va) (Vexpr.const_i 3);
           cmp Gte (Vexpr.var vc) (Vexpr.const_f 1.);
           cmp Eq (Vexpr.var vds) (Vexpr.Const (Value.String "AIR"));
           cmp Gt (Vexpr.var va) (Vexpr.Add (Vexpr.var vc, Vexpr.const_f 1.));
         ])
  in
  let prog =
    Compile.compile ~streams:[ ("R", [ va; vb; vc; vds ]) ] [ ("Q", q) ]
  in
  let split =
    List.concat
      (Runtime.block_routes_ex prog ~rel:"R"
         [ ([], (List.hd prog.Prog.triggers).Prog.stmts) ])
    |> List.filter_map (fun (_, label, sv, rw, _, _) ->
           if String.length label >= 6 && String.sub label 0 6 = "selvec" then
             Some (sv, rw)
           else None)
  in
  match split with
  | [ (sv, rw) ] ->
      Alcotest.(check int) "three filters hoist to kernels" 3 sv;
      Alcotest.(check int) "dynamic filter stays rowwise" 1 rw
  | _ -> Alcotest.fail "expected exactly one selvec-routed statement"

(* Gates first: a get probe that follows a slice in factor order still
   runs before it. Q(C) += ΔR(A,B) · S(B,C) · T(A) plans as a batched
   join with the slice on S and a get on T; every row of the first batch
   probes a T key that is 0, so the statement's slot charges one record
   op per source row and none for the three S rows each row's
   slice would yield — run in factor order, it charged those too. The
   second batch hits T, and every batch leaves Q equal to [Exec]'s. *)
let test_zero_get_skips_slice () =
  let base name vars =
    { Prog.mname = name; mschema = vars; mkind = Prog.Auxiliary;
      definition = rel name vars }
  in
  let body r s t = Prod [ r "R" [ va; vb ]; s "S" [ vb; vc ]; t "T" [ va ] ] in
  let map_ mname mvars = Map { mname; mvars } in
  let prog : Prog.t =
    {
      maps =
        [
          base "S" [ vb; vc ];
          base "T" [ va ];
          { mname = "Q"; mschema = [ vc ]; mkind = Prog.Query;
            definition = Sum ([ vc ], body rel rel rel) };
        ];
      triggers =
        [
          {
            relation = "R";
            stmts =
              [
                { target = "Q"; target_vars = [ vc ]; op = Prog.Add_to;
                  rhs = Sum ([ vc ], body delta_rel map_ map_) };
              ];
          };
        ];
      queries = [ ("Q", "Q") ];
      streams = [ ("R", [ va; vb ]); ("S", [ vb; vc ]); ("T", [ va ]) ];
    }
  in
  let label =
    match
      Runtime.block_routes_ex prog ~rel:"R"
        [ ([], (List.hd prog.triggers).stmts) ]
    with
    | [ [ (_, l, _, _, Runtime.Key_groups, _) ] ] -> l
    | _ -> Alcotest.fail "expected one key-grouped vectorized statement"
  in
  let tables =
    [
      ("S", mk2 (List.init 12 (fun k -> ((k / 3) + 1, (k mod 3) + 1, 1.))));
      ("T", Gmr.of_list [ ([| i 100 |], 2.); ([| i 101 |], 1.) ]);
    ]
  in
  let rt = Runtime.create prog and ex = Exec.create prog in
  fill_base rt prog tables;
  Exec.load ex tables;
  let same what =
    Alcotest.(check bool) what true
      (Gmr.equal (Exec.result ex "Q") (Runtime.result rt "Q"))
  in
  let n = 8 in
  let misses = mk2 (List.init n (fun a -> (a, (a mod 4) + 1, 1.))) in
  Prof.reset ();
  Prof.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Prof.set_enabled false)
    (fun () -> ignore (Runtime.apply_batch rt ~rel:"R" misses));
  let ops =
    List.fold_left
      (fun acc (r : Prof.row) ->
        if r.r_trigger = "R" && r.r_label = label then acc + r.r_ops else acc)
      0 (Prof.rows ())
  in
  Alcotest.(check int) "one record op per source row" n ops;
  Exec.apply_batch ex ~rel:"R" misses;
  same "zero gets: Q = Exec";
  let hits = mk2 [ (100, 1, 1.); (101, 2, 3.); (5, 3, 1.) ] in
  ignore (Runtime.apply_batch rt ~rel:"R" hits);
  Exec.apply_batch ex ~rel:"R" hits;
  Alcotest.(check bool) "hits reach Q" true
    (Gmr.cardinal (Runtime.result rt "Q") > 0);
  same "Q = Exec"

(* Several slices in one vectorized member. Each program is built by
   hand: R's trigger assigns ΔR to a transient and adds, per query, the
   transient joined with store maps sliced by its columns; every other
   stream's trigger adds its batch to its base map, so the sliced maps
   fill and empty as the stream runs. A stream of R, S, T and U batches,
   each retracted three batches later, runs through [Exec] (the
   interpreter, on the same statements) and through the compiled runtime
   with the vectorized executor on and off, at 1 and 4 domains, and on
   the simulator at 2 workers; every view must equal [Exec]'s after
   every batch. *)
let ve = Schema.var "E"
let map_ mname mvars = Map { mname; mvars }

let slice_prog ~streams (queries : (string * Schema.t * Calc.expr list) list) =
  let pre r = "DELTA_" ^ r in
  let assign r vars =
    { Prog.target = pre r; target_vars = vars; op = Prog.Assign;
      rhs = delta_rel r vars }
  in
  {
    Prog.maps =
      List.concat_map
        (fun (r, vars) ->
          [
            { Prog.mname = pre r; mschema = vars; mkind = Prog.Transient;
              definition = delta_rel r vars };
            { mname = r; mschema = vars; mkind = Prog.Auxiliary;
              definition = rel r vars };
          ])
        streams
      @ List.map
          (fun (q, qvars, fs) ->
            { Prog.mname = q; mschema = qvars; mkind = Prog.Query;
              definition = Sum (qvars, Prod (rel "R" [ va; vb ] :: fs)) })
          queries;
    triggers =
      List.map
        (fun (r, vars) ->
          let adds =
            if r = "R" then
              List.map
                (fun (q, qvars, fs) ->
                  { Prog.target = q; target_vars = qvars; op = Prog.Add_to;
                    rhs = Sum (qvars, Prod (map_ (pre "R") [ va; vb ] :: fs)) })
                queries
            else
              [ { Prog.target = r; target_vars = vars; op = Prog.Add_to;
                  rhs = map_ (pre r) vars } ]
          in
          { Prog.relation = r; stmts = assign r vars :: adds })
        streams;
    queries = List.map (fun (q, _, _) -> (q, q)) queries;
    streams;
  }

let slice_stream streams =
  let st = Random.State.make [| 28 |] in
  let batch (r, vars) =
    ( r,
      Gmr.of_list
        (List.init 6 (fun _ ->
             ( Array.of_list (List.map (fun _ -> i (Random.State.int st 3)) vars),
               float_of_int (1 + Random.State.int st 2) ))) )
  in
  let others = List.filter (fun (r, _) -> r <> "R") streams in
  Tpch_suite.with_retractions ~k:3
    (List.concat
       (List.init 4 (fun _ ->
            List.map batch others @ [ batch ("R", List.assoc "R" streams) ])))

let check_slices_vs_exec what (prog : Prog.t) =
  let stream = slice_stream prog.streams in
  let ex = Exec.create prog in
  let rts =
    [
      ("columnar, 1 domain", Runtime.create ~domains:1 prog);
      ("columnar off", Runtime.create ~columnar:false ~domains:1 prog);
      ("columnar, 4 domains", Runtime.create ~domains:4 ~par_min_rows:1 prog);
    ]
  in
  let sim =
    let dp =
      Divm_dist.Distribute.compile
        ~catalog:(Divm_dist.Loc.heuristic ~keys:[ "A"; "B" ] prog)
        prog
    in
    Divm_cluster.Cluster.create
      ~config:(Divm_cluster.Cluster.config ~workers:2 ())
      dp
  in
  let touched = ref false in
  List.iteri
    (fun bi (r, b) ->
      Exec.apply_batch ex ~rel:r b;
      List.iter (fun (_, rt) -> ignore (Runtime.apply_batch rt ~rel:r b)) rts;
      ignore (Divm_cluster.Cluster.apply_batch sim ~rel:r b);
      List.iter
        (fun (q, _) ->
          let want = Exec.result ex q in
          if Gmr.cardinal want > 0 then touched := true;
          let check who got =
            if not (Gmr.equal want got) then
              Alcotest.failf "%s: %s after batch %d (%s) differs from Exec on %s"
                what q bi r who
          in
          List.iter (fun (who, rt) -> check who (Runtime.result rt q)) rts;
          check "the simulator at 2 workers" (Divm_cluster.Cluster.result sim q))
        prog.queries)
    stream;
  if not !touched then Alcotest.failf "%s: no view ever held a row" what

let route_of (prog : Prog.t) q =
  match
    List.find_opt
      (fun ((st : Prog.stmt), _, _, _, _, _) -> st.target = q)
      (List.concat
         (Runtime.block_routes_ex prog ~rel:"R"
            [ ([], (Prog.find_trigger prog "R").stmts) ]))
  with
  | Some (_, label, _, _, _, reason) -> (label, reason)
  | None -> Alcotest.failf "no statement writes %s" q

(* Q(C,D) += ΔR(A,B)·S(A,C)·T(B,D): slices of two maps, each bound by a
   column of the batch, nest in one vectorized member. *)
let test_two_maps_sliced () =
  let prog =
    slice_prog
      ~streams:[ ("R", [ va; vb ]); ("S", [ va; vc ]); ("T", [ vb; vd ]) ]
      [ ("Q", [ vc; vd ], [ map_ "S" [ va; vc ]; map_ "T" [ vb; vd ] ]) ]
  in
  (match route_of prog "Q" with
  | "columnar-join:Q", None -> ()
  | l, _ -> Alcotest.failf "Q takes route %s, want columnar-join:Q" l);
  check_slices_vs_exec "two maps" prog

(* Slices of one map share one cached slice when their pool, bound
   columns and bound positions agree, and stay apart when one differs:
   Q slices S twice at position 0 by A (shared), Q2 at position 0 by B,
   Q3 at position 1 by A. The three members fuse, so each key group
   (A,B) resolves exactly three slices: three index probes. *)
let test_one_map_sliced_twice () =
  let prog =
    slice_prog
      ~streams:[ ("R", [ va; vb ]); ("S", [ va; vc ]) ]
      [
        ("Q", [ vc; ve ], [ map_ "S" [ va; vc ]; map_ "S" [ va; ve ] ]);
        ("Q2", [ vc; ve ], [ map_ "S" [ va; vc ]; map_ "S" [ vb; ve ] ]);
        ("Q3", [ vc; ve ], [ map_ "S" [ va; vc ]; map_ "S" [ ve; va ] ]);
      ]
  in
  let label =
    match route_of prog "Q" with
    | ("fused:Q+Q2+Q3" as l), None -> l
    | l, _ -> Alcotest.failf "Q takes route %s, want fused:Q+Q2+Q3" l
  in
  check_slices_vs_exec "one map twice" prog;
  let rt = Runtime.create prog in
  let s = Gmr.of_list (List.init 9 (fun k -> ([| i (k / 3); i (k mod 3) |], 1.))) in
  ignore (Runtime.apply_batch rt ~rel:"S" s);
  let r = mk2 [ (0, 1, 1.); (1, 2, 2.); (2, 2, 1.) ] in
  Prof.reset ();
  Prof.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Prof.set_enabled false)
    (fun () -> ignore (Runtime.apply_batch rt ~rel:"R" r));
  let probes =
    List.fold_left
      (fun acc (row : Prof.row) ->
        if row.r_trigger = "R" && row.r_label = label then acc + row.r_probes
        else acc)
      0 (Prof.rows ())
  in
  Alcotest.(check int) "three slices resolved per key group" (3 * 3) probes

(* Q(D) += ΔR(A,B)·S(A,C)·T(C,D): T's bound variable is S's slice
   output, a join on that output, so the statement stays generic. *)
let test_slice_on_slice_output () =
  let prog =
    slice_prog
      ~streams:[ ("R", [ va; vb ]); ("S", [ va; vc ]); ("T", [ vc; vd ]) ]
      [ ("Q", [ vd ], [ map_ "S" [ va; vc ]; map_ "T" [ vc; vd ] ]) ]
  in
  (match route_of prog "Q" with
  | "stmt:Q", Some "a slice on a bound variable" -> ()
  | l, r ->
      Alcotest.failf "Q takes route %s (%s), want stmt:Q" l
        (Option.value r ~default:"no reason"));
  check_slices_vs_exec "slice on a slice output" prog

(* Q(C,E) += ΔR(A,B)·S(A,C)·U(E): U's slice has no bound column (no
   index: it scans U once per key group) next to S's keyed one, the
   shape of Q22's orders trigger. *)
let test_unkeyed_slice () =
  let prog =
    slice_prog
      ~streams:[ ("R", [ va; vb ]); ("S", [ va; vc ]); ("U", [ ve ]) ]
      [ ("Q", [ vc; ve ], [ map_ "S" [ va; vc ]; map_ "U" [ ve ] ]) ]
  in
  (match route_of prog "Q" with
  | "columnar-join:Q", None -> ()
  | l, _ -> Alcotest.failf "Q takes route %s, want columnar-join:Q" l);
  check_slices_vs_exec "an unkeyed slice" prog

(* A store-probing group never merges batch rows: rows equal on every
   column it reads each run the member chain, so a firing charges one
   record op per batch row, and their contributions meet at the target,
   whose ring [+] sums them. Q(A) += ΔR(A,B,C) · S(B) is R's only
   statement; it reads two of ΔR's three columns and probes S by B. In
   the first batch, (1,1,1) and (1,1,2) carry +1 and -1, so Q(1) cancels
   and must be absent from the pool. Wrapped in Exists, each row weighs
   1 whatever its multiplicity: +1 and +2 on the same two rows add
   2·S(1) to Q(1). Both views match the row-at-a-time runtime's. *)
let test_duplicate_rows_not_merged () =
  let vars = [ va; vb; vc ] in
  let prog =
    Compile.compile
      ~options:{ Compile.default_options with preaggregate = false }
      ~streams:[ ("R", vars) ]
      [ ("Q", sum [ va ] (prod [ rel "R" vars; rel "S" [ vb ] ])) ]
  in
  let exists_prog =
    let wrap = function DeltaRel r -> Exists (DeltaRel r) | f -> f in
    let stmt (s : Prog.stmt) =
      match s.rhs with
      | Sum (gb, Prod fs) -> { s with rhs = Sum (gb, Prod (List.map wrap fs)) }
      | _ -> Alcotest.fail "expected Q += Sum(dR * S)"
    in
    {
      prog with
      triggers =
        List.map
          (fun (tr : Prog.trigger) -> { tr with stmts = List.map stmt tr.stmts })
          prog.triggers;
    }
  in
  let r3 l =
    Gmr.of_list (List.map (fun (a, b, c, m) -> ([| i a; i b; i c |], m)) l)
  in
  let tables = [ ("S", Gmr.of_list [ ([| i 1 |], 2.); ([| i 2 |], 3.) ]) ] in
  let run what prog m2 =
    let trig = Prog.find_trigger prog "R" in
    (match Runtime.block_routes_ex prog ~rel:"R" [ ([], trig.stmts) ] with
    | [ [ (_, _, _, _, Runtime.Key_groups, _) ] ] -> ()
    | _ -> Alcotest.failf "%s: expected one key-grouped statement" what);
    let vec = Runtime.create prog in
    let row = Runtime.create ~columnar:false prog in
    fill_base vec prog tables;
    fill_base row prog tables;
    let batch =
      r3 [ (1, 1, 1, 1.); (1, 1, 2, m2); (2, 1, 3, 1.); (3, 2, 1, 1.) ]
    in
    let rep = Runtime.apply_batch vec ~rel:"R" batch in
    ignore (Runtime.apply_batch row ~rel:"R" batch);
    Alcotest.(check int) (what ^ ": one record op per batch row") 4
      rep.Runtime.ops;
    let got = Runtime.map_contents vec "Q" in
    Alcotest.(check bool) (what ^ ": Q = row-at-a-time Q") true
      (Gmr.equal got (Runtime.map_contents row "Q"));
    (* the pool holds no record beyond the keys [map_contents] shows *)
    let live = (List.assoc "Q" (Runtime.storage_stats vec)).Pool.s_live in
    Alcotest.(check int) (what ^ ": live Q records") (Gmr.cardinal got) live;
    got
  in
  let q = run "cancelling rows" prog (-1.) in
  Alcotest.(check bool) "cancelled key absent from Q" false
    (Gmr.mem q [| i 1 |]);
  Alcotest.(check (float 0.)) "Q(2)" 2. (Gmr.mult q [| i 2 |]);
  let q = run "Exists-wrapped rows" exists_prog 2. in
  Alcotest.(check (float 0.)) "Q(1) = 2 * S(1)" 4. (Gmr.mult q [| i 1 |])

(* A trigger compiles when it first fires: [create] registers no
   profiler slot of it, its first batch registers exactly the route
   labels of its block, and its first single tuple adds the stmt: slots
   of its closures. Q's batch route is a selection-vector kernel, so the
   two sets differ. Slots are process-wide: no other test fires this
   relation. *)
let test_trigger_compiles_on_first_firing () =
  let r = "FIRST_FIRING_R" in
  let prog =
    Compile.compile ~streams:[ (r, [ va; vb ]) ]
      [
        ( "Q",
          sum [ va ]
            (prod [ rel r [ va; vb ]; cmp Lt (Vexpr.var vb) (Vexpr.const_i 3) ])
        );
      ]
  in
  let stmts = (Prog.find_trigger prog r).stmts in
  let labels () =
    List.sort_uniq compare
      (List.filter_map
         (fun (row : Prof.row) ->
           if row.r_trigger = r then Some row.r_label else None)
         (Prof.rows ()))
  in
  let routes =
    List.sort_uniq compare
      (List.map
         (fun (_, label, _, _, _, _) -> label)
         (List.concat (Runtime.block_routes_ex prog ~rel:r [ ([], stmts) ])))
  in
  let closures =
    List.map (fun (st : Prog.stmt) -> "stmt:" ^ st.target) stmts
  in
  Alcotest.(check bool) "the batch route is vectorized" true
    (List.exists (fun l -> not (List.mem l closures)) routes);
  let rt = Runtime.create prog in
  Alcotest.(check (list string)) "create registers no slot" [] (labels ());
  ignore (Runtime.apply_batch rt ~rel:r (mk2 [ (1, 2, 1.); (2, 5, 1.) ]));
  Alcotest.(check (list string)) "the first batch registers its routes"
    routes (labels ());
  ignore (Runtime.apply_batch rt ~rel:r (mk2 [ (1, 1, 1.) ]));
  Alcotest.(check (list string)) "a second batch registers nothing" routes
    (labels ());
  ignore (Runtime.apply_single rt ~rel:r [| i 3; i 0 |] 1.);
  Alcotest.(check (list string)) "the first single tuple adds its closures"
    (List.sort_uniq compare (routes @ closures))
    (labels ());
  Alcotest.(check bool) "Q" true
    (Gmr.equal (Runtime.result rt "Q")
       (Gmr.of_list [ ([| i 1 |], 2.); ([| i 3 |], 1.) ]))

(* A local firing transposes only the columns its groups read, and that
   pruned batch stays visible to the cache model: with a [Trace] sink
   attached, one Q6 batch of n rows writes at least one arena cell per
   row for each of its 4 columns and its multiplicity. *)
let test_pruned_batch_traced () =
  let module Workload = Divm_workload.Workload in
  let module Tpch = Divm_tpch in
  let prog = Workload.compile (Workload.find "Q6") in
  let rt = Runtime.create prog in
  let rel, b =
    List.find
      (fun (rel, b) -> rel = "lineitem" && Gmr.cardinal b >= 100)
      (Tpch.Gen.stream { Tpch.Gen.scale = 0.1; seed = 3 } ~batch_size:200)
  in
  let writes = ref 0 in
  Trace.set_sink
    (Some (fun _ k -> if k = Trace.Write then incr writes));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () -> ignore (Runtime.apply_batch rt ~rel b));
  let n = Gmr.cardinal b in
  Alcotest.(check bool)
    (Printf.sprintf "%d writes for %d rows" !writes n)
    true
    (!writes >= 5 * n)

let suites =
  [
    ( "runtime",
      [
        Alcotest.test_case "compiled = interpreted (running)" `Quick
          test_rt_running;
        Alcotest.test_case "compiled = interpreted (nested)" `Quick
          test_rt_nested;
        Alcotest.test_case "compiled = interpreted (distinct)" `Quick
          test_rt_distinct;
        Alcotest.test_case "compiled = interpreted (filters)" `Quick
          test_rt_filters_values;
        Alcotest.test_case "ops counter" `Quick test_rt_ops_counter;
        Alcotest.test_case "columnar preagg path" `Quick test_columnar_path;
        Alcotest.test_case "selvec route split" `Quick test_selvec_route_split;
        Alcotest.test_case "generic-route census" `Quick
          test_generic_route_census;
        Alcotest.test_case "hash-aggregation census" `Quick test_summed_census;
        Alcotest.test_case "a summed key cancelling in its batch frees its slot"
          `Quick test_summed_slot_order;
        Alcotest.test_case "every query = Exec under retractions" `Quick
          test_oracle_retractions;
        Alcotest.test_case "Q2, Q17, Q21 = Exec with rows in the view" `Quick
          test_oracle_nonempty_views;
        Alcotest.test_case "a share fills the batch pool like its rows" `Quick
          test_share_fills_batch_pool;
        Alcotest.test_case "a zero get skips the slice before it" `Quick
          test_zero_get_skips_slice;
        Alcotest.test_case "duplicate batch rows are not merged" `Quick
          test_duplicate_rows_not_merged;
        Alcotest.test_case "two maps sliced in one member" `Quick
          test_two_maps_sliced;
        Alcotest.test_case "one map sliced twice shares its slice" `Quick
          test_one_map_sliced_twice;
        Alcotest.test_case "a slice on a slice output stays generic" `Quick
          test_slice_on_slice_output;
        Alcotest.test_case "an unkeyed slice beside a keyed one" `Quick
          test_unkeyed_slice;
        Alcotest.test_case "a trigger compiles when it first fires" `Quick
          test_trigger_compiles_on_first_firing;
        Alcotest.test_case "a pruned local batch is traced" `Quick
          test_pruned_batch_traced;
        QCheck_alcotest.to_alcotest qcheck_rt_agree;
        QCheck_alcotest.to_alcotest qcheck_columnar_equiv;
        QCheck_alcotest.to_alcotest qcheck_parallel_equiv;
        QCheck_alcotest.to_alcotest qcheck_selvec_equiv;
        QCheck_alcotest.to_alcotest qcheck_summed_replay;
      ] );
  ]
