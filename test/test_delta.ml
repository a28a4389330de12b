open Divm_ring
open Divm_storage
open Divm_calc
open Divm_calc.Calc
open Divm_eval
open Divm_delta

let i x = Value.Int x
let va = Schema.var "A"
let vb = Schema.var "B"
let vc = Schema.var "C"
let vx = Schema.var "X"
let vy = Schema.var "Y"

let src_of ~rels ~deltas =
  let find tbl n =
    match List.assoc_opt n tbl with Some g -> g | None -> Gmr.create ()
  in
  {
    Interp.rel = find rels;
    delta = find deltas;
    map = (fun _ -> raise Not_found);
  }

(* Apply a batch to a copy of a relation. *)
let apply g d =
  let g' = Gmr.copy g in
  Gmr.union_into g' d;
  g'

(* The delta invariant: Q(db + ΔR) = Q(db) + (ΔQ)(db, ΔR). *)
let check_delta_invariant ?(msg = "delta invariant") q rels rel_name batch =
  let dq = Delta.expr ~rel:rel_name q in
  let src_pre = src_of ~rels ~deltas:[ (rel_name, batch) ] in
  let rels_post =
    List.map
      (fun (n, g) -> if n = rel_name then (n, apply g batch) else (n, g))
      rels
  in
  let src_post = src_of ~rels:rels_post ~deltas:[] in
  let _, q_pre = Interp.eval_closed src_pre q in
  let _, q_post = Interp.eval_closed src_post q in
  let _, d = Interp.eval_closed src_pre dq in
  let expect = Gmr.copy q_pre in
  Gmr.union_into expect d;
  if not (Gmr.equal expect q_post) then
    Alcotest.failf "%s failed for %s:@.dQ = %s@.got %s@.want %s" msg
      (to_string q) (to_string dq)
      (Format.asprintf "%a" Gmr.pp expect)
      (Format.asprintf "%a" Gmr.pp q_post)

let mk_r l = Gmr.of_list (List.map (fun (a, b, m) -> ([| i a; i b |], m)) l)

let db_r () = mk_r [ (1, 10, 1.); (2, 10, 1.); (3, 20, 2.) ]
let db_s () = mk_r [ (10, 100, 1.); (20, 100, 1.); (20, 200, 3.) ]

let q_join =
  sum [ vb ] (prod [ rel "R" [ va; vb ]; rel "S" [ vb; vc ] ])

let test_delta_join () =
  let batch = mk_r [ (5, 10, 1.); (3, 20, -2.) ] in
  check_delta_invariant q_join
    [ ("R", db_r ()); ("S", db_s ()) ]
    "R" batch;
  let sbatch = mk_r [ (10, 100, -1.); (30, 300, 2.) ] in
  check_delta_invariant q_join
    [ ("R", db_r ()); ("S", db_s ()) ]
    "S" sbatch

let test_delta_shape () =
  (* ΔR(R ⋈ S) must not contain S's delta and must reference dR. *)
  let d = Delta.expr ~rel:"R" q_join in
  Alcotest.(check (list string)) "delta rels" [ "R" ] (delta_rels d);
  Alcotest.(check (list string)) "still joins S" [ "S" ] (base_rels d);
  let d2 = Delta.expr ~rel:"T" q_join in
  Alcotest.(check bool) "delta wrt absent rel is zero" true (is_zero d2)

let test_delta_union_filter () =
  let q =
    sum [ va ]
      (add
         [
           prod [ rel "R" [ va; vb ]; cmp Gt (Vexpr.var vb) (Vexpr.const_i 15) ];
           prod [ rel "R" [ va; vb ]; cmp Lte (Vexpr.var vb) (Vexpr.const_i 15) ];
         ])
  in
  let batch = mk_r [ (7, 20, 1.); (1, 10, -1.) ] in
  check_delta_invariant q [ ("R", db_r ()) ] "R" batch

let test_delta_distinct () =
  (* Example 3.2: SELECT DISTINCT A FROM R WHERE B > 3. *)
  let q =
    exists
      (sum [ va ]
         (prod [ rel "R" [ va; vb ]; cmp Gt (Vexpr.var vb) (Vexpr.const_i 15) ]))
  in
  (* Insertion that creates a new distinct A, deletion that removes one,
     and a no-op change that keeps A distinct. *)
  let batch = mk_r [ (9, 20, 1.); (3, 20, -2.); (1, 10, 5.) ] in
  check_delta_invariant q [ ("R", db_r ()) ] "R" batch;
  (* The revised rule must restrict the difference with a domain. *)
  let d = Delta.of_expr ~rel:"R" q in
  Alcotest.(check bool) "restricted, not expensive" false d.expensive

let test_delta_nested_correlated () =
  (* Example 3.1 with the correlated variable as inner group-by:
     COUNT of R rows with A < (COUNT of S rows with same B). *)
  let q =
    sum []
      (prod
         [
           rel "R" [ va; vb ];
           lift vx (sum [ vb ] (rel "S" [ vb; vc ]));
           cmp_vars Lt va vx;
         ])
  in
  let rels = [ ("R", db_r ()); ("S", db_s ()) ] in
  check_delta_invariant q rels "R" (mk_r [ (0, 20, 1.) ]);
  check_delta_invariant q rels "S" (mk_r [ (10, 300, 2.); (20, 100, -1.) ]);
  let d = Delta.of_expr ~rel:"S" q in
  Alcotest.(check bool) "equality correlation found" false d.expensive

let test_delta_nested_uncorrelated () =
  (* Example 3.3 shape: nested aggregate with no correlation — delta is
     flagged expensive (re-evaluation preferable). *)
  let vb' = Schema.var "B2" in
  let q =
    sum []
      (prod
         [
           rel "R" [ va; vb ];
           lift vx (sum [] (rel "S" [ vb'; vc ]));
           cmp_vars Lt va vx;
         ])
  in
  let rels = [ ("R", db_r ()); ("S", db_s ()) ] in
  check_delta_invariant q rels "S" (mk_r [ (10, 300, 2.) ]);
  let d = Delta.of_expr ~rel:"S" q in
  Alcotest.(check bool) "uncorrelated is expensive" true d.expensive

let test_domain_extract_basic () =
  let dq =
    sum [ va ]
      (prod
         [ delta_rel "R" [ va; vb ]; cmp Gt (Vexpr.var vb) (Vexpr.const_i 3) ])
  in
  let dom = Domain.extract dq in
  Alcotest.(check bool) "binds A" true (Domain.restricts dom [ va ]);
  Alcotest.(check bool) "does not bind C" false (Domain.restricts dom [ vc ]);
  (* Domain tuples must have multiplicity one and cover the delta support. *)
  let batch = mk_r [ (1, 10, 5.); (2, 2, 1.) ] in
  let src = src_of ~rels:[] ~deltas:[ ("R", batch) ] in
  let _, g =
    Interp.eval_closed src (exists (sum [ va ] (Domain.to_expr dom)))
  in
  Alcotest.(check (float 1e-9)) "A=1 in domain (mult 1)" 1. (Gmr.mult g [| i 1 |]);
  Alcotest.(check (float 1e-9)) "A=2 filtered out by B>3" 0. (Gmr.mult g [| i 2 |])

let test_domain_union_intersection () =
  let d1 = delta_rel "R" [ va; vb ] in
  let f = cmp Gt (Vexpr.var vb) (Vexpr.const_i 3) in
  let dom_prod = Domain.extract (prod [ d1; f ]) in
  Alcotest.(check int) "prod unions factors" 2 (List.length dom_prod);
  let dom_add = Domain.extract (add [ prod [ d1; f ]; prod [ d1 ] ]) in
  (* Only the common factor survives a union. *)
  Alcotest.(check int) "add intersects factors" 1 (List.length dom_add)

(* Property: the delta invariant holds for random data on a panel of query
   shapes covering joins, filters, aggregation, distinct and nesting. *)
let qcheck_delta_invariant =
  let open QCheck in
  let gen_gmr =
    Gen.(
      list_size (int_range 0 12)
        (triple (int_range 0 4) (int_range 0 4) (int_range (-2) 3)))
  in
  let shapes =
    [
      ("join", q_join, `Both);
      ( "filter-agg",
        sum [ vb ]
          (prod
             [
               rel "R" [ va; vb ];
               cmp Lte (Vexpr.var va) (Vexpr.const_i 2);
               value (Vexpr.var vb);
             ]),
        `R );
      ( "distinct",
        exists (sum [ va ] (rel "R" [ va; vb ])),
        `R );
      ( "nested",
        sum []
          (prod
             [
               rel "R" [ va; vb ];
               lift vx (sum [ vb ] (rel "S" [ vb; vc ]));
               cmp_vars Lt va vx;
             ]),
        `Both );
      ( "self-join",
        sum [ va ] (prod [ rel "R" [ va; vb ]; rel "R" [ vc; vb ] ]),
        `R );
      (* Q17's shape: the update reaches the product both through R and
         through two lifts over R correlated on B, so a nonzero ΔR(A,B)
         meets the lifts after the update. *)
      ( "two lifts over the updated relation",
        sum []
          (prod
             [
               rel "R" [ va; vb ];
               lift vx
                 (sum [ vb ] (prod [ rel "R" [ vc; vb ]; value (Vexpr.var vc) ]));
               lift vy (sum [ vb ] (rel "R" [ vc; vb ]));
               cmp Gt (Vexpr.var vx) (Vexpr.Mul (Vexpr.var va, Vexpr.var vy));
               value (Vexpr.var va);
             ]),
        `R );
    ]
  in
  let arb =
    QCheck.make
      ~print:(fun (r, s, d, i) ->
        Printf.sprintf "r=%d tuples, s=%d, d=%d, shape=%d" (List.length r)
          (List.length s) (List.length d) i)
      Gen.(quad gen_gmr gen_gmr gen_gmr (int_range 0 (List.length shapes - 1)))
  in
  QCheck.Test.make ~name:"delta invariant on random data" ~count:200 arb
    (fun (rl, sl, dl, si) ->
      let to_gmr l =
        Gmr.of_list (List.map (fun (a, b, m) -> ([| i a; i b |], float_of_int m)) l)
      in
      let rels = [ ("R", to_gmr rl); ("S", to_gmr sl) ] in
      let name, q, targets = List.nth shapes si in
      let batch = to_gmr dl in
      let check rel_name =
        check_delta_invariant ~msg:name q rels rel_name batch;
        true
      in
      match targets with `R -> check "R" | `Both -> check "R" && check "S")

(* Polynomial expansion preserves semantics: add(monomials e) ≡ e. *)
let qcheck_monomials_equiv =
  let open QCheck in
  let gen_gmr =
    Gen.(
      list_size (int_range 0 10)
        (triple (int_range 0 3) (int_range 0 3) (int_range (-2) 3)))
  in
  let exprs =
    [
      add
        [
          prod [ rel "R" [ va; vb ]; rel "S" [ vb; vc ] ];
          prod [ rel "R" [ va; vb ]; neg (rel "S" [ vb; vc ]) ];
        ];
      sum [ vb ]
        (prod
           [
             add [ rel "R" [ va; vb ]; rel "R" [ va; vb ] ];
             add
               [
                 cmp Lt (Vexpr.var va) (Vexpr.const_i 2);
                 cmp Gte (Vexpr.var va) (Vexpr.const_i 2);
               ];
             rel "S" [ vb; vc ];
           ]);
      sum [ va ]
        (prod
           [
             rel "R" [ va; vb ];
             add [ exists (sum [ vb ] (rel "S" [ vb; vc ])); one ];
           ]);
    ]
  in
  let arb =
    QCheck.make
      ~print:(fun _ -> "<data>")
      Gen.(triple gen_gmr gen_gmr (int_range 0 (List.length exprs - 1)))
  in
  QCheck.Test.make ~name:"add(monomials e) ≡ e" ~count:100 arb
    (fun (rl, sl, ei) ->
      let to_gmr l =
        Gmr.of_list
          (List.map (fun (a, b, m) -> ([| i a; i b |], float_of_int m)) l)
      in
      let src = src_of ~rels:[ ("R", to_gmr rl); ("S", to_gmr sl) ] ~deltas:[] in
      let e = List.nth exprs ei in
      let monos = Poly.monomials e in
      let _, g1 = Interp.eval_closed src e in
      let _, g2 = Interp.eval_closed src (add monos) in
      Gmr.equal g1 g2)

let test_reorder_preserves_semantics () =
  (* Reordering a product must not change its value (domain-first vs
     source order), including order-sensitive Lift factors. *)
  let fs =
    [
      rel "R" [ va; vb ];
      lift vx (sum [ vb ] (rel "S" [ vb; vc ]));
      cmp_vars Lt va vx;
    ]
  in
  match Poly.reorder ~bound:[] fs with
  | None -> Alcotest.fail "no ordering found"
  | Some fs' ->
      let src =
        src_of
          ~rels:[ ("R", db_r ()); ("S", db_s ()) ]
          ~deltas:[]
      in
      let v1 = Interp.eval_scalar src (sum [] (prod fs)) in
      let v2 = Interp.eval_scalar src (sum [] (prod fs')) in
      Alcotest.(check (float 1e-9)) "same value" v1 v2

(* Merging equal monomials: terms equal up to factor order add up or
   cancel, and a lift that iterates its groups in one term and is looked
   up in the other keeps both terms. Each merge keeps the value. *)
let test_merge_monomials () =
  let r = rel "R" [ va; vb ] and s = rel "S" [ vb; vc ] in
  let cnt = lift vx (sum [ vb ] (rel "S" [ vb; vc ])) in
  (* R's B = 30 has no S group: the lookup gives it X = 0, the iteration
     no row. *)
  let rels = [ ("R", mk_r [ (1, 10, 1.); (4, 30, 1.) ]); ("S", db_s ()) ] in
  let src = src_of ~rels ~deltas:[] in
  List.iter
    (fun (msg, e, n) ->
      let ms = Poly.merge ~bound:[] (Poly.monomials e) in
      Alcotest.(check int) (msg ^ ": monomials") n (List.length ms);
      let _, want = Interp.eval_closed src e in
      let _, got = Interp.eval_closed src (add ms) in
      if not (Gmr.equal want got) then Alcotest.failf "%s: value changed" msg)
    [
      ("cancel", add [ prod [ r; s ]; neg (prod [ s; r ]) ], 0);
      ( "add up",
        sum [ va ]
          (add [ prod [ r; exists (sum [ vb ] s) ]; prod [ exists (sum [ vb ] s); r ] ]),
        1 );
      ("lift boundness", add [ prod [ cnt; r ]; neg (prod [ r; cnt ]) ], 2);
    ]

(* The product rule keeps each lift whole and equal monomials merge, so
   Q17's lineitem trigger writes Q17 in three statements: the batch's rows
   against the new sum and count, and new minus old for the rows whose
   sum and count the batch changes (seventeen under the Leibniz rule). *)
let test_q17_lineitem_writes () =
  let module Workload = Divm_workload.Workload in
  let prog = Workload.compile (Workload.find "Q17") in
  let tr =
    List.find
      (fun (tr : Divm_compiler.Prog.trigger) -> tr.relation = "lineitem")
      prog.triggers
  in
  Alcotest.(check int) "statements writing Q17" 3
    (List.length
       (List.filter
          (fun (st : Divm_compiler.Prog.stmt) -> st.target = "Q17")
          tr.stmts))

let suites =
  [
    ( "delta",
      [
        Alcotest.test_case "join deltas (Ex 2.1)" `Quick test_delta_join;
        Alcotest.test_case "delta shape" `Quick test_delta_shape;
        Alcotest.test_case "union + filter" `Quick test_delta_union_filter;
        Alcotest.test_case "distinct (Ex 3.2)" `Quick test_delta_distinct;
        Alcotest.test_case "correlated nesting (Ex 3.1)" `Quick
          test_delta_nested_correlated;
        Alcotest.test_case "uncorrelated nesting (Ex 3.3)" `Quick
          test_delta_nested_uncorrelated;
        Alcotest.test_case "domain extraction basics" `Quick
          test_domain_extract_basic;
        Alcotest.test_case "domain union/intersection" `Quick
          test_domain_union_intersection;
        QCheck_alcotest.to_alcotest qcheck_delta_invariant;
        QCheck_alcotest.to_alcotest qcheck_monomials_equiv;
        Alcotest.test_case "reorder preserves semantics" `Quick
          test_reorder_preserves_semantics;
        Alcotest.test_case "merge sums equal monomials" `Quick
          test_merge_monomials;
        Alcotest.test_case "Q17's lineitem trigger writes Q17 3 times" `Quick
          test_q17_lineitem_writes;
      ] );
  ]
