open Divm_ring
open Divm_storage

let v_int i = Value.Int i
let v_str s = Value.String s

let test_value_arith () =
  Alcotest.(check bool)
    "int add" true
    (Value.equal (Value.add (v_int 2) (v_int 3)) (v_int 5));
  Alcotest.(check bool)
    "mixed mul" true
    (Value.equal (Value.mul (v_int 2) (Value.Float 1.5)) (Value.Float 3.));
  Alcotest.(check bool)
    "int div exact" true
    (Value.equal (Value.div (v_int 6) (v_int 3)) (v_int 2));
  Alcotest.(check bool)
    "int div inexact" true
    (Value.equal (Value.div (v_int 7) (v_int 2)) (Value.Float 3.5));
  Alcotest.check_raises "string add" (Invalid_argument "Value.add: non-numeric operand")
    (fun () -> ignore (Value.add (v_str "a") (v_int 1)))

let test_value_mixed_equal_hash () =
  (* Int and equal Float must collide so GMR lookups are type-insensitive. *)
  Alcotest.(check bool) "2 = 2.0" true (Value.equal (v_int 2) (Value.Float 2.));
  Alcotest.(check int) "hash 2 = hash 2.0" (Value.hash (v_int 2))
    (Value.hash (Value.Float 2.))

let test_value_date () =
  let d = Value.date 1995 3 15 in
  Alcotest.(check bool) "date encoding" true (Value.equal d (Value.Date 19950315));
  Alcotest.(check bool)
    "date order" true
    (Value.compare (Value.date 1995 3 15) (Value.date 1995 12 1) < 0);
  Alcotest.(check string) "date pp" "1995-03-15" (Value.to_string d)

let test_tuple_ops () =
  let t1 = [| v_int 1; v_str "a" |] and t2 = [| v_int 1; v_str "a" |] in
  Alcotest.(check bool) "tuple equal" true (Vtuple.equal t1 t2);
  Alcotest.(check int) "tuple hash" (Vtuple.hash t1) (Vtuple.hash t2);
  Alcotest.(check bool)
    "concat" true
    (Vtuple.equal (Vtuple.concat t1 [| v_int 9 |]) [| v_int 1; v_str "a"; v_int 9 |]);
  Alcotest.(check bool)
    "project" true
    (Vtuple.equal (Vtuple.project t1 [| 1; 0 |]) [| v_str "a"; v_int 1 |]);
  Alcotest.(check bool) "empty distinct" false (Vtuple.equal t1 Vtuple.empty)

let test_schema_ops () =
  let a = Schema.var "a" and b = Schema.var "b" and c = Schema.var "c" in
  Alcotest.(check bool) "mem" true (Schema.mem a [ a; b ]);
  Alcotest.(check int) "union len" 3 (List.length (Schema.union [ a; b ] [ b; c ]));
  Alcotest.(check int) "inter len" 1 (List.length (Schema.inter [ a; b ] [ b; c ]));
  Alcotest.(check int) "diff len" 1 (List.length (Schema.diff [ a; b ] [ b; c ]));
  Alcotest.(check bool) "subset" true (Schema.subset [ b ] [ a; b ]);
  Alcotest.(check bool) "set equal" true (Schema.equal_as_sets [ a; b ] [ b; a ]);
  let pos = Schema.positions [ c; a ] [ a; b; c ] in
  Alcotest.(check (array int)) "positions" [| 2; 0 |] pos

let test_gmr_basic () =
  let g = Gmr.create () in
  Gmr.add g [| v_int 1 |] 2.;
  Gmr.add g [| v_int 1 |] 3.;
  Gmr.add g [| v_int 2 |] 1.;
  Alcotest.(check int) "cardinal" 2 (Gmr.cardinal g);
  Alcotest.(check (float 1e-9)) "mult" 5. (Gmr.mult g [| v_int 1 |]);
  Gmr.add g [| v_int 1 |] (-5.);
  Alcotest.(check int) "cancellation removes" 1 (Gmr.cardinal g);
  Alcotest.(check (float 1e-9)) "absent is zero" 0. (Gmr.mult g [| v_int 1 |])

let test_gmr_union_scale () =
  let g1 = Gmr.of_list [ ([| v_int 1 |], 1.); ([| v_int 2 |], 2.) ] in
  let g2 = Gmr.of_list [ ([| v_int 2 |], -2.); ([| v_int 3 |], 3.) ] in
  Gmr.union_into g1 g2;
  Alcotest.(check int) "union cancels" 2 (Gmr.cardinal g1);
  let s = Gmr.scale g1 2. in
  Alcotest.(check (float 1e-9)) "scale" 6. (Gmr.mult s [| v_int 3 |]);
  Alcotest.(check int) "scale by zero" 0 (Gmr.cardinal (Gmr.scale g1 0.))

let test_gmr_equal () =
  let g1 = Gmr.of_list [ ([| v_int 1 |], 1.) ] in
  let g2 = Gmr.of_list [ ([| v_int 1 |], 1. +. 1e-9) ] in
  let g3 = Gmr.of_list [ ([| v_int 1 |], 2.) ] in
  Alcotest.(check bool) "tolerant equal" true (Gmr.equal g1 g2);
  Alcotest.(check bool) "not equal" false (Gmr.equal g1 g3)

let test_gmr_negative_mult () =
  (* Deletions are negative multiplicities; a GMR may go negative. *)
  let g = Gmr.create () in
  Gmr.add g [| v_int 7 |] (-3.);
  Alcotest.(check (float 1e-9)) "negative kept" (-3.) (Gmr.mult g [| v_int 7 |])

let suites =
  [
    ( "ring",
      [
        Alcotest.test_case "value arithmetic" `Quick test_value_arith;
        Alcotest.test_case "mixed int/float equal+hash" `Quick
          test_value_mixed_equal_hash;
        Alcotest.test_case "dates" `Quick test_value_date;
        Alcotest.test_case "tuples" `Quick test_tuple_ops;
        Alcotest.test_case "schemas" `Quick test_schema_ops;
        Alcotest.test_case "gmr add/cancel" `Quick test_gmr_basic;
        Alcotest.test_case "gmr union/scale" `Quick test_gmr_union_scale;
        Alcotest.test_case "gmr equality" `Quick test_gmr_equal;
        Alcotest.test_case "gmr negative multiplicities" `Quick
          test_gmr_negative_mult;
      ] );
  ]
