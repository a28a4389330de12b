module Tsch = Schema
open Divm_ring
open Divm_calc
open Divm_calc.Calc

type t = { qname : string; maps : (string * Calc.expr) list }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let atom name = Calc.rel name (List.assoc name Tsch.streams)

(* Renamed atom copy: [atomr "nation" [("nkey", cnk)]]. *)
let atomr name renames = Calc.rename_by_assoc renames (atom name)

let x n = Vexpr.var (Tsch.v n)
let xv v = Vexpr.var v
let c_f = Vexpr.const_f
let c_i = Vexpr.const_i
let c_s s = Vexpr.Const (Value.String s)
let c_d (y, m, d) = Vexpr.Const (Value.date y m d)
let vr ?(ty = Value.TFloat) n = Schema.var ~ty n
let eq a b = cmp Eq a b
let lt a b = cmp Lt a b
let lte a b = cmp Lte a b
let gt a b = cmp Gt a b
let gte a b = cmp Gte a b
let neq a b = cmp Neq a b
let mul a b = Vexpr.Mul (a, b)
let sub_ a b = Vexpr.Sub (a, b)
let add_ a b = Vexpr.Add (a, b)

(* one-of-a-set string filter: a disjunction of equalities *)
let in_set col names = add (List.map (fun s -> eq col (c_s s)) names)
let in_set_i col is = add (List.map (fun k -> eq col (c_i k)) is)

(* revenue term: extendedprice * (1 - discount) *)
let revenue = value (mul (x "l_price") (sub_ (c_f 1.) (x "l_disc")))

(* year(date) as a lifted group-by variable *)
let year_of v_date v_year =
  lift v_year (value (Vexpr.Floor (Vexpr.Div (xv v_date, c_i 10000))))

let q qname maps = { qname; maps }
let v = Tsch.v

(* ------------------------------------------------------------------ *)
(* Q1: pricing summary report                                          *)
(* ------------------------------------------------------------------ *)

let q1 =
  let gb = [ v "l_rflag"; v "l_status" ] in
  let base = prod [ atom "lineitem"; lte (x "l_sdate") (c_d (1998, 9, 2)) ] in
  let agg name value_term = (name, sum gb (prod [ base; value_term ])) in
  q "Q1"
    [
      agg "Q1_sum_qty" (value (x "l_qty"));
      agg "Q1_sum_base" (value (x "l_price"));
      agg "Q1_sum_disc_price"
        (value (mul (x "l_price") (sub_ (c_f 1.) (x "l_disc"))));
      agg "Q1_sum_charge"
        (value
           (mul
              (mul (x "l_price") (sub_ (c_f 1.) (x "l_disc")))
              (add_ (c_f 1.) (x "l_tax"))));
      agg "Q1_count" one;
    ]

(* ------------------------------------------------------------------ *)
(* Q2: minimum-cost supplier (MIN encoded as "no cheaper offer")       *)
(* ------------------------------------------------------------------ *)

let q2 =
  let sc = v "ps_supplycost" in
  (* inner copy of partsupp ⋈ supplier ⋈ nation ⋈ region(EUROPE) *)
  let sk2 = vr ~ty:TInt "skey2"
  and nk2 = vr ~ty:TInt "nkey2"
  and rk2 = vr ~ty:TInt "rkey2"
  and sc2 = vr "ps_supplycost2" in
  let inner =
    prod
      [
        atomr "partsupp"
          [ ("skey", sk2); ("ps_availqty", vr ~ty:TInt "ps_availqty2"); ("ps_supplycost", sc2) ];
        atomr "supplier"
          [ ("skey", sk2); ("s_name", vr ~ty:TString "s_name2");
            ("nkey", nk2); ("s_acctbal", vr "s_acctbal2") ];
        atomr "nation"
          [ ("nkey", nk2); ("n_name", vr ~ty:TString "n_name2"); ("rkey", rk2) ];
        atomr "region" [ ("rkey", rk2); ("r_name", vr ~ty:TString "r_name2") ];
        eq (xv (vr ~ty:TString "r_name2")) (c_s "EUROPE");
        lt (xv sc2) (xv sc);
      ]
  in
  let cheaper = vr "cheaper_cnt" in
  q "Q2"
    [
      ( "Q2",
        sum
          [ v "pkey"; v "skey" ]
          (prod
             [
               atom "part";
               eq (x "p_size") (c_i 15);
               eq (x "p_type") (c_s "STANDARD ANODIZED BRASS");
               atom "partsupp";
               atom "supplier";
               atom "nation";
               atom "region";
               eq (x "r_name") (c_s "EUROPE");
               lift cheaper (sum [ v "pkey" ] inner);
               eq (xv cheaper) (c_i 0);
               value (x "s_acctbal");
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q3: shipping priority                                               *)
(* ------------------------------------------------------------------ *)

let q3 =
  q "Q3"
    [
      ( "Q3",
        sum
          [ v "okey"; v "o_date"; v "o_spriority" ]
          (prod
             [
               atom "customer";
               eq (x "c_mktsegment") (c_s "BUILDING");
               atom "orders";
               lt (x "o_date") (c_d (1995, 3, 15));
               atom "lineitem";
               gt (x "l_sdate") (c_d (1995, 3, 15));
               revenue;
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q4: order priority checking (EXISTS)                                *)
(* ------------------------------------------------------------------ *)

let q4 =
  let e = vr "q4_exists" in
  q "Q4"
    [
      ( "Q4",
        sum
          [ v "o_priority" ]
          (prod
             [
               atom "orders";
               gte (x "o_date") (c_d (1993, 7, 1));
               lt (x "o_date") (c_d (1993, 10, 1));
               lift e
                 (sum [ v "okey" ]
                    (prod [ atom "lineitem"; lt (x "l_cdate") (x "l_rdate") ]));
               neq (xv e) (c_i 0);
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q5: local supplier volume (customer and supplier in same nation)    *)
(* ------------------------------------------------------------------ *)

let q5 =
  q "Q5"
    [
      ( "Q5",
        sum
          [ v "nkey"; v "n_name" ]
          (prod
             [
               atom "region";
               eq (x "r_name") (c_s "ASIA");
               atom "nation";
               atom "supplier";
               atom "customer";
               atom "orders";
               gte (x "o_date") (c_d (1994, 1, 1));
               lt (x "o_date") (c_d (1995, 1, 1));
               atom "lineitem";
               revenue;
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q6: forecasting revenue change                                      *)
(* ------------------------------------------------------------------ *)

let q6 =
  q "Q6"
    [
      ( "Q6",
        sum []
          (prod
             [
               atom "lineitem";
               gte (x "l_sdate") (c_d (1994, 1, 1));
               lt (x "l_sdate") (c_d (1995, 1, 1));
               gte (x "l_disc") (c_f 0.05);
               lte (x "l_disc") (c_f 0.07);
               lt (x "l_qty") (c_f 24.);
               value (mul (x "l_price") (x "l_disc"));
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q7: volume shipping between two nations                             *)
(* ------------------------------------------------------------------ *)

let q7 =
  let cnk = vr ~ty:TInt "cnk"
  and n2name = vr ~ty:TString "n2_name"
  and crk = vr ~ty:TInt "crk"
  and yr = vr ~ty:TInt "l_year" in
  let cust = atomr "customer" [ ("nkey", cnk) ] in
  let nation2 =
    atomr "nation" [ ("nkey", cnk); ("n_name", n2name); ("rkey", crk) ]
  in
  let body n1 n2 =
    prod
      [
        atom "supplier";
        atom "nation";
        eq (x "n_name") (c_s n1);
        atom "lineitem";
        gte (x "l_sdate") (c_d (1995, 1, 1));
        lte (x "l_sdate") (c_d (1996, 12, 28));
        atom "orders";
        cust;
        nation2;
        eq (xv n2name) (c_s n2);
        year_of (v "l_sdate") yr;
        revenue;
      ]
  in
  q "Q7"
    [
      ( "Q7",
        sum
          [ v "n_name"; n2name; yr ]
          (add [ body "NATION_03" "NATION_07"; body "NATION_07" "NATION_03" ])
      );
    ]

(* ------------------------------------------------------------------ *)
(* Q8: national market share (numerator and denominator maps)          *)
(* ------------------------------------------------------------------ *)

let q8 =
  let snk = vr ~ty:TInt "snk"
  and sn_name = vr ~ty:TString "sn_name"
  and srk = vr ~ty:TInt "srk"
  and yr = vr ~ty:TInt "o_year" in
  let supp = atomr "supplier" [ ("nkey", snk) ] in
  let nation_s =
    atomr "nation" [ ("nkey", snk); ("n_name", sn_name); ("rkey", srk) ]
  in
  let base extra =
    prod
      ([
         atom "part";
         eq (x "p_type") (c_s "ECONOMY ANODIZED STEEL");
         atom "lineitem";
         supp;
         atom "orders";
         gte (x "o_date") (c_d (1995, 1, 1));
         lte (x "o_date") (c_d (1996, 12, 28));
         atom "customer";
         atom "nation";
         atom "region";
         eq (x "r_name") (c_s "AMERICA");
         nation_s;
         year_of (v "o_date") yr;
       ]
      @ extra
      @ [ revenue ])
  in
  q "Q8"
    [
      ("Q8_num", sum [ yr ] (base [ eq (xv sn_name) (c_s "NATION_06") ]));
      ("Q8_den", sum [ yr ] (base []));
    ]

(* ------------------------------------------------------------------ *)
(* Q9: product type profit                                             *)
(* ------------------------------------------------------------------ *)

let q9 =
  let yr = vr ~ty:TInt "o_year" in
  q "Q9"
    [
      ( "Q9",
        sum
          [ v "n_name"; yr ]
          (prod
             [
               atom "part";
               eq (x "p_color") (c_i 3);
               atom "lineitem";
               atom "supplier";
               atom "partsupp";
               atom "orders";
               atom "nation";
               year_of (v "o_date") yr;
               value
                 (sub_
                    (mul (x "l_price") (sub_ (c_f 1.) (x "l_disc")))
                    (mul (x "ps_supplycost") (x "l_qty")));
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q10: returned item reporting                                        *)
(* ------------------------------------------------------------------ *)

let q10 =
  q "Q10"
    [
      ( "Q10",
        sum
          [ v "ckey"; v "c_name"; v "n_name" ]
          (prod
             [
               atom "customer";
               atom "orders";
               gte (x "o_date") (c_d (1993, 10, 1));
               lt (x "o_date") (c_d (1994, 1, 1));
               atom "lineitem";
               eq (x "l_rflag") (c_s "R");
               atom "nation";
               revenue;
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q11: important stock identification (uncorrelated total: re-eval)   *)
(* ------------------------------------------------------------------ *)

let q11 =
  let pv = vr "part_value" and tv = vr "total_value" in
  let germany extra_renames =
    let base =
      [
        atom "partsupp";
        atom "supplier";
        atom "nation";
        eq (x "n_name") (c_s "NATION_08");
        value (mul (x "ps_supplycost") (x "ps_availqty"));
      ]
    in
    match extra_renames with
    | None -> prod base
    | Some rs -> Calc.rename_by_assoc rs (prod base)
  in
  let pk2 = vr ~ty:TInt "pkey2"
  and sk2 = vr ~ty:TInt "skey2"
  and nk2 = vr ~ty:TInt "nkey2" in
  let inner_total =
    germany
      (Some
         [
           ("pkey", pk2); ("skey", sk2); ("nkey", nk2);
           ("ps_availqty", vr ~ty:TInt "ps_availqty2");
           ("ps_supplycost", vr "ps_supplycost2");
           ("s_name", vr ~ty:TString "s_name2");
           ("s_acctbal", vr "s_acctbal2");
           ("n_name", vr ~ty:TString "n_name2");
           ("rkey", vr ~ty:TInt "rkey2");
         ])
  in
  q "Q11"
    [
      ( "Q11",
        sum
          [ v "pkey" ]
          (prod
             [
               lift pv (sum [ v "pkey" ] (germany None));
               lift tv (sum [] inner_total);
               gt (xv pv) (mul (c_f 0.001) (xv tv));
               value (xv pv);
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q12: shipping modes and order priority                              *)
(* ------------------------------------------------------------------ *)

let q12 =
  let base =
    prod
      [
        atom "orders";
        atom "lineitem";
        in_set (x "l_smode") [ "MAIL"; "SHIP" ];
        lt (x "l_cdate") (x "l_rdate");
        lt (x "l_sdate") (x "l_cdate");
        gte (x "l_rdate") (c_d (1994, 1, 1));
        lt (x "l_rdate") (c_d (1995, 1, 1));
      ]
  in
  q "Q12"
    [
      ( "Q12_high",
        sum
          [ v "l_smode" ]
          (prod [ base; in_set (x "o_priority") [ "1-URGENT"; "2-HIGH" ] ]) );
      ( "Q12_low",
        sum
          [ v "l_smode" ]
          (prod
             [
               base;
               in_set (x "o_priority")
                 [ "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" ];
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q13: customer distribution (aggregate as group-by key)              *)
(* ------------------------------------------------------------------ *)

let q13 =
  let cnt = vr "c_count" in
  q "Q13"
    [
      ( "Q13",
        sum [ cnt ]
          (prod
             [
               exists (sum [ v "ckey" ] (atom "customer"));
               lift cnt (sum [ v "ckey" ] (atom "orders"));
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q14: promotion effect (numerator and denominator maps)              *)
(* ------------------------------------------------------------------ *)

let q14 =
  let base extra =
    prod
      ([
         atom "lineitem";
         gte (x "l_sdate") (c_d (1995, 9, 1));
         lt (x "l_sdate") (c_d (1995, 10, 1));
         atom "part";
       ]
      @ extra
      @ [ revenue ])
  in
  q "Q14"
    [
      ( "Q14_promo",
        sum []
          (base
             [
               in_set (x "p_type")
                 [ "PROMO BRUSHED NICKEL"; "PROMO PLATED BRASS" ];
             ]) );
      ("Q14_total", sum [] (base []));
    ]

(* ------------------------------------------------------------------ *)
(* Q15: top supplier (MAX encoded as "no higher revenue": re-eval)     *)
(* ------------------------------------------------------------------ *)

let q15 =
  let filters renames =
    let e =
      prod
        [
          atom "lineitem";
          gte (x "l_sdate") (c_d (1996, 1, 1));
          lt (x "l_sdate") (c_d (1996, 4, 1));
          revenue;
        ]
    in
    match renames with None -> e | Some rs -> Calc.rename_by_assoc rs e
  in
  let rev = vr "total_rev" and rev2 = vr "total_rev2" and hc = vr "higher" in
  let sk2 = vr ~ty:TInt "skey2" in
  let inner =
    sum []
      (prod
         [
           lift rev2
             (sum [ sk2 ]
                (filters
                   (Some
                      [
                        ("skey", sk2); ("okey", vr ~ty:TInt "okey2");
                        ("pkey", vr ~ty:TInt "pkey2");
                        ("l_num", vr ~ty:TInt "l_num2");
                        ("l_qty", vr "l_qty2"); ("l_price", vr "l_price2");
                        ("l_disc", vr "l_disc2"); ("l_tax", vr "l_tax2");
                        ("l_rflag", vr ~ty:TString "l_rflag2");
                        ("l_status", vr ~ty:TString "l_status2");
                        ("l_sdate", vr ~ty:TDate "l_sdate2");
                        ("l_cdate", vr ~ty:TDate "l_cdate2");
                        ("l_rdate", vr ~ty:TDate "l_rdate2");
                        ("l_smode", vr ~ty:TString "l_smode2");
                      ])));
           gt (xv rev2) (xv rev);
         ])
  in
  q "Q15"
    [
      ( "Q15",
        sum
          [ v "skey" ]
          (prod
             [
               atom "supplier";
               lift rev (sum [ v "skey" ] (filters None));
               lift hc inner;
               eq (xv hc) (c_i 0);
               value (xv rev);
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q16: parts/supplier relationship (NOT EXISTS complaints)            *)
(* ------------------------------------------------------------------ *)

let q16 =
  let bad = vr "complaints" in
  q "Q16"
    [
      ( "Q16",
        sum
          [ v "p_brand"; v "p_type"; v "p_size" ]
          (exists
             (sum
                [ v "p_brand"; v "p_type"; v "p_size"; v "skey" ]
                (prod
                   [
                     atom "part";
                     neq (x "p_brand") (c_s "Brand#45");
                     in_set_i (x "p_size") [ 49; 14; 23; 45; 19; 3; 36; 9 ];
                     atom "partsupp";
                     lift bad
                       (sum [ v "skey" ]
                          (prod [ atom "supplier"; lt (x "s_acctbal") (c_f 0.) ]));
                     eq (xv bad) (c_i 0);
                   ]))) );
    ]

(* ------------------------------------------------------------------ *)
(* Q17: small-quantity-order revenue (correlated AVG, division-free)   *)
(* ------------------------------------------------------------------ *)

let li2_renames =
  [
    ("okey", Schema.var ~ty:Value.TInt "okey2");
    ("skey", Schema.var ~ty:Value.TInt "skey2");
    ("l_num", Schema.var ~ty:Value.TInt "l_num2");
    ("l_qty", Schema.var "l_qty2");
    ("l_price", Schema.var "l_price2");
    ("l_disc", Schema.var "l_disc2");
    ("l_tax", Schema.var "l_tax2");
    ("l_rflag", Schema.var ~ty:Value.TString "l_rflag2");
    ("l_status", Schema.var ~ty:Value.TString "l_status2");
    ("l_sdate", Schema.var ~ty:Value.TDate "l_sdate2");
    ("l_cdate", Schema.var ~ty:Value.TDate "l_cdate2");
    ("l_rdate", Schema.var ~ty:Value.TDate "l_rdate2");
    ("l_smode", Schema.var ~ty:Value.TString "l_smode2");
  ]

let q17 =
  let sq = vr "sum_qty" and cn = vr "cnt_qty" in
  (* l_qty < 0.2 * avg(qty) ⟺ 5·qty·cnt < sum (count ≥ 0, division-free) *)
  q "Q17"
    [
      ( "Q17",
        sum []
          (prod
             [
               atom "part";
               eq (x "p_brand") (c_s "Brand#23");
               eq (x "p_container") (c_s "MED BOX");
               atom "lineitem";
               lift sq
                 (sum [ v "pkey" ]
                    (prod
                       [ atomr "lineitem" li2_renames; value (xv (vr "l_qty2")) ]));
               lift cn (sum [ v "pkey" ] (atomr "lineitem" li2_renames));
               gt (xv sq) (mul (c_f 5.) (mul (x "l_qty") (xv cn)));
               value (Vexpr.Div (x "l_price", c_f 7.));
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q18: large volume customers (HAVING over nested sum)                *)
(* ------------------------------------------------------------------ *)

let q18 =
  let s = vr "sum_qty" in
  q "Q18"
    [
      ( "Q18",
        sum
          [ v "ckey"; v "okey" ]
          (prod
             [
               atom "customer";
               atom "orders";
               lift s
                 (sum [ v "okey" ]
                    (prod [ atom "lineitem"; value (x "l_qty") ]));
               gt (xv s) (c_f 150.);
               value (xv s);
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q19: discounted revenue (disjunctive clause)                        *)
(* ------------------------------------------------------------------ *)

let q19 =
  let clause brand containers qlo qhi size_hi =
    prod
      [
        eq (x "p_brand") (c_s brand);
        in_set (x "p_container") containers;
        gte (x "l_qty") (c_f qlo);
        lte (x "l_qty") (c_f qhi);
        lte (x "p_size") (c_i size_hi);
        in_set (x "l_smode") [ "AIR"; "AIR REG" ];
      ]
  in
  q "Q19"
    [
      ( "Q19",
        sum []
          (prod
             [
               atom "lineitem";
               atom "part";
               add
                 [
                   clause "Brand#12" [ "SM CASE"; "SM BOX" ] 1. 11. 5;
                   clause "Brand#23" [ "MED BAG"; "MED BOX" ] 10. 20. 10;
                   clause "Brand#34" [ "LG CASE"; "LG BOX" ] 20. 30. 15;
                 ];
               revenue;
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q20: potential part promotion                                       *)
(* ------------------------------------------------------------------ *)

let q20 =
  let e = vr "q20_exists" and sq = vr "ship_qty" in
  let inner =
    sum [ v "skey" ]
      (prod
         [
           atom "partsupp";
           exists
             (sum [ v "pkey" ]
                (prod [ atom "part"; eq (x "p_color") (c_i 3) ]));
           lift sq
             (sum
                [ v "pkey"; v "skey" ]
                (prod
                   [
                     atom "lineitem";
                     gte (x "l_sdate") (c_d (1994, 1, 1));
                     lt (x "l_sdate") (c_d (1995, 1, 1));
                     value (x "l_qty");
                   ]));
           gt (mul (c_f 2.) (x "ps_availqty")) (xv sq);
         ])
  in
  q "Q20"
    [
      ( "Q20",
        sum
          [ v "skey"; v "s_name" ]
          (prod
             [
               atom "supplier";
               atom "nation";
               eq (x "n_name") (c_s "NATION_04");
               lift e inner;
               neq (xv e) (c_i 0);
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q21: suppliers who kept orders waiting                              *)
(* ------------------------------------------------------------------ *)

let q21 =
  let e2 = vr "other_supp" and e3 = vr "other_late" in
  let sk2 = vr ~ty:TInt "skey2" and sk3 = vr ~ty:TInt "skey3" in
  let li2 =
    atomr "lineitem"
      (( "skey", sk2 ) :: ("pkey", vr ~ty:TInt "pkey2")
      :: List.filter
           (fun (n, _) -> n <> "okey" && n <> "skey" && n <> "pkey")
           li2_renames)
  in
  let li3 =
    atomr "lineitem"
      [
        ("skey", sk3); ("pkey", vr ~ty:TInt "pkey3");
        ("l_num", vr ~ty:TInt "l_num3"); ("l_qty", vr "l_qty3");
        ("l_price", vr "l_price3"); ("l_disc", vr "l_disc3");
        ("l_tax", vr "l_tax3"); ("l_rflag", vr ~ty:TString "l_rflag3");
        ("l_status", vr ~ty:TString "l_status3");
        ("l_sdate", vr ~ty:TDate "l_sdate3");
        ("l_cdate", vr ~ty:TDate "l_cdate3");
        ("l_rdate", vr ~ty:TDate "l_rdate3");
        ("l_smode", vr ~ty:TString "l_smode3");
      ]
  in
  q "Q21"
    [
      ( "Q21",
        sum
          [ v "skey"; v "s_name" ]
          (prod
             [
               atom "supplier";
               atom "nation";
               eq (x "n_name") (c_s "NATION_20");
               atom "lineitem";
               gt (x "l_rdate") (x "l_cdate");
               atom "orders";
               eq (x "o_status") (c_s "F");
               lift e2 (sum [ v "okey" ] (prod [ li2; neq (xv sk2) (x "skey") ]));
               neq (xv e2) (c_i 0);
               lift e3
                 (sum [ v "okey" ]
                    (prod
                       [
                         li3;
                         neq (xv sk3) (x "skey");
                         gt (xv (vr ~ty:TDate "l_rdate3"))
                           (xv (vr ~ty:TDate "l_cdate3"));
                       ]));
               eq (xv e3) (c_i 0);
             ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Q22: global sales opportunity                                       *)
(* ------------------------------------------------------------------ *)

let q22 =
  let sa = vr "sum_bal" and ca = vr "cnt_bal" and oc = vr "order_cnt" in
  let ck2 = vr ~ty:TInt "ckey2" in
  let cust2 =
    atomr "customer"
      [
        ("ckey", ck2); ("c_name", vr ~ty:TString "c_name2");
        ("nkey", vr ~ty:TInt "nkey2");
        ("c_mktsegment", vr ~ty:TString "c_mktsegment2");
        ("c_acctbal", vr "c_acctbal2"); ("c_cc", vr ~ty:TInt "c_cc2");
      ]
  in
  let cc_set = [ 13; 31; 23; 29; 30; 18; 17 ] in
  q "Q22"
    [
      ( "Q22",
        sum
          [ v "c_cc" ]
          (prod
             [
               atom "customer";
               in_set_i (x "c_cc") cc_set;
               (* average positive balance, division-free:
                  acctbal·cnt > sum ⟺ acctbal > avg *)
               lift sa
                 (sum []
                    (prod
                       [
                         cust2;
                         in_set_i (xv (vr ~ty:TInt "c_cc2")) cc_set;
                         gt (xv (vr "c_acctbal2")) (c_f 0.);
                         value (xv (vr "c_acctbal2"));
                       ]));
               lift ca
                 (sum []
                    (prod
                       [
                         cust2;
                         in_set_i (xv (vr ~ty:TInt "c_cc2")) cc_set;
                         gt (xv (vr "c_acctbal2")) (c_f 0.);
                       ]));
               gt (mul (x "c_acctbal") (xv ca)) (xv sa);
               lift oc (sum [ v "ckey" ] (atom "orders"));
               eq (xv oc) (c_i 0);
               value (x "c_acctbal");
             ]) );
    ]

(* ------------------------------------------------------------------ *)

let all =
  [
    q1; q2; q3; q4; q5; q6; q7; q8; q9; q10; q11; q12; q13; q14; q15; q16;
    q17; q18; q19; q20; q21; q22;
  ]

let find name =
  match List.find_opt (fun q -> String.equal q.qname name) all with
  | Some q -> q
  | None -> invalid_arg ("Tpch.Queries.find: unknown query " ^ name)
