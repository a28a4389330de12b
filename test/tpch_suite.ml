(* The TPC-H queries the equivalence checks replay: together they cover
   every executor route — generic closures, columnar and selection-vector
   passes, batched joins against stores (Q17) and fused groups whose
   members read shared transients under different positional names
   (Q7). *)
let queries =
  [ "Q1"; "Q3"; "Q4"; "Q6"; "Q7"; "Q12"; "Q13"; "Q14"; "Q17"; "Q19"; "Q22" ]
