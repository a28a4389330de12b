open Divm_storage

(* The TPC-H queries the equivalence checks replay: together they cover
   every executor route — generic closures, columnar and selection-vector
   passes, batched joins against stores (Q17) and fused groups whose
   members read shared transients under different positional names
   (Q7). *)
let queries =
  [ "Q1"; "Q3"; "Q4"; "Q6"; "Q7"; "Q12"; "Q13"; "Q14"; "Q17"; "Q19"; "Q22" ]

(* Every TPC-H and TPC-DS query, by name. *)
let all_queries =
  List.map (fun (q : Divm_tpch.Queries.t) -> q.qname) Divm_tpch.Queries.all
  @ List.map (fun (q : Divm_tpcds.Queries.t) -> q.qname) Divm_tpcds.Queries.all

(* The stream with every batch retracted [k] batches later (after the
   last insert, the remaining ones in order): about half the rows are
   deletes, and keys cancel to zero and leave pools. [retract], given a
   batch's position, narrows the retractions to the batches it holds. *)
let with_retractions ?(retract = fun _ -> true) ~k stream =
  let a = Array.of_list stream in
  let n = Array.length a in
  let neg (rel, b) = (rel, Gmr.scale b (-1.)) in
  List.concat
    (List.init (n + k) (fun i ->
         (if i < n then [ a.(i) ] else [])
         @
         if i >= k && i - k < n && retract (i - k) then [ neg a.(i - k) ]
         else []))

(* The base contents a stream leaves behind, per relation: what the
   reference interpreter re-evaluates every view over. *)
let net_contents stream =
  let net = Hashtbl.create 8 in
  List.iter
    (fun (rel, b) ->
      let g =
        match Hashtbl.find_opt net rel with
        | Some g -> g
        | None ->
            let g = Gmr.create () in
            Hashtbl.replace net rel g;
            g
      in
      Gmr.iter (fun t m -> Gmr.add g t m) b)
    stream;
  Hashtbl.fold (fun r g l -> (r, g) :: l) net []

(* First key whose multiplicities differ by more than 1e-9 of the view's
   largest magnitude (incremental float sums carry rounding error on the
   scale of their summands, not of the result). *)
let view_difference want got =
  let largest g = Gmr.fold (fun _ m a -> Float.max a (Float.abs m)) g 1. in
  let tol = 1e-9 *. Float.max (largest want) (largest got) in
  let first a b =
    Gmr.fold
      (fun t m d ->
        match d with
        | None when Float.abs (m -. Gmr.mult b t) > tol -> Some t
        | d -> d)
      a None
  in
  match first want got with Some t -> Some t | None -> first got want
