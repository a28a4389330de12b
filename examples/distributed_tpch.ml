(* Distributed incremental view maintenance of TPC-H Q3 on the simulated
   synchronous cluster (§4, §6.2): compile the local triggers into a
   distributed program, inspect its blocks, then process the stream and
   watch per-batch latency and network traffic as workers scale.

   Run with: dune exec examples/distributed_tpch.exe *)

open Divm

let () =
  let q = Tpch.Queries.find "Q3" in
  let prog = Compile.compile ~streams:Tpch.Schema.streams q.maps in
  let catalog = Loc.heuristic ~keys:Tpch.Schema.partition_keys prog in
  let dp = Distribute.compile ~catalog prog in

  let jobs, stages = Dprog.jobs_and_stages dp "lineitem" in
  Printf.printf "Q3 lineitem trigger: %d job(s), %d stage(s) per batch\n\n"
    jobs stages;

  let stream = Tpch.Gen.stream { Tpch.Gen.scale = 4.0; seed = 1 } ~batch_size:4000 in
  Printf.printf "%8s %10s %12s %10s %12s\n" "workers" "batches" "median lat"
    "shuffled" "result rows";
  List.iter
    (fun workers ->
      let c = Cluster.create ~config:(Cluster.config ~workers ()) dp in
      let lats = ref [] and bytes = ref 0 in
      List.iter
        (fun (rel, b) ->
          let m = Cluster.apply_batch c ~rel b in
          bytes := !bytes + m.Cluster.bytes_shuffled;
          if rel = "lineitem" then lats := m.Cluster.latency :: !lats)
        stream;
      Cluster.check_placement c;
      let sorted = List.sort compare !lats in
      let median = List.nth sorted (List.length sorted / 2) in
      Printf.printf "%8d %10d %10.1fms %8dKB %12d\n" workers
        (List.length !lats) (median *. 1000.) (!bytes / 1024)
        (Gmr.cardinal (Cluster.result c "Q3")))
    [ 2; 4; 8; 16 ];

  (* The distributed result equals local execution. *)
  let local = Runtime.create prog in
  List.iter (fun (rel, b) -> ignore (Runtime.apply_batch local ~rel b)) stream;
  let c = Cluster.create ~config:(Cluster.config ~workers:4 ()) dp in
  List.iter (fun (rel, b) -> ignore (Cluster.apply_batch c ~rel b)) stream;
  assert (Gmr.equal (Runtime.result local "Q3") (Cluster.result c "Q3"));
  print_endline "\ndistributed result verified against local execution ✓"
