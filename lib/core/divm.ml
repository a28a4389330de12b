(** Public facade: one namespace over the whole system.

    {1 Layers}

    - {!Value}, {!Vtuple}, {!Schema}, {!Mult} — values, tuples and the
      multiplicity zero-threshold (the data model of §3.1);
    - {!Vexpr}, {!Calc} — the query calculus;
    - {!Interp} — reference interpreter (semantic oracle);
    - {!Delta}, {!Domain}, {!Poly} — delta derivation and domain extraction
      (§3.1–3.2);
    - {!Prog}, {!Compile}, {!Preagg} — the recursive IVM compiler (§2.2) and
      batch pre-aggregation (§3.3);
    - {!Gmr}, {!Pool}, {!Colbatch}, {!Trace} — the specialized storage
      engine (§5.2): GMRs and record pools on a shared open-addressing
      core;
    - {!Exec}, {!Runtime} — interpreted and specialized local runtimes (§5);
    - {!Loc}, {!Dprog}, {!Distribute} — the distributed compiler (§4);
      {!Costmodel} — the latency model shared by simulator and predictor;
    - {!Cluster} — the distributed executor and its in-process
      transport, the simulated Spark-like cluster (§6.2);
    - {!Protocol}, {!Node} — the executor's socket transport: real
      worker processes over a framed binary shuffle protocol;
    - {!Engine} — the unified backend API every front end drives
      ([Local] runtime, [Simulated] cluster, [Multiprocess] node engine
      behind one [create]/[apply_batch]/[query]/[shutdown]);
    - {!Sql} — SQL frontend;
    - {!Tpch}, {!Tpcds} — workloads; {!Baseline} — comparison engines;
      {!Cachesim} — the Table 2 cache model;
    - {!Obs} — observability: metrics registry and span tracer shared by
      every layer; {!Profile} — EXPLAIN and the per-statement profiler;
      {!Workload} — named-query boilerplate for front ends.

    {1 Quickstart}

    {[
      open Divm

      let streams = [ ("R", [ va; vb ]); ("S", [ vb; vc ]) ]
      let maps = Sql.compile ~catalog:streams ~name:"Q"
          "SELECT R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.b"
      let prog = Compile.compile ~streams maps
      let rt = Runtime.create prog
      let report = Runtime.apply_batch rt ~rel:"R" batch
      let () = Printf.printf "%d ops in %.1fms\n" report.ops (report.wall *. 1e3)
      let result = Runtime.result rt "Q"
    ]} *)

module Value = Divm_ring.Value
module Vtuple = Divm_ring.Vtuple
module Schema = Divm_ring.Schema
module Mult = Divm_ring.Mult
module Gmr = Divm_storage.Gmr
module Vexpr = Divm_calc.Vexpr
module Calc = Divm_calc.Calc
module Env = Divm_eval.Env
module Interp = Divm_eval.Interp
module Delta = Divm_delta.Delta
module Domain = Divm_delta.Domain
module Poly = Divm_delta.Poly
module Prog = Divm_compiler.Prog
module Compile = Divm_compiler.Compile
module Preagg = Divm_compiler.Preagg
module Pool = Divm_storage.Pool
module Colbatch = Divm_storage.Colbatch
module Trace = Divm_storage.Trace
module Exec = Divm_runtime.Exec
module Runtime = Divm_runtime.Runtime
module Patterns = Divm_runtime.Patterns
module Loc = Divm_dist.Loc
module Dprog = Divm_dist.Dprog
module Distribute = Divm_dist.Distribute
module Costmodel = Divm_dist.Costmodel
module Cluster = Divm_cluster.Cluster
module Protocol = Divm_node.Protocol
module Node = Divm_node.Node
module Engine = Divm_engine.Engine
module Sql = Divm_sql.Sql
module Baseline = Divm_baseline.Baseline
module Cachesim = Divm_cachesim.Cachesim
module Obs = Divm_obs.Obs
module Par = Divm_par.Par
module Profile = Divm_profile.Profile
module Workload = Divm_workload.Workload

module Tpch = struct
  module Schema = Divm_tpch.Schema
  module Gen = Divm_tpch.Gen
  module Queries = Divm_tpch.Queries
  module Load = Divm_tpch.Load
end

module Tpcds = struct
  module Schema = Divm_tpcds.Schema
  module Gen = Divm_tpcds.Gen
  module Queries = Divm_tpcds.Queries
end
