(** The one way to run a workload.

    Every front end (divmc, divm_stream, divm_cluster, the bench harness)
    runs its workload through [Engine]: one {!config} record selects the
    {!backend} and the shared knobs, one
    {!create}/{!apply_batch}/{!query}/{!shutdown} signature drives every
    backend, and one {!report} shape carries the per-batch numbers
    whichever backend produced them.

    Backends:
    - [Local] — the specialized single-process runtime
      ({!Divm_runtime.Runtime}), optionally domain-parallel.
    - [Simulated] — the deterministic cluster simulator
      ({!Divm_cluster.Cluster}): real partitioned execution in one
      process, latency from the cost model. The oracle.
    - [Multiprocess] — real worker processes ({!Divm_node.Node}): same
      program, same partitioning, actual sockets. The cost model runs
      over the measured op counts as a predictor, so {!report} carries
      modeled latency next to wall time and actual wire bytes.

    Simulated and Multiprocess are one executor over two transports
    ({!Divm_cluster.Cluster}), so they leave bit-identical stores and
    report the same modeled quantities for the same input stream. *)

open Divm_ring
open Divm_storage
open Divm_compiler
open Divm_dist

type backend =
  | Local
  | Simulated of Divm_cluster.Cluster.config
  | Multiprocess of Divm_node.Node.config

type config = {
  backend : backend;
  domains : int option;
      (** execution domains: the local runtime's batch fan-out, or the
          simulator's stage fan-out. Ignored by [Multiprocess] — its
          parallelism is the worker processes. [None] defers to
          [DIVM_DOMAINS]. *)
  batch_size : int;  (** for front ends that synthesize streams *)
  opt_level : int;
      (** distributed optimization level 0–4 ({!Divm_dist.Distribute.options}) *)
  preaggregate : bool;  (** §3.3 batch pre-aggregation *)
}

val config :
  ?backend:backend ->
  ?domains:int ->
  ?batch_size:int ->
  ?opt_level:int ->
  ?preaggregate:bool ->
  unit ->
  config
(** Defaults: [Local], [batch_size = 1000], [opt_level] the distributed
    compiler's default (4), pre-aggregation on. *)

val default_config : config

(** Uniform per-batch accounting. Local runs fill [tuples]/[ops]/[wall]
    and leave the distributed fields zero; distributed runs model
    [latency] with the cost model, count shuffled bytes, and report
    per-stage predicted-vs-measured {!Divm_cluster.Cluster.stage_stat}s;
    multiprocess runs additionally measure [wire_bytes]. *)
type report = {
  tuples : int;
  ops : int;
      (** local: record ops; distributed: driver ops + per-stage maximum
          worker ops (the modeled critical path) *)
  wall : float;  (** measured seconds *)
  modeled : float option;  (** cost-model seconds (distributed backends) *)
  stages : int;
  bytes_shuffled : int;
  wire_bytes : int;
  round_trips : int;
      (** distributed: transport calls that waited on the workers
          ({!Divm_cluster.Cluster.metrics}); 0 locally *)
  stage_stats : Divm_cluster.Cluster.stage_stat list;
}

type t

(** Compile the workload ([preaggregate], and for distributed backends
    placement + the distributed compiler at [opt_level]) and construct
    the backend. [Multiprocess] spawns its worker processes here. *)
val create : ?config:config -> Divm_workload.Workload.t -> t

val workload : t -> Divm_workload.Workload.t

(** ["local"], ["simulated"], or ["multiprocess"]. *)
val backend_name : t -> string

(** The compiled local trigger program (all backends). *)
val prog : t -> Prog.t

(** The distributed program ([None] for [Local]). *)
val dprog : t -> Dprog.t option

(** Execution domains actually in use ([Local] backend; 1 otherwise —
    the distributed backends' parallelism is workers, not domains). *)
val domains : t -> int

(** Initial load of an existing database: fires each entry as one batch
    of its relation, on every backend. A batch of a whole table is the
    largest batch there is, and maintaining from empty reaches the state
    a re-evaluation would. *)
val load : t -> (string * Gmr.t) list -> unit

val apply_batch : t -> rel:string -> Gmr.t -> report

(** Single-tuple fast path on [Local]; distributed backends process a
    one-tuple batch (they have no single-tuple path). *)
val apply_single : t -> rel:string -> Vtuple.t -> float -> report

(** Result of a named query. *)
val query : t -> string -> Gmr.t

(** Per-pool storage self-metrics (driver + representative worker for the
    simulator; the coordinator's driver for multiprocess). *)
val storage_stats : t -> (string * Pool.stats) list

(** Release backend resources. Required for [Multiprocess] (reaps the
    worker processes); a no-op for the others. Idempotent. *)
val shutdown : t -> unit

(** Aggregate the [stage_stats] of many reports by stage name, preserving
    first-seen order: a JSON array of
    [{"name", "batches", "predicted_ms", "measured_ms", "bytes",
    "wire_bytes"}] rows — the modeled-vs-measured reconciliation artifact
    CI uploads. Transfer rows add ["predicted_wire_bytes"] (the a-priori
    {!Divm_dist.Costmodel.predicted_wire_bytes} estimate); mesh transfers
    add ["mesh_links"] ([{"src", "dst", "bytes"}] per active link, sorted
    by (src, dst)) and, like distributed stages, ["worker_walls_ms"] /
    ["slowest_worker"] / ["straggler_ratio"] from the workers'
    self-measured shuffle walls — per-link straggler attribution. *)
val reconcile_json : report list -> string
