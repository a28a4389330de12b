(** Simulated synchronous driver/worker cluster (the Spark substitute, cf.
    DESIGN.md).

    Real execution, modeled time. The simulator holds one specialized
    runtime per worker plus one for the driver, executes every block of the
    distributed program on real partitioned data, and counts the work: per
    worker elementary operations per stage, bytes moved per transfer. A cost
    model calibrated against the paper's §6.2 measurements converts the
    counts into latency:

    - per distributed stage: [sync_base + sync_per_worker·W] (driver-worker
      coordination; the paper's Q6 measures 65 ms at 50 workers and 386 ms
      at 1000) plus [max_worker_ops · per_op],
    - per transfer: [ser_per_byte · total_bytes / W_effective] +
      [max bytes into one node / bandwidth],
    - driver statements: [driver_ops · per_op].

    Straggler variability is modeled as a deterministic multiplicative
    factor on the slowest worker, growing with the data shuffled per stage
    (§6.2.1 observes 1.5–3x stage prolongation on shuffle-heavy queries). *)

open Divm_storage
open Divm_dist

type config = {
  workers : int;  (** simulated worker nodes *)
  domains : int option;
      (** execution domains for the stage fan-out; [None] defers to the
          [?domains] argument of {!create}, then [DIVM_DOMAINS]. When both
          the record and the argument pin a count they must agree —
          {!create} raises [Invalid_argument] on contradiction instead of
          silently preferring one. *)
  cost : Costmodel.t;
      (** the latency model (calibrated defaults: {!Costmodel.default}) *)
}

(** Calibrated to the paper's cluster (see module doc). 50 workers. *)
val default_config : config

val config :
  ?workers:int -> ?domains:int -> ?cost:Costmodel.t -> unit -> config

(** Per-batch cost record. Since the observability layer this is a view
    over the {!Divm_obs.Obs} registry: every batch is first accounted into
    the global counters ([divm_cluster_bytes_shuffled_total],
    [divm_cluster_stages_total], …) and the record reports the deltas, so
    summing per-batch records always matches the registry totals printed
    by [--metrics]. *)
type metrics = {
  latency : float;  (** modeled end-to-end seconds for the batch *)
  stages : int;
  bytes_shuffled : int;  (** total over the network *)
  max_bytes_per_worker : int;
  max_worker_ops : int;  (** summed over stages *)
  driver_ops : int;
}

type t

(** [domains] (precedence: [config.domains], else [?domains], else the
    [DIVM_DOMAINS] environment variable, else 1 — contradictory explicit
    values raise [Invalid_argument]) runs each distributed stage's
    per-node block executors as tasks on the
    shared {!Divm_par.Par} pool — simulated nodes own disjoint runtimes,
    so a stage is embarrassingly parallel. The cost model is evaluated by
    a serial reduction over the per-worker op counts after the barrier,
    so modeled latency, stage counts, and shuffled bytes are bit-identical
    at any domain count. While the profiler, span tracer, or cachesim
    sink is enabled, stages run serially (those observers are
    single-writer; see {!Divm_obs.Obs}'s memory-ordering contract). *)
val create : ?config:config -> ?domains:int -> Dprog.t -> t

val workers : t -> int

(** Process one batch through the trigger of [rel]; batches are partitioned
    across the workers like the paper's experiments (each worker receives a
    round-robin share, {!Divm_runtime.Runtime.deal} — the multiprocess
    coordinator's dealing function) unless the program was compiled with
    deltas at the driver. Each node runs its distributed blocks through
    the runtime's vectorized block executor
    ({!Divm_runtime.Runtime.run_block}).

    Under [Obs.set_tracing true] the batch produces a [cluster:rel] span
    whose [stage:N] and [transfer:NAME] children each carry a [modeled_ms]
    attribute; those attributes sum exactly to [latency] (driver
    statements execute for real but contribute no modeled latency, as in
    the cost model above). Wall time is the span duration itself, so both
    clocks travel in one trace. *)
val apply_batch : t -> rel:string -> Gmr.t -> metrics

(** Assembled global contents of a map (driver + all worker partitions). *)
val map_contents : t -> string -> Gmr.t

val result : t -> string -> Gmr.t

(** Per-pool storage self-metrics for the driver (["driver/…"]) and one
    representative worker (["w0/…"]); partitions are symmetric modulo
    hashing skew. Cold path. *)
val storage_stats : t -> (string * Divm_storage.Pool.stats) list

(** Consistency check: replicated maps hold identical contents on every
    worker. Raises [Failure] when violated. *)
val check_replicas : t -> unit

(** {1 Fault tolerance}

    §4: "Using data checkpointing, we can periodically save intermediate
    state to reliable storage in order to shorten recovery time." A
    checkpoint snapshots every map on the driver and all workers; recovery
    rolls the whole cluster back to it, after which the missed batches are
    replayed. [checkpoint] returns the modeled time the synchronous
    checkpoint adds to the processing pipeline. *)

module Checkpoint : sig
  type snapshot

  (** Persist to / read from a file (reliable-storage stand-in). *)
  val save_file : snapshot -> string -> unit

  val load_file : string -> snapshot

  (** Serialized size in bytes. *)
  val byte_size : snapshot -> int
end

(** Snapshot the full cluster state; returns the snapshot and the modeled
    checkpointing latency (serialization of every node's state in parallel,
    bounded by the slowest node). *)
val checkpoint : t -> Checkpoint.snapshot * float

(** Roll every node back to the snapshot (e.g. after [fail_worker]). *)
val restore : t -> Checkpoint.snapshot -> unit

(** Simulate a worker crash: its partitions are lost. Subsequent results
    are incorrect until [restore] + replay. *)
val fail_worker : t -> int -> unit
