(** Multi-process distributed execution: real worker processes instead of
    the simulator's in-process runtimes.

    A coordinator (this module, in the calling process) spawns [workers]
    child processes, each owning one partition of every distributed map in
    its own address space. Children are started by exec-ing the
    [divm_node] binary in worker mode (fork is used only as a fallback
    when no worker executable can be found and no {!Divm_par.Par} domains
    have been spawned — forking a multi-domain OCaml 5 process deadlocks
    the child). Coordinator and workers speak the framed binary protocol
    of {!Protocol} over Unix domain sockets; the framing is
    address-agnostic, so a TCP transport only changes socket setup.

    Execution is driven stage-by-stage from the same
    {!Divm_dist.Dprog.t} block structure the simulator executes: local
    blocks run compiled statements on the coordinator's driver runtime,
    distributed blocks are broadcast as [Run_block] and barrier on every
    worker's [Block_done], and transfers move re-partitioned shares
    between partitions. Worker-to-worker transfers travel over a
    {!topology}: [Star] relays every payload byte through the coordinator
    (pull, re-partition, deliver — two socket hops per byte), [Mesh] (the
    default) ships them directly over an N×N worker connection mesh set
    up at [create] time, leaving the coordinator as the barrier/ack
    control plane. Gathers and replicated-source transfers stay on the
    star path under either setting. Each batch is transposed once on the
    coordinator and dealt to the workers as column shares
    ({!Divm_runtime.Runtime.deal}: only the columns the workers' blocks
    read travel); workers run their blocks through the runtime's
    vectorized block executor. Workers compile the identical
    statements, shard identically, hash-partition identically, and apply
    received shuffle buffers in ascending source order, so stores are
    bit-identical to a {!Divm_cluster.Cluster} run of the same program
    under both topologies (qcheck-verified in [test_node]).

    The {!Divm_dist.Costmodel} is evaluated over the real per-stage op
    counts and modeled shuffle bytes — the same formulas, over the same
    inputs, as the simulator — which makes the model a {e predictor}:
    {!metrics} reports predicted latency next to measured wall time and
    actual wire bytes, per batch and per stage. *)

open Divm_storage
open Divm_dist

(** How worker-to-worker shuffle payloads travel (CLI: [--shuffle]).
    Modeled latencies and [bytes_shuffled] are bit-identical under both;
    only real wire traffic, [wire_bytes], and per-link metrics differ. *)
type topology =
  | Star  (** relay through the coordinator: 2 hops per payload byte *)
  | Mesh  (** direct peer sockets: 1 hop, coordinator only barriers *)

type config = {
  workers : int;
  cost : Costmodel.t;  (** predictor parameters ({!Costmodel.default}) *)
  socket_dir : string option;
      (** where the listening socket lives; default: [TMPDIR] *)
  worker_exe : string option;
      (** worker binary; default: [DIVM_NODE_EXE], else a [divm_node]
          executable next to the running binary (or in a sibling [bin/]
          directory), else fork fallback *)
  shuffle : topology;  (** transfer data plane; default {!Mesh} *)
}

val config :
  ?workers:int ->
  ?cost:Costmodel.t ->
  ?socket_dir:string ->
  ?worker_exe:string ->
  ?shuffle:topology ->
  unit ->
  config
(** Defaults: 2 workers (real processes are heavier than simulated
    nodes), {!Costmodel.default}, [TMPDIR], auto-discovered binary,
    [Mesh] shuffle. *)

val default_config : config

(** One distributed stage or transfer of a batch: the cost model's
    prediction next to what actually happened. *)
type stage_stat = {
  sname : string;  (** ["stage:N"] or ["transfer:NAME"] *)
  predicted : float;  (** modeled seconds ({!Divm_dist.Costmodel}) *)
  measured : float;  (** wall-clock seconds *)
  sbytes : int;  (** modeled shuffled payload bytes *)
  swire : int;  (** actual framed bytes on the sockets *)
  spwire : int;
      (** a-priori wire prediction for transfers
          ({!Costmodel.predicted_wire_bytes}); 0 for stages *)
  swalls : float array;
      (** per-worker wall seconds the workers measured for this stage or
          mesh shuffle (empty for star transfers) — the straggler
          detector's input *)
  slinks : (int * int * int) list;
      (** mesh transfers: [(src, dst, wire bytes)] per active link, in
          ascending (src, dst) order; [[]] otherwise *)
}

type metrics = {
  latency : float;  (** predicted end-to-end seconds (cost model) *)
  wall : float;  (** measured end-to-end seconds *)
  stages : int;
  bytes_shuffled : int;  (** modeled payload bytes (simulator-comparable) *)
  wire_bytes : int;  (** actual bytes written to + read from sockets *)
  max_worker_ops : int;
  driver_ops : int;
  stage_stats : stage_stat list;  (** in execution order *)
}

type t

(** Spawn the worker processes, ship them the marshaled program, and wait
    for every [Init] acknowledgment. Under [Mesh], then distribute every
    worker's peer socket path ([Peers]), barrier, and establish the full
    worker connection mesh ([Mesh_connect]) before the first batch.
    Raises [Failure] when a worker cannot be spawned or dies during the
    handshake. *)
val create : ?config:config -> Dprog.t -> t

val workers : t -> int

(** Child process ids in worker order ([None] only for connections not
    owned by this coordinator). Exposed for failure-injection tests. *)
val worker_pids : t -> int option list

(** Process one batch through the trigger of [rel]. Same sharding as the
    simulator: round-robin over workers when the delta pre-aggregations
    live there, whole batch to the driver otherwise.

    When {!Divm_obs.Obs.collection} is armed, the first such batch sends
    [Start_telemetry] (arming the workers' profiler/tracer to mirror the
    coordinator's), and every distributed-stage barrier pulls a
    [Telemetry] frame per worker: registry deltas merge into this
    process's registry under a [worker="i"] label, profiler slot rows
    merge with an ["@wI"] label suffix, and completed spans enter the
    merged Chrome trace under pid [i+2] with an NTP-style clock-offset
    correction estimated from the pull round-trips. With collection off
    (the default), no telemetry crosses the wire and the worker-side
    hooks cost one flag check per statement.

    If a worker process dies mid-batch, the raised [Failure] names it
    and its fate — [(worker i, exited N)] / [(worker i, signaled N)] —
    from a [waitpid] poll, instead of an opaque socket error. *)
val apply_batch : t -> rel:string -> Gmr.t -> metrics

(** Assembled global contents of a map (driver + worker partitions pulled
    over the wire). *)
val map_contents : t -> string -> Gmr.t

val result : t -> string -> Gmr.t

(** Orderly teardown: [Shutdown] to every worker, wait for the [Ack],
    reap the children, remove the socket. Idempotent. *)
val shutdown : t -> unit

(** {1 Worker mode} *)

(** [worker_main ~socket ~id] is the child's entry point ([divm_node
    --worker]): connect to the coordinator's socket, identify with
    [Hello id], and serve requests until [Shutdown]. Returns after the
    shutdown handshake. *)
val worker_main : socket:string -> id:int -> unit
