(** Multi-process distributed execution: the socket transport of the
    distributed executor ({!Divm_cluster.Cluster}).

    A coordinator (this module, in the calling process) spawns [workers]
    child processes by exec-ing the [divm_node] binary in worker mode;
    each owns one partition of every distributed map in its own address
    space. Coordinator and workers speak the framed binary protocol of
    {!Protocol} over Unix domain sockets; the framing is address-agnostic,
    so a TCP transport only changes socket setup. At [create] time the
    workers also wire up an N×N connection mesh among themselves, over
    which distributed-to-distributed repartitions travel directly, leaving
    the coordinator as the barrier/ack control plane.

    Batches run through the same executor as the simulator
    ({!Divm_cluster.Cluster.apply_batch} on {!executor}): the same plan,
    the same dealing, the same worker entry point
    ({!Divm_cluster.Cluster.serve}, on the far side of the socket), the
    same cost model. The coordinator only sends each request as a frame
    and returns the replies; the executor checks them. Stores are
    therefore bit-identical to a simulator run of the same program, and
    the cost model becomes a {e predictor}: the metrics report predicted
    latency next to measured wall time and actual wire bytes, per batch
    and per stage. *)

open Divm_dist

type config = {
  workers : int;
  cost : Costmodel.t;  (** predictor parameters ({!Costmodel.default}) *)
  socket_dir : string option;
      (** where the listening sockets live; default: [TMPDIR] *)
  worker_exe : string option;
      (** worker binary; default: [DIVM_NODE_EXE], else a [divm_node]
          executable next to the running binary (or in a sibling [bin/]
          directory) *)
}

val config :
  ?workers:int ->
  ?cost:Costmodel.t ->
  ?socket_dir:string ->
  ?worker_exe:string ->
  unit ->
  config
(** Defaults: 2 workers (real processes are heavier than simulated
    nodes), {!Costmodel.default}, [TMPDIR], auto-discovered binary. *)

val default_config : config

type stage_stat = Divm_cluster.Cluster.stage_stat = {
  sname : string;
  predicted : float;
  measured : float;
  sbytes : int;
  swire : int;
  spwire : int;
  swalls : float array;
  slinks : (int * int * int) list;
}

type t

(** Spawn the worker processes, ship them the marshaled program, wait for
    every [Init] acknowledgment, then distribute every worker's peer
    socket path ([Peers]), barrier, and establish the full worker
    connection mesh ([Mesh_connect]) before the first batch. Raises
    [Failure] when the worker binary does not exist (naming the path, or
    [DIVM_NODE_EXE] and [worker_exe] when none was found), or when a
    worker cannot be spawned or dies during the handshake. *)
val create : ?config:config -> Dprog.t -> t

(** The distributed executor over this engine's workers: run batches,
    read maps, checkpoint and restore through it.

    When {!Divm_obs.Obs.collection} is armed, the first worker request
    sends [Start_telemetry] (arming the workers' profiler/tracer to mirror
    the coordinator's), and every distributed-stage barrier pulls a
    [Telemetry] frame per worker: registry deltas merge into this
    process's registry under a [worker="i"] label, profiler slot rows
    merge with an ["@wI"] label suffix, and completed spans enter the
    merged Chrome trace under pid [i+2] with an NTP-style clock-offset
    correction estimated from the pull round-trips. With collection off
    (the default), no telemetry crosses the wire.

    If a worker process dies mid-batch, the raised [Failure] names it and
    its fate — [(worker i, exited N)] / [(worker i, signaled N)] — from a
    [waitpid] poll, instead of an opaque socket error. *)
val executor : t -> Divm_cluster.Cluster.t

(** Child process ids in worker order. Exposed for failure-injection
    tests. *)
val worker_pids : t -> int list

(** Orderly teardown: [Shutdown] to every worker, wait for the [Ack],
    reap the children. Idempotent; the executor fails afterwards. *)
val shutdown : t -> unit

(** {1 Worker mode} *)

(** [worker_main ~socket ~id] is the child's entry point ([divm_node
    --worker]): connect to the coordinator's socket, identify with
    [Hello id], and hand every request to {!Divm_cluster.Cluster.serve}
    until [Shutdown]; a [Shuffle]'s batches cross the worker mesh as
    [Mesh_data] frames. Returns after the shutdown handshake. *)
val worker_main : socket:string -> id:int -> unit
