(** The distributed executor: one driver for both distributed backends.

    A compiled distributed program (§4–5) is a sequence of local blocks,
    distributed blocks and transfers per trigger. {!apply_batch} walks it
    once, over a {!transport} that hides only where each worker's runtime
    lives: {!create} builds the in-process transport (the simulated
    cluster, the Spark substitute of DESIGN.md), {!Divm_node.Node.create}
    the socket transport to real worker processes. Plan compilation,
    batch dealing, transfer routing and the modeled-byte ledger, the cost
    model, per-stage statistics, registry accounting, inspection and
    checkpointing exist once, here — so the simulator and the process
    engine agree by construction.

    Real execution, modeled time. Every block runs on real partitioned
    data and the work is counted: per worker elementary operations per
    stage, bytes moved per transfer. A cost model calibrated against the
    paper's §6.2 measurements converts the counts into latency:

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
  cost : Costmodel.t;
      (** the latency model (calibrated defaults: {!Costmodel.default}) *)
}

(** Calibrated to the paper's cluster (see module doc). 50 workers. *)
val default_config : config

val config : ?workers:int -> ?cost:Costmodel.t -> unit -> config

(** One distributed stage or transfer of a batch: the cost model's
    prediction next to what actually happened. *)
type stage_stat = {
  sname : string;  (** ["stage:N"] or ["transfer:NAME"] *)
  predicted : float;  (** modeled seconds ({!Divm_dist.Costmodel}) *)
  measured : float;
      (** wall-clock seconds of this step. A transport call shared by
          several steps is measured once, on the step that makes it: the
          stage for the share and the gathers riding its reply, the first
          transfer for a pull or an exchange. *)
  sbytes : int;  (** modeled shuffled payload bytes *)
  swire : int;
      (** actual framed bytes on the sockets (0 in process), counted on
          the step that makes the call like [measured]; a mesh transfer
          adds its own buffers' bytes *)
  spwire : int;
      (** a-priori wire prediction for transfers
          ({!Costmodel.predicted_wire_bytes}); 0 for stages *)
  swalls : float array;
      (** per-worker wall seconds the workers measured for this stage or
          direct shuffle (empty for transfers through the driver) — the
          straggler detector's input. A shuffle's walls are its own
          partition and apply; the exchange they share is charged to the
          first transfer of the exchange. *)
  slinks : (int * int * int) list;
      (** direct shuffles over sockets: [(src, dst, wire bytes)] per
          active link, in ascending (src, dst) order; [[]] otherwise *)
}

(** Per-batch cost record. A view over the {!Divm_obs.Obs} registry:
    every batch is first accounted into the counters of the transport's
    family ([divm_cluster_*] in process, [divm_node_*] over sockets:
    [bytes_shuffled_total], [stages_total], …) and the record reports the
    deltas, so summing per-batch records always matches the registry
    totals printed by [--metrics]. *)
type metrics = {
  latency : float;  (** modeled end-to-end seconds for the batch *)
  wall : float;  (** measured end-to-end seconds *)
  stages : int;
  bytes_shuffled : int;  (** modeled payload bytes over the network *)
  wire_bytes : int;  (** actual bytes written to + read from sockets *)
  max_worker_ops : int;  (** summed over stages *)
  driver_ops : int;
  round_trips : int;
      (** transport calls that waited on the workers
          ({!Divm_dist.Dprog.round_trips} of the trigger); telemetry pulls
          do not count *)
  stage_stats : stage_stat list;  (** in execution order *)
}

(** One worker's report of one transfer of a direct exchange. [ss_modeled]
    and [ss_sent] are indexed by destination worker: [ss_modeled] is the
    cost model's byte accounting (origin = destination moves are free),
    [ss_sent] the framed bytes of this transfer's buffer written to each
    peer socket (0 in process and at the worker's own index; the frame
    header counts on the exchange's first transfer). [ss_ser] is the
    modeled serialized size of everything this worker shuffled out for
    the transfer, and [ss_wall] the seconds its partition and apply took,
    plus, on the first transfer, the exchange. *)
type shuffle_stat = {
  ss_ser : int;
  ss_modeled : int array;
  ss_sent : int array;
  ss_wall : float;
}

(** {1 Workers}

    One worker's state and the one entry point by which any transport
    reaches it, {!serve}: the in-process transport calls it on its
    workers, and a [divm_node] worker process calls it on every request
    it decodes, so both run identical code. *)

type worker

(** A serial runtime over the program's compute statements with every
    trigger's worker blocks compiled. *)
val worker : Dprog.t -> worker

(** What the executor asks of a worker: one request per worker per round
    trip. *)
type request =
  | Run_block of string * int * Colbatch.t option * string array
      (** [(rel, bi, share, pulls)]: install this worker's share of the
          batch of [rel] (the trigger's first stage only), run block [bi]
          of [rel]'s worker blocks, then read the worker's partition of
          every [pulls] map (the gathers that ride the stage) *)
  | Pull_map of string array
      (** the worker's partition of every named map *)
  | Deliver of string * Colbatch.t
      (** replace the worker's partition of a map with a batch from the
          driver *)
  | Shuffle of int array
      (** run these {!Divm_dist.Dprog.transfers} entries as one direct
          exchange with every other worker *)

(** A worker's answer to each request, in order: [Block_done] to
    [Run_block], [Map_contents] to [Pull_map], [Ack] to [Deliver] (and,
    over sockets, to the control messages), [Shuffle_done] to
    [Shuffle]. *)
type reply =
  | Block_done of int * float * Colbatch.t array
      (** the block's record-op delta and wall seconds, then one batch
          per pulled map, in order *)
  | Map_contents of Colbatch.t array  (** one batch per map, in order *)
  | Ack
  | Shuffle_done of shuffle_stat array  (** one stat per transfer, in order *)

(** [serve wk ~self ~parts ~exchange req] runs [req] on worker [self] of
    [parts] and returns its reply.

    A map leaves a pool as one column batch of its live records in slot
    order ({!Colbatch.empty} when it has none), through the one partition
    walk that cuts a repartition's buffers too, so every row must have the
    pool's arity. A batch enters a pool only after the width check: a
    batch with rows of another width than the destination's arity raises
    [Failure] naming the map, the sender and both widths, before the
    destination is touched. A delivery then clears the partition and
    merges the rows in order.

    [Shuffle] is {!cut}, then [exchange (outbound c)] — the transport's
    crossing of the batches, which returns what every peer sent and the
    bytes it framed for each ({!settle}'s [received] and [sent]) — then
    {!settle}. Under the profiler a block's op delta is also folded into
    [divm_record_ops_total]. Raises [Invalid_argument] for an unknown
    trigger or block, [Failure] for a transfer index out of range. *)
val serve :
  worker ->
  self:int ->
  parts:int ->
  exchange:(Colbatch.t array array -> Colbatch.t array array * int array array) ->
  request ->
  reply

(** One worker's side of a direct exchange in progress: the halves
    {!serve} composes around the crossing, for a transport that cannot
    wait inside a worker (the in-process one runs {!cut} on every worker,
    then {!settle} on each). *)
type cut

(** [cut wk ~self ~parts idxs] partitions, in one walk of its source
    pool each, worker [self]'s share of every transfer of the run by
    destination: each row goes to the hash partition of the transfer's
    key columns, or to every worker when the key is empty. Rows keep the
    source's slot order. Raises [Failure] when a source's rows differ in
    arity. *)
val cut : worker -> self:int -> parts:int -> int array -> cut

(** [outbound c] is, per destination worker, one batch per transfer of
    the run, in run order (empty batches at [self]). *)
val outbound : cut -> Colbatch.t array array

(** [settle wk c ~received ~sent] checks every batch of [received]
    ([received.(s)] is what peer [s] sent, one batch per transfer; the
    entry at [self] is not read) against its destination's arity —
    raising [Failure] naming the peer, the transfer and both widths
    before any destination is cleared — then replaces each transfer's
    destination partition, in run order, with what every source sent it,
    in ascending source order: the worker's own slots upserted from the
    source pool with their cached hashes, every peer's batch merged in
    row order. The source pools must not have changed since the cut.
    [sent.(d).(j)] is the framed bytes of transfer [j]'s batch to peer
    [d]. Returns one stat per transfer. *)
val settle :
  worker ->
  cut ->
  received:Colbatch.t array array ->
  sent:int array array ->
  shuffle_stat array

(** {1 Transports} *)

(** Where the workers' runtimes live. [call ws req] sends [req wi] to
    every worker [wi] of [ws] and returns their replies in [ws]'s order,
    after all of them answered: one round trip, which the executor
    counts and whose replies it checks. A [Shuffle] addresses every
    worker. *)
type transport = {
  name : string;
      (** ["cluster"] or ["node"]: the batch span prefix and the
          [divm_NAME_*] metric family *)
  call : int array -> (int -> request) -> reply array;
  wire : unit -> int;  (** socket bytes so far (monotone) *)
  after_stage : unit -> unit;  (** hook after each stage barrier *)
}

(** {1 The executor} *)

type t

(** The simulator: [config.workers] in-process workers. [domains] (else
    the [DIVM_DOMAINS] environment variable, else 1) runs each stage's
    per-worker blocks as tasks on the shared {!Divm_par.Par} pool —
    simulated workers own disjoint runtimes, so a stage is embarrassingly
    parallel. The cost model is evaluated by a serial reduction over the
    per-worker op counts after the barrier, so modeled latency, stage
    counts, and shuffled bytes are bit-identical at any domain count.
    While the profiler, span tracer, or cachesim sink is enabled, stages
    run serially (those observers are single-writer; see
    {!Divm_obs.Obs}'s memory-ordering contract). *)
val create : ?config:config -> ?domains:int -> Dprog.t -> t

(** The executor over another transport with [workers] workers, already
    initialized with the same program. *)
val of_transport : cost:Costmodel.t -> workers:int -> transport -> Dprog.t -> t

val workers : t -> int

(** Process one batch through the trigger of [rel]. Each batch is
    transposed once and dealt to the workers as column shares
    ({!Divm_runtime.Runtime.deal}: only the columns the workers' blocks
    read) unless the program was compiled with deltas at the driver:
    on the trigger's [deal] column when it has one (a row goes to
    worker {!Divm_storage.Colbatch.dest} of that column, where every
    keyed transfer sends a row), round-robin otherwise. Distributed
    blocks run on every worker, then barrier.
    Distributed-to-distributed transfers run as direct shuffles
    ([Shuffle]); gathers and transfers from local or
    replicated sources go through the driver, where that data lives.
    Steps share transport calls as {!Divm_dist.Dprog.calls} groups them:
    the shares ride the first stage, gathers ride the stage before them
    or one pull per run, and each run of mesh transfers is one exchange.

    Under [Obs.set_tracing true] the batch produces a [cluster:rel] (or
    [node:rel]) span whose [stage:N] and [transfer:NAME] children each
    carry a [modeled_ms] attribute; those attributes sum exactly to
    [latency] (driver statements execute for real but contribute no
    modeled latency, as in the cost model above). *)
val apply_batch : t -> rel:string -> Gmr.t -> metrics

(** Assembled global contents of a map (driver + all worker partitions). *)
val map_contents : t -> string -> Gmr.t

val result : t -> string -> Gmr.t

(** Per-pool storage self-metrics for the driver (["driver/…"]) and, for
    in-process workers, one representative worker (["w0/…"]); partitions
    are symmetric modulo hashing skew. Cold path. *)
val storage_stats : t -> (string * Divm_storage.Pool.stats) list

(** Consistency check of where maps live: replicated maps hold identical
    contents on every worker, and a map located [Dist key] holds on
    worker [w] only rows whose {!Divm_storage.Colbatch.dest} of [key] is
    [w] — the worker a keyed transfer, or a keyed deal, sends them to.
    Raises [Failure] naming the map and the worker when violated. *)
val check_placement : t -> unit

(** {1 Fault tolerance}

    §4: "Using data checkpointing, we can periodically save intermediate
    state to reliable storage in order to shorten recovery time." A
    checkpoint snapshots every map on the driver and all workers; recovery
    rolls the whole cluster back to it, after which the missed batches are
    replayed. [checkpoint] returns the modeled time the synchronous
    checkpoint adds to the processing pipeline. *)

module Checkpoint : sig
  (** Every persistent map of every node, the driver's and each
      worker's, as one column batch of its live records in slot order:
      the batches the workers' pulls carried, plus the driver's own. *)
  type snapshot

  (** Persist to / read from a file (reliable-storage stand-in), through
      [Marshal]: the file is only for the binary that wrote it. *)
  val save_file : snapshot -> string -> unit

  val load_file : string -> snapshot

  (** Serialized size in bytes. *)
  val byte_size : snapshot -> int
end

(** Snapshot the full cluster state; returns the snapshot and the modeled
    checkpointing latency (serialization of every node's state in parallel,
    bounded by the slowest node). *)
val checkpoint : t -> Checkpoint.snapshot * float

(** Roll every node back to the snapshot (e.g. after [fail_worker]):
    each pool gets its checkpointed rows back in their slot order. *)
val restore : t -> Checkpoint.snapshot -> unit

(** Simulate a worker crash: its partitions are lost, one [Deliver] of
    the empty batch per persistent map to that worker alone, so the
    survivors keep their pools as they are. Subsequent results are
    incorrect until [restore] + replay. *)
val fail_worker : t -> int -> unit
