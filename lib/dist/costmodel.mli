(** The distributed cost model, shared by every distributed backend.

    Calibrated against the paper's §6.2 measurements (see
    {!Divm_cluster.Cluster}): a distributed stage costs a driver–worker
    synchronization round plus the slowest worker's compute; a transfer
    costs serialization of the shipped bytes plus the receive bandwidth of
    the busiest node; stragglers are a deterministic multiplicative factor
    growing with the data shuffled to the slowest worker.

    The simulated cluster uses these formulas to {e replace} time; the
    multi-process engine ({!Divm_node.Node}) evaluates the same formulas
    over its real per-stage op counts as a {e predictor} that EXPLAIN and
    the profiler reconcile against measured wall time. *)

open Divm_ring

type t = {
  sync_base : float;  (** s, per distributed stage *)
  sync_per_worker : float;  (** s per worker per stage *)
  per_op : float;  (** s per elementary record operation *)
  bandwidth : float;  (** bytes/s into one node *)
  ser_per_byte : float;  (** serialization cost, s/byte *)
  straggler : float;
      (** extra slowdown of the slowest worker per MB shuffled to it *)
}

(** Q6 batch sync 65 ms at 50 workers, 386 ms at 1000 (§6.2.1) gives
    [sync_base ≈ 48 ms] and [≈ 0.34 ms/worker]; a worker aggregates 100k
    tuples in 6 ms → 60 ns per elementary operation. *)
val default : t

(** Serialized size of one shipped (tuple, multiplicity) entry. *)
val tuple_bytes : Vtuple.t -> int

(** [stage_latency t ~workers ~max_ops ~pending_max_into]: one distributed
    stage — sync round + slowest worker's ops, straggler-scaled by the
    bytes shuffled into the busiest node since the previous stage. *)
val stage_latency : t -> workers:int -> max_ops:int -> pending_max_into:int -> float

(** [transfer_latency t ~ser_bytes ~max_into]: one location transformer —
    serialize [ser_bytes] at the sources, receive [max_into] bytes at the
    busiest destination. *)
val transfer_latency : t -> ser_bytes:int -> max_into:int -> float

(** Synchronous checkpoint: one sync round plus the slowest node's
    serialization of its partitions. *)
val checkpoint_latency : t -> workers:int -> max_node_bytes:int -> float

(** [predicted_wire_bytes ~crossings ~workers ~ser_bytes]: a-priori
    framed bytes one transfer should put on real sockets — the modeled
    payload shipped once per wire crossing, plus a per-worker control
    envelope (request + ack frames). [crossings] encodes the route: a
    direct worker-to-worker shuffle, gather, or local-source scatter
    crosses once, a replicated-source scatter twice (pulled from a
    worker, then delivered), and a broadcast fans out once per receiving
    peer. Reporting only — this never enters a latency formula, so
    modeled latencies do not depend on where the workers live. *)
val predicted_wire_bytes : crossings:int -> workers:int -> ser_bytes:int -> int
