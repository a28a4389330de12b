(** Open-addressing slot index: the specialized storage core (§5.1–5.2).

    Maps tuples to integer slot ids. The index stores only (cached hash,
    slot) pairs — the key tuples themselves live in the owner's slot
    arrays and are passed to [find] for comparison, so one key array
    serves the records and every index over them. Linear probing over a
    power-of-two capacity at load factor ≤ 1/2; deletion is tombstone-free
    (backward shift), so probe chains never degrade under churn.

    The upsert protocol costs exactly one hash and one probe sequence:

    {[
      let h = Oaidx.hash key in
      match Oaidx.find_latched idx keys h key with
      | -1 ->                         (* miss: the bucket is latched *)
          let slot = (* allocate; write key/value *) in
          Oaidx.add_latched idx h slot
      | slot ->                       (* hit: update in place, or *)
          Oaidx.remove_latched idx    (* delete with no second probe *)
    ]}

    [add_latched]/[remove_latched] must immediately follow the
    [find_latched] that latched the bucket, with no intervening operation
    on the index.

    Concurrency: {!find} is side-effect free, so any number of domains may
    probe a quiescent (not concurrently mutated) table; the latch lives in
    per-table state, which is why read paths must use {!find} and only
    single-owner write paths may use {!find_latched}. Mutation is
    single-writer, with no concurrent readers. *)

open Divm_ring

type t

val create : ?size:int -> unit -> t

(** Finalized, never-zero hash of a key. Cache it: every entry point below
    takes it instead of recomputing. *)
val hash : Vtuple.t -> int

(** Finalize a raw [Vtuple.hash]-style fold into the cached-hash domain
    ([hash k = finalize (Vtuple.hash k)]). Columnar producers that fold
    hashes over typed cells use this to stay bit-compatible. *)
val finalize : int -> int

(** [find t keys h k] returns the slot mapped to [k] (compared via
    [keys.(slot)]), or [-1]. Pure probe: no latch, safe for concurrent
    readers. *)
val find : t -> Vtuple.t array -> int -> Vtuple.t -> int

(** Like {!find}, and additionally latches the final probe bucket for an
    immediately-following {!add_latched}/{!remove_latched}. Single-owner
    write paths only. *)
val find_latched : t -> Vtuple.t array -> int -> Vtuple.t -> int

(** [find_pred_latched t keys h eq]: {!find_latched} with a caller-supplied
    equality predicate on the stored key. [eq] must agree with the notion
    of equality under which [h] was computed (hash-equal keys that are
    [eq]-unequal are probed past, as usual). *)
val find_pred_latched : t -> Vtuple.t array -> int -> (Vtuple.t -> bool) -> int

(** Insert at the bucket latched by a missing [find]. Grows (and
    re-probes internally) when the load factor would exceed 1/2. *)
val add_latched : t -> int -> int -> unit

(** Delete the entry at the bucket latched by a successful [find],
    backward-shifting the probe chain. *)
val remove_latched : t -> unit

val clear : t -> unit
val copy : t -> t

(** {2 Self-metrics}

    Computed on demand by walking the table — the probe paths stay
    uninstrumented. *)

(** Occupancy over capacity; ≤ 1/2 by construction. *)
val load : t -> float

(** [probe_hist t] buckets every stored entry by its displacement from its
    home bucket (the probes a successful lookup of it costs). Index [i]
    counts displacement [i]; the last bucket ([max_len], default 16)
    absorbs longer chains. Sums to the number of entries. *)
val probe_hist : ?max_len:int -> t -> int array
