(** Multi-indexed record pools (§5.2, Figure 6).

    A pool is a {!Gmr} plus its indexes. Its records (a key tuple plus
    one aggregate value) are the entries of a GMR, so they take the
    GMR's slots, and the GMR's open-addressing index ({!Oaidx}: cached
    hashes, single-probe upserts, tombstone-free deletion) is the pool's
    unique index, serving [get] and the upserts. Non-unique indexes over
    key subsets serve [slice]. Each keeps its sub-keys in a GMR whose
    multiplicity counts the records carrying the sub-key, so a sub-key
    retires with its last record, and stacks each sub-key's pool slots
    in a growable int-array bucket with O(1) swap-remove maintenance.
    Indexes are declared up front by the compiler's access-pattern
    analysis (§5.2.1) and maintained incrementally.

    Iteration callbacks ([foreach], [slice]) must not add or remove
    records of the pool being iterated (the runtime buffers self-reading
    statements for exactly this reason). *)

open Divm_ring

type t

(** [create ~key_width ~slices ()] builds a pool for records whose key has
    [key_width] fields. Each element of [slices] lists the key positions of
    one non-unique secondary index. *)
val create : ?name:string -> key_width:int -> slices:int array list -> unit -> t

val cardinal : t -> int

(** The key width the pool was created with. *)
val key_width : t -> int

(** Multiplicity of [key]; [0.] if absent. *)
val get : t -> Vtuple.t -> float

(** [add pool key m] adds [m] to the multiplicity of [key], inserting or
    removing the record as needed (zero multiplicities are not stored).
    [key] is retained by reference on insert: the caller must not mutate
    it afterwards. *)
val add : t -> Vtuple.t -> float -> unit

(** Scratch-key variant of [add] for compiled trigger closures: [key] is a
    borrowed buffer the caller will overwrite, copied by the pool only
    when the record is first inserted. *)
val add_borrow : t -> Vtuple.t -> float -> unit

(** Columnar upsert: probe with a precomputed [hash] and a cell-level
    [eq] against stored keys; [make] materializes the key tuple and is
    called only on first insert. Lets columnar producers apply compacted
    batch rows without building a [Vtuple] per row (see
    [Colbatch.row_hash]/[row_eq]/[row_tuple]). *)
val add_by :
  t -> hash:int -> eq:(Vtuple.t -> bool) -> make:(unit -> Vtuple.t) ->
  float -> unit

(** [add_grouped pool ~ids ~ws ~n ~slots ~hashes ~keys] applies [n]
    weighted rows by group id, each as {!add} would: row [j] adds
    [ws.(j)] to the record of group [ids.(j)], a zero weight changes
    nothing, and a record whose sum cancels is removed. [slots.(g)] is
    group [g]'s slot, kept up to date, or [-1] while the pool holds no
    record of it; the caller sets [-1] for every group of a pool that
    holds none of their keys. A group's first insert keeps [keys.(g)]
    by reference, under its {!Oaidx.hash} [hashes.(g)]. Slots, free
    list and indexes come out as [n] calls of {!add} leave them, while
    only inserts and cancellations probe the unique index. *)
val add_grouped :
  t -> ids:int array -> ws:float array -> n:int -> slots:int array ->
  hashes:int array -> keys:Vtuple.t array -> unit

(** Ring-(+) bulk merge of a GMR buffer into the pool, replaying the
    buffer's cached hashes instead of re-hashing, in the buffer's slot
    order (deterministic destination slot assignment). Keys are retained
    by reference: the caller transfers ownership (clear the buffer
    after). *)
val merge_gmr : t -> Gmr.t -> unit

val foreach : t -> (Vtuple.t -> float -> unit) -> unit

(** [foreach_slot pool f] calls [f slot key] per live record, in slot
    order, like {!foreach}. *)
val foreach_slot : t -> (int -> Vtuple.t -> unit) -> unit

(** [iter_slots pool slots f] calls [f key m] for the records at
    [slots] (as {!foreach_slot} named them, the pool unchanged since), in
    list order. *)
val iter_slots : t -> Intvec.t -> (Vtuple.t -> float -> unit) -> unit

(** [merge_slots pool ~src slots] upserts [src]'s records at [slots] into
    [pool], in list order, replaying their cached hashes: the same
    upserts as {!add} of each key and multiplicity. Keys are shared with
    [src] by reference. *)
val merge_slots : t -> src:t -> Intvec.t -> unit

(** [slice pool ~index sub f] iterates the records whose key projected on
    the [index]-th declared slice equals [sub]. *)
val slice : t -> index:int -> Vtuple.t -> (Vtuple.t -> float -> unit) -> unit

(** Index of the declared slice with exactly these positions. *)
val find_slice : t -> int array -> int option

val clear : t -> unit

(** Snapshot to a GMR (fresh), records in slot order, inserted with
    their cached hashes. *)
val to_gmr : t -> Gmr.t

(** The records, read-only: the pool's GMR, in slot order (a transpose
    reads its slots in place). Under a cachesim sink each live record is
    reported read, as {!foreach} reports it. *)
val records : t -> Gmr.t

(** Number of free-list slots currently available for reuse. *)
val free_slots : t -> int

(** {2 Self-metrics}

    Snapshot of a pool's storage health, computed on demand (the hot
    paths carry no extra instrumentation). *)

type stats = {
  s_name : string;
  s_live : int;  (** live records *)
  s_free : int;  (** free-list slots awaiting reuse *)
  s_hwm : int;  (** slot high-water mark (live + free) *)
  s_indexes : int;  (** declared secondary slice indexes *)
  s_load : float;  (** unique-index load factor, ≤ 1/2 *)
  s_probe_hist : int array;  (** unique-index probe-length histogram *)
}

val stats : t -> stats

(** Publish live/free-slot and load-factor gauges for this pool to the
    [Obs] registry (labeled by pool name). Cold path. *)
val observe : t -> unit
