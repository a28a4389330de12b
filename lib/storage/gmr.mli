(** Generalized multiset relations (GMRs): finite maps from tuples to
    non-zero real multiplicities (§3.1, Appendix A).

    A GMR both represents base-table contents (count multiplicities) and
    materialized aggregate results (aggregate values stored in the
    multiplicity). Addition is the bag union of the calculus: multiplicities
    of equal tuples sum, tuples reaching multiplicity zero disappear.

    This is the engine's one slot store, built on the specialized storage
    core ({!Oaidx}): tuples, multiplicities (unboxed) and cached hashes
    live in parallel slot arrays with a high-water mark and a LIFO free
    list, reached through an open-addressing index with single-probe
    upserts and tombstone-free deletion — the direct data-structure
    operations §5.1 compiles triggers down to. {!Pool} keeps its records
    and its secondary indexes' sub-keys in GMRs and reads their slots
    directly, which is why the record is exposed (read-only). *)

open Divm_ring

(** Slot [s < hwm] is live iff [mults.(s) <> 0.]; a live slot holds its
    key in [keys.(s)] and its finalized {!Oaidx.hash} in [hs.(s)]. Slots
    are handed out from [free] (last freed first), else at [hwm]. *)
type t = private {
  mutable keys : Vtuple.t array;
  mutable mults : float array;
  mutable hs : int array;
  mutable hwm : int;
  mutable count : int;
  free : Intvec.t;
  idx : Oaidx.t;
}

val create : ?size:int -> unit -> t

(** [add r tup m] adds multiplicity [m] to tuple [tup], removing the entry if
    the result cancels to zero. [tup] is retained by reference: the caller
    must not mutate it afterwards. *)
val add : t -> Vtuple.t -> float -> unit

(** Scratch-key variant of [add] for compiled trigger closures: [tup] is a
    borrowed buffer the caller will overwrite, copied by the table only
    when this is its first insertion. *)
val add_borrow : t -> Vtuple.t -> float -> unit

(** Columnar upsert: probe with a precomputed [hash] and a cell-level
    [eq] against stored tuples; [make] materializes the key tuple and is
    called only on first insert. Lets columnar producers merge rows
    without building a [Vtuple] per row (see [Colbatch.row_hash]). *)
val add_by :
  t -> hash:int -> eq:(Vtuple.t -> bool) -> make:(unit -> Vtuple.t) ->
  float -> unit

(** {2 Slot-level access}

    For stores layered over a GMR that keep per-slot state of their own
    (see {!Pool}). *)

(** [upsert_slot ~copy r h key m] is {!add} ([copy = false]) or
    {!add_borrow} ([copy = true]) with [key]'s precomputed hash [h], and
    returns the key's slot: where it was inserted, updated, or dropped on
    cancellation (compare {!cardinal} before and after to tell). [-1]
    when [m] is zero, which changes nothing. *)
val upsert_slot : copy:bool -> t -> int -> Vtuple.t -> float -> int

(** {!add_by}, returning the key's slot like {!upsert_slot}. *)
val upsert_slot_by :
  t -> hash:int -> eq:(Vtuple.t -> bool) -> make:(unit -> Vtuple.t) ->
  float -> int

(** [add_at r s m] adds [m] to live slot [s], dropping it when the result
    cancels (re-probing with its cached hash only then). *)
val add_at : t -> int -> float -> unit

(** [slot_of r h key] is [key]'s live slot, or [-1]; [h] is its hash.
    Side-effect free, so safe for concurrent readers. *)
val slot_of : t -> int -> Vtuple.t -> int

(** [iter_hashed f r] calls [f tup m h] per entry with its cached
    finalized hash, in slot (= insertion) order, same as {!iter}. Slot
    order matters: bulk merges that replay a buffer into a destination
    store assign destination slots in a deterministic order, which keeps
    later float summation orders — and so whole stores — bit-identical
    across serial and parallel execution. *)
val iter_hashed : (Vtuple.t -> float -> int -> unit) -> t -> unit

(** [set r tup m] overwrites the multiplicity (removing on zero). *)
val set : t -> Vtuple.t -> float -> unit

(** Multiplicity of a tuple; [0.] if absent. *)
val mult : t -> Vtuple.t -> float

val mem : t -> Vtuple.t -> bool
val iter : (Vtuple.t -> float -> unit) -> t -> unit
val fold : (Vtuple.t -> float -> 'a -> 'a) -> t -> 'a -> 'a
val cardinal : t -> int
val is_empty : t -> bool
val copy : t -> t

(** Reset to empty, keeping the allocated capacity for reuse. *)
val clear : t -> unit

(** In-place bag union: [union_into dst src] adds every entry of [src]. *)
val union_into : t -> t -> unit

(** [scale r c] multiplies every multiplicity by [c] (fresh GMR). *)
val scale : t -> float -> t

val of_list : (Vtuple.t * float) list -> t
val to_list : t -> (Vtuple.t * float) list

(** Equality up to a small numeric tolerance on multiplicities. *)
val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit

(** [zero_eps] is the cancellation threshold: multiplicities with absolute
    value below it are treated as zero (= {!Divm_ring.Mult.zero_eps}). *)
val zero_eps : float
