(** Generalized multiset relations (GMRs): finite maps from tuples to
    non-zero real multiplicities (§3.1, Appendix A).

    A GMR both represents base-table contents (count multiplicities) and
    materialized aggregate results (aggregate values stored in the
    multiplicity). Addition is the bag union of the calculus: multiplicities
    of equal tuples sum, tuples reaching multiplicity zero disappear.

    Rebased on the specialized storage core ({!Oaidx}): tuples and
    multiplicities live in parallel slot arrays (multiplicities unboxed),
    reached through an open-addressing index with cached hashes,
    single-probe upserts and tombstone-free deletion — the direct
    data-structure operations §5.1 compiles triggers down to. *)

open Divm_ring

type t

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

(** Sorted, canonical listing — used for equality in tests. *)
val to_sorted_list : t -> (Vtuple.t * float) list

(** Equality up to a small numeric tolerance on multiplicities. *)
val equal : ?eps:float -> t -> t -> bool

(** Total serialized byte size (tuples + one 8-byte multiplicity each). *)
val byte_size : t -> int

val pp : Format.formatter -> t -> unit

(** [zero_eps] is the cancellation threshold: multiplicities with absolute
    value below it are treated as zero (= {!Divm_ring.Mult.zero_eps}). *)
val zero_eps : float
