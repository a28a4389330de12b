(** Column-oriented update batches (§5.2.2), v2: typed unboxed columns.

    Input batches and shuffled view contents travel in columnar form: one
    array per attribute plus a multiplicity array. Each column commits to
    an unboxed physical representation ([int array] for Int and Date,
    [float array] for Float) chosen from its first row at construction
    time; a column falls back to boxed [Value.t] cells only when it holds
    strings or genuinely mixed types. Scans touch flat arrays
    (cache-friendly, no per-cell pointer chase); row transformers convert
    to and from row-oriented GMRs/pools.

    [compact_group] is the workhorse of the vectorized batched-join
    executor: it coalesces duplicate rows and groups the survivors by key
    so downstream probes run once per distinct key, not once per row.
    Since v2 it orders rows by cached hashes (two stable counting
    passes — no comparison sort); cell values are compared only between
    hash-equal neighbours. *)

open Divm_ring

(** Per-batch string dictionary backing a [CDict] column: distinct
    strings in first-seen order, with a cached [Value.hash] and one
    shared [Value.String] box per entry. *)
type dict

(** The physical representation of one column. Read-only: the arrays are
    owned by the batch. [CInt]/[CDate]/[CFloat] are the unboxed fast
    paths; [CDict] is the dictionary-encoded string path (per-batch
    dictionary + int code per row — equality and compaction hashing run
    on codes, never on string contents); [CBoxed] is the fallback for
    genuinely mixed-type columns. *)
type col =
  | CInt of int array
  | CDate of int array
  | CFloat of float array
  | CDict of dict * int array
  | CBoxed of Value.t array

(** Number of distinct entries in a dictionary. Codes in the column's
    code array are always in [0, dict_size d). *)
val dict_size : dict -> int

(** [dict_entry d c] is the string behind code [c]. *)
val dict_entry : dict -> int -> string

(** Build a dictionary from decoded wire entries, in order: entry [i]
    gets code [i]. Entries should be distinct ([dict_intern]-produced
    dictionaries always are); the wire decoder enforces this. *)
val dict_of_strings : string array -> dict

type t

val width : t -> int
val length : t -> int

(** Row-to-column transformer. [width] must be the tuple width; empty GMRs
    need it to be supplied explicitly. With [~cols] (ascending, distinct
    positions) only those columns are transposed; the others are
    {e absent} (see {!live_cols}). *)
val of_gmr : ?cols:int array -> width:int -> Gmr.t -> t

(** [of_iter ~width ~count iter] builds a batch by running [iter emit]
    where [emit tup m] appends one row. [count] must be an upper bound on
    the number of rows emitted (e.g. [Pool.cardinal]); tuples are copied,
    so borrowed rows are fine. [~cols] as for {!of_gmr}. *)
val of_iter :
  ?cols:int array ->
  width:int ->
  count:int ->
  ((Vtuple.t -> float -> unit) -> unit) ->
  t

(** Wrap pre-built columns (all the same length as [mults]). Used by the
    wire codec, which ships columns as flat arrays. *)
val of_cols : col array -> mults:float array -> t

(** [of_live_cols ~width pairs ~mults] builds a [width]-column batch from
    [(position, column)] pairs; every position not named is absent. The
    share decoder's constructor. Raises [Invalid_argument] on a position
    outside [0, width), a repeated position, or a column whose length is
    not [Array.length mults]. *)
val of_live_cols :
  width:int -> (int * col) array -> mults:float array -> t

(** Positions of the columns that carry data, ascending: every column of
    an ordinary batch; the selected ones of a batch built with [~cols]
    (and of its {!deal} shares). An absent column reads as [Int 0] in
    every row — it exists only so that positional column access stays in
    bounds, and only a reader that knows it never touches it (the
    distributed block executor's column-pruning rule) may build one. *)
val live_cols : t -> int array

(** [deal b ~parts p] is round-robin share [p] of [parts]: rows [p],
    [p + parts], [p + 2·parts], … of [b], in row order, with [b]'s live
    columns. The distributed engines split every update batch this way,
    so row [i] always lands on worker [i mod parts]. *)
val deal : t -> parts:int -> int -> t

(** Column-to-row transformer; adds rows in row order (so replaying a
    decoded batch is deterministic). *)
val to_gmr : t -> Gmr.t

(** Typed physical column [c]. *)
val col : t -> int -> col

(** Boxed read of one cell. *)
val get : col -> int -> Value.t

(** Unboxed numeric read ([Value.to_float] semantics). *)
val float_get : col -> int -> float

(** Materialize column [c] as boxed values (copies; test/debug aid). *)
val column : t -> int -> Value.t array

val mults : t -> float array

(** [iter_rows b f] calls [f tuple mult] per row. The tuple array is a
    single scratch buffer BORROWED by [f] for the duration of the call
    only: it is overwritten in place before the next row, so [f] must copy
    it (e.g. via [Gmr.add] / [Pool.add], which copy keys) before retaining
    it anywhere. *)
val iter_rows : t -> (Vtuple.t -> float -> unit) -> unit

(** [filter b pred] keeps the rows whose index satisfies [pred] (the
    predicate reads columns directly). *)
val filter : t -> (int -> bool) -> t

(** [project b keep] keeps the columns at positions [keep]. *)
val project : t -> int array -> t

(** [aggregate b] merges equal rows, summing multiplicities (the row-format
    output is the pre-aggregated batch). *)
val aggregate : t -> Gmr.t

(** {2 Row hashing for bulk merges}

    These fold typed cells directly — no per-cell boxing — and are
    bit-compatible with the row-oriented stores: [row_hash cols sel i]
    equals [Oaidx.hash] of the materialized sub-tuple, [row_eq] matches
    [Vtuple.equal], and [row_tuple] materializes the sub-tuple (only
    needed on first insert). Together with [Pool.add_by]/[Gmr.add_by]
    they let the executor's ring-(+) merge apply compacted rows without
    building a [Vtuple] per row. *)

val row_hash : col array -> int array -> int -> int
val row_eq : col array -> int array -> int -> Vtuple.t -> bool
val row_tuple : col array -> int array -> int -> Vtuple.t

(** [compact_group b ~key ~rest] merges rows that agree on every selected
    column [key @ rest] (original column positions, summing
    multiplicities), groups the survivors by the [key] columns, and
    returns [(compacted, starts, counts)]:

    - [compacted] has exactly the columns [key @ rest] in that order and
      one row per distinct selected-column combination;
    - [starts] delimits runs of equal [key] columns: group [g] spans rows
      [starts.(g) .. starts.(g+1) - 1] of [compacted] (with [key = [||]]
      the whole batch is one group);
    - [counts.(i)] is the number of source rows merged into row [i]
      (needed by Exists-style consumers that count support rather than
      summing multiplicities).

    Rows are ordered by cached 64-bit hashes (radix-style stable counting
    partitions), not sorted by value: duplicate rows always share hashes
    and therefore always merge, but in the (vanishingly rare) event of a
    hash collision a key group may be emitted split across two ranges of
    [starts]. Consumers must treat groups as "runs of equal keys", not
    "all rows of that key" — the executor's per-group accessor resolution
    is correct either way, it merely amortizes slightly less on a split.

    With [~drop_cancelled:true], merged rows whose multiplicity cancels
    to ~0 ([Mult.zero_eps]) are dropped and counted in
    [divm_batch_rows_cancelled_total]. Only sound when every consumer
    weights rows by multiplicity; count/Exists-style consumers (which
    read [counts]) must keep cancelled rows. *)
val compact_group :
  ?drop_cancelled:bool ->
  t ->
  key:int array ->
  rest:int array ->
  t * int array * float array

(** The PR 4 sort-based compaction (comparison sort over boxed cells).
    Reference implementation: slower, but its output satisfies the same
    contract with perfect grouping. Kept as the qcheck oracle for the
    radix path. *)
val compact_group_sorted :
  ?drop_cancelled:bool ->
  t ->
  key:int array ->
  rest:int array ->
  t * int array * float array

(** Test hook for the radix path: when [Some b], per-cell compaction
    hashes keep only their low [b] bits, forcing distinct values to
    collide. Reset to [None] after use. *)
val hash_bits_for_tests : int option ref

(** Serialized size in bytes of the live columns plus multiplicities.
    O(width) arithmetic on typed columns;
    dictionary columns account the dictionary payload (count +
    length-prefixed entries) plus one i32 code per row; boxed columns are
    scanned once. The result is memoized — representation upgrades
    ([dictify]) invalidate the memo. *)
val byte_size : t -> int

(** Promote every [CBoxed] column holding only strings to [CDict] in
    place (the wire path: each such column then ships as dictionary +
    codes). High-cardinality columns — more than 64 distinct entries,
    e.g. generated per-row names — are left boxed: a near-distinct
    dictionary pays hash-and-append per cell and compresses nothing.
    Invalidates the [byte_size] memo when anything changed. *)
val dictify : t -> unit

(** Targeted form of {!dictify}: promote only the named columns (by
    index). The runtime's planner calls this once per batch with the
    columns whose dictionary form pays for itself — string
    filter-kernel operands (the kernel then tests an int-indexed
    per-dictionary truth table) and string compaction keys (the radix
    path then hashes cached per-entry hashes instead of boxed cells).
    Already-[CDict], non-string, and high-cardinality columns are
    skipped; same cutoff as {!dictify}. *)
val dictify_cols : t -> int list -> unit
