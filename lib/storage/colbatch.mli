(** Column-oriented update batches (§5.2.2), v2: typed unboxed columns.

    Input batches and shuffled view contents travel in columnar form: one
    array per attribute plus a multiplicity array. Each column commits to
    a physical representation chosen from its first row when the batch is
    built, and keeps it: [int array] for Int and Date, [float array] for
    Float, one dictionary plus an [int array] of codes for strings. A
    column falls back to boxed [Value.t] cells only when it mixes value
    kinds or holds more than 64 distinct strings. Scans touch flat arrays
    (cache-friendly, no per-cell pointer chase); row transformers convert
    to and from row-oriented GMRs/pools. A built batch is never changed
    afterwards, so groups and domains may share one.

    [compact_group] is the workhorse of the vectorized batched-join
    executor: it groups a batch's rows by probe key so downstream probes
    run once per distinct key, not once per row. It orders rows by a
    cached key hash (one stable counting pass — no comparison sort) and
    compares key cells only between neighbours. It never merges rows:
    rows equal on every column each run and meet at their target, whose
    ring [+] sums them. *)

open Divm_ring

(** Per-batch string dictionary backing a [CDict] column: distinct
    strings in first-seen order, with a cached [Value.hash] and one
    shared [Value.String] box per entry. *)
type dict

(** The physical representation of one column. Read-only: the arrays are
    owned by the batch. [CInt]/[CDate]/[CFloat] are the unboxed fast
    paths; [CDict] is the dictionary-encoded string path (per-batch
    dictionary + int code per row — equality and grouping hashing run
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

(** [shares_of_gmr ~cols ~width ~parts g] deals [g]'s rows round-robin
    into [parts] column batches in one pass: row [i] (in [Gmr.iter]
    order, read off [g]'s slots in place) becomes row [i / parts] of
    share [i mod parts]. With [~key:c]
    and [parts > 1] it deals them on column [c] instead: a first pass
    counts each share's rows, and a second writes every row to share
    {!dest}[ ~key:[|c|] ~parts row], in [Gmr.iter] order within each
    share, allocating nothing per row beyond the shares. Only the
    columns at [cols] (ascending, distinct positions below [width]) are
    written; the others are {e absent} (see {!live_cols}).

    This pass writes the cells of every batch not decoded off the wire
    ({!of_iter} and {!of_gmr} wrap it). Each column's representation is
    chosen for the whole batch, so every share agrees: Int, Date and
    Float columns are unboxed; a string column is dictionary-encoded with
    one dictionary for all shares, entries in first-appearance order; a
    column that mixes kinds, or has more than 64 distinct strings, is
    [CBoxed] in every share. The columns of an empty batch are empty
    [CInt]s. The distributed engines cut update batches this way
    ([parts] = workers), and the local runtime transposes a firing's
    batch with [parts = 1]. Under a {!Trace} sink each share gets an
    arena and every written cell and multiplicity is reported as a
    write. *)
val shares_of_gmr :
  ?key:int -> cols:int array -> width:int -> parts:int -> Gmr.t -> t array

(** [dest ~key ~parts row] is the hash partition of [row]'s [key]
    columns: [Vtuple.hash_at row key mod parts]. The keyed deal sends a
    batch row there, and every keyed transfer between nodes sends a map
    row there. *)
val dest : key:int array -> parts:int -> Vtuple.t -> int

(** [of_iter ~cols ~width ~count iter] is one share built, as
    {!shares_of_gmr} builds it, from the rows [iter emit] emits
    ([emit tup m] appends one row): the transient sources of vectorized
    groups, over [Pool.foreach], and every map the wire codec ships, as
    the share of all its columns. Tuples are copied, so borrowed rows
    are fine. Raises [Invalid_argument] when [iter] emits more or fewer
    than [count] rows. *)
val of_iter :
  cols:int array ->
  width:int ->
  count:int ->
  ((Vtuple.t -> float -> unit) -> unit) ->
  t

(** Every column of [g] as one share. [width] must be the tuple width;
    empty GMRs need it to be supplied explicitly. The engine does not
    call it; the benchmark's transpose replay does. *)
val of_gmr : width:int -> Gmr.t -> t

(** Wrap pre-built columns (all the same length as [mults]), every
    column live. The wire decoder's constructor for a map payload, whose
    columns arrive in position order; with no columns it is the empty
    batch, or a width-0 map's rows. *)
val of_cols : col array -> mults:float array -> t

(** No columns and no rows: [of_cols [||] ~mults:[||]]. *)
val empty : t

(** [of_live_cols ~width pairs ~mults] builds a [width]-column batch from
    [(position, column)] pairs; every position not named is absent. The
    wire decoder's constructor for a batch share. Raises [Invalid_argument] on a position
    outside [0, width), a repeated position, or a column whose length is
    not [Array.length mults]. *)
val of_live_cols :
  width:int -> (int * col) array -> mults:float array -> t

(** Positions of the columns that carry data, ascending: every column of
    an ordinary batch; the selected ones of a batch built with [~cols]
    or by {!of_live_cols}. An absent column reads as [Int 0] in every
    row — it exists only so that positional column access stays in
    bounds, and only a reader that knows it never touches it (a block's
    or a group's column rule) may build one. *)
val live_cols : t -> int array

(** Column-to-row transformer; adds rows in row order (so replaying a
    decoded batch is deterministic). *)
val to_gmr : t -> Gmr.t

(** Typed physical column [c]. *)
val col : t -> int -> col

(** Boxed read of one cell. *)
val get : col -> int -> Value.t

(** Unboxed numeric read ([Value.to_float] semantics). *)
val float_get : col -> int -> float

val mults : t -> float array

(** [iter_rows b f] calls [f tuple mult] per row. The tuple array is a
    single scratch buffer BORROWED by [f] for the duration of the call
    only: it is overwritten in place before the next row, so [f] must copy
    it before retaining it anywhere. [Gmr.add] and [Pool.add] keep their
    key by reference; [Gmr.add_borrow] / [Pool.add_borrow] copy it on
    first insert and are the ones to pass here. *)
val iter_rows : t -> (Vtuple.t -> float -> unit) -> unit

(** {2 Row hashing for bulk merges}

    These fold typed cells directly — no per-cell boxing — and are
    bit-compatible with the row-oriented stores: [row_hash cols sel i]
    equals [Oaidx.hash] of the materialized sub-tuple, [row_eq] matches
    [Vtuple.equal], and [row_tuple] materializes the sub-tuple (only
    needed on first insert). Together with [Pool.add_by]/[Gmr.add_by]
    they let the executor's ring-(+) merge apply grouped rows without
    building a [Vtuple] per row. *)

val row_hash : col array -> int array -> int -> int
val row_eq : col array -> int array -> int -> Vtuple.t -> bool
val row_tuple : col array -> int array -> int -> Vtuple.t

(** [compact_group b ~key ~rest] groups [b]'s rows by the [key] columns
    (original column positions) and returns [(grouped, starts)]:

    - [grouped] has exactly the columns [key @ rest] in that order, and
      one row per row of [b] with that row's multiplicity;
    - [starts] delimits runs of equal [key] columns: group [g] spans rows
      [starts.(g) .. starts.(g+1) - 1] of [grouped] (with [key = [||]]
      the whole batch is one group, in source order).

    Rows are ordered by a cached 64-bit key hash (one stable counting
    pass over its low bits), not sorted by value; within a run they keep
    their source order. Keys whose hashes fall in the same bucket may
    interleave, so a key can be emitted as several runs of [starts].
    Consumers must treat groups as "runs of equal keys", not "all rows of
    that key" — the executor's per-group accessor resolution is correct
    either way, it merely amortizes less on a split. *)
val compact_group : t -> key:int array -> rest:int array -> t * int array

(** [key_hash cols key i] is row [i]'s grouping hash over the columns
    [cols.(key.(0))], [cols.(key.(1))], ...: typed cells, no boxing,
    equal for rows {!key_eq} calls equal (every NaN alike). It is not
    {!row_hash}: it serves tables that compare rows with one another,
    not with stored tuples. {!compact_group} orders rows by it, and it
    honours {!hash_bits_for_tests}. *)
val key_hash : col array -> int array -> int -> int

(** [key_eq cols key a b]: rows [a] and [b] hold equal cells in every
    column of [key] (typed compare; [Value.equal] on boxed cells), the
    equality {!row_eq} applies between a row and a tuple made from a
    row of the same columns. *)
val key_eq : col array -> int array -> int -> int -> bool

(** Sort-based reference: a stable comparison sort over the boxed key
    cells. Slower, but its output satisfies the same contract with one
    run per key. Kept as the qcheck oracle for the radix path. *)
val compact_group_sorted :
  t -> key:int array -> rest:int array -> t * int array

(** Test hook for the radix path: when [Some b], per-cell grouping
    hashes keep only their low [b] bits, forcing distinct keys to
    collide, so the key-cell comparison that places group boundaries
    decides every boundary. Reset to [None] after use. *)
val hash_bits_for_tests : int option ref
