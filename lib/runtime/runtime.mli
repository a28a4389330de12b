(** Specialized local runtime (§5): trigger statements are compiled, at
    program-load time, into OCaml closures in continuation-passing style —
    the stand-in for the paper's LMS-generated native code.

    Specialization performed here, mirroring §5.1–§5.2:
    - high-level operators become concrete [foreach] / [get] / [slice]
      operations over record pools, selected by static analysis of which
      key positions are bound at each access;
    - non-unique hash indexes are created exactly for the observed slice
      patterns ({!Patterns});
    - continuation passing avoids intermediate materialization of unions
      and top-level aggregates;
    - a single-tuple fast path binds the update tuple's fields directly,
      with no batch materialization ([apply_single]).

    {b Front ends:} this interface is the [Local] backend behind
    [Divm.Engine]; binaries and harnesses construct engines through
    [Engine.create] rather than calling {!create} directly (one config
    record selects local/simulated/multiprocess execution behind one
    [apply_batch]/[query] signature). Direct [Runtime] use is for the
    library layers that {e are} the backends — the cluster simulator, the
    node engine's driver and workers — and for tests that exercise this
    runtime specifically. *)

open Divm_ring
open Divm_storage
open Divm_compiler

type t

(** Work accounting for one trigger firing, mirroring
    [Cluster.apply_batch]'s metrics so callers can swap local and cluster
    backends behind one reporting path. Ops and tuples also accumulate
    into the {!Divm_obs.Obs} registry ([divm_record_ops_total],
    [divm_batches_total], [divm_batch_seconds], …). *)
type batch_report = {
  ops : int;  (** elementary record operations this trigger executed *)
  tuples : int;  (** update tuples touched (batch cardinality, or 1) *)
  wall : float;  (** wall-clock seconds *)
}

(** [create prog] loads a program. [auto_index] (default true) controls the
    §5.2.1 automatic secondary-index creation — disabling it falls back to
    scans with checks (the index ablation). [columnar] (default true)
    routes supported batch pre-aggregations through the §5.2.2 columnar
    path: the batch is transposed once, static conditions scan single
    columns, and projected rows aggregate straight into the transient
    pool.

    [domains] (default: the [DIVM_DOMAINS] environment variable, else 1)
    enables domain-parallel batch execution: each vectorized statement
    group fans disjoint ranges of the batch (of its key groups, when it
    probes a store) out over the shared {!Divm_par.Par} pool, every domain running its own instance of the
    compiled group lock-free (store pools are read-only during the
    fan-out; all writes land in domain-private buffers merged serially by
    ring [+] after the barrier). Generic statements run serially on the
    applying domain. Results are exact for
    integer multiplicities; float stores can differ from the serial path
    by summation order within [Gmr.zero_eps]-style epsilons, exactly like
    the columnar on/off contract. Batches smaller than [par_min_rows]
    (default 128) stay serial, as do all firings while the profiler,
    span tracer, or cachesim trace sink is enabled (their state is
    single-writer). *)
val create :
  ?auto_index:bool ->
  ?columnar:bool ->
  ?domains:int ->
  ?par_min_rows:int ->
  Prog.t ->
  t

val prog : t -> Prog.t

(** Domain count this runtime was created with (1 = serial). *)
val domains : t -> int

(** Fire the batch trigger for [rel]. Under [Obs.set_tracing true] the
    firing produces a [trigger:rel] span with one nested span per
    compiled statement (and per columnar runner). *)
val apply_batch : t -> rel:string -> Gmr.t -> batch_report

(** Fire the single-tuple fast path for [rel] with one (tuple, mult). *)
val apply_single : t -> rel:string -> Vtuple.t -> float -> batch_report

(** Bulk initial load: set every non-transient map to its definition
    evaluated over the given base-table contents. *)
val load : t -> (string * Gmr.t) list -> unit

(** Fresh snapshot of a map. *)
val map_contents : t -> string -> Gmr.t

val result : t -> string -> Gmr.t

(** Elementary record operations executed since last reset. The
    distributed executor reads it around every block for the per-stage
    op deltas; per firing, the [ops] field of {!batch_report} has it too,
    and the registry's [divm_record_ops_total] the process total. *)
val ops : t -> int

(** Zero the {!ops} counter (the cache-locality experiment does before
    each run). *)
val reset_ops : t -> unit

(** {1 Profiling and EXPLAIN support}

    Per-statement attribution slots live in {!Divm_obs.Prof}; each
    compiled statement captures its slot id at compile time. When the
    profiler is enabled, every firing charges the statement's record-op
    and index-probe counter deltas (plus wall time) to its slot; disabled,
    the firing path pays one flag check. *)

(** Per-pool storage self-metrics (maps first, then [batch_*] update
    pools), also published as registry gauges ({!Pool.observe}). Computed
    on demand; cold path. *)
val storage_stats : t -> (string * Pool.stats) list

(** {1 The block executor}

    Every batch runs through one executor. A trigger's statements are
    compiled as blocks ({!compile_blocks}): a local trigger is one block
    ({!apply_batch}), a distributed trigger's worker statements one block
    per stage and its driver statements one block per run between
    transfers and stages. The planner splits each block into vectorized
    (possibly fused) statement groups and generic closures; a transient
    assigned in an earlier block, or filled by a transfer before this
    one, qualifies as a group source. Each firing installs the batch
    ({!set_batch}) and runs blocks by index ({!run_block}): every unit
    runs under an [Obs.span] with its route label and, when the profiler
    is enabled, charges its counter deltas to its slot. A group takes
    its domain-parallel instances when the runtime owns a domain pool,
    the installed batch has at least [par_min_rows] rows and no
    single-writer observer is live. *)

(** Each block's statements (in original order) with the route label its
    planner gives it: ["stmt:T"] for the generic closure path,
    ["columnar:T"] for a solo vectorized pass with no store reads,
    ["columnar-join:T"] for a solo vectorized statement with key-grouped
    store probes, and a shared ["fused:T1+T2"] label for every member of
    a fused group; when at least one of a group's filters hoists to a
    selection-vector kernel the labels become ["selvec:T"] /
    ["selvec-join:T"] / ["fused-selvec:T1+T2"]. Each statement also
    carries its filter split [(selvec, rowwise)]: the number of its
    filters compiled to selection-vector kernels and the number left on
    the per-row closure path (both 0 for ["stmt:"] routes), and whether
    its group groups the batch by probe key before running, so each
    store accessor resolves once per key group (only a group with a
    member that probes or slices a store does; [false] for ["stmt:"]
    routes). [blocks] holds, per block in trigger order,
    the transient maps transfers filled before the block and its
    statements. Produced by the planner {!compile_blocks} uses, so
    EXPLAIN cannot disagree with the runtime. *)
val block_routes_ex :
  Prog.t ->
  rel:string ->
  (string list * Prog.stmt list) list ->
  (Prog.stmt * string * int * int * bool) list list

(** The column rule: the stream columns (ascending positions) the
    vectorized groups of [blocks] that read the update batch read —
    possibly none, when a group only counts rows. [None] when no group
    reads the batch. A local firing transposes exactly these columns
    ({!set_batch}), and {!scatter_plan} ships them to workers. *)
val batch_columns :
  Prog.t -> rel:string -> (string list * Prog.stmt list) list -> int array option

(** One trigger's statements compiled as blocks against a runtime's
    pools, with the batch installed for the current firing. *)
type blocks

(** [compile_blocks rt ~rel blocks] compiles each block's statements
    ([blocks] as for {!block_routes_ex}). With [columnar = false] every
    unit is generic. *)
val compile_blocks :
  t -> rel:string -> (string list * Prog.stmt list) list -> blocks

(** An update batch as rows, or as a worker's column share
    ({!deal}). *)
type batch = Rows of Gmr.t | Share of Colbatch.t

(** Install the current batch. Rows are transposed lazily, the first
    time a vectorized group reads them, and only the columns of
    {!batch_columns}; the other columns of the transposed batch are
    absent ({!Colbatch.live_cols}). The batch pool is filled only when a
    generic unit reads Δ: from the rows themselves, or from a share
    ({!scatter_plan} then ships every column). *)
val set_batch : t -> blocks -> batch -> unit

(** Run block [bi] over the installed batch. Raises [Invalid_argument]
    for an index outside the trigger's blocks. *)
val run_block : t -> blocks -> int -> unit

(** {2 Worker shares} *)

(** How one trigger's update batches are cut into worker shares: the
    stream width and the columns to ship. *)
type scatter = { sc_width : int; sc_cols : int array }

(** The columns a share carries: {!batch_columns} of [blocks], or every
    column when a unit left on the generic path reads Δ. [None] when no
    worker unit reads Δ at all — there is nothing to ship. Both the
    coordinator and the simulator derive it from the same program, so
    both ends agree on the layout without negotiating it. *)
val scatter_plan :
  Prog.t -> rel:string -> (string list * Prog.stmt list) list -> scatter option

(** [deal sc ~parts batch] cuts [batch] round-robin into [parts] column
    shares in one pass over its rows, writing only [sc]'s columns
    ({!Colbatch.shares_of_gmr}: low-cardinality string columns share one
    dictionary across shares): row [i] goes to worker [i mod parts]. The
    simulator and the multiprocess coordinator both call this, so
    simulated and real workers see identical shares. *)
val deal : scatter -> parts:int -> Gmr.t -> Colbatch.t array

(** {2 Moving map contents}

    The distributed engines move map contents between nodes themselves. *)

(** Add one tuple into a map (used to deliver shuffled data). *)
val add_to_map : t -> string -> Vtuple.t -> float -> unit

val clear_map : t -> string -> unit
