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
    group fans disjoint ranges of the compacted batch out over the shared
    {!Divm_par.Par} pool, every domain running its own instance of the
    compiled group lock-free (store pools are read-only during the
    fan-out; all writes land in domain-private buffers merged serially by
    ring [+] after the barrier). Generic statements serialize — see
    {!par_routes} for the per-statement decision. Results are exact for
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

(** Elementary record operations executed since last reset.

    Deprecated: prefer the [ops] field of {!batch_report} (per firing) or
    the registry's [divm_record_ops_total] (process totals). Kept as a
    thin wrapper over the runtime's private counter for the cluster
    simulator's per-stage deltas and old callers. *)
val ops : t -> int

(** Deprecated: see {!ops}. *)
val reset_ops : t -> unit

(** Total stored tuples over non-transient maps. *)
val total_tuples : t -> int

(** {1 Profiling and EXPLAIN support}

    Per-statement attribution slots live in {!Divm_obs.Prof}; each
    compiled statement captures its slot id at compile time. When the
    profiler is enabled, every firing charges the statement's record-op
    and index-probe counter deltas (plus wall time) to its slot; disabled,
    the firing path pays one flag check. *)

(** Per trigger, each statement (in original order) paired with the route
    label batch mode gives it: ["stmt:T"] for the generic closure path,
    ["columnar:T"] for a solo vectorized pass with no store reads,
    ["columnar-join:T"] for a solo vectorized statement with key-grouped
    store probes, and a shared ["fused:T1+T2"] label for every member of a
    fused group. When at least one of a group's filters hoists to a
    selection-vector kernel the labels become ["selvec:T"] /
    ["selvec-join:T"] / ["fused-selvec:T1+T2"]. Produced by the same
    planner [create] uses, so EXPLAIN cannot disagree with the runtime. *)
val stmt_routes : Prog.t -> (string * (Prog.stmt * string) list) list

(** Like {!stmt_routes}, with each statement's filter split appended:
    [(stmt, label, selvec, rowwise)] where [selvec] is the number of its
    filters compiled to selection-vector kernels (columnar scans into
    packed survivor index vectors) and [rowwise] the number left on the
    per-row closure path (genuinely dynamic predicates: aux-variable
    operands, arithmetic over columns, string/numeric mixes). Both are 0
    for ["stmt:"] routes. Decided by the same classification the binder
    uses, so the printed split matches what actually executes. *)
val stmt_routes_ex :
  Prog.t -> (string * (Prog.stmt * string * int * int) list) list

(** The (trigger relation, statement target) pairs that batch mode routes
    through the vectorized executor (any non-["stmt:"] label above). *)
val columnar_routed : Prog.t -> (string * string) list

(** Per trigger, each statement paired with its multicore execution
    decision, derived from the same planner as {!stmt_routes}:
    ["parallel"] for vectorized groups (batch ranges fan out over domains,
    per-domain partial deltas merge by ring [+]), or a
    ["serialize: <reason>"] naming what pins the statement to the applying
    domain (a self-reading RHS, or a full scan of a store map that the
    {!Patterns.accesses} analysis could not bind). *)
val par_routes : Prog.t -> (string * (Prog.stmt * string) list) list

(** Per-pool storage self-metrics (maps first, then [batch_*] update
    pools), also published as registry gauges ({!Pool.observe}). Computed
    on demand; cold path. *)
val storage_stats : t -> (string * Pool.stats) list

(** [run_attributed rt ~label ~slot f] runs [f] inside an [Obs.span label]
    and, when the profiler is enabled, charges its counter deltas to
    [slot]. Exposed for the cluster simulator's block executor. *)
val run_attributed : t -> label:string -> slot:int -> (unit -> unit) -> unit

(** Like {!stmt_routes_ex} for the worker blocks of one distributed
    trigger: [blocks] holds, per block in trigger order, the transient
    maps transfers filled before the block and the statements the
    workers run (both empty for blocks that run elsewhere); the result
    is aligned with the statements. Produced by the planner
    {!compile_blocks} uses. *)
val block_routes_ex :
  Prog.t ->
  rel:string ->
  (string list * Prog.stmt list) list ->
  (Prog.stmt * string * int * int) list list

(** {1 Hooks for the distributed engines}

    The distributed runtime executes statements at a finer granularity than
    whole triggers and moves map contents between nodes itself. *)

(** Compile an arbitrary statement list against this runtime's pools
    (batch mode, generic path). The coordinator's driver statements. *)
val compile_stmts : t -> Prog.stmt list -> (unit -> unit) list

(** Load the update batch for [rel] without firing its trigger. *)
val load_batch : t -> rel:string -> Gmr.t -> unit

(** {2 Worker blocks}

    A distributed trigger's worker statements run through the same
    planner and vectorized executor as {!apply_batch}: each block's
    statements are planned by {!stmt_routes}'s rules (a transient
    assigned in an earlier block, or filled by a transfer before this
    one, qualifies as a source) and every
    vectorized group reads its columns straight from the worker's
    columnar batch share. *)

(** How one trigger's update batches are cut into worker shares: the
    stream width and the columns to ship. *)
type scatter = { sc_width : int; sc_cols : int array }

(** The column-pruning rule, derived from the block planner: the columns
    the vectorized batch-sourced groups of [blocks] read, or every
    column when a unit left on the generic path reads Δ. [None] when no
    worker unit reads Δ at all — there is nothing to ship. Both the
    coordinator and the simulator derive it from the same program, so
    both ends agree on the layout without negotiating it. *)
val scatter_plan :
  Prog.t -> rel:string -> (string list * Prog.stmt list) list -> scatter option

(** [deal sc ~parts batch] transposes [batch] once (only [sc]'s columns,
    dictionary-encoding the low-cardinality string ones) and cuts it
    round-robin into [parts] shares ({!Colbatch.deal}): row [i] goes to
    worker [i mod parts]. The simulator and the multiprocess coordinator
    both call this, so simulated and real workers see identical shares. *)
val deal : scatter -> parts:int -> Gmr.t -> Colbatch.t array

(** One distributed trigger's worker blocks, compiled against this
    runtime's pools. *)
type blocks

(** [compile_blocks rt ~rel blocks] compiles each block's statements
    ([blocks] as for {!block_routes_ex}). *)
val compile_blocks :
  t -> rel:string -> (string list * Prog.stmt list) list -> blocks

(** Install this worker's share of the current batch. The batch pool is
    filled from it only when a generic unit reads Δ ({!scatter_plan}
    then ships every column). *)
val set_batch : t -> blocks -> Colbatch.t -> unit

(** Run block [bi] over the installed share, each unit under
    {!run_attributed} with its route label. Raises [Invalid_argument]
    for an index outside the trigger's blocks. *)
val run_block : t -> blocks -> int -> unit

(** Add one tuple into a map (used to deliver shuffled data). *)
val add_to_map : t -> string -> Vtuple.t -> float -> unit

val clear_map : t -> string -> unit

(** Number of stored tuples in one map. *)
val map_cardinal : t -> string -> int
