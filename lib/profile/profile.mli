(** Profiling and EXPLAIN: per-statement attribution over the {!Divm_obs}
    registry (§5–§6's evaluation methodology, as a subsystem).

    {1 EXPLAIN}

    {!explain} / {!explain_dist} derive a static {!plan} for a compiled
    trigger program: per statement, the access path the runtime will take
    for every atom it reads ([get] / [foreach] / [slice]), which declared
    {!Divm_runtime.Patterns} index serves each slice, and whether batch
    mode routes the statement through the columnar §5.2.2 pre-aggregation;
    for distributed programs additionally the location tag of each target,
    the block/stage structure, and the transfers each block induces. The
    analysis reuses the exact walks the runtime compiles from
    ({!Divm_runtime.Patterns.accesses},
    {!Divm_runtime.Runtime.block_routes_ex}): local, worker and driver
    statements are labelled by the planner that runs them, so the
    printout cannot disagree with execution.

    {1 Profiling}

    With {!set_enabled}[ true], every statement firing (local runtime,
    cluster driver/worker statements) and every cluster transfer charges
    its counter deltas — record ops, index probes and misses, slice-scanned
    records, shuffled bytes — plus wall time to a per-statement slot
    ({!Divm_obs.Prof}). {!report} joins the slots with the static plan into
    a top-N hot-statement table; {!reconcile} checks the slot sums against
    the registry's own totals, so the two accounting paths can never
    silently drift. *)

open Divm_compiler
open Divm_storage
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof

(** {2 Profiler controls} (re-exported from {!Divm_obs.Prof}) *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val reset : unit -> unit

(** {2 Static plans} *)

type access = {
  a_name : string;
  a_delta : bool;  (** reads the update batch, not a materialized map *)
  a_path : Divm_runtime.Patterns.path;
  a_index : int option;
      (** which declared slice index serves a [Slice] access; [None] for
          [Get]/[Foreach], or for an unindexed slice (scan with checks) *)
}

type stmt_plan = {
  sp_trigger : string;
  sp_label : string;  (** the {!Divm_obs.Prof} slot label *)
  sp_target : string;
  sp_op : string;  (** ["+="] or [":="] *)
  sp_columnar : bool;
  sp_selvec : int;
      (** filters compiled to selection-vector kernels (columnar scans
          into packed survivor index vectors); 0 on generic routes *)
  sp_rowwise : int;
      (** filters left on the per-row closure path (dynamic predicates) *)
  sp_pass : Divm_runtime.Runtime.group_pass;
      (** what its group runs ({!Divm_runtime.Runtime.group_pass}): key
          groups when a member probes or slices a store, a hash
          aggregation for a batch pre-aggregation, rows otherwise *)
  sp_generic : string option;
      (** on the generic (["stmt:"]) route, the planner rule that put it
          there; [None] on vectorized routes *)
  sp_block : int option;  (** distributed programs only *)
  sp_stage : int option;  (** 1-based distributed stage, if any *)
  sp_loc : string option;  (** rendered location tag of the target *)
  sp_accesses : access list;
}

type transfer_plan = {
  tp_trigger : string;
  tp_label : string;
  tp_kind : string;  (** ["scatter"] / ["repartition"] / ["gather"] *)
  tp_source : string;
  tp_dest : string;
  tp_key : int array;
  tp_block : int;
}

(** One transport call of a distributed trigger's batch
    ({!Divm_dist.Dprog.calls}). *)
type call_plan = {
  cp_trigger : string;
  cp_kind : string;  (** ["stage"] / ["pull"] / ["exchange"] / ["driver"] *)
  cp_stage : int option;  (** 1-based stage a ["stage"] call runs *)
  cp_share : bool;  (** the call carries the batch share *)
  cp_deal : string option;
      (** on the call that carries the share, the stream column it is
          dealt on ({!Divm_dist.Dprog.deal_column}); [None]: round-robin *)
  cp_transfers : string list;
      (** labels of the transfers the call moves: the gathers riding a
          stage's reply, a pull's gathers, an exchange's transfers, or a
          driver-bound transfer *)
  cp_round_trips : int;
}

type plan = {
  pl_name : string;
  pl_dist : bool;
  pl_stmts : stmt_plan list;
  pl_transfers : transfer_plan list;
  pl_calls : call_plan list;  (** distributed plans only, in trigger order *)
  pl_batch_cols : (string * string list * int) list;
      (** local plans: per trigger whose update batch some vectorized
          group reads, the names of the columns a firing transposes
          ({!Divm_runtime.Runtime.batch_columns}) and the stream width *)
}

val explain : ?name:string -> Prog.t -> plan
val explain_dist : ?name:string -> Divm_dist.Dprog.t -> plan

(** Human-readable EXPLAIN text. *)
val render : plan -> string

val plan_json : plan -> string

(** {2 Reports} *)

(** [report ()] renders the hot-statement table: slots with at least one
    firing, sorted by wall time, [top] (default 20) shown, totals row
    always over all slots. [?plan] adds each statement's access-path
    summary; [?storage] appends per-pool self-metrics; [?diff] (a registry
    {!Obs.diff} over the profiled window) appends the reconciliation
    check. *)
val report :
  ?plan:plan ->
  ?storage:(string * Pool.stats) list ->
  ?diff:Obs.snapshot ->
  ?top:int ->
  unit ->
  string

val report_json :
  ?plan:plan ->
  ?storage:(string * Pool.stats) list ->
  ?diff:Obs.snapshot ->
  unit ->
  string

(** [(what, slot_sum, registry_delta)] per accounted quantity; the two
    numbers are equal whenever the profiler was enabled (and slots reset)
    for the whole window [diff] covers. *)
val reconcile : diff:Obs.snapshot -> (string * int * int) list
