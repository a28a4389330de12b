(** The comparison engines of §6 under one interface.

    - [Reeval] — recompute each query from materialized base tables on
      every batch (the paper's "Re-eval (PostgreSQL)" column);
    - [Classical] — first-order incremental view maintenance: one delta
      query per base relation, joined against materialized base tables,
      with no recursive materialization ("IVM (PostgreSQL)");
    - [Rivm_interp] — recursive IVM executed by the generic interpreter
      (per-statement hash-join evaluation, no specialization);
    - [Rivm] — recursive IVM compiled to specialized closures over indexed
      record pools (the paper's generated C++).

    The two "PostgreSQL" stand-ins run through the interpreter, whose
    per-evaluation hash builds mirror a conventional engine's per-statement
    join processing (see DESIGN.md). *)

open Divm_ring
open Divm_storage
open Divm_calc

type engine = Reeval | Classical | Rivm_interp | Rivm

val engine_name : engine -> string

type t

val create :
  engine ->
  streams:(string * Schema.t) list ->
  (string * Calc.expr) list ->
  t

(** Initial load of base-table contents. The interpreted engines compute
    every materialized view once from scratch ({!Divm_runtime.Exec.load});
    [Rivm] fires each table as one batch of its relation. *)
val load : t -> (string * Gmr.t) list -> unit

(** Process one batch; returns elapsed wall-clock seconds. *)
val apply_batch : t -> rel:string -> Gmr.t -> float

(** Single-tuple fast path (only meaningful for [Rivm]; other engines fall
    back to a size-one batch). *)
val apply_single : t -> rel:string -> Vtuple.t -> float -> float

val result : t -> string -> Gmr.t
