(** The recursive incremental view maintenance compiler (§2.2, §3).

    Given top-level queries over stream relations, the compiler derives, for
    every query and every stream, the delta query; materializes each delta's
    update-independent parts as auxiliary maps (factorized into connected
    components of the join graph, so disconnected parts are stored
    separately, cf. footnote 2); and recursively repeats the procedure on
    the auxiliary maps until deltas reference no base relations.

    Queries whose deltas contain an unrestrictable [Lift]/[Exists]
    difference (§3.2.3) fall back to re-evaluation over materialized base
    relations for that update path.

    Three compilation modes share the machinery:
    - [compile] — full recursive IVM (the paper's approach);
    - [compile_classical] — first-order IVM over materialized base tables
      (the "classical incremental view maintenance" baseline);
    - [compile_reeval] — recompute every query from materialized base
      tables on every batch (the re-evaluation baseline). *)

open Divm_ring
open Divm_calc

type options = {
  factorize : bool;
      (** decompose update-independent parts into connected components
          (true in the paper; false only for the ablation bench) *)
  preaggregate : bool;
      (** insert batch pre-aggregation statements (§3.3) *)
}

val default_options : options

(** [compile ~streams queries] compiles [queries] (name, definition) into a
    trigger program. [streams] lists the updatable relations with their
    column variables (declaration order). Relations referenced by queries
    but absent from [streams] are static tables (no triggers derived). *)
val compile :
  ?options:options ->
  streams:(string * Schema.t) list ->
  (string * Calc.expr) list ->
  Prog.t

val compile_classical :
  ?options:options ->
  streams:(string * Schema.t) list ->
  (string * Calc.expr) list ->
  Prog.t

val compile_reeval :
  streams:(string * Schema.t) list -> (string * Calc.expr) list -> Prog.t
