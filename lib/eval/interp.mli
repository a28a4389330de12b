(** Reference interpreter for the calculus: the semantic oracle used by the
    baseline engines and as ground truth in tests.

    Evaluation follows the model of computation of §3.2.1: operator trees are
    evaluated left-to-right, bottom-up, with bound-variable information
    flowing rightwards through products. Relation atoms with partially bound
    columns use on-demand hash indexes (built once per [eval] call), matching
    the in-memory hash-join reference model. *)

open Divm_ring
open Divm_storage
open Divm_calc

(** Where atoms get their contents. All three lookups raise [Not_found] for
    unknown names. *)
type source = {
  rel : string -> Gmr.t;  (** base-table contents, declaration column order *)
  delta : string -> Gmr.t;  (** current update batch *)
  map : string -> Gmr.t;  (** materialized views, declared column order *)
}

val source_of_rels : (string * Gmr.t) list -> source

(** [eval src env e] evaluates [e] under bindings [env]; the result is keyed
    by [Calc.schema ~bound:(vars of env... ) e]'s variables in order. The
    returned schema is that order. *)
val eval :
  ?bound:Schema.t -> source -> Env.t -> Calc.expr -> Schema.t * Gmr.t

(** [eval_closed src e] evaluates a closed expression (no bound vars). *)
val eval_closed : source -> Calc.expr -> Schema.t * Gmr.t

(** Total multiplicity of a fully-aggregated expression (empty schema);
    [0.] when the result is empty. *)
val eval_scalar : source -> Calc.expr -> float
