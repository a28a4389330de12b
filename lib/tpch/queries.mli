(** The TPC-H query workload in its streaming form (§6, [22]): ORDER
    BY/LIMIT are dropped and each query maintains its group-by aggregates;
    AVG-style ratios are maintained as separate numerator/denominator maps.

    Textual predicates are mapped onto the synthetic schema: [LIKE] patterns
    over names become equality on the generated category columns
    ([p_color], [p_type]), phone-prefix tests use the integer country code
    [c_cc], and comment-based filters use value predicates of the same
    selectivity class. MIN/MAX nested aggregates (Q2, Q15) use the standard
    calculus encoding ("no element compares better"), which the compiler's
    §3.2.3 analysis then handles like the paper (incremental when the
    nested domain is equality-correlated, re-evaluation otherwise). *)

open Divm_calc

type t = {
  qname : string;
  maps : (string * Calc.expr) list;  (** top-level result maps *)
}

(** Q1 … Q22, in order. *)
val all : t list

val find : string -> t
