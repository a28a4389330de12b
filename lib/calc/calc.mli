(** The query calculus of §3.1 / Appendix A over generalized multiset
    relations.

    Expressions denote GMRs: finite maps from tuples (over the expression's
    output variables) to real multiplicities. Information about bound
    variables flows left-to-right through products (§3.2.1): in
    [Prod [R(A); S(A)]] the left factor binds [A], the right factor is a
    lookup.

    Negation is not a primitive: [neg e] is sugar for [Const (-1) * e],
    matching the paper ("−Q is syntactic sugar for (−1) ⋈ Q"). *)

open Divm_ring

type cmp_op = Eq | Neq | Lt | Lte | Gt | Gte

(** Base-relation atom: name plus the variables naming its columns. *)
type rel = { rname : string; rvars : Schema.t }

(** Materialized-view (map) access atom. *)
type map_access = { mname : string; mvars : Schema.t }

type expr =
  | Const of float  (** singleton over the empty tuple *)
  | Value of Vexpr.t  (** interpreted relation; all vars must be bound *)
  | Cmp of cmp_op * Vexpr.t * Vexpr.t  (** 0/1 filter *)
  | Rel of rel  (** base-table contents *)
  | DeltaRel of rel  (** the current update batch ΔR *)
  | Map of map_access  (** materialized view *)
  | Lift of Schema.var * expr  (** var := Q (generalized assignment) *)
  | Exists of expr  (** non-zero multiplicities become 1 *)
  | Sum of Schema.t * expr  (** multiplicity-preserving projection *)
  | Prod of expr list  (** natural join *)
  | Add of expr list  (** bag union *)

(** {1 Smart constructors} — they flatten and apply ring identities
    ([x*1 = x], [x*0 = 0], [x+0 = x]). *)

val one : expr
val zero : expr
val const : float -> expr
val rel : string -> Schema.t -> expr
val delta_rel : string -> Schema.t -> expr
val map_ : string -> Schema.t -> expr
val prod : expr list -> expr
val add : expr list -> expr
val neg : expr -> expr
val sum : Schema.t -> expr -> expr
val lift : Schema.var -> expr -> expr
val exists : expr -> expr
val cmp : cmp_op -> Vexpr.t -> Vexpr.t -> expr
val value : Vexpr.t -> expr

(** [cmp_vars op a b] compares two variables. *)
val cmp_vars : cmp_op -> Schema.var -> Schema.var -> expr

val is_zero : expr -> bool

(** {1 Analysis} *)

(** Output variables given the set of already-bound variables.
    Raises [Type_error] on malformed expressions (e.g. a [Value] with an
    unbound variable, or union members with differing schemas). *)
val schema : ?bound:Schema.t -> expr -> Schema.t

exception Type_error of string

(** All variables appearing anywhere in the expression. *)
val all_vars : expr -> Schema.t

(** Free input variables: the variables the expression requires from its
    evaluation context (comparison/value operands and correlations not
    produced internally). Relation/map atoms bind their own columns and
    require none. *)
val inputs : ?bound:Schema.t -> expr -> Schema.t

(** Names of base relations referenced (via [Rel]). *)
val base_rels : expr -> string list

(** Names of delta relations referenced (via [DeltaRel]). *)
val delta_rels : expr -> string list

(** Names of maps referenced (via [Map]). *)
val map_refs : expr -> string list

val has_base_rels : expr -> bool
val has_deltas : expr -> bool

(** Degree: the maximum number of relation-or-map atoms multiplied together
    in any monomial — the complexity measure of §3.2. *)
val degree : expr -> int

(** {1 Transformations} *)

(** [rename f e] renames every variable occurrence (column vars, lift vars,
    group-by vars). [f] must be injective on the variables of [e]. *)
val rename : (Schema.var -> Schema.var) -> expr -> expr

(** [rename_by_assoc assoc e] renames via an association list (by name);
    unlisted variables are unchanged. *)
val rename_by_assoc : (string * Schema.var) list -> expr -> expr

(** Structural equality (variables compared by name). *)
val equal : expr -> expr -> bool

(** [alpha_canon ~keep e] canonically renames every variable not in [keep]
    to ["!cN"] in traversal order, giving alpha-equivalence-modulo-[keep]
    comparability via [equal]. *)
val alpha_canon : keep:Schema.t -> expr -> expr

val pp : Format.formatter -> expr -> unit

(** Comma-separated variable list (no brackets). *)
val pp_vars : Format.formatter -> Schema.t -> unit

val to_string : expr -> string

(** [canon_key ~schema def] is a map-reuse key: [schema]'s variables are
    renamed first (so the key is positional in the map's key order), then
    every other variable of [def] in traversal order. Alpha-equivalent
    definitions with positionally-identical schemas get equal keys. *)
val canon_key : schema:Schema.t -> expr -> string

(** Multiplicity of truth: [of_bool true = 1.], [of_bool false = 0.]. *)
val eval_cmp : cmp_op -> Value.t -> Value.t -> bool
