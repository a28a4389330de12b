(** Polynomial normal form: expansion of an expression into a bag union of
    monomials, used by the recursive-IVM compiler to factorize and
    materialize each monomial independently.

    [Sum] is linear and distributes over union; [Lift] and [Exists] are not
    and stay opaque. *)

open Divm_calc

(** [monomials e] returns [ms] with [e ≡ Calc.add ms]. No monomial is the
    zero expression. *)
val monomials : Calc.expr -> Calc.expr list

(** [factors m] flattens a monomial into its product factors (a non-product
    expression is its own single factor). *)
val factors : Calc.expr -> Calc.expr list

(** [reorder ~bound fs] stable-sorts factors so that every factor's input
    variables are bound before it evaluates, preferring delta-relation and
    domain factors first (the §3.2.1 commuting optimization: iterate small
    delta-derived terms, look up large ones). Order-sensitive factors
    ([Lift]/[Exists], whose semantics depend on which of their variables
    are bound) may only move to positions with the same boundness of their
    variables — [orig], when given, supplies the reference boundness per
    factor. Returns [None] when no valid ordering exists. *)
val reorder :
  bound:Divm_ring.Schema.t ->
  ?orig:Divm_ring.Schema.t option list ->
  Calc.expr list ->
  Calc.expr list option

(** [merge ~bound ms] sums the coefficients of monomials that are equal up
    to the order of their factors, compared with [Calc.equal], where each
    [Lift] sees the same bound variables at its position ([bound] is the
    context the monomials are evaluated in). The sum takes the place of the
    first monomial of its group and is dropped when it is zero; a monomial
    equal to no other is returned as it was, in its place. *)
val merge : bound:Divm_ring.Schema.t -> Calc.expr list -> Calc.expr list
