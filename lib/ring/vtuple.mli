(** Tuples of values — the keys of generalized multiset relations. *)

type t = Value.t array

val empty : t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [hash_at t idxs] is [hash (project t idxs)], folded over the fields
    in place. Positions are bounds-checked. *)
val hash_at : t -> int array -> int

(** [concat a b] appends [b]'s fields after [a]'s. *)
val concat : t -> t -> t

(** [project t idxs] keeps the fields at positions [idxs], in that order. *)
val project : t -> int array -> t

val byte_size : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Tbl : Hashtbl.S with type key = t
