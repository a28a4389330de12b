(** Growable int-array stack: the bucket and free-list representation of
    the storage engine (§5.2). Pushes are amortized O(1); removal is by
    swap-remove at the owner's hands ([set] the hole to [pop]'s result).

    Bounds are not checked on [get]/[set]; indices must be [< length]. *)

type t

val create : ?cap:int -> unit -> t
val length : t -> int
val is_empty : t -> bool
val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit

(** Remove and return the last element. The stack must be non-empty. *)
val pop : t -> int

val clear : t -> unit
val copy : t -> t
