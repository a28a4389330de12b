(** Optional instrumentation of storage accesses.

    When a sink is installed, every record access reports a pseudo-address
    (stable per record) so a cache simulator can replay the access stream —
    the Table 2 experiment. The hooks are free when disabled. *)

type kind = Read | Write

(** [set_sink (Some f)] installs [f addr kind]; [None] disables tracing. *)
val set_sink : (int -> kind -> unit) option -> unit

val enabled : unit -> bool
val emit : int -> kind -> unit

(** Allocate a fresh address region of [bytes] bytes; returns the base
    address. Used by pools to place their records in a fake address space. *)
val alloc_region : int -> int
