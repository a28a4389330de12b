(** Set-associative LRU cache simulator — the perf-counter substitute for
    the Table 2 experiment (see DESIGN.md).

    A two-level hierarchy replays the storage layer's pseudo-address stream
    ({!Divm_storage.Trace}): accesses hit a private L1D; L1D misses become
    LLC references; LLC misses are counted. Geometry defaults mirror the
    paper's Xeon E5-2630L (32 KiB 8-way L1D, 15 MiB 20-way shared LLC,
    64-byte lines). *)

type cache

val cache : ?line:int -> sets:int -> ways:int -> unit -> cache

(** [access c addr] returns [true] on hit. *)
val access : cache -> int -> bool

val refs : cache -> int
val misses : cache -> int
val reset : cache -> unit

type hierarchy = { l1d : cache; llc : cache }

val default_hierarchy : unit -> hierarchy

(** Install the hierarchy as the storage trace sink; returns a function that
    uninstalls it. *)
val attach : hierarchy -> unit -> unit

type counters = {
  l1d_refs : int;
  l1d_misses : int;
  llc_refs : int;
  llc_misses : int;
}

val counters : hierarchy -> counters
