(** Interpreted trigger-program executor.

    Maintains all materialized maps as plain GMRs and evaluates trigger
    statements with the reference interpreter. This is the semantics
    baseline: the specialized runtime ({!Runtime}) and the distributed
    runtime are tested against it, and the baseline engines
    ("PostgreSQL-style" classical IVM and re-evaluation) run through it. *)

open Divm_storage
open Divm_compiler

type t

val create : Prog.t -> t
val prog : t -> Prog.t

(** [apply_batch t ~rel batch] fires the trigger for [rel] with the update
    batch (positive multiplicities insert, negative delete). *)
val apply_batch : t -> rel:string -> Gmr.t -> unit

(** Bulk initial load: set every non-transient map to its definition
    evaluated over the given base-table contents (the "initial view
    computation" of a freshly started system). *)
val load : t -> (string * Gmr.t) list -> unit

(** Contents of a map (keyed in the map declaration's variable order). The
    returned GMR is live — do not mutate. *)
val map_contents : t -> string -> Gmr.t

(** Result of a named query. *)
val result : t -> string -> Gmr.t
