(** Distributed trigger programs: statements annotated with execution mode,
    explicit location-transformer statements (single-transformer form,
    §4.3.2), statement blocks, and the block fusion algorithm of
    Appendix C.3. *)

open Divm_compiler

type transfer_kind = Scatter | Repart | Gather

type dstmt =
  | Compute of Prog.stmt
  | Transfer of {
      tname : string;  (** destination transient map *)
      tkind : transfer_kind;
      key : int array;
          (** destination partition key positions; [[||]] with [Scatter]
              replicates to every worker *)
      source : string;  (** source map *)
    }

type mode = MLocal | MDist

type block = { bmode : mode; bstmts : dstmt list }
type dtrigger = { drelation : string; blocks : block list }

type t = {
  base : Prog.t;  (** map declarations incl. transfer transients *)
  locs : Loc.catalog;  (** location of every map *)
  dtriggers : dtrigger list;
}

val writes : dstmt -> string
val reads : dstmt -> string list

(** Execution mode of a statement: distributed when its target lives on the
    workers; transfers are driver-initiated (local). *)
val mode_of : Loc.catalog -> dstmt -> mode

(** Do two statements commute (Appendix C.3)? Neither reads the other's
    write target, and they do not write the same target unless both are
    commutative accumulations. *)
val commute : dstmt -> dstmt -> bool

(** The block fusion algorithm of Appendix C.3: reorder and merge
    consecutive blocks of the same mode when they commute with everything
    in between. *)
val fuse : block list -> block list

(** [promote locs stmts] wraps each statement in its own single-statement
    block. *)
val promote : Loc.catalog -> dstmt list -> block list

(** (jobs, stages) needed to process one batch of the given trigger: stages
    are distributed blocks; a job is a maximal run of distributed blocks. *)
val jobs_and_stages : t -> string -> int * int

val find_trigger : t -> string -> dtrigger
val pp_dstmt : Loc.catalog -> Format.formatter -> dstmt -> unit
val pp : Format.formatter -> t -> unit

(** Every [Transfer] statement's [(tname, key, source)] in deterministic
    program order — triggers, then blocks, then statements. Two parties
    holding the same (e.g. marshaled-and-restored) program derive the
    identical table, so a transfer can travel over a wire as a single
    index into it (the multiprocess engine's [Shuffle] control frame). *)
val transfers : t -> (string * int array * string) array

(** Count of blocks per mode across one trigger: (local, distributed). *)
val block_counts : dtrigger -> int * int

(** The plain trigger program over just the compute statements, in block
    order: what each node's runtime compiles (the cluster simulator) and
    what EXPLAIN's access-pattern analysis runs on. *)
val compute_prog : t -> Prog.t

(** Per block of the trigger, what the workers run it over: the maps
    transfers filled before the block starts, and the block's compute
    statements ([([], [])] for a local block). The shape the runtime's
    worker-block compiler takes. *)
val worker_blocks : dtrigger -> (string list * Prog.stmt list) list
