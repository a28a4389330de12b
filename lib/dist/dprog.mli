(** Distributed trigger programs: statements annotated with execution mode,
    explicit location-transformer statements (single-transformer form,
    §4.3.2), statement blocks, and the block fusion algorithm of
    Appendix C.3. *)

open Divm_compiler

type transfer_kind = Scatter | Repart | Gather

type transfer = {
  tname : string;  (** destination transient map *)
  tkind : transfer_kind;
  key : int array;
      (** destination partition key positions; [[||]] with [Scatter]
          replicates to every worker *)
  source : string;  (** source map *)
}

type dstmt = Compute of Prog.stmt | Transfer of transfer

type mode = MLocal | MDist

type block = { bmode : mode; bstmts : dstmt list }

type dtrigger = {
  drelation : string;
  blocks : block list;
  deal : int option;
      (** the batch column the trigger's update batches are dealt on: a
          row goes to worker [Vtuple.hash_at row [|c|] mod workers], the
          hash partition every keyed transfer uses. [None]: round-robin. *)
}

type t = {
  base : Prog.t;
      (** the local program's map declarations, then those of the maps the
          distributed compiler created (transfer destinations, partial
          results, stage intermediates) that a statement or transfer
          names, in first-use order. Every declared map's definition
          names only declared maps. *)
  locs : Loc.catalog;
      (** one location per created map of [base], then the catalog's
          locations of the local program's maps, with the
          pre-aggregations of a trigger dealt on a key partitioned on
          it *)
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

(** The name of the stream column the trigger's batches are dealt on
    ([deal]), or [None] for round-robin. *)
val deal_column : t -> dtrigger -> string option

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

(** The driver's counterpart of {!worker_blocks}: one entry per run of
    consecutive compute statements in the trigger's local blocks (a
    transfer or a distributed block ends a run), in trigger order, with
    the maps transfers filled before the run starts. *)
val driver_blocks : dtrigger -> (string list * Prog.stmt list) list

(** {1 Transport calls}

    How the distributed executor moves one batch: every transport call
    addresses all workers and waits for all of them, so a call is one
    round trip. *)

(** One step of a trigger's batch, in execution order. *)
type step =
  | Driver of int  (** a run of driver statements: index into {!driver_blocks} *)
  | Stage of int  (** a distributed block: its index in the trigger's blocks *)
  | Move of transfer

(** The trigger's blocks flattened into steps: each distributed block is
    one stage, and a local block contributes its transfers and its runs of
    driver statements, cut where {!driver_blocks} cuts them. *)
val steps : dtrigger -> step array

(** A transfer runs as a direct worker-to-worker shuffle when every byte
    both starts and ends on workers: scatters and repartitions from a map
    partitioned over the workers into one that is not on the driver.
    Gathers end at the driver, and local or replicated sources live there
    (or on every worker), so those stay driver-bound. *)
val is_mesh : Loc.catalog -> transfer -> bool

(** One transport call of a batch. Every [int] is a position in the
    {!steps} array; the first position of a call is the step that makes
    it. *)
type call =
  | Run of int * int list
      (** a stage, and the gathers that ride its reply: gathers from maps
          partitioned over the workers that directly follow the stage
          (driver runs may sit between). The trigger's first stage also
          carries the batch share. *)
  | Pull of int list  (** any other run of such gathers: one pull *)
  | Exchange of int list
      (** a run of consecutive mesh transfers ({!is_mesh}): one exchange *)
  | Via_driver of int
      (** a driver-bound transfer: pull its source (unless it lives on the
          driver), then deliver (unless it is a gather) *)

(** The grouping rule: cut a trigger's steps into transport calls, in
    order. A run of gathers or of mesh transfers ends at a stage or at a
    transfer of another kind; a mesh transfer whose source is the
    destination of an earlier transfer in its run starts a new run. Each
    gather still fills its driver map at its own step; only the fetch
    moves. *)
val calls : Loc.catalog -> step array -> call list

(** Round trips one batch of the trigger makes: one per call, except a
    driver-bound transfer, which makes one per pull and one per
    deliver. *)
val round_trips : Loc.catalog -> step array -> call list -> int
