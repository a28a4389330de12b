(** Per-statement attribution slots — the profiler's accumulator.

    The runtime and cluster resolve a slot id per compiled statement (or
    transfer) once at compile time with {!slot}; firing a statement under
    an enabled profiler charges counter {e deltas} to that id with {!add}
    — array-indexed additions only, no string lookups on the hot path.
    With the profiler disabled ({!enabled} [= false], the default) the
    firing path pays a single flag check.

    The report layer ([Divm.Profile]) joins {!rows} against the static
    plan; it lives in a separate library above runtime/dist, which is why
    this accumulator sits here in [Divm_obs]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** [slot ~trigger ~label] returns the dense id for the (trigger, label)
    pair, allocating it on first use. Idempotent; ids are stable for the
    process lifetime. Labels follow the runtime's route labels
    (["stmt:<target>"], ["columnar:<target>"], …), ["stage:<n>"] and
    ["transfer:<name>"]. *)
val slot : trigger:string -> label:string -> int

(** Charge one firing plus counter deltas to a slot. [words] is the
    [Gc.minor_words] delta of the firing. *)
val add :
  int ->
  ops:int ->
  probes:int ->
  misses:int ->
  scanned:int ->
  svscan:int ->
  svsel:int ->
  bytes:int ->
  words:int ->
  wall:float ->
  unit

type row = {
  r_trigger : string;
  r_label : string;
  r_firings : int;
  r_ops : int;  (** elementary record ops (§6 cost model) *)
  r_probes : int;  (** primary-index probes ([Pool.get]/[Pool.slice]) *)
  r_misses : int;  (** probes that found nothing *)
  r_scanned : int;  (** records scanned through secondary-index slices *)
  r_svscan : int;  (** rows examined by selection-vector filter kernels *)
  r_svsel : int;  (** rows surviving the kernels (survivor-vector length) *)
  r_bytes : int;  (** serialized bytes this transfer shuffled *)
  r_words : int;
      (** words allocated on the minor heap while the slot ran, in the
          process that ran it: [Gc.minor_words] deltas *)
  r_wall : float;  (** seconds *)
}

(** [merge ~trigger ~label row] folds a whole row — e.g. a worker
    process's slot delta shipped over the wire — into the slot
    registered under [(trigger, label)], carrying the source's firing
    count (unlike {!add}, which charges exactly one firing). *)
val merge : trigger:string -> label:string -> row -> unit

(** All slots in id (registration) order, including zero ones. *)
val rows : unit -> row list

(** Zero every tally; slot registrations (and the ids captured by compiled
    closures) survive. *)
val reset : unit -> unit
