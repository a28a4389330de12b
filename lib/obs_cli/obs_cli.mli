(** Shared observability CLI wiring for the [divm] binaries.

    Adds [--metrics], [--metrics-json FILE], [--trace FILE], [--listen
    PORT], [--explain] and [--profile] to a binary — either through
    cmdliner ({!setup}) or by scanning [Sys.argv] directly ({!scan_argv})
    for binaries that do their own argument parsing. Metrics / trace /
    profile output is emitted from [at_exit] hooks so it reflects the
    whole run; [--listen] serves the live registry while running
    ({!Obs_http}).

    Every flag that consumes the registry or trace also arms
    {!Divm_obs.Obs.set_collection}, so a multiprocess engine pulls its
    workers' telemetry into the merged view. *)

(** What the user asked for beyond metrics/tracing (which install their
    own hooks as a side effect of parsing). *)
type opts = { explain : bool; profile : bool }

(** [install ?metrics_json ~metrics ~trace ()] registers the at-exit
    hooks: with [metrics], print a Prometheus-text registry snapshot on
    stderr; with [metrics_json = Some f], write the registry snapshot as
    JSON to [f]; with [trace = Some f], enable span recording and write a
    Chrome trace_event JSON file to [f] (open it in [chrome://tracing] or
    Perfetto). *)
val install :
  ?metrics_json:string -> metrics:bool -> trace:string option -> unit -> unit

(** [listen port] arms collection and starts the {!Obs_http} endpoint on
    [127.0.0.1:port] (0 picks a free port), returning the bound port. *)
val listen : int -> int

(** Reset the profiler slots, enable profiling, and snapshot the registry
    as the reconciliation baseline for {!profile_report}. *)
val enable_profile : unit -> unit

(** Render the profiler report now, reconciled against the registry delta
    since {!enable_profile}. *)
val profile_report :
  ?plan:Divm_profile.Profile.plan ->
  ?storage:(string * Divm_storage.Pool.stats) list ->
  unit ->
  string

(** [activate ?plan ?storage opts] acts on parsed {!opts}: with
    [opts.explain] and a [plan], print the rendered EXPLAIN on stdout now;
    with [opts.profile], {!enable_profile} and register an at-exit hook
    printing {!profile_report} on stderr. [storage] is a thunk (for
    example [fun () -> Runtime.storage_stats rt]) evaluated at exit so the
    report sees final pool occupancy. *)
val activate :
  ?plan:Divm_profile.Profile.plan ->
  ?storage:(unit -> (string * Divm_storage.Pool.stats) list) ->
  opts ->
  unit

(** Cmdliner term parsing all five flags; evaluating it calls {!install}
    and returns the remaining {!opts} for the binary to {!activate}. *)
val setup : opts Cmdliner.Term.t

(** For binaries that do their own argv handling (the bench harness):
    consume the observability flags from [Sys.argv], installing the same
    hooks as encountered ([--profile] enables the profiler and registers a
    plan-less at-exit report), and return the remaining arguments
    (excluding [Sys.argv.(0)]). *)
val scan_argv : unit -> string list

(** {1 Unified engine flags}

    Every front end takes the same engine flags — [--backend
    local|simulated|multiprocess], [--workers], [--domains], [--batch],
    [--opt-level] — plus the five observability flags above, and turns them into one {!Divm_engine.Engine.config}.
    This is the only flag parser the binaries use; none of them
    constructs a runtime, simulator or node engine by hand anymore. *)

type common = { engine : Divm_engine.Engine.config; opts : opts }

(** Cmdliner term for the engine + observability flags. [defaults] seeds
    the per-binary defaults (e.g. divm_cluster starts from a [Simulated]
    backend with 8 workers); flags the user passes override it.
    [--workers] re-parameterizes whichever distributed backend is
    selected; [--backend simulated|multiprocess] starts from the default
    config of that backend when [defaults] named a different one. *)
val parse_common : ?defaults:Divm_engine.Engine.config -> unit -> common Cmdliner.Term.t

(** Argv-scanning equivalent of {!parse_common} for the bench harness:
    consumes engine and observability flags from [Sys.argv], returns the
    parsed {!common} and the remaining arguments. *)
val scan_common : ?defaults:Divm_engine.Engine.config -> unit -> common * string list

(** [activate_engine eng opts] is {!activate} wired to an engine: the
    EXPLAIN plan is derived from the engine's compiled (distributed)
    program and the storage thunk from {!Divm_engine.Engine.storage_stats}. *)
val activate_engine : Divm_engine.Engine.t -> opts -> unit
