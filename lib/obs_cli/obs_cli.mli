(** Shared observability CLI wiring for the [divm] binaries.

    Adds [--metrics], [--metrics-json FILE], [--trace FILE], [--listen
    PORT], [--explain] and [--profile] to a binary through cmdliner
    ({!parse_common}, with the engine flags). [--metrics] prints a
    Prometheus-text registry snapshot on stderr, [--metrics-json] writes
    it as JSON, and [--trace] records spans and writes them as Chrome
    trace_event JSON. Metrics / trace / profile output is emitted from
    [at_exit] hooks so it reflects the whole run; [--listen] serves the
    live registry while running ({!Obs_http}; port 0 picks a free one).

    Every flag that consumes the registry or trace also arms
    {!Divm_obs.Obs.set_collection}, so a multiprocess engine pulls its
    workers' telemetry into the merged view. *)

(** What the user asked for beyond metrics/tracing (which install their
    own hooks as a side effect of parsing). *)
type opts = { explain : bool; profile : bool }

(** [activate ?plan ?storage opts] acts on parsed {!opts}: with
    [opts.explain] and a [plan], print the rendered EXPLAIN on stdout now;
    with [opts.profile], reset and enable the profiler and register an
    at-exit hook printing its report on stderr, reconciled against the
    registry delta since activation. [storage] is a thunk (for
    example [fun () -> Runtime.storage_stats rt]) evaluated at exit so the
    report sees final pool occupancy. *)
val activate :
  ?plan:Divm_profile.Profile.plan ->
  ?storage:(unit -> (string * Divm_storage.Pool.stats) list) ->
  opts ->
  unit

(** {1 Unified engine flags}

    Every front end takes the same engine flags — [--backend
    local|simulated|multiprocess], [--workers], [--domains], [--batch],
    [--opt-level] — plus the five observability flags above, and turns
    them into one {!Divm_engine.Engine.config}. This is the only flag
    parser the binaries use, and they construct every engine from its
    result. Values the engines cannot run reject at parse time with
    cmdliner's usage error (exit 124): [--workers], [--domains] and
    [--batch] below 1, and [--opt-level] outside 0–3. *)

type common = { engine : Divm_engine.Engine.config; opts : opts }

(** Cmdliner term for the engine + observability flags. [defaults] seeds
    the per-binary defaults (e.g. divm_cluster starts from a [Simulated]
    backend with 8 workers); flags the user passes override it.
    [--workers] re-parameterizes whichever distributed backend is
    selected; [--backend simulated|multiprocess] starts from the default
    config of that backend when [defaults] named a different one. *)
val parse_common : ?defaults:Divm_engine.Engine.config -> unit -> common Cmdliner.Term.t

(** The positional [QUERY] argument (default [Q3]), resolved with
    {!Divm_workload.Workload.find}: an unknown name is a usage error. *)
val query : Divm_workload.Workload.t Cmdliner.Term.t

(** The [--sql SQL] option, compiled over the TPC-H schema with
    {!Divm_workload.Workload.of_sql} while the flags parse: SQL that does
    not parse or compile is a usage error. *)
val sql : Divm_workload.Workload.t option Cmdliner.Term.t

(** [activate_engine eng opts] is {!activate} wired to an engine: the
    EXPLAIN plan is derived from the engine's compiled (distributed)
    program and the storage thunk from {!Divm_engine.Engine.storage_stats}. *)
val activate_engine : Divm_engine.Engine.t -> opts -> unit
