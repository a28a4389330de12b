(** Unified observability: one metrics registry and one span tracer that
    every layer feeds (storage, runtime, cluster) and every front end
    consumes (CLIs, bench harness, tests).

    The paper's entire evaluation is an exercise in counting — elementary
    ops per stage, bytes shuffled, stages per trigger — so the counts live
    here, behind one API, instead of ad-hoc records and [Printf]s.

    {1 Metrics}

    Named monotonic {!Counter}s, {!Gauge}s, and latency {!Histogram}s
    register themselves in a global registry at creation ([make] is
    idempotent per name: re-creating returns the existing instrument).
    Hot paths pay a few loads and one plain store per event — there is no
    sampling toggle for counters because an increment is already about as
    cheap as the check would be. {!snapshot} captures the registry, {!diff}
    subtracts
    two snapshots (counters and histograms subtract; gauges keep the later
    value), and {!to_text} / {!to_json} export Prometheus-style text and a
    machine-readable JSON report.

    {1 Spans}

    [span "trigger:R" (fun () -> ...)] produces a nested timed span when
    tracing is enabled ({!set_tracing}); when disabled it is one mutable
    load and a branch — the closure runs untouched. Completed spans carry
    string attributes ({!set_attr} tags the innermost open span, e.g. with
    the cluster's modeled milliseconds next to measured wall time) and
    export as Chrome [trace_event] JSON ({!write_chrome_trace}) so a
    batch's trigger → statement → stage → shuffle breakdown opens directly
    in [chrome://tracing] / [ui.perfetto.dev]. *)

(** {2 Memory-ordering contract (multicore)}

    Counters are striped: each domain increments a cache-line-padded shard
    cell it owns exclusively (shard assignment goes through [Domain.DLS],
    so it is injective by construction), and shard-array growth publishes
    the new array through an [Atomic.t], which establishes the
    happens-before needed for its initialized contents. Consequences:

    - {!Counter.incr}/{!Counter.add} from any number of domains
      concurrently never lose an update and never tear.
    - {!Counter.value} (and {!snapshot}) may be called concurrently with
      increments; the result is a sum of per-domain cells, each a plain
      read, so it can lag in-flight increments but is always a value the
      counter actually passed through per shard. After a synchronization
      point that orders all prior increments before the read —
      [Domain.join], or a {!Divm_par.Par.Pool.run} barrier — the value is
      exact.
    - {!Counter.reset} is quiescent-only: call it when no other domain
      is incrementing, or concurrent increments may survive the reset.
    - {!Gauge.set}/{!Gauge.value} are sequentially-consistent atomics:
      last-writer-wins, no tearing.
    - {!Histogram.observe} and the span tracer ({!span}, {!set_attr}) are
      {b not} domain-safe: they keep single-writer mutable state and must
      only be driven from one domain (the parallel executors in
      [Divm_runtime]/[Divm_cluster] fall back to their serial paths while
      tracing or profiling is enabled).
    - Instrument registration ([make ~register:true]) is serialized by a
      lock and safe from any domain. *)

module Counter : sig
  type t

  (** [make name] registers (or retrieves) the counter [name] in the global
      registry. [~register:false] creates a private, unregistered counter
      (per-instance accounting, e.g. one runtime's op count). *)
  val make : ?register:bool -> string -> t

  val incr : t -> unit
  val add : t -> int -> unit

  (** Sum over per-domain shards; exact once prior increments
      happen-before the read (see the memory-ordering contract above). *)
  val value : t -> int

  (** Quiescent-only (see the memory-ordering contract above). *)
  val reset : t -> unit

  val name : t -> string
end

module Gauge : sig
  type t

  val make : ?register:bool -> string -> t
  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  (** Bucket upper bounds in seconds; the default spans 100µs–100s
      geometrically. An implicit +inf bucket is always present. *)
  val make : ?register:bool -> ?buckets:float array -> string -> t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  (** [percentile t p] estimates the [p]-th percentile ([0. <= p <= 100.])
      by linear interpolation inside the bucket containing the rank; the
      first bucket interpolates from 0, the +inf bucket reports the
      largest finite bound. [nan] on an empty histogram. *)
  val percentile : t -> float -> float

  (** Same estimator over raw snapshot arrays (see {!value}). *)
  val percentile_of :
    buckets:float array -> counts:int array -> count:int -> float -> float
end

(** {1 Registry snapshots} *)

type value =
  | VCounter of int
  | VGauge of float
  | VHistogram of {
      buckets : float array;  (** upper bounds, ascending *)
      counts : int array;  (** same length as [buckets] plus +inf last *)
      sum : float;
      count : int;
    }

type snapshot = (string * value) list  (** registration order *)

val snapshot : unit -> snapshot

(** [diff ~later ~earlier]: counters and histogram counts/sums subtract,
    gauges keep [later]'s value; instruments absent from [earlier] pass
    through. If a histogram's bucket bounds changed between the snapshots
    (an instrument re-created with different [~buckets]), per-bucket deltas
    are meaningless: the result keeps [later]'s bounds with all bucket
    counts zeroed and subtracts only [sum]/[count]. *)
val diff : later:snapshot -> earlier:snapshot -> snapshot

val find : snapshot -> string -> value option

(** Counter value by name; 0 when absent or not a counter. *)
val counter_value : snapshot -> string -> int

(** {1 Remote collection (multi-process telemetry)}

    A distributed coordinator merges the registries, profiler slots and
    spans of its worker processes into this process's view. The flag
    below gates the wire traffic; {!ingest} and the remote-span store do
    the merging. *)

(** When true, distributed engines pull telemetry frames from their
    worker processes at stage barriers and on shutdown. Set by the CLI
    layer whenever some consumer of the merged view is active
    ([--metrics]/[--metrics-json]/[--trace]/[--profile]/[--listen]);
    default false, in which case nothing extra crosses the wire. *)
val set_collection : bool -> unit

val collection : unit -> bool

(** [with_labels name labels] appends [labels] to [name]'s Prometheus
    label set (["m{worker=\"2\"}"]), merging with any existing set.
    Values are escaped. [name] is returned unchanged on empty labels. *)
val with_labels : string -> (string * string) list -> string

(** Metric family name: everything before the label set. *)
val base_of : string -> string

(** [ingest ~labels delta] folds a (delta) snapshot from another process
    into this registry under [with_labels name labels]: counters add,
    gauges take the incoming value, histogram buckets merge when the
    layouts agree (the scalar sum/count always merge). Labeled
    instruments are created on first sight and accumulate across
    ingests. *)
val ingest : labels:(string * string) list -> snapshot -> unit

(** Prometheus text exposition format ([# TYPE] comments included). *)
val to_text : snapshot -> string

(** One JSON object per instrument, keyed by metric name; histograms
    include estimated [p50]/[p95]/[p99] (see {!Histogram.percentile}). *)
val to_json : snapshot -> string

(** {1 Span tracing} *)

val tracing : unit -> bool
val set_tracing : bool -> unit

(** [span name f] runs [f] inside a named span. Nesting follows the call
    stack; exceptions still close the span. Disabled tracing means [f] is
    invoked directly. *)
val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span (no-op when tracing is
    off or no span is open). *)
val set_attr : string -> string -> unit

type event = {
  ev_name : string;
  ev_start : float;  (** seconds, [Unix.gettimeofday] epoch *)
  ev_dur : float;  (** seconds *)
  ev_depth : int;  (** 0 = top-level *)
  ev_attrs : (string * string) list;
}

(** Completed spans in completion order. *)
val events : unit -> event list

(** Number of currently open spans (0 when balanced). *)
val open_spans : unit -> int

(** Drops completed spans, the open-span stack, and all remote events. *)
val clear_events : unit -> unit

(** [add_remote_events ~pid ~pname ~offset evs] stores spans collected
    from another process for the merged Chrome trace. [offset] is that
    process's clock minus this process's clock (subtracted uniformly at
    export, so a refined estimate can never reorder the source's own
    timeline); repeated calls for the same [pid] append events and keep
    the latest offset. Events must carry the source's own clock. *)
val add_remote_events :
  pid:int -> pname:string -> offset:float -> event list -> unit

(** Stored remote spans: [(pid, process name, offset, events)] per
    process, events in arrival order with uncorrected source-clock
    timestamps. *)
val remote_events : unit -> (int * string * float * event list) list

(** Chrome [trace_event] JSON (an object with a ["traceEvents"] array of
    complete-["X"] events; attributes appear under ["args"]). Local spans
    export under pid 1; remote processes under their own pid with their
    clock offset corrected, plus [process_name] metadata events (only
    when remote spans are present). *)
val chrome_trace_json : unit -> string

val write_chrome_trace : string -> unit

(** {1 JSON helper} *)

(** Escape and quote a string as a JSON literal (shared by the exporters;
    exposed for the CLIs' reports). *)
val json_string : string -> string
