(** Dependency-free domain pool for batch-parallel execution (no
    domainslib): worker domains are spawned once and reused, work arrives
    as an array of task closures claimed from a shared chunked queue, and
    {!Pool.run} is a barrier — it returns only after every task has
    finished, which establishes happens-before from everything the tasks
    wrote to everything the caller reads next (this is the
    synchronization point the {!Divm_obs.Obs} counter contract relies
    on).

    Workers spin briefly for new work (cheap hand-off between the
    back-to-back trigger firings of a batch stream), then block on a
    condition variable, so an idle pool costs nothing.

    The pool is deliberately minimal: no futures, no nesting, no work
    stealing beyond the shared claim counter. That is all the two users
    need — the local runtime fans one batch's row ranges out and merges,
    and the cluster simulator runs its per-worker closure arrays. *)

module Pool : sig
  type t

  (** [create ~domains] spawns [domains - 1] worker domains ([domains >= 1];
      the caller of {!run} is the remaining participant). *)
  val create : domains:int -> t

  (** Participants: spawned workers + the calling domain. *)
  val domains : t -> int

  (** Spawn additional workers so [domains t] reaches at least [domains]. *)
  val ensure : t -> domains:int -> unit

  (** [run t tasks] executes every task exactly once (workers and the
      calling domain claim indices from a shared counter) and returns when
      all have finished. If any task raised, the first exception captured
      is re-raised in the caller after the barrier. Not reentrant: must
      not be called from inside a task, and only one [run] may be active
      per pool at a time (the runtime and cluster drive it from the single
      applying domain). *)
  val run : t -> (unit -> unit) array -> unit

  (** Stop and join all workers. The pool must be idle. Idempotent. *)
  val shutdown : t -> unit
end

(** Process-wide shared pool, spawned on first use and grown (never
    shrunk) to the largest [domains] ever requested; registered with
    [at_exit] so worker domains are joined before the process exits.
    Every [Runtime.create ?domains] and [Cluster.create ?domains] shares
    this pool, so requesting [domains:4] twice costs three spawned
    domains total, once. *)
val get : domains:int -> Pool.t

(** Default domain count for CLIs and [create ?domains] callers that were
    given nothing explicit: the [DIVM_DOMAINS] environment variable when
    set to a positive integer, else 1 (serial). *)
val default_domains : unit -> int
