(** Named-query boilerplate shared by the CLIs and the bench harness.

    Every front end does the same dance: resolve a query name (TPC-H
    [Q1]–[Q22] or TPC-DS [DS…]) or an ad-hoc SQL string to its calculus
    maps plus the matching stream catalog and partition keys, compile the
    local trigger program, and — for distributed execution — place maps
    with the §6.2 heuristic and run the distributed compiler. *)

open Divm_ring
open Divm_calc
open Divm_compiler
open Divm_dist

type t = {
  wname : string;  (** canonical query name, e.g. ["Q3"] or ["DS3"] *)
  maps : (string * Calc.expr) list;  (** top-level result maps *)
  streams : (string * Schema.t) list;  (** stream catalog the maps are over *)
  partition_keys : string list;  (** column names favored by {!Loc.heuristic} *)
}

(** [find name] resolves a benchmark query by (case-insensitive) name:
    names starting with ["DS"] come from {!Divm_tpcds.Queries}, everything
    else from {!Divm_tpch.Queries}. Raises [Invalid_argument] on unknown
    names, like the underlying tables. *)
val find : string -> t

(** [of_sql ?name text] compiles an SQL string over the TPC-H schema. *)
val of_sql : ?name:string -> string -> t

(** Whether [w] is a TPC-DS query (over {!Divm_tpcds.Schema.streams}). *)
val is_tpcds : t -> bool

(** [stream w ~scale ~seed ~batch_size] is the synthetic update stream of
    [w]'s benchmark: {!Divm_tpcds.Gen.stream} for TPC-DS queries,
    {!Divm_tpch.Gen.stream} for everything else. *)
val stream :
  t ->
  scale:float ->
  seed:int ->
  batch_size:int ->
  (string * Divm_storage.Gmr.t) list

(** Local trigger program ([preaggregate] defaults to [true], §3.3). *)
val compile : ?preaggregate:bool -> t -> Prog.t

(** Distributed program for [prog]: heuristic placement over the
    workload's partition keys, then the distributed compiler at
    [level] (default: {!Distribute.default_options}' level, 4 — the full
    Figure 13 pipeline, then each batch dealt on a key). *)
val distribute : ?level:int -> t -> Prog.t -> Dprog.t
