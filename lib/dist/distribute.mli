(** Compilation of local trigger programs into well-formed distributed
    programs (§4.1–§4.3).

    The trigger compiler produces flat statements (a projection over a
    product of map references, delta pre-aggregations, and filters), so the
    annotation and the Figure 3/4 rule engine reduce to choosing, per
    statement, an execution locus — driver, co-partitioned by some key,
    replicated, or in-place over the randomly distributed batch — and
    inserting the location transformers each factor needs to reach it. The
    optimizer enumerates the candidate loci and keeps the plan with fewest
    communication rounds (ties broken towards shuffling batch-derived data
    and away from [Gather], the paper's heuristics); the naive [level 0]
    annotator mimics the pre-optimization plans of Example 4.1.

    Optimization levels (the Figure 13 ablation, then one step past it):
    - 0: naive bottom-up annotation;
    - 1: + locus optimization / transformer simplification;
    - 2: + block fusion (Appendix C.3);
    - 3: + transfer CSE and dead-code elimination;
    - 4: + keyed dealing. The paper's batches arrive at the workers at
      random. Here the coordinator holds each batch and deals it, so it
      can deal it on a key for the cost of one hash per row. For each
      trigger, every stream column on which the level-3 plan repartitions
      a pre-aggregation is a candidate. The pre-aggregations that group
      by that column start partitioned on it, and the trigger is planned
      again. A candidate is kept when the trigger then makes fewer round
      trips per batch ({!Dprog.round_trips}, after CSE, DCE and fusion),
      or as many and fewer transfers. {!Dprog.dtrigger}'s [deal] records
      the column, and the program's locations the pre-aggregations that
      moved. Levels 0–3 plan as before. *)

open Divm_compiler

type options = {
  level : int;  (** 0–4 *)
  delta_at : [ `Workers | `Driver ];
      (** where update batches arrive: pre-partitioned across workers (the
          experiments of §6.2) or at the driver (the Figure 5 listing) *)
}

(** Level 4, batches at the workers: what {!Divm_workload.Workload}'s
    [distribute] and the engine use unless told otherwise. *)
val default_options : options

(** [compile ~catalog prog] requires [prog] to be pre-aggregated (no raw
    delta atom outside transient definitions) and raises [Invalid_argument]
    naming the offending statement's target otherwise. The catalog gives
    locations for [prog]'s maps. Each statement is planned on its own,
    and a candidate plan is a value: a losing candidate leaves no map
    behind, and the names of created maps are numbered from 1 along the
    kept plans only (on Q17 the first is [DELTA_lineitem_1_repart1]). Of
    those maps the program declares and locates exactly the ones its
    statements and transfers name, and a declared map's definition names
    only declared maps. Compiling the same program twice gives equal
    programs. *)
val compile : ?options:options -> catalog:Loc.catalog -> Prog.t -> Dprog.t
