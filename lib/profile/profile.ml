open Divm_compiler
open Divm_storage
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Patterns = Divm_runtime.Patterns
module Runtime = Divm_runtime.Runtime
module Dprog = Divm_dist.Dprog
module Loc = Divm_dist.Loc

(* Profiler controls, re-exported so front ends only need this module. *)
let enabled = Prof.enabled
let set_enabled = Prof.set_enabled
let reset = Prof.reset

(* ------------------------------------------------------------------ *)
(* Static plans (EXPLAIN)                                              *)
(* ------------------------------------------------------------------ *)

type access = {
  a_name : string;
  a_delta : bool;  (** reads the update batch, not a materialized map *)
  a_path : Patterns.path;
  a_index : int option;
}

type stmt_plan = {
  sp_trigger : string;
  sp_label : string;
  sp_target : string;
  sp_op : string;
  sp_columnar : bool;
  sp_selvec : int;
      (** filters compiled to selection-vector kernels (columnar scans
          into packed survivor index vectors) *)
  sp_rowwise : int;
      (** filters left on the per-row closure path (dynamic predicates) *)
  sp_block : int option;
  sp_stage : int option;
  sp_loc : string option;
  sp_accesses : access list;
}

type transfer_plan = {
  tp_trigger : string;
  tp_label : string;
  tp_kind : string;
  tp_source : string;
  tp_dest : string;
  tp_key : int array;
  tp_block : int;
}

type plan = {
  pl_name : string;
  pl_dist : bool;
  pl_stmts : stmt_plan list;
  pl_transfers : transfer_plan list;
}

(* Resolve each atom access against the declared slice patterns — the
   same [Patterns] tables the runtime builds its indexes from, so the
   printed index choice cannot drift from the executed one. *)
let accesses_of slice_pats batch_pats (s : Prog.stmt) =
  List.map
    (fun (a : Patterns.access) ->
      let delta = a.acc_kind = `Delta in
      let pats =
        match
          List.assoc_opt a.acc_name (if delta then batch_pats else slice_pats)
        with
        | Some l -> l
        | None -> []
      in
      let index =
        match a.acc_path with
        | Patterns.Slice pos ->
            let rec go i = function
              | [] -> None
              | p :: tl -> if p = pos then Some i else go (i + 1) tl
            in
            go 0 pats
        | Patterns.Get | Patterns.Foreach -> None
      in
      {
        a_name = a.acc_name;
        a_delta = delta;
        a_path = a.acc_path;
        a_index = index;
      })
    (Patterns.accesses s)

let op_str = function Prog.Add_to -> "+=" | Prog.Assign -> ":="

(* Route kind of a statement label: the prefix before ':'. *)
let route_of_label lbl =
  match String.index_opt lbl ':' with
  | Some i -> String.sub lbl 0 i
  | None -> lbl

let explain ?(name = "program") (prog : Prog.t) =
  let sp = Patterns.slices prog and bp = Patterns.batch_slices prog in
  let stmts =
    List.concat_map
      (fun (rel, routed) ->
        List.map
          (fun ((st : Prog.stmt), lbl, selvec, rowwise) ->
            {
              sp_trigger = rel;
              sp_label = lbl;
              sp_target = st.Prog.target;
              sp_op = op_str st.op;
              sp_columnar = route_of_label lbl <> "stmt";
              sp_selvec = selvec;
              sp_rowwise = rowwise;
              sp_block = None;
              sp_stage = None;
              sp_loc = None;
              sp_accesses = accesses_of sp bp st;
            })
          routed)
      (Runtime.stmt_routes_ex prog)
  in
  { pl_name = name; pl_dist = false; pl_stmts = stmts; pl_transfers = [] }

let explain_dist ?(name = "program") (dp : Dprog.t) =
  let cprog = Dprog.compute_prog dp in
  let sp = Patterns.slices cprog and bp = Patterns.batch_slices cprog in
  let stmts = ref [] and transfers = ref [] in
  List.iter
    (fun (tr : Dprog.dtrigger) ->
      let stage = ref 0 in
      (* worker statements' routes from the planner the workers run *)
      let routes =
        Array.of_list
          (Runtime.block_routes_ex cprog ~rel:tr.drelation
             (Dprog.worker_blocks tr))
      in
      List.iteri
        (fun bi (b : Dprog.block) ->
          if b.bmode = Dprog.MDist then incr stage;
          let cur_stage =
            if b.bmode = Dprog.MDist then Some !stage else None
          in
          let pending = ref routes.(bi) in
          List.iter
            (fun d ->
              match d with
              | Dprog.Transfer { tname; tkind; key; source } ->
                  transfers :=
                    {
                      tp_trigger = tr.drelation;
                      tp_label = "transfer:" ^ tname;
                      tp_kind =
                        (match tkind with
                        | Dprog.Scatter -> "scatter"
                        | Dprog.Repart -> "repartition"
                        | Dprog.Gather -> "gather");
                      tp_source = source;
                      tp_dest = tname;
                      tp_key = key;
                      tp_block = bi;
                    }
                    :: !transfers
              | Dprog.Compute s ->
                  let label, selvec, rowwise =
                    match (b.bmode, !pending) with
                    | Dprog.MDist, (_, lbl, sv, rw) :: rest ->
                        pending := rest;
                        (lbl, sv, rw)
                    | _ -> ("driver:" ^ s.target, 0, 0)
                  in
                  stmts :=
                    {
                      sp_trigger = tr.drelation;
                      sp_label = label;
                      sp_target = s.target;
                      sp_op = op_str s.op;
                      sp_columnar =
                        b.bmode = Dprog.MDist && route_of_label label <> "stmt";
                      sp_selvec = selvec;
                      sp_rowwise = rowwise;
                      sp_block = Some bi;
                      sp_stage = cur_stage;
                      sp_loc =
                        Some
                          (Format.asprintf "%a" Loc.pp
                             (Loc.find dp.locs s.target));
                      sp_accesses = accesses_of sp bp s;
                    }
                    :: !stmts)
            b.bstmts)
        tr.blocks)
    dp.dtriggers;
  {
    pl_name = name;
    pl_dist = true;
    pl_stmts = List.rev !stmts;
    pl_transfers = List.rev !transfers;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let positions_str pos =
  String.concat "," (List.map string_of_int (Array.to_list pos))

let path_str a =
  match a.a_path with
  | Patterns.Get -> "get (unique index)"
  | Patterns.Foreach -> "foreach (full scan)"
  | Patterns.Slice pos -> (
      match a.a_index with
      | Some i -> Printf.sprintf "slice(%s) via idx#%d" (positions_str pos) i
      | None ->
          Printf.sprintf "slice(%s) UNINDEXED: scan with checks"
            (positions_str pos))

let atom_str a = (if a.a_delta then "\xce\x94" else "") ^ a.a_name

let trigger_order stmts transfers =
  let seen = ref [] in
  let note tr = if not (List.mem tr !seen) then seen := tr :: !seen in
  List.iter (fun s -> note s.sp_trigger) stmts;
  List.iter (fun t -> note t.tp_trigger) transfers;
  List.rev !seen

let filter_split_str s =
  let part n kind = Printf.sprintf "%d %s" n kind in
  match (s.sp_selvec, s.sp_rowwise) with
  | 0, 0 -> ""
  | sv, 0 -> part sv "selvec"
  | 0, rw -> part rw "rowwise"
  | sv, rw -> part sv "selvec" ^ ", " ^ part rw "rowwise"

let render_stmt buf indent s =
  let route = route_of_label s.sp_label in
  Printf.bprintf buf "%s%-28s %s %s %s%s\n" indent ("[" ^ s.sp_label ^ "]")
    s.sp_target s.sp_op
    (match route with
    | "columnar" -> "columnar batch pre-aggregation (one pass)"
    | "selvec" -> "columnar pass with selection-vector filter kernels"
    | "columnar-join" -> "vectorized batched join (key-grouped probes)"
    | "selvec-join" ->
        "vectorized batched join (selection-vector kernels, key-grouped \
         probes)"
    | "fused" -> "fused columnar group (one pass over the grouped batch)"
    | "fused-selvec" ->
        "fused columnar group (selection-vector kernels, one pass)"
    | _ -> "compiled closure")
    (match s.sp_loc with Some l -> "  @" ^ l | None -> "");
  match route with
  | "columnar" ->
      Printf.bprintf buf
        "%s    batch transposed once; filters scan single columns\n" indent
  | "selvec" ->
      Printf.bprintf buf
        "%s    filters (%s): kernels pack survivor indexes; chain runs over \
         survivors only\n"
        indent (filter_split_str s)
  | "columnar-join" | "fused" ->
      Printf.bprintf buf
        "%s    batch compacted to distinct keys; store accessors resolved \
         once per key group\n"
        indent
  | "selvec-join" | "fused-selvec" ->
      Printf.bprintf buf
        "%s    batch compacted to distinct keys; filters (%s) gate rows \
         before accessor resolution\n"
        indent (filter_split_str s)
  | _ ->
      List.iter
        (fun a ->
          Printf.bprintf buf "%s    read %-20s via %s\n" indent (atom_str a)
            (path_str a))
        s.sp_accesses

let render (p : plan) =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "== EXPLAIN %s (%s: %d statements%s) ==\n" p.pl_name
    (if p.pl_dist then "distributed" else "local")
    (List.length p.pl_stmts)
    (if p.pl_dist then
       Printf.sprintf ", %d transfers" (List.length p.pl_transfers)
     else "");
  List.iter
    (fun tr ->
      let stmts = List.filter (fun s -> s.sp_trigger = tr) p.pl_stmts in
      let transfers =
        List.filter (fun t -> t.tp_trigger = tr) p.pl_transfers
      in
      Printf.bprintf buf "ON UPDATE %s:\n" tr;
      if not p.pl_dist then List.iter (render_stmt buf "  ") stmts
      else begin
        let max_block =
          List.fold_left
            (fun acc s ->
              match s.sp_block with Some b -> max acc b | None -> acc)
            (List.fold_left (fun acc t -> max acc t.tp_block) (-1) transfers)
            stmts
        in
        for bi = 0 to max_block do
          let bstmts =
            List.filter (fun s -> s.sp_block = Some bi) stmts
          in
          let btransfers =
            List.filter (fun t -> t.tp_block = bi) transfers
          in
          if bstmts <> [] || btransfers <> [] then begin
            let stage =
              List.fold_left
                (fun acc s ->
                  match s.sp_stage with Some st -> Some st | None -> acc)
                None bstmts
            in
            (match stage with
            | Some st ->
                Printf.bprintf buf "  block %d [distributed, stage %d]:\n" bi
                  st
            | None -> Printf.bprintf buf "  block %d [local]:\n" bi);
            List.iter
              (fun t ->
                Printf.bprintf buf "    %-28s %s %s <- %s  key=<%s>\n"
                  ("[" ^ t.tp_label ^ "]")
                  t.tp_kind t.tp_dest t.tp_source (positions_str t.tp_key))
              btransfers;
            List.iter (render_stmt buf "    ") bstmts
          end
        done
      end)
    (trigger_order p.pl_stmts p.pl_transfers);
  Buffer.contents buf

let plan_json (p : plan) =
  let buf = Buffer.create 2048 in
  let js = Obs.json_string in
  Printf.bprintf buf "{\"name\":%s,\"dist\":%b,\"statements\":[" (js p.pl_name)
    p.pl_dist;
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"trigger\":%s,\"label\":%s,\"target\":%s,\"op\":%s,\"columnar\":%b,\"selvec\":%d,\"rowwise\":%d"
        (js s.sp_trigger) (js s.sp_label) (js s.sp_target) (js s.sp_op)
        s.sp_columnar s.sp_selvec s.sp_rowwise;
      (match s.sp_block with
      | Some b -> Printf.bprintf buf ",\"block\":%d" b
      | None -> ());
      (match s.sp_stage with
      | Some st -> Printf.bprintf buf ",\"stage\":%d" st
      | None -> ());
      (match s.sp_loc with
      | Some l -> Printf.bprintf buf ",\"loc\":%s" (js l)
      | None -> ());
      Buffer.add_string buf ",\"accesses\":[";
      List.iteri
        (fun j a ->
          if j > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf
            "{\"atom\":%s,\"delta\":%b,\"path\":%s%s}" (js a.a_name) a.a_delta
            (js
               (match a.a_path with
               | Patterns.Get -> "get"
               | Patterns.Foreach -> "foreach"
               | Patterns.Slice pos -> "slice(" ^ positions_str pos ^ ")"))
            (match a.a_index with
            | Some ix -> Printf.sprintf ",\"index\":%d" ix
            | None -> ""))
        s.sp_accesses;
      Buffer.add_string buf "]}")
    p.pl_stmts;
  Buffer.add_string buf "],\"transfers\":[";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"trigger\":%s,\"label\":%s,\"kind\":%s,\"source\":%s,\"dest\":%s,\"key\":[%s],\"block\":%d}"
        (js t.tp_trigger) (js t.tp_label) (js t.tp_kind) (js t.tp_source)
        (js t.tp_dest) (positions_str t.tp_key) t.tp_block)
    p.pl_transfers;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

(* The plan label of a slot label: a worker row merged as ["L@wI"]
   summarizes like the plan statement ["L"]. *)
let plan_label lbl =
  match String.rindex_opt lbl '@' with
  | Some i
    when i + 2 < String.length lbl
         && lbl.[i + 1] = 'w'
         && String.for_all
              (function '0' .. '9' -> true | _ -> false)
              (String.sub lbl (i + 2) (String.length lbl - i - 2)) ->
      String.sub lbl 0 i
  | _ -> lbl

(* Compact access summary for a slot, looked up in the static plan. *)
let plan_summary plan r =
  match plan with
  | None -> ""
  | Some p -> (
      let lbl = plan_label r.Prof.r_label in
      match
        List.find_opt
          (fun s -> s.sp_trigger = r.Prof.r_trigger && s.sp_label = lbl)
          p.pl_stmts
      with
      | Some s ->
          if s.sp_columnar then route_of_label s.sp_label
          else
            String.concat " "
              (List.map
                 (fun a ->
                   atom_str a
                   ^
                   match a.a_path with
                   | Patterns.Get -> ":get"
                   | Patterns.Foreach -> ":scan"
                   | Patterns.Slice _ -> (
                       match a.a_index with
                       | Some i -> Printf.sprintf ":slice#%d" i
                       | None -> ":slice!"))
                 s.sp_accesses)
      | None -> (
          match
            List.find_opt
              (fun t ->
                t.tp_trigger = r.Prof.r_trigger
                && t.tp_label = r.Prof.r_label)
              p.pl_transfers
          with
          | Some t ->
              Printf.sprintf "%s %s <- %s" t.tp_kind t.tp_dest t.tp_source
          | None -> ""))

(* Slot sums against the registry deltas of the same window: the two
   accounting paths (per-slot attribution vs. whole-batch counter folds)
   must agree exactly when the profiler covered every firing.

   With the multiprocess backend's telemetry merge, worker-side counters
   arrive labeled ([divm_record_ops_total{worker="1"}]) and their slot
   rows arrive with an ["@wI"] suffix — both sides of the ledger grow
   symmetrically, so the invariant extends across process boundaries.
   The storage-layer families therefore sum over every label set
   ([base_of]), while the engine counters match exactly by name: the
   coordinator also registers per-worker labeled
   [divm_node_worker_ops_total{worker=...}] variants, and base-summing
   those would double-count what the unlabeled total already holds. *)
let reconcile ~diff =
  let rows = Prof.rows () in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let reg = Obs.counter_value diff in
  let reg_base name =
    List.fold_left
      (fun acc (n, v) ->
        match v with
        | Obs.VCounter c when Obs.base_of n = name -> acc + c
        | _ -> acc)
      0 diff
  in
  [
    ( "ops",
      sum (fun r -> r.Prof.r_ops),
      reg_base "divm_record_ops_total"
      + reg "divm_cluster_driver_ops_total"
      + reg "divm_cluster_worker_ops_total"
      + reg "divm_node_driver_ops_total"
      + reg "divm_node_worker_ops_total" );
    ( "probes",
      sum (fun r -> r.Prof.r_probes),
      reg_base "divm_index_probes_total" );
    ( "misses",
      sum (fun r -> r.Prof.r_misses),
      reg_base "divm_index_probe_misses_total" );
    ( "scanned",
      sum (fun r -> r.Prof.r_scanned),
      reg_base "divm_slice_scanned_total" );
    ( "selvec_scanned",
      sum (fun r -> r.Prof.r_svscan),
      reg_base "divm_selvec_rows_scanned_total" );
    ( "selvec_selected",
      sum (fun r -> r.Prof.r_svsel),
      reg_base "divm_selvec_rows_selected_total" );
    ( "bytes",
      sum (fun r -> r.Prof.r_bytes),
      reg "divm_cluster_bytes_shuffled_total"
      + reg "divm_node_bytes_shuffled_total" );
  ]

let hist_summary h =
  let n = Array.length h in
  let total = Array.fold_left ( + ) 0 h in
  if total = 0 then "-"
  else begin
    let cum = ref 0 and p50 = ref (n - 1) and p99 = ref (n - 1) in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if !p50 = n - 1 && 2 * !cum >= total then p50 := i;
           if 100 * !cum >= 99 * total then begin
             p99 := i;
             raise Exit
           end)
         h
     with Exit -> ());
    let max_d = ref 0 in
    Array.iteri (fun i c -> if c > 0 then max_d := i) h;
    Printf.sprintf "%d/%d/%d" !p50 !p99 !max_d
  end

let report ?plan ?storage ?diff ?(top = 20) () =
  let buf = Buffer.create 2048 in
  let rows =
    List.filter (fun r -> r.Prof.r_firings > 0) (Prof.rows ())
  in
  let shown =
    let sorted =
      List.sort
        (fun a b -> compare b.Prof.r_wall a.Prof.r_wall)
        rows
    in
    List.filteri (fun i _ -> i < top) sorted
  in
  Printf.bprintf buf "== PROFILE%s: top %d of %d statements by wall time ==\n"
    (match plan with Some p -> " " ^ p.pl_name | None -> "")
    (List.length shown) (List.length rows);
  Printf.bprintf buf "%-10s %-26s %8s %10s %10s %8s %9s %10s %10s %10s %9s  %s\n"
    "trigger" "statement" "fires" "ops" "probes" "misses" "scanned" "svscan"
    "svsel" "bytes" "wall_ms" "plan";
  List.iter
    (fun r ->
      Printf.bprintf buf
        "%-10s %-26s %8d %10d %10d %8d %9d %10d %10d %10d %9.2f  %s\n"
        r.Prof.r_trigger r.Prof.r_label r.Prof.r_firings r.Prof.r_ops
        r.Prof.r_probes r.Prof.r_misses r.Prof.r_scanned r.Prof.r_svscan
        r.Prof.r_svsel r.Prof.r_bytes (r.Prof.r_wall *. 1e3)
        (plan_summary plan r))
    shown;
  let tot f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Printf.bprintf buf
    "-- totals: %d firings, %d ops, %d probes (%d misses), %d scanned, %d \
     selvec-scanned -> %d selected, %d bytes\n"
    (tot (fun r -> r.Prof.r_firings))
    (tot (fun r -> r.Prof.r_ops))
    (tot (fun r -> r.Prof.r_probes))
    (tot (fun r -> r.Prof.r_misses))
    (tot (fun r -> r.Prof.r_scanned))
    (tot (fun r -> r.Prof.r_svscan))
    (tot (fun r -> r.Prof.r_svsel))
    (tot (fun r -> r.Prof.r_bytes));
  (match diff with
  | None -> ()
  | Some diff ->
      Buffer.add_string buf "-- reconciliation vs Obs registry deltas:\n";
      List.iter
        (fun (what, slot_sum, registry) ->
          Printf.bprintf buf "   %-8s slots=%-12d registry=%-12d %s\n" what
            slot_sum registry
            (if slot_sum = registry then "OK" else "MISMATCH"))
        (reconcile ~diff));
  (match storage with
  | None | Some [] -> ()
  | Some stats ->
      Buffer.add_string buf "-- storage:\n";
      Printf.bprintf buf "   %-28s %10s %8s %8s %6s  %s\n" "pool" "live"
        "free" "indexes" "load" "probe p50/p99/max";
      List.iter
        (fun (n, (s : Pool.stats)) ->
          Printf.bprintf buf "   %-28s %10d %8d %8d %6.2f  %s\n" n s.s_live
            s.s_free s.s_indexes s.s_load
            (hist_summary s.s_probe_hist))
        stats);
  Buffer.contents buf

let report_json ?plan ?storage ?diff () =
  let buf = Buffer.create 2048 in
  let js = Obs.json_string in
  Buffer.add_string buf "{\"slots\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"trigger\":%s,\"label\":%s,\"firings\":%d,\"ops\":%d,\"probes\":%d,\"misses\":%d,\"scanned\":%d,\"svscan\":%d,\"svsel\":%d,\"bytes\":%d,\"wall_s\":%.9f,\"plan\":%s}"
        (js r.Prof.r_trigger) (js r.Prof.r_label) r.Prof.r_firings
        r.Prof.r_ops r.Prof.r_probes r.Prof.r_misses r.Prof.r_scanned
        r.Prof.r_svscan r.Prof.r_svsel r.Prof.r_bytes r.Prof.r_wall
        (js (plan_summary plan r)))
    (List.filter (fun r -> r.Prof.r_firings > 0) (Prof.rows ()));
  Buffer.add_string buf "]";
  (match diff with
  | None -> ()
  | Some diff ->
      Buffer.add_string buf ",\"reconciliation\":[";
      List.iteri
        (fun i (what, slot_sum, registry) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf
            "{\"what\":%s,\"slots\":%d,\"registry\":%d,\"ok\":%b}" (js what)
            slot_sum registry (slot_sum = registry))
        (reconcile ~diff);
      Buffer.add_string buf "]");
  (match storage with
  | None -> ()
  | Some stats ->
      Buffer.add_string buf ",\"storage\":[";
      List.iteri
        (fun i (n, (s : Pool.stats)) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf
            "{\"pool\":%s,\"live\":%d,\"free\":%d,\"hwm\":%d,\"indexes\":%d,\"load\":%.4f,\"probe_hist\":[%s]}"
            (js n) s.s_live s.s_free s.s_hwm s.s_indexes s.s_load
            (String.concat ","
               (List.map string_of_int (Array.to_list s.s_probe_hist))))
        stats;
      Buffer.add_string buf "]");
  (match plan with
  | None -> ()
  | Some p -> Printf.bprintf buf ",\"plan\":%s" (plan_json p));
  Buffer.add_char buf '}';
  Buffer.contents buf
