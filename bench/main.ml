(* Benchmark harness regenerating every table and figure of the paper's
   evaluation section (see DESIGN.md for the experiment index and
   EXPERIMENTS.md for paper-vs-measured). Run with no argument for all
   experiments at the default (scaled-down) size, or name experiments:

     dune exec bench/main.exe -- fig7 table3
     DIVM_BENCH=full dune exec bench/main.exe -- table1

   Absolute numbers depend on the machine and the scaled streams; the
   reproduction targets are the *shapes*: who wins, by what order of
   magnitude, where the crossovers are. *)

open Divm
module B = Divm_bench.Bench_util
module Obs_cli = Divm_obs_cli.Obs_cli

(* ------------------------------------------------------------------ *)
(* Shared workload plumbing                                            *)
(* ------------------------------------------------------------------ *)

let tpch_cfg = { Tpch.Gen.scale = B.tpch_scale; seed = 2016 }
let tpcds_cfg = { Tpcds.Gen.scale = B.tpcds_scale; seed = 2016 }

let compile_tpch ?(preagg = true) (q : Tpch.Queries.t) =
  Compile.compile
    ~options:{ Compile.default_options with preaggregate = preagg }
    ~streams:Tpch.Schema.streams q.maps

let compile_tpcds ?(preagg = true) (q : Tpcds.Queries.t) =
  Compile.compile
    ~options:{ Compile.default_options with preaggregate = preagg }
    ~streams:Tpcds.Schema.streams q.maps

(* Feed a stream, time-budgeted: returns tuples/second. *)
let feed_budget ~budget apply stream =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. budget in
  let tuples = ref 0 in
  (try
     List.iter
       (fun (rel, b) ->
         apply ~rel b;
         tuples := !tuples + Gmr.cardinal b;
         if Unix.gettimeofday () > deadline then raise Exit)
       stream
   with Exit -> ());
  let dt = Unix.gettimeofday () -. t0 in
  if !tuples = 0 then nan else float_of_int !tuples /. dt

let budget = if B.full_mode then 3.0 else 0.6

(* Warm-up/measure split: load the first 70% of the stream (coalesced into
   one batch per relation, which reaches the same state) so that the
   measured window sees steady-state base sizes — otherwise per-batch scan
   costs of the non-incremental engines are hidden by the empty-database
   prefix. *)
let split_warm stream =
  let total = List.fold_left (fun a (_, b) -> a + Gmr.cardinal b) 0 stream in
  let cut = total * 7 / 10 in
  let rec go acc n = function
    | [] -> (List.rev acc, [])
    | ((r, b) :: tl) as rest ->
        if n >= cut then (List.rev acc, rest)
        else go ((r, b) :: acc) (n + Gmr.cardinal b) tl
  in
  let warm, measure = go [] 0 stream in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (r, b) ->
      match Hashtbl.find_opt tbl r with
      | None ->
          Hashtbl.add tbl r (Gmr.copy b);
          order := r :: !order
      | Some g -> Gmr.union_into g b)
    warm;
  (List.rev_map (fun r -> (r, Hashtbl.find tbl r)) !order, measure)

(* [measured_rate ~load ~measure stream]: tup/s of [measure] at steady
   state: the prefix is loaded, the suffix measured. *)
let measured_rate ~load ~measure stream =
  let prefix, suffix = split_warm stream in
  load prefix;
  feed_budget ~budget measure suffix

(* Load a prefix into a compiled runtime by firing it, one batch per
   relation. *)
let fire rt = List.iter (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b))

(* Batched throughput of a compiled runtime at one batch size. *)
let batched_rate stream_of prog bs =
  let rt = Runtime.create prog in
  measured_rate ~load:(fire rt)
    ~measure:(fun ~rel b -> ignore (Runtime.apply_batch rt ~rel b))
    (stream_of bs)

(* Single-tuple specialized throughput. *)
let single_rate stream_of prog =
  let rt = Runtime.create prog in
  measured_rate ~load:(fire rt)
    ~measure:(fun ~rel b ->
      Gmr.iter (fun tup m -> ignore (Runtime.apply_single rt ~rel tup m)) b)
    (stream_of 1000)

(* ------------------------------------------------------------------ *)
(* Fig. 7 / Fig. 12: normalized throughput vs batch size               *)
(* ------------------------------------------------------------------ *)

let normalized_throughput ~title ~queries ~stream_of ~compile_preagg
    ~compile_single =
  let header =
    "query" :: "single(tup/s)"
    :: List.map (fun b -> Printf.sprintf "B=%d" b) B.batch_sizes
  in
  let rows =
    List.map
      (fun qname ->
        let base = compile_single qname in
        let sr = single_rate stream_of base in
        let prog = compile_preagg qname in
        qname :: B.fmt_rate sr
        :: List.map
             (fun bs -> B.fmt_ratio (batched_rate stream_of prog bs /. sr))
             B.batch_sizes)
      queries
  in
  B.print_table ~title ~header rows

let fig7_queries =
  if B.full_mode then
    List.map (fun (q : Tpch.Queries.t) -> q.qname) Tpch.Queries.all
  else
    [ "Q1"; "Q3"; "Q4"; "Q6"; "Q12"; "Q13"; "Q14"; "Q17"; "Q19"; "Q22" ]

let fig7 () =
  normalized_throughput
    ~title:
      "Fig 7 — TPC-H batched throughput normalized to single-tuple \
       execution"
    ~queries:fig7_queries
    ~stream_of:(fun bs -> Tpch.Gen.stream tpch_cfg ~batch_size:bs)
    ~compile_preagg:(fun qn -> compile_tpch (Tpch.Queries.find qn))
    ~compile_single:(fun qn -> compile_tpch ~preagg:false (Tpch.Queries.find qn))

let fig12 () =
  normalized_throughput
    ~title:
      "Fig 12 — TPC-DS batched throughput normalized to single-tuple \
       execution"
    ~queries:(List.map (fun (q : Tpcds.Queries.t) -> q.qname) Tpcds.Queries.all)
    ~stream_of:(fun bs -> Tpcds.Gen.stream tpcds_cfg ~batch_size:bs)
    ~compile_preagg:(fun qn -> compile_tpcds (Tpcds.Queries.find qn))
    ~compile_single:(fun qn ->
      compile_tpcds ~preagg:false (Tpcds.Queries.find qn))

(* ------------------------------------------------------------------ *)
(* Fig. 8 / Table 1: engine comparison across batch sizes              *)
(* ------------------------------------------------------------------ *)

let engine_rate engine ~streams ~maps ~stream_of bs =
  let e = Baseline.create engine ~streams maps in
  measured_rate ~load:(Baseline.load e)
    ~measure:(fun ~rel b -> ignore (Baseline.apply_batch e ~rel b))
    (stream_of bs)

let engine_single ~streams ~maps ~stream_of =
  let e = Baseline.create Baseline.Rivm ~streams maps in
  measured_rate ~load:(Baseline.load e)
    ~measure:(fun ~rel b ->
      Gmr.iter (fun tup m -> ignore (Baseline.apply_single e ~rel tup m)) b)
    (stream_of 1000)

(* The engine-comparison experiments need base tables that dwarf the batch
   (the paper's stream is 10 GB): a larger stream makes re-evaluation and
   classical IVM pay their per-batch scan costs. *)
let big_tpch_cfg =
  { Tpch.Gen.scale = (if B.full_mode then 48.0 else 12.0); seed = 2016 }

let big_tpcds_cfg =
  { Tpcds.Gen.scale = (if B.full_mode then 48.0 else 12.0); seed = 2016 }

let fig8 () =
  let q = Tpch.Queries.find "Q17" in
  let streams = Tpch.Schema.streams in
  let stream_of bs = Tpch.Gen.stream big_tpch_cfg ~batch_size:bs in
  let header =
    "engine" :: "single"
    :: List.map (fun b -> Printf.sprintf "B=%d" b) B.batch_sizes
  in
  let row engine name =
    name
    :: (match engine with
       | Some Baseline.Rivm ->
           B.fmt_rate (engine_single ~streams ~maps:q.maps ~stream_of)
       | _ -> "-")
    :: List.map
         (fun bs ->
           match engine with
           | Some e ->
               B.fmt_rate (engine_rate e ~streams ~maps:q.maps ~stream_of bs)
           | None -> "-")
         B.batch_sizes
  in
  B.print_table
    ~title:
      "Fig 8 — TPC-H Q17 view refresh rate (tuples/s): re-evaluation vs \
       classical IVM vs recursive IVM"
    ~header
    [
      row (Some Baseline.Reeval) "Re-eval (generic engine)";
      row (Some Baseline.Classical) "IVM (generic engine)";
      row (Some Baseline.Rivm) "RIVM (specialized)";
    ]

let table1_queries =
  if B.full_mode then
    List.map (fun (q : Tpch.Queries.t) -> ("tpch", q.qname)) Tpch.Queries.all
    @ List.map
        (fun (q : Tpcds.Queries.t) -> ("tpcds", q.qname))
        Tpcds.Queries.all
  else
    [
      ("tpch", "Q1"); ("tpch", "Q3"); ("tpch", "Q6"); ("tpch", "Q13");
      ("tpch", "Q17"); ("tpch", "Q22"); ("tpcds", "DS3"); ("tpcds", "DS34");
      ("tpcds", "DS55");
    ]

let table1 () =
  let sizes = if B.full_mode then [ 1; 100; 10000 ] else [ 1; 100; 1000 ] in
  let header =
    "query"
    :: List.concat_map
         (fun e ->
           List.map (fun b -> Printf.sprintf "%s B=%d" e b) sizes)
         [ "reeval"; "ivm"; "rivm" ]
  in
  let rows =
    List.map
      (fun (family, qn) ->
        let streams, maps, stream_of =
          match family with
          | "tpch" ->
              ( Tpch.Schema.streams,
                (Tpch.Queries.find qn).maps,
                fun bs -> Tpch.Gen.stream big_tpch_cfg ~batch_size:bs )
          | _ ->
              ( Tpcds.Schema.streams,
                (Tpcds.Queries.find qn).maps,
                fun bs -> Tpcds.Gen.stream big_tpcds_cfg ~batch_size:bs )
        in
        qn
        :: List.concat_map
             (fun engine ->
               List.map
                 (fun bs ->
                   B.fmt_rate (engine_rate engine ~streams ~maps ~stream_of bs))
                 sizes)
             [ Baseline.Reeval; Baseline.Classical; Baseline.Rivm ])
      table1_queries
  in
  B.print_table
    ~title:
      "Table 1 — throughput (tuples/s) of re-evaluation, classical IVM and \
       recursive IVM across batch sizes"
    ~header rows

(* ------------------------------------------------------------------ *)
(* Table 2: cache locality of TPC-H Q3                                 *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let q = Tpch.Queries.find "Q3" in
  let sizes = [ 1; 10; 100; 1000; 10000 ] in
  let run_mode label loader =
    let h = Cachesim.default_hierarchy () in
    let detach = Cachesim.attach h in
    let ops = loader () in
    detach ();
    let c = Cachesim.counters h in
    [
      label;
      string_of_int ops;
      string_of_int c.Cachesim.l1d_refs;
      string_of_int c.l1d_misses;
      string_of_int c.llc_refs;
      string_of_int c.llc_misses;
    ]
  in
  let rows =
    run_mode "single"
      (fun () ->
        let prog = compile_tpch ~preagg:false q in
        let rt = Runtime.create prog in
        Runtime.reset_ops rt;
        List.iter
          (fun (rel, b) ->
            Gmr.iter
              (fun tup m -> ignore (Runtime.apply_single rt ~rel tup m))
              b)
          (Tpch.Gen.stream tpch_cfg ~batch_size:1000);
        Runtime.ops rt)
    :: List.map
         (fun bs ->
           run_mode
             (Printf.sprintf "B=%d" bs)
             (fun () ->
               let prog = compile_tpch q in
               let rt = Runtime.create prog in
               Runtime.reset_ops rt;
               List.iter
                 (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b))
                 (Tpch.Gen.stream tpch_cfg ~batch_size:bs);
               Runtime.ops rt))
         sizes
    @ [
        (* same batched plan on the row-at-a-time (generic) executor:
           isolates what typed columnar batches buy in locality *)
        run_mode "B=1000 (generic rows)" (fun () ->
            let prog = compile_tpch q in
            let rt = Runtime.create ~columnar:false prog in
            Runtime.reset_ops rt;
            List.iter
              (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b))
              (Tpch.Gen.stream tpch_cfg ~batch_size:1000);
            Runtime.ops rt);
      ]
  in
  B.print_table
    ~title:
      "Table 2 — cache behaviour of TPC-H Q3 (simulated 32KiB L1D + 15MiB \
       LLC over the storage access stream)"
    ~header:[ "mode"; "record ops"; "L1D refs"; "L1D miss"; "LLC refs"; "LLC miss" ]
    rows;
  (* Selection-vector contrast: the scan-bound queries whose constant
     filters hoist to columnar kernels, each replayed at B=1000 through
     the vectorized executor (selvec) and the per-row generic executor
     under the same cache model. *)
  let selvec_rows =
    List.concat_map
      (fun qn ->
        let q = Tpch.Queries.find qn in
        List.map
          (fun (label, columnar) ->
            run_mode
              (Printf.sprintf "%s %s" qn label)
              (fun () ->
                let prog = compile_tpch q in
                let rt = Runtime.create ~columnar prog in
                Runtime.reset_ops rt;
                List.iter
                  (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b))
                  (Tpch.Gen.stream tpch_cfg ~batch_size:1000);
                Runtime.ops rt))
          [ ("selvec", true); ("generic rows", false) ])
      [ "Q3"; "Q6"; "Q22" ]
  in
  B.print_table
    ~title:
      "Table 2b — selection-vector kernels vs per-row execution (B=1000, \
       same cache model)"
    ~header:[ "mode"; "record ops"; "L1D refs"; "L1D miss"; "LLC refs"; "LLC miss" ]
    selvec_rows

(* ------------------------------------------------------------------ *)
(* Fig. 5 + Table 3: distributed program structure                     *)
(* ------------------------------------------------------------------ *)

let dist_prog ?(level = Distribute.default_options.level) ?(delta_at = `Workers)
    (q : Tpch.Queries.t) =
  let prog = compile_tpch q in
  let catalog = Loc.heuristic ~keys:Tpch.Schema.partition_keys prog in
  Distribute.compile ~options:{ Distribute.level; delta_at } ~catalog prog

let fig5 () =
  let q = Tpch.Queries.find "Q3" in
  let before = dist_prog ~level:1 ~delta_at:`Driver q in
  let after = dist_prog ~level:3 ~delta_at:`Driver q in
  let count dp =
    List.fold_left
      (fun (l, d) tr ->
        let l', d' = Dprog.block_counts tr in
        (l + l', d + d'))
      (0, 0) dp.Dprog.dtriggers
  in
  let bl, bd = count before and al, ad = count after in
  Printf.printf
    "\n== Fig 5 — block fusion on TPC-H Q3 ==\nbefore fusion: %d local + %d \
     distributed blocks\nafter fusion:  %d local + %d distributed blocks\n\n\
     Fused program:\n"
    bl bd al ad;
  Format.printf "%a@." Dprog.pp after

let table3 () =
  let rows =
    List.map
      (fun (q : Tpch.Queries.t) ->
        let dp = dist_prog q in
        let lineitem_jobs, lineitem_stages =
          Dprog.jobs_and_stages dp "lineitem"
        in
        let total_jobs, total_stages =
          List.fold_left
            (fun (j, s) (tr : Dprog.dtrigger) ->
              let j', s' = Dprog.jobs_and_stages dp tr.drelation in
              (j + j', s + s'))
            (0, 0) dp.dtriggers
        in
        [
          q.qname;
          string_of_int lineitem_jobs;
          string_of_int lineitem_stages;
          string_of_int total_jobs;
          string_of_int total_stages;
        ])
      Tpch.Queries.all
  in
  B.print_table
    ~title:
      "Table 3 — jobs and stages per update batch (lineitem trigger / all \
       triggers)"
    ~header:[ "query"; "L jobs"; "L stages"; "jobs(all)"; "stages(all)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Cluster experiments (Figs. 9, 10, 11, 13)                           *)
(* ------------------------------------------------------------------ *)

(* TPC-H streams for the cluster experiments are expensive to synthesize;
   memoize them by (scale, batch size). *)
let stream_cache : (float * int, (string * Gmr.t) list) Hashtbl.t =
  Hashtbl.create 8

let cached_stream ~scale ~batch =
  match Hashtbl.find_opt stream_cache (scale, batch) with
  | Some s -> s
  | None ->
      let s = Tpch.Gen.stream { Tpch.Gen.scale; seed = 2016 } ~batch_size:batch in
      Hashtbl.replace stream_cache (scale, batch) s;
      s

(* The relation whose batches a query's distributed latency is measured on:
   the highest-volume stream the query actually triggers on. *)
let measured_rel q =
  let maps = (Tpch.Queries.find q).maps in
  let rels = List.concat_map (fun (_, e) -> Calc.base_rels e) maps in
  match
    List.find_opt
      (fun r -> List.mem r rels)
      [ "lineitem"; "orders"; "partsupp"; "customer"; "part"; "supplier" ]
  with
  | Some r -> r
  | None -> "lineitem"

(* Feed the stream into the cluster; collect modeled metrics of the measured
   relation's batches. *)
let cluster_run ?level ~workers ~batch q =
  let dp = dist_prog ?level (Tpch.Queries.find q) in
  let c = Cluster.create ~config:(Cluster.config ~workers ()) dp in
  let need = 3 * batch in
  let scale = Float.max 1.0 (float_of_int need /. 6000. *. 1.15) in
  let stream = cached_stream ~scale ~batch in
  let mrel = measured_rel q in
  let metrics = ref [] in
  List.iter
    (fun (rel, b) ->
      let m = Cluster.apply_batch c ~rel b in
      if rel = mrel && Gmr.cardinal b >= batch / 2 then
        metrics := m :: !metrics)
    stream;
  !metrics

let fig9_queries = [ "Q6"; "Q17"; "Q3"; "Q7" ]

let fig9 () =
  let per_worker = 100_000 / B.dist_div in
  let header =
    "query"
    :: List.map (fun w -> Printf.sprintf "W=%d" w) B.worker_counts
  in
  let latency_rows, thr_rows =
    List.split
      (List.map
         (fun q ->
           let cells =
             List.map
               (fun w ->
                 let ms = cluster_run ~workers:w ~batch:(w * per_worker) q in
                 let lat =
                   B.median (List.map (fun m -> m.Cluster.latency) ms)
                 in
                 ( B.fmt_sec lat,
                   B.fmt_rate (float_of_int (w * per_worker) /. lat) ))
               B.worker_counts
           in
           (q :: List.map fst cells, q :: List.map snd cells))
         fig9_queries)
  in
  B.print_table
    ~title:
      (Printf.sprintf
         "Fig 9 — weak scalability: median batch latency (batch = %d \
          tuples/worker; paper: 100k/worker)"
         per_worker)
    ~header latency_rows;
  B.print_table ~title:"Fig 9 — weak scalability: throughput (tuples/s)"
    ~header thr_rows

let strong ~title ~queries ~totals () =
  let header =
    "query/batch"
    :: List.map (fun w -> Printf.sprintf "W=%d" w) B.worker_counts
  in
  let rows =
    List.concat_map
      (fun q ->
        List.map
          (fun total ->
            Printf.sprintf "%s %s" q (B.fmt_rate (float_of_int total))
            :: List.map
                 (fun w ->
                   let ms = cluster_run ~workers:w ~batch:total q in
                   B.fmt_sec
                     (B.median (List.map (fun m -> m.Cluster.latency) ms)))
                 B.worker_counts)
          totals)
      queries
  in
  B.print_table ~title ~header rows

let fig10 () =
  let totals =
    List.map
      (fun t -> t / B.dist_div)
      (if B.full_mode then [ 50_000_000; 200_000_000 ]
       else [ 50_000_000; 100_000_000 ])
  in
  strong
    ~title:
      (Printf.sprintf
         "Fig 10 — strong scalability: median batch latency (batch sizes = \
          paper's 50M/200M ÷ %d)"
         B.dist_div)
    ~queries:[ "Q6"; "Q17"; "Q3"; "Q7" ] ~totals ()

let fig11 () =
  let totals = [ 50_000_000 / B.dist_div ] in
  strong
    ~title:
      (Printf.sprintf
         "Fig 11 — strong scalability, more TPC-H queries (batch = 100M ÷ %d)"
         B.dist_div)
    ~queries:[ "Q1"; "Q4"; "Q12"; "Q13"; "Q14"; "Q19"; "Q22" ]
    ~totals ()

(* Spark SQL re-evaluation stand-in: the re-evaluation program compiled for
   the cluster. *)
let sparksql () =
  let total = 100_000_000 / B.dist_div in
  let header =
    "query"
    :: List.map (fun w -> Printf.sprintf "W=%d" w) B.worker_counts
  in
  let rows =
    List.map
      (fun qn ->
        let q = Tpch.Queries.find qn in
        let prog =
          Preagg.apply
            (Compile.compile_reeval ~streams:Tpch.Schema.streams q.maps)
        in
        let catalog = Loc.heuristic ~keys:Tpch.Schema.partition_keys prog in
        let dp = Distribute.compile ~catalog prog in
        qn
        :: List.map
             (fun w ->
               let c =
                 Cluster.create ~config:(Cluster.config ~workers:w ()) dp
               in
               let scale =
                 Float.max 1.0 (float_of_int (3 * total) /. 6000. *. 1.15)
               in
               let stream = cached_stream ~scale ~batch:total in
               let lats = ref [] and comp = ref [] in
               List.iter
                 (fun (rel, b) ->
                   let m = Cluster.apply_batch c ~rel b in
                   if rel = "lineitem" && Gmr.cardinal b >= total / 2 then begin
                     lats := m.Cluster.latency :: !lats;
                     comp :=
                       (float_of_int m.Cluster.max_worker_ops *. 6e-8)
                       :: !comp
                   end)
                 stream;
               Printf.sprintf "%s (c %s)"
                 (B.fmt_sec (B.median !lats))
                 (B.fmt_sec (B.median !comp)))
             B.worker_counts)
      [ "Q6"; "Q3" ]
  in
  B.print_table
    ~title:
      (Printf.sprintf
         "Fig 10 (dashed lines) — Spark-SQL-style re-evaluation on the \
          cluster (batch = 100M ÷ %d; 'c' = compute component, the part \
          that dwarfs incremental maintenance as streams grow)"
         B.dist_div)
    ~header rows

let fig13 () =
  let total = 100_000_000 / B.dist_div in
  let header =
    "level"
    :: List.map (fun w -> Printf.sprintf "W=%d" w) B.worker_counts
  in
  let rows =
    List.map
      (fun (level, label) ->
        label
        :: List.map
             (fun w ->
               let ms = cluster_run ~level ~workers:w ~batch:total "Q3" in
               B.fmt_sec (B.median (List.map (fun m -> m.Cluster.latency) ms)))
             B.worker_counts)
      [
        (0, "O0 naive");
        (1, "O1 +simplification");
        (2, "O2 +block fusion");
        (3, "O3 +CSE/DCE");
        (4, "O4 +keyed dealing");
      ]
  in
  B.print_table
    ~title:
      (Printf.sprintf
         "Fig 13 — optimization ablation on TPC-H Q3 (batch = 200M ÷ %d)"
         B.dist_div)
    ~header rows;
  (* shuffled bytes tell the mechanism *)
  let rows2 =
    List.map
      (fun level ->
        let ms = cluster_run ~level ~workers:8 ~batch:total "Q3" in
        [
          Printf.sprintf "O%d" level;
          B.fmt_bytes
            (List.fold_left (fun a m -> a + m.Cluster.bytes_shuffled) 0 ms
            / max 1 (List.length ms));
          string_of_int
            (match ms with m :: _ -> m.Cluster.stages | [] -> 0);
        ])
      [ 0; 1; 2; 3; 4 ]
  in
  B.print_table ~title:"Fig 13 (mechanism) — bytes shuffled and stages per batch at W=8"
    ~header:[ "level"; "shuffled/batch"; "stages" ] rows2

(* ------------------------------------------------------------------ *)
(* Ablations called out in DESIGN.md                                   *)
(* ------------------------------------------------------------------ *)

let ablation_preagg () =
  let stream_of bs = Tpch.Gen.stream tpch_cfg ~batch_size:bs in
  let rows =
    List.map
      (fun qn ->
        let q = Tpch.Queries.find qn in
        let on = batched_rate stream_of (compile_tpch q) 1000 in
        let off = batched_rate stream_of (compile_tpch ~preagg:false q) 1000 in
        [ qn; B.fmt_rate on; B.fmt_rate off; B.fmt_ratio (on /. off) ])
      [ "Q1"; "Q3"; "Q6"; "Q14"; "Q19"; "Q22" ]
  in
  B.print_table
    ~title:"Ablation — batch pre-aggregation on/off (B=1000, tuples/s)"
    ~header:[ "query"; "preagg on"; "preagg off"; "speedup" ]
    rows

let ablation_index () =
  let stream_of bs = Tpch.Gen.stream tpch_cfg ~batch_size:bs in
  let rows =
    List.map
      (fun qn ->
        let q = Tpch.Queries.find qn in
        let prog = compile_tpch q in
        let rate auto_index =
          let rt = Runtime.create ~auto_index prog in
          feed_budget ~budget
            (fun ~rel b -> ignore (Runtime.apply_batch rt ~rel b))
            (stream_of 1000)
        in
        let on = rate true and off = rate false in
        [ qn; B.fmt_rate on; B.fmt_rate off; B.fmt_ratio (on /. off) ])
      [ "Q3"; "Q5"; "Q9"; "Q10" ]
  in
  B.print_table
    ~title:"Ablation — automatic index creation on/off (B=1000, tuples/s)"
    ~header:[ "query"; "indexes on"; "indexes off"; "speedup" ]
    rows

let ablation_factor () =
  let stream_of bs = Tpch.Gen.stream tpch_cfg ~batch_size:bs in
  let rows =
    List.map
      (fun qn ->
        let q = Tpch.Queries.find qn in
        let on = compile_tpch q in
        let off =
          Compile.compile
            ~options:{ Compile.default_options with factorize = false }
            ~streams:Tpch.Schema.streams q.maps
        in
        let maps p =
          List.length
            (List.filter
               (fun (m : Prog.map_decl) -> m.mkind <> Prog.Transient)
               p.Prog.maps)
        in
        [
          qn;
          string_of_int (maps on);
          string_of_int (maps off);
          B.fmt_rate (batched_rate stream_of on 1000);
          B.fmt_rate (batched_rate stream_of off 1000);
        ])
      [ "Q3"; "Q5"; "Q9"; "Q10" ]
  in
  B.print_table
    ~title:
      "Ablation — connected-component factorization on/off (maps \
       materialized; B=1000 tuples/s)"
    ~header:[ "query"; "maps(on)"; "maps(off)"; "rate(on)"; "rate(off)" ]
    rows

let ablation_columnar () =
  (* §5.2.2: columnar input batches improve locality of the static-filter
     scan in batch pre-aggregation. *)
  let stream_of bs = Tpch.Gen.stream tpch_cfg ~batch_size:bs in
  let rows =
    List.map
      (fun qn ->
        let q = Tpch.Queries.find qn in
        let prog = compile_tpch q in
        let rate columnar =
          let rt = Runtime.create ~columnar prog in
          measured_rate ~load:(fire rt)
            ~measure:(fun ~rel b -> ignore (Runtime.apply_batch rt ~rel b))
            (stream_of 1000)
        in
        let on = rate true and off = rate false in
        [ qn; B.fmt_rate on; B.fmt_rate off; B.fmt_ratio (on /. off) ])
      [ "Q1"; "Q6"; "Q14"; "Q19" ]
  in
  B.print_table
    ~title:"Ablation — columnar batch pre-aggregation on/off (B=1000, tuples/s)"
    ~header:[ "query"; "columnar"; "row-at-a-time"; "speedup" ]
    rows

let ablation_checkpoint () =
  (* §4: "Checkpointing may have detrimental effects on the latency of
     processing, so the user needs to carefully tune the frequency." *)
  let q = Tpch.Queries.find "Q3" in
  let dp = dist_prog q in
  let stream = cached_stream ~scale:8.0 ~batch:4000 in
  let rows =
    List.map
      (fun interval ->
        let c = Cluster.create ~config:(Cluster.config ~workers:8 ()) dp in
        let total = ref 0. and ckpt = ref 0. and n = ref 0 in
        List.iter
          (fun (rel, b) ->
            let m = Cluster.apply_batch c ~rel b in
            total := !total +. m.Cluster.latency;
            incr n;
            if interval > 0 && !n mod interval = 0 then begin
              let _, lat = Cluster.checkpoint c in
              ckpt := !ckpt +. lat
            end)
          stream;
        [
          (if interval = 0 then "never" else Printf.sprintf "every %d" interval);
          B.fmt_sec ((!total +. !ckpt) /. float_of_int !n);
          B.fmt_sec (!total /. float_of_int !n);
          Printf.sprintf "%.0f%%" (100. *. !ckpt /. !total);
        ])
      [ 0; 20; 5; 1 ]
  in
  B.print_table
    ~title:
      "Ablation — checkpoint frequency vs processing latency (Q3, W=8,        4k-tuple batches)"
    ~header:[ "checkpoint"; "avg latency"; "w/o ckpt"; "overhead" ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let i x = Value.Int x in
  let q3 = Tpch.Queries.find "Q3" in
  let prog = compile_tpch q3 in
  let rt = Runtime.create prog in
  let warm = Tpch.Gen.stream tpch_cfg ~batch_size:1000 in
  List.iter (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b)) warm;
  let batch =
    match List.find_opt (fun (r, _) -> r = "lineitem") warm with
    | Some (_, b) -> b
    | None -> Gmr.create ()
  in
  let pool = Pool.create ~key_width:1 ~slices:[] () in
  for x = 0 to 9999 do
    Pool.add pool [| i x |] 1.
  done;
  let cnt = ref 0 in
  let tests =
    Test.make_grouped ~name:"divm"
      [
        Test.make ~name:"gmr-add-cancel"
          (Staged.stage (fun () ->
               let g = Gmr.create () in
               Gmr.add g [| i 1 |] 1.;
               Gmr.add g [| i 1 |] (-1.)));
        Test.make ~name:"pool-get"
          (Staged.stage (fun () ->
               incr cnt;
               ignore (Pool.get pool [| i (!cnt land 8191) |])));
        Test.make ~name:"pool-add"
          (Staged.stage (fun () ->
               incr cnt;
               Pool.add pool [| i (!cnt land 8191) |] 1.));
        Test.make ~name:"delta-derive-q3"
          (Staged.stage (fun () ->
               ignore
                 (Delta.expr ~rel:"lineitem" (snd (List.hd q3.maps)))));
        Test.make ~name:"q3-batch-1000"
          (Staged.stage (fun () ->
               ignore (Runtime.apply_batch rt ~rel:"lineitem" batch)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%.1f ns" e
        | _ -> "-"
      in
      rows := [ name; est ] :: !rows)
    results;
  B.print_table ~title:"Micro-benchmarks (bechamel, monotonic clock)"
    ~header:[ "benchmark"; "time/run" ]
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Quick micro-bench: the perf-trajectory smoke test                   *)
(* ------------------------------------------------------------------ *)

(* A small, fast, reproducible measurement of the hot trigger path:
   batched TPC-H triggers at B=1000 over the compiled runtime. Reports
   tuples/s and record-ops/s per query plus geomeans, and emits one
   machine-readable line (prefix [QUICK_JSON]) whose payload is recorded
   in the BENCH_PR<n>.json perf trajectory at the repo root. CI runs
   this as a smoke step; see README. *)

let quick_queries = [ "Q1"; "Q3"; "Q6"; "Q13"; "Q17"; "Q19"; "Q22" ]

(* The engine config parsed from the command line by Obs_cli.parse_common
   (--backend/--workers/--domains/--batch/--opt-level). Default: local
   backend, B=1000, DIVM_DOMAINS — the historical QUICK_JSON setup, so
   the perf trajectory stays comparable. *)
let cli_engine = ref (Engine.config ())

(* One query's quick measurement. Selection-vector rows and index probes
   are registry deltas around the measured loop, so only the local
   backend fills them: a distributed coordinator does not see its
   workers' counters. *)
type quick_row = {
  q : string;
  tps : float;
  ops_s : float;
  ops_t : float;
  wire : int;
  words_t : float;
  setup_words_t : float;
  round_trips : float;
  selvec_t : float;
  probes_t : float;
}

let m_selvec = Obs.Counter.make "divm_selvec_rows_scanned_total"
let m_probes = Obs.Counter.make "divm_index_probes_total"

(* Words this process has allocated so far, exactly: [Gc.minor_words ()]
   counts the minor heap as it fills, and [Gc.counters]' major words
   (promoted ones included) and promoted words move together.
   [Gc.quick_stat]'s minor and major words move only at a collection or
   a major slice, so a delta of them is off by up to a minor heap. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let quick () =
  let cfg = !cli_engine in
  let bs = cfg.Engine.batch_size in
  let used_domains = ref 1 in
  let backend = ref "local" in
  let results =
    List.map
      (fun qn ->
        let stream = Tpch.Gen.stream tpch_cfg ~batch_size:bs in
        let prefix, suffix = split_warm stream in
        (* Set-up allocation: the engine's build and its load of the warm
           prefix, per prefix tuple. *)
        let setup0 = words () in
        let eng = Engine.create ~config:cfg (Workload.find qn) in
        Engine.load eng prefix;
        let setup = words () -. setup0 in
        used_domains := Engine.domains eng;
        backend := Engine.backend_name eng;
        (* One uncounted pass, so no trigger compiles inside the count. *)
        List.iter (fun (rel, b) -> ignore (Engine.apply_batch eng ~rel b)) suffix;
        (* Repeat the measured suffix until the budget elapses, in whole
           passes (a pass is a few batches), so per-batch counts are exact
           means over the suffix; account only in-trigger wall time so
           stream bookkeeping is excluded. Allocation is this process's
           words allocated around the loop (the coordinator's, on a
           distributed backend): a deterministic per-tuple cost that does
           not drift with the host. *)
        let tuples = ref 0 and ops = ref 0 and wall = ref 0. in
        let wire = ref 0 and batches = ref 0 and round_trips = ref 0 in
        let words0 = words () in
        let sv0 = Obs.Counter.value m_selvec and pr0 = Obs.Counter.value m_probes in
        let deadline = Unix.gettimeofday () +. budget in
        (try
           while true do
             List.iter
               (fun (rel, b) ->
                 let r = Engine.apply_batch eng ~rel b in
                 tuples := !tuples + r.Engine.tuples;
                 ops := !ops + r.Engine.ops;
                 wall := !wall +. r.Engine.wall;
                 wire := !wire + r.Engine.wire_bytes;
                 incr batches;
                 round_trips := !round_trips + r.Engine.round_trips)
               suffix;
             if Unix.gettimeofday () > deadline then raise Exit
           done
         with Exit -> ());
        let alloc = words () -. words0 in
        let per x = x /. float_of_int !tuples in
        let delta c c0 = per (float_of_int (Obs.Counter.value c - c0)) in
        Engine.shutdown eng;
        {
          q = qn;
          tps = float_of_int !tuples /. !wall;
          ops_s = float_of_int !ops /. !wall;
          ops_t = per (float_of_int !ops);
          wire = !wire;
          words_t = per alloc;
          setup_words_t =
            setup
            /. float_of_int
                 (List.fold_left (fun a (_, b) -> a + Gmr.cardinal b) 0 prefix);
          round_trips = float_of_int !round_trips /. float_of_int !batches;
          selvec_t = delta m_selvec sv0;
          probes_t = delta m_probes pr0;
        })
      quick_queries
  in
  let dist = !backend <> "local" in
  let geomean f =
    exp
      (List.fold_left (fun a r -> a +. log (f r)) 0. results
      /. float_of_int (List.length results))
  in
  let g_tps = geomean (fun r -> r.tps) in
  let g_ops = geomean (fun r -> r.ops_s) in
  (* Actual socket traffic, multiprocess only (0 elsewhere). *)
  let total_wire = List.fold_left (fun a r -> a + r.wire) 0 results in
  B.print_table
    ~title:
      (Printf.sprintf
         "Quick micro-bench — batched TPC-H triggers (B=%d, %s backend, \
          domains=%d)"
         bs !backend !used_domains)
    ~header:
      ([
         "query";
         "tuples/s";
         "record-ops/s";
         "ops/tuple";
         "words/tuple";
         "set-up words/tuple";
       ]
      @
      if dist then [ "round trips/batch" ]
      else [ "selvec rows/tuple"; "probes/tuple" ])
    (List.map
       (fun r ->
         [
           r.q;
           B.fmt_rate r.tps;
           B.fmt_rate r.ops_s;
           Printf.sprintf "%.1f" r.ops_t;
           Printf.sprintf "%.1f" r.words_t;
           Printf.sprintf "%.1f" r.setup_words_t;
         ]
         @
         if dist then [ Printf.sprintf "%.3f" r.round_trips ]
         else
           [ Printf.sprintf "%.2f" r.selvec_t; Printf.sprintf "%.2f" r.probes_t ])
       results
    @ [
        [ "geomean"; B.fmt_rate g_tps; B.fmt_rate g_ops; "-"; "-"; "-" ]
        @ if dist then [ "-" ] else [ "-"; "-" ];
      ]);
  let fields =
    String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "\"%s\":{\"tuples_per_s\":%.0f,\"ops_per_s\":%.0f,\"ops_per_tuple\":%.2f,\"alloc_words_per_tuple\":%.2f,\"setup_words_per_tuple\":%.2f%s%s}"
             r.q r.tps r.ops_s r.ops_t r.words_t r.setup_words_t
             (if r.wire > 0 then Printf.sprintf ",\"wire_bytes\":%d" r.wire
              else "")
             (if dist then
                Printf.sprintf ",\"round_trips_per_batch\":%.4f" r.round_trips
              else
                Printf.sprintf
                  ",\"selvec_rows_per_tuple\":%.6g,\"index_probes_per_tuple\":%.6g"
                  r.selvec_t r.probes_t))
         results)
  in
  Printf.printf
    "QUICK_JSON {\"bench\":\"quick\",\"batch_size\":%d,\"domains\":%d,\"host_cores\":%d,\"queries\":{%s},\"geomean_tuples_per_s\":%.0f,\"geomean_ops_per_s\":%.0f%s}\n"
    bs !used_domains
    (Stdlib.Domain.recommended_domain_count ())
    fields g_tps g_ops
    (if total_wire > 0 then
       Printf.sprintf ",\"total_wire_bytes\":%d" total_wire
     else "")

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("quick", "fast trigger-path micro-bench (perf trajectory smoke)", quick);
    ("fig5", "block fusion before/after on Q3", fig5);
    ("fig7", "TPC-H normalized throughput vs batch size", fig7);
    ("fig8", "Q17 across engines and batch sizes", fig8);
    ("fig9", "weak scalability (cluster simulation)", fig9);
    ("fig10", "strong scalability Q6/Q17/Q3/Q7", fig10);
    ("fig11", "strong scalability, more queries", fig11);
    ("sparksql", "Spark-SQL-style re-evaluation lines of Fig 10", sparksql);
    ("fig12", "TPC-DS normalized throughput vs batch size", fig12);
    ("fig13", "distributed optimization ablation on Q3", fig13);
    ("table1", "engine throughput comparison", table1);
    ("table2", "cache locality of Q3", table2);
    ("table3", "jobs and stages per query", table3);
    ("ablation-preagg", "batch pre-aggregation on/off", ablation_preagg);
    ("ablation-index", "automatic indexing on/off", ablation_index);
    ("ablation-factor", "factorized materialization on/off", ablation_factor);
    ("ablation-checkpoint", "checkpoint frequency vs latency", ablation_checkpoint);
    ("ablation-columnar", "columnar pre-aggregation on/off", ablation_columnar);
    ("micro", "bechamel micro-benchmarks", micro);
  ]

let run names (common : Obs_cli.common) =
  cli_engine := common.engine;
  (* no static plan spans every experiment: --profile reports slots only *)
  Obs_cli.activate common.opts;
  let selected =
    match names with
    | [] -> List.map (fun (n, _, _) -> n) experiments
    | names -> names
  in
  Printf.printf
    "divm benchmark harness — mode: %s (set DIVM_BENCH=full for larger \
     streams)\n"
    (if B.full_mode then "full" else "quick");
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, desc, f) ->
          Printf.printf "\n#### %s — %s\n%!" name desc;
          let dt = B.time_unit f in
          Printf.printf "[%s finished in %s]\n%!" name (B.fmt_sec dt)
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)))
    selected

(* Engine + observability flags are shared with the CLIs
   (--backend/--workers/--domains/--batch/--opt-level, --metrics/
   --trace/--profile); the positional arguments select experiments. *)
let () =
  let open Cmdliner in
  let names_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiments to run (default: all): "
            ^ String.concat ", " (List.map (fun (n, _, _) -> n) experiments)
            ^ "."))
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bench" ~doc:"Regenerate the paper's experiments")
          Term.(const run $ names_t $ Obs_cli.parse_common ())))
