open Divm_ring
open Divm_storage
open Divm_compiler
open Divm_dist
open Divm_runtime
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Par = Divm_par.Par

(* Registry instruments. [apply_batch]'s metrics record is a view over
   these: each batch is accounted into the counters first and the record
   is read back as the deltas, so `--metrics` totals and per-batch records
   can never disagree. *)
let m_bytes_shuffled = Obs.Counter.make "divm_cluster_bytes_shuffled_total"
let m_stages = Obs.Counter.make "divm_cluster_stages_total"
let m_batches = Obs.Counter.make "divm_cluster_batches_total"
let m_worker_ops = Obs.Counter.make "divm_cluster_max_worker_ops_total"
let m_worker_ops_all = Obs.Counter.make "divm_cluster_worker_ops_total"
let m_driver_ops = Obs.Counter.make "divm_cluster_driver_ops_total"

let h_latency =
  Obs.Histogram.make "divm_cluster_batch_latency_seconds" (* modeled *)

let g_workers = Obs.Gauge.make "divm_cluster_workers"
let g_last_latency = Obs.Gauge.make "divm_cluster_last_latency_seconds"
let g_max_bytes_per_worker = Obs.Gauge.make "divm_cluster_max_bytes_per_worker"

type config = {
  workers : int;
  domains : int option;
  cost : Costmodel.t;
}

let config ?(workers = 50) ?domains ?(cost = Costmodel.default) () =
  { workers; domains; cost }

let default_config = config ()

type metrics = {
  latency : float;
  stages : int;
  bytes_shuffled : int;
  max_bytes_per_worker : int;
  max_worker_ops : int;
  driver_ops : int;
}

type transfer = {
  tname : string;
  tkind : Dprog.transfer_kind;
  key : int array;
  source : string;
  tslot : int; (* profiler slot: shuffled bytes are charged here *)
}

type pstmt =
  | PDriver of string * int * (unit -> unit)
      (* span label, profiler slot, compiled stmt *)
  | PTransfer of transfer

(* A local block runs on the driver; a distributed block runs block [i]
   of the trigger's compiled worker blocks on every node. *)
type pblock = PLocal of pstmt list | PDist of int

type ptrigger = {
  pblocks : pblock list;
  pscatter : Runtime.scatter option; (* share layout; [None]: no Δ read *)
  pnodes : Runtime.blocks array; (* per node *)
}

type t = {
  cfg : config;
  dprog : Dprog.t;
  driver : Runtime.t;
  nodes : Runtime.t array;
  plans : (string * ptrigger) list;
  par : Par.Pool.t option;
  delta_at_workers : bool;
  worker_ops_gauges : Obs.Gauge.t array;
      (* per-worker ops of the last batch, labeled Prometheus-style *)
}

let workers t = t.cfg.workers

let create ?(config = default_config) ?domains (dp : Dprog.t) =
  (* Explicit precedence: the config record pins the domain count; the
     optional argument is a convenience for callers without a config. Both
     given and disagreeing is a caller bug, not a silent override. *)
  let domains =
    match (config.domains, domains) with
    | Some a, Some b when a <> b ->
        invalid_arg
          (Printf.sprintf
             "Cluster.create: contradictory domain counts (config.domains=%d \
              vs ~domains:%d)"
             a b)
    | Some d, _ | None, Some d -> max 1 d
    | None, None -> Par.default_domains ()
  in
  (* The runtimes never fire whole triggers themselves, but the compute
     statements of the distributed program (with their transfer-renamed
     map references) must be visible to the access-pattern analysis so
     the pools get their slice indexes. Simulated nodes run serially
     within themselves ([domains:1]): the cluster's own parallelism is one
     pool task per worker node, and nesting pools is not supported. *)
  let rprog = Dprog.compute_prog dp in
  let driver = Runtime.create ~domains:1 rprog in
  let nodes =
    Array.init config.workers (fun _ -> Runtime.create ~domains:1 rprog)
  in
  let compile_block trigger bi (b : Dprog.block) =
    match b.bmode with
    | Dprog.MDist -> PDist bi
    | Dprog.MLocal ->
        PLocal
          (List.map
             (fun d ->
               match d with
               | Dprog.Transfer { tname; tkind; key; source } ->
                   PTransfer
                     {
                       tname;
                       tkind;
                       key;
                       source;
                       tslot = Prof.slot ~trigger ~label:("transfer:" ^ tname);
                     }
               | Dprog.Compute s ->
                   let label = "driver:" ^ s.target in
                   PDriver
                     ( label,
                       Prof.slot ~trigger ~label,
                       List.hd (Runtime.compile_stmts driver [ s ]) ))
             b.bstmts)
  in
  let plans =
    List.map
      (fun (tr : Dprog.dtrigger) ->
        let rel = tr.drelation in
        let wblocks = Dprog.worker_blocks tr in
        ( rel,
          {
            pblocks = List.mapi (compile_block rel) tr.blocks;
            pscatter = Runtime.scatter_plan rprog ~rel wblocks;
            pnodes =
              Array.map (fun rt -> Runtime.compile_blocks rt ~rel wblocks) nodes;
          } ))
      dp.dtriggers
  in
  (* Batches live at the workers when the delta pre-aggregations do. *)
  let delta_at_workers =
    List.exists
      (fun (m : Prog.map_decl) ->
        m.mkind = Prog.Transient
        && Divm_calc.Calc.has_deltas m.definition
        && Loc.find dp.locs m.mname <> Loc.Local)
      dp.base.maps
  in
  let worker_ops_gauges =
    Array.init config.workers (fun i ->
        Obs.Gauge.make (Printf.sprintf "divm_worker_ops{worker=\"%d\"}" i))
  in
  {
    cfg = config;
    dprog = dp;
    driver;
    nodes;
    plans;
    par = (if domains > 1 then Some (Par.get ~domains) else None);
    delta_at_workers;
    worker_ops_gauges;
  }

(* ------------------------------------------------------------------ *)
(* Transfers                                                           *)
(* ------------------------------------------------------------------ *)

type net = {
  mutable total_bytes : int;
  mutable into_node : int array; (* bytes received per worker since reset *)
  mutable into_driver : int;
}

let tuple_bytes = Costmodel.tuple_bytes

(* Execute one transfer; returns (total network bytes, max bytes into one
   node, serialization bytes at sources). *)
let run_transfer t net tr =
  let src_loc = Loc.find t.dprog.locs tr.source in
  let dst_loc = Loc.find t.dprog.locs tr.tname in
  let w = t.cfg.workers in
  (* (origin, contents) pairs; origin -1 = driver, -2 = replicated *)
  let sources =
    match src_loc with
    | Loc.Local -> [ (-1, Runtime.map_contents t.driver tr.source) ]
    | Loc.Replicated -> [ (-2, Runtime.map_contents t.nodes.(0) tr.source) ]
    | Loc.Dist _ | Loc.Random ->
        Array.to_list
          (Array.mapi (fun i rt -> (i, Runtime.map_contents rt tr.source)) t.nodes)
  in
  (* clear destinations *)
  (match dst_loc with
  | Loc.Local -> Runtime.clear_map t.driver tr.tname
  | _ -> Array.iter (fun rt -> Runtime.clear_map rt tr.tname) t.nodes);
  let deliver_worker origin wi tup m =
    Runtime.add_to_map t.nodes.(wi) tr.tname tup m;
    if origin <> wi then begin
      let b = tuple_bytes tup in
      net.total_bytes <- net.total_bytes + b;
      net.into_node.(wi) <- net.into_node.(wi) + b
    end
  in
  let deliver_driver origin tup m =
    Runtime.add_to_map t.driver tr.tname tup m;
    if origin <> -1 then begin
      let b = tuple_bytes tup in
      net.total_bytes <- net.total_bytes + b;
      net.into_driver <- net.into_driver + b
    end
  in
  let ser_bytes = ref 0 in
  List.iter
    (fun (origin, contents) ->
      Gmr.iter
        (fun tup m ->
          ser_bytes := !ser_bytes + tuple_bytes tup;
          match tr.tkind with
          | Dprog.Gather -> deliver_driver origin tup m
          | Dprog.Scatter | Dprog.Repart ->
              if Array.length tr.key = 0 then
                for wi = 0 to w - 1 do
                  deliver_worker origin wi tup m
                done
              else
                let sub = Vtuple.project tup tr.key in
                deliver_worker origin (Vtuple.hash sub mod w) tup m)
        contents)
    sources;
  !ser_bytes

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let apply_batch t ~rel batch =
  let w = t.cfg.workers in
  (* registry state before this batch: the returned record is the delta *)
  let bytes0 = Obs.Counter.value m_bytes_shuffled in
  let stages0 = Obs.Counter.value m_stages in
  let wops0 = Obs.Counter.value m_worker_ops in
  let dops0 = Obs.Counter.value m_driver_ops in
  Obs.span ("cluster:" ^ rel) @@ fun () ->
  let pt =
    match List.assoc_opt rel t.plans with
    | Some pt -> pt
    | None -> invalid_arg ("Cluster.apply_batch: no trigger for " ^ rel)
  in
  (* Distribute the incoming batch exactly as the multiprocess
     coordinator does: the same dealing function, the same column
     pruning, so a simulated node and a worker process hold identical
     shares. The batch lives at the workers when the delta
     pre-aggregations do. *)
  (match pt.pscatter with
  | Some sc ->
      let shares =
        Runtime.deal sc ~parts:w
          (if t.delta_at_workers then batch else Gmr.create ())
      in
      Array.iteri
        (fun wi rt -> Runtime.set_batch rt pt.pnodes.(wi) shares.(wi))
        t.nodes
  | None -> ());
  Runtime.load_batch t.driver ~rel
    (if t.delta_at_workers then Gmr.create () else batch);
  let net = { total_bytes = 0; into_node = Array.make w 0; into_driver = 0 } in
  let latency = ref 0. in
  let stages = ref 0 in
  let worker_ops = Array.make w 0 in
  let driver_ops0 = Runtime.ops t.driver in
  let pending_bytes = ref 0 in
  (* bytes into the busiest node since the last distributed stage, for the
     straggler factor *)
  let pending_max_into = ref 0 in
  List.iter
    (fun b ->
      match b with
      | PLocal pstmts ->
          List.iter
            (fun ps ->
              match ps with
              | PDriver (lbl, slot, f) ->
                  Runtime.run_attributed t.driver ~label:lbl ~slot f
              | PTransfer tr ->
                  Obs.span ("transfer:" ^ tr.tname) (fun () ->
                      let wall0 = Unix.gettimeofday () in
                      let before_max =
                        Array.fold_left max net.into_driver net.into_node
                      in
                      let bytes_before = net.total_bytes in
                      let ser = run_transfer t net tr in
                      if Prof.enabled () then
                        Prof.add tr.tslot ~ops:0 ~probes:0 ~misses:0 ~scanned:0
                          ~svscan:0 ~svsel:0
                          ~bytes:(net.total_bytes - bytes_before)
                          ~wall:(Unix.gettimeofday () -. wall0);
                      let after_max =
                        Array.fold_left max net.into_driver net.into_node
                      in
                      pending_bytes := !pending_bytes + ser;
                      pending_max_into :=
                        max !pending_max_into (after_max - before_max);
                      let dt =
                        Costmodel.transfer_latency t.cfg.cost ~ser_bytes:ser
                          ~max_into:(after_max - before_max)
                      in
                      latency := !latency +. dt;
                      if Obs.tracing () then begin
                        Obs.set_attr "modeled_ms"
                          (Printf.sprintf "%.6f" (dt *. 1e3));
                        Obs.set_attr "kind"
                          (match tr.tkind with
                          | Dprog.Gather -> "gather"
                          | Dprog.Scatter -> "scatter"
                          | Dprog.Repart -> "repart");
                        Obs.set_attr "bytes"
                          (string_of_int (net.total_bytes - bytes_before))
                      end))
            pstmts
      | PDist bi ->
          incr stages;
          let stage_lbl =
            if Obs.tracing () then Printf.sprintf "stage:%d" !stages
            else ""
          in
          Obs.span stage_lbl (fun () ->
              (* Every simulated node owns disjoint state (its own runtime,
                 pools, batch share), so the per-node blocks are
                 embarrassingly parallel. Each task writes only its own
                 [deltas] cell; the modeled time is computed afterwards by
                 a serial reduction over [deltas], which is a pure function
                 of the per-worker op counts — so modeled latency and
                 shuffled bytes are bit-identical whether the stage ran on
                 one domain or many. *)
              let deltas = Array.make w 0 in
              let run_worker wi rt =
                let o0 = Runtime.ops rt in
                Runtime.run_block rt pt.pnodes.(wi) bi;
                deltas.(wi) <- Runtime.ops rt - o0
              in
              (match t.par with
              | Some pl
                when (not (Prof.enabled ()))
                     && (not (Obs.tracing ()))
                     && not (Trace.enabled ()) ->
                  Par.Pool.run pl
                    (Array.mapi (fun wi rt () -> run_worker wi rt) t.nodes)
              | _ ->
                  Array.iteri
                    (fun wi rt ->
                      if Obs.tracing () then
                        Obs.span (Printf.sprintf "worker:%d" wi) (fun () ->
                            run_worker wi rt)
                      else run_worker wi rt)
                    t.nodes);
              let max_ops = ref 0 in
              Array.iteri
                (fun wi d ->
                  worker_ops.(wi) <- worker_ops.(wi) + d;
                  max_ops := max !max_ops d)
                deltas;
              Obs.Counter.add m_worker_ops !max_ops;
              let dt =
                Costmodel.stage_latency t.cfg.cost ~workers:w ~max_ops:!max_ops
                  ~pending_max_into:!pending_max_into
              in
              pending_bytes := 0;
              pending_max_into := 0;
              latency := !latency +. dt;
              if Obs.tracing () then begin
                Obs.set_attr "modeled_ms" (Printf.sprintf "%.6f" (dt *. 1e3));
                Obs.set_attr "max_worker_ops" (string_of_int !max_ops);
                Obs.set_attr "workers" (string_of_int w)
              end))
    pt.pblocks;
  (* account the batch into the registry, then read the record back *)
  Obs.Counter.add m_bytes_shuffled net.total_bytes;
  Obs.Counter.add m_stages !stages;
  Obs.Counter.incr m_batches;
  Obs.Counter.add m_driver_ops (Runtime.ops t.driver - driver_ops0);
  Obs.Counter.add m_worker_ops_all (Array.fold_left ( + ) 0 worker_ops);
  Obs.Histogram.observe h_latency !latency;
  Obs.Gauge.set g_workers (float_of_int w);
  Obs.Gauge.set g_last_latency !latency;
  Obs.Gauge.set g_max_bytes_per_worker
    (float_of_int (Array.fold_left max 0 net.into_node));
  Array.iteri
    (fun wi g -> Obs.Gauge.set g (float_of_int worker_ops.(wi)))
    t.worker_ops_gauges;
  if Obs.tracing () then begin
    Obs.set_attr "modeled_latency_ms" (Printf.sprintf "%.6f" (!latency *. 1e3));
    Obs.set_attr "stages" (string_of_int !stages);
    Obs.set_attr "bytes_shuffled" (string_of_int net.total_bytes);
    Obs.set_attr "tuples" (string_of_int (Gmr.cardinal batch))
  end;
  {
    latency = !latency;
    stages = Obs.Counter.value m_stages - stages0;
    bytes_shuffled = Obs.Counter.value m_bytes_shuffled - bytes0;
    max_bytes_per_worker = Array.fold_left max 0 net.into_node;
    max_worker_ops = Obs.Counter.value m_worker_ops - wops0;
    driver_ops = Obs.Counter.value m_driver_ops - dops0;
  }

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let map_contents t name =
  match Loc.find t.dprog.locs name with
  | Loc.Local -> Runtime.map_contents t.driver name
  | Loc.Replicated -> Runtime.map_contents t.nodes.(0) name
  | Loc.Dist _ | Loc.Random ->
      let out = Gmr.create () in
      Array.iter
        (fun rt -> Gmr.union_into out (Runtime.map_contents rt name))
        t.nodes;
      out

let result t qname =
  match List.assoc_opt qname t.dprog.base.queries with
  | Some m -> map_contents t m
  | None -> invalid_arg ("Cluster.result: unknown query " ^ qname)

(* Storage self-metrics for the driver and one representative worker
   (partitions are symmetric modulo hashing skew). *)
let storage_stats t =
  List.map
    (fun (n, s) -> ("driver/" ^ n, s))
    (Runtime.storage_stats t.driver)
  @
  if t.cfg.workers = 0 then []
  else
    List.map
      (fun (n, s) -> ("w0/" ^ n, s))
      (Runtime.storage_stats t.nodes.(0))

(* ------------------------------------------------------------------ *)
(* Fault tolerance                                                     *)
(* ------------------------------------------------------------------ *)

module Checkpoint = struct
  (* node -> (map name -> contents); index 0 is the driver, 1..W workers *)
  type snapshot = (string * (Vtuple.t * float) list) list array

  let save_file (s : snapshot) path =
    let oc = open_out_bin path in
    Marshal.to_channel oc s [];
    close_out oc

  let load_file path : snapshot =
    let ic = open_in_bin path in
    let s = (Marshal.from_channel ic : snapshot) in
    close_in ic;
    s

  let byte_size (s : snapshot) =
    Array.fold_left
      (fun acc node ->
        List.fold_left
          (fun acc (_, entries) ->
            List.fold_left
              (fun acc (tup, _) -> acc + Vtuple.byte_size tup + 8)
              acc entries)
          acc node)
      0 s
end

let snapshot_node rt maps =
  List.filter_map
    (fun (m : Prog.map_decl) ->
      match m.mkind with
      | Prog.Transient -> None
      | _ -> Some (m.mname, Gmr.to_list (Runtime.map_contents rt m.mname)))
    maps

let checkpoint t =
  let maps = t.dprog.base.maps in
  let snap =
    Array.init
      (1 + t.cfg.workers)
      (fun i ->
        if i = 0 then snapshot_node t.driver maps
        else snapshot_node t.nodes.(i - 1) maps)
  in
  (* Nodes serialize their partitions in parallel; the checkpoint barrier
     costs one sync round plus the slowest node's serialization. *)
  let max_node_bytes =
    Array.fold_left
      (fun acc node ->
        max acc
          (List.fold_left
             (fun a (_, entries) ->
               List.fold_left
                 (fun a (tup, _) -> a + Vtuple.byte_size tup + 8)
                 a entries)
             0 node))
      0 snap
  in
  let latency =
    Costmodel.checkpoint_latency t.cfg.cost ~workers:t.cfg.workers
      ~max_node_bytes
  in
  (snap, latency)

let restore_node rt node =
  List.iter
    (fun (name, entries) ->
      Runtime.clear_map rt name;
      List.iter (fun (tup, m) -> Runtime.add_to_map rt name tup m) entries)
    node

let restore t snap =
  restore_node t.driver snap.(0);
  Array.iteri (fun i rt -> restore_node rt snap.(i + 1)) t.nodes

let fail_worker t wi =
  List.iter
    (fun (m : Prog.map_decl) ->
      match m.mkind with
      | Prog.Transient -> ()
      | _ -> Runtime.clear_map t.nodes.(wi) m.mname)
    t.dprog.base.maps

let check_replicas t =
  List.iter
    (fun (m : Prog.map_decl) ->
      match Loc.find t.dprog.locs m.mname with
      | Loc.Replicated ->
          let ref_contents = Runtime.map_contents t.nodes.(0) m.mname in
          Array.iteri
            (fun wi rt ->
              if
                wi > 0
                && not (Gmr.equal ref_contents (Runtime.map_contents rt m.mname))
              then
                failwith
                  (Printf.sprintf "Cluster.check_replicas: %s diverges on worker %d"
                     m.mname wi))
            t.nodes
      | _ -> ())
    t.dprog.base.maps
