open Divm_storage
open Divm_compiler
open Divm_dist
open Divm_runtime
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Par = Divm_par.Par

type config = { workers : int; cost : Costmodel.t }

let config ?(workers = 50) ?(cost = Costmodel.default) () = { workers; cost }
let default_config = config ()

type stage_stat = {
  sname : string;
  predicted : float;
  measured : float;
  sbytes : int;
  swire : int;
  spwire : int;
  swalls : float array;
  slinks : (int * int * int) list;
}

type metrics = {
  latency : float;
  wall : float;
  stages : int;
  bytes_shuffled : int;
  wire_bytes : int;
  max_worker_ops : int;
  driver_ops : int;
  round_trips : int;
  stage_stats : stage_stat list;
}

type shuffle_stat = {
  ss_ser : int;
  ss_modeled : int array;
  ss_sent : int array;
  ss_wall : float;
}

(* ------------------------------------------------------------------ *)
(* Worker side, shared by both transports                              *)
(* ------------------------------------------------------------------ *)

(* The worker side's share of [divm_record_ops_total] ([Counter.make] is
   idempotent per name, so this is the runtime's own instrument). Workers
   run compiled blocks directly, never [Runtime.apply_batch], so under
   the profiler they fold their block op deltas in explicitly — keeping
   the invariant slot sums = registry deltas intact on the worker's own
   registry, and across processes after the coordinator's labeled merge. *)
let w_record_ops = Obs.Counter.make "divm_record_ops_total"

type worker = {
  wrt : Runtime.t;
  wblocks : (string * Runtime.blocks) list;
  wtransfers : (string * int array * string) array;
      (* shuffles name a transfer by its index here; every worker and the
         executor derive it from the same program *)
}

(* One serial runtime over the compute program (the executor's
   parallelism is one task or process per worker), the trigger's worker
   blocks compiled by the runtime's own planner. Block indexes line up
   with the executor's plan because both walk the same [Dprog.t]. *)
let worker_of rprog (dp : Dprog.t) =
  let rt = Runtime.create ~domains:1 rprog in
  {
    wrt = rt;
    wblocks =
      List.map
        (fun (tr : Dprog.dtrigger) ->
          ( tr.drelation,
            Runtime.compile_blocks rt ~rel:tr.drelation (Dprog.worker_blocks tr)
          ))
        dp.dtriggers;
    wtransfers = Dprog.transfers dp;
  }

let worker dp = worker_of (Dprog.compute_prog dp) dp

let blocks_of wk rel =
  match List.assoc_opt rel wk.wblocks with
  | Some b -> b
  | None -> invalid_arg ("no trigger for " ^ rel)

let transfer_of wk idx =
  if idx < 0 || idx >= Array.length wk.wtransfers then
    failwith
      (Printf.sprintf "transfer index %d out of range (%d transfers)" idx
         (Array.length wk.wtransfers));
  wk.wtransfers.(idx)

(* The one walk by which rows leave a pool, whoever sends them and
   wherever they go: a repartition's buffers, a scatter through the
   driver, a partition pulled to the driver. Walk the pool's live records
   once and list each destination's slots: a keyed row goes to its key
   columns' hash partition ([Colbatch.dest], where a keyed deal sends a
   batch row), and an empty key broadcasts it. A list bound for
   another node is transposed once into the column batch that travels;
   [self]'s list stays as slots of the pool (the driver, [self = -1],
   keeps none). Lists keep slot order, and a pool holds each tuple once,
   so nothing pre-sums. Every row must have the first row's arity. With
   [ledger], the walk also does the modeled byte accounting, by the cost
   model's rule: a tuple that stays on its origin worker is free. A cut
   nobody charges (a pull: the driver charges what it gathers itself)
   leaves [ser] and [modeled] at 0. *)
type partition = {
  peers : Colbatch.t array;
  own : Pool.t * Intvec.t;
  ser : int;
  modeled : int array;
}

let partition ~ledger ~self ~parts ~key name src =
  let slots = Array.init parts (fun _ -> Intvec.create ()) in
  let ser = ref 0 and modeled = Array.make parts 0 in
  let width = ref (-1) in
  let send d slot b =
    Intvec.push slots.(d) slot;
    if d <> self then modeled.(d) <- modeled.(d) + b
  in
  Pool.foreach_slot src (fun slot tup ->
      let wd = Array.length tup in
      if !width < 0 then width := wd
      else if wd <> !width then
        failwith
          (Printf.sprintf "map %s mixes rows of arity %d and %d" name !width wd);
      let b = if ledger then Costmodel.tuple_bytes tup else 0 in
      ser := !ser + b;
      if Array.length key = 0 then
        for d = 0 to parts - 1 do
          send d slot b
        done
      else send (Colbatch.dest ~key ~parts tup) slot b);
  let width = max 0 !width in
  let cols = Array.init width Fun.id in
  let batch d =
    let n = Intvec.length slots.(d) in
    if d = self || n = 0 then Colbatch.empty
    else
      Colbatch.of_iter ~cols ~width ~count:n (Pool.iter_slots src slots.(d))
  in
  {
    peers = Array.init parts batch;
    own = (src, if self < 0 then Intvec.create () else slots.(self));
    ser = !ser;
    modeled;
  }

(* A pool's live records, in slot order, as one batch: the partition
   walk's cut for one destination that is not the pool's node. *)
let contents name p =
  (partition ~ledger:false ~self:(-1) ~parts:1 ~key:[||] name p).peers.(0)

let pulled wk name = contents name (Runtime.map_pool wk.wrt name)

(* A batch enters a pool only at the pool's arity (an empty batch has
   none): a shorter key would enter the pool and break its slice
   indexes. Every batch that crossed between nodes is checked before its
   destination is cleared — a mesh buffer, a delivery, a gathered
   partition, a snapshot; [what] names it, its map and its sender. *)
let check_width p cb ~what =
  let want = Pool.key_width p in
  if Colbatch.length cb > 0 && Colbatch.width cb <> want then
    failwith
      (Printf.sprintf "%s has width %d, its destination arity %d" (what ())
         (Colbatch.width cb) want)

(* Ring-(+) a batch's rows into a pool in row order, hashing the typed
   cells in place; a key tuple is built only on first insert. *)
let merge_batch p cb =
  let cols = Array.init (Colbatch.width cb) (Colbatch.col cb) in
  let all = Array.init (Array.length cols) Fun.id and ms = Colbatch.mults cb in
  for i = 0 to Colbatch.length cb - 1 do
    Pool.add_by p
      ~hash:(Colbatch.row_hash cols all i)
      ~eq:(Colbatch.row_eq cols all i)
      ~make:(fun () -> Colbatch.row_tuple cols all i)
      ms.(i)
  done

(* Replace a map's contents with a batch the driver sent (a delivery,
   or a snapshot it restores, its own included): its rows in order, so a
   partition that crossed whole rebuilds its sender's slot order. *)
let replace rt name cb =
  let p = Runtime.map_pool rt name in
  check_width p cb ~what:(fun () -> "batch from the driver for map " ^ name);
  Pool.clear p;
  merge_batch p cb

(* ---- a run of direct transfers: cut, exchange, settle ---- *)

type cut = {
  cself : int;
  cparts : int;
  cidxs : int array;
  cuts : partition array; (* per transfer of the run *)
  walls : float array; (* per transfer: its cut and apply *)
}

let timed walls j f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  walls.(j) <- walls.(j) +. (Unix.gettimeofday () -. t0);
  r

let cut wk ~self ~parts idxs =
  let walls = Array.make (Array.length idxs) 0. in
  let part j idx =
    timed walls j (fun () ->
        let _, key, source = transfer_of wk idx in
        partition ~ledger:true ~self ~parts ~key source
          (Runtime.map_pool wk.wrt source))
  in
  { cself = self; cparts = parts; cidxs = idxs; cuts = Array.mapi part idxs; walls }

let outbound c =
  Array.init c.cparts (fun d -> Array.map (fun p -> p.peers.(d)) c.cuts)

(* The other half of a repartition. Every batch that arrived passes the
   width check first; then each transfer, in run order, replaces its
   destination partition with what every source sent it, in ascending
   source id — the worker's own slots replayed from the source pool with
   their cached hashes, every other source's batch merged in row order.
   One fixed order for the float association of cross-source collisions
   and for slot creation, whichever transport carried the batches. The
   own slots are read here, so no earlier transfer of the run may write
   this one's source: the run rule ({!Dprog.calls}) starts a new
   exchange at a transfer that reads a destination of the run. *)
let settle wk c ~received ~sent =
  let dst idx =
    let tname, _, _ = transfer_of wk idx in
    (tname, Runtime.map_pool wk.wrt tname)
  in
  Array.iteri
    (fun j idx ->
      let tname, p = dst idx in
      for s = 0 to c.cparts - 1 do
        if s <> c.cself then
          check_width p received.(s).(j) ~what:(fun () ->
              Printf.sprintf "mesh buffer from peer %d for transfer %d (%s)" s
                idx tname)
      done)
    c.cidxs;
  Array.mapi
    (fun j idx ->
      timed c.walls j (fun () ->
          let _, p = dst idx and src, slots = c.cuts.(j).own in
          Pool.clear p;
          for s = 0 to c.cparts - 1 do
            if s = c.cself then Pool.merge_slots p ~src slots
            else merge_batch p received.(s).(j)
          done);
      {
        ss_ser = c.cuts.(j).ser;
        ss_modeled = c.cuts.(j).modeled;
        ss_sent = Array.map (fun per -> per.(j)) sent;
        ss_wall = c.walls.(j);
      })
    c.cidxs

type request =
  | Run_block of string * int * Colbatch.t option * string array
  | Pull_map of string array
  | Deliver of string * Colbatch.t
  | Shuffle of int array

type reply =
  | Block_done of int * float * Colbatch.t array
  | Map_contents of Colbatch.t array
  | Ack
  | Shuffle_done of shuffle_stat array

let serve wk ~self ~parts ~exchange = function
  | Run_block (rel, bi, share, pulls) ->
      let blocks = blocks_of wk rel in
      Option.iter (fun s -> Runtime.set_batch wk.wrt blocks (Runtime.Share s)) share;
      let o0 = Runtime.ops wk.wrt and wall0 = Unix.gettimeofday () in
      Runtime.run_block wk.wrt blocks bi;
      let dops = Runtime.ops wk.wrt - o0 in
      if Prof.enabled () then Obs.Counter.add w_record_ops dops;
      let wall = Unix.gettimeofday () -. wall0 in
      Block_done (dops, wall, Array.map (pulled wk) pulls)
  | Pull_map names -> Map_contents (Array.map (pulled wk) names)
  | Deliver (name, cb) ->
      replace wk.wrt name cb;
      Ack
  | Shuffle idxs ->
      let c = cut wk ~self ~parts idxs in
      let t0 = Unix.gettimeofday () in
      let received, sent = exchange (outbound c) in
      if Array.length idxs > 0 then
        c.walls.(0) <- c.walls.(0) +. (Unix.gettimeofday () -. t0);
      Shuffle_done (settle wk c ~received ~sent)

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

type transport = {
  name : string;
  call : int array -> (int -> request) -> reply array;
  wire : unit -> int;
  after_stage : unit -> unit;
}

let in_process ~domains (nodes : worker array) =
  let w = Array.length nodes in
  let par = if domains > 1 then Some (Par.get ~domains) else None in
  let serve_on wi =
    serve nodes.(wi) ~self:wi ~parts:w ~exchange:(fun _ ->
        invalid_arg "Cluster: an in-process exchange cuts on every worker")
  in
  let call ws req =
    match req ws.(0) with
    | Shuffle idxs ->
        (* One process cannot wait inside a worker: every worker cuts the
           whole run before any settles — the order a worker process
           follows around its one exchange — and each settles with what
           the others cut for it. *)
        let cuts = Array.mapi (fun self wk -> cut wk ~self ~parts:w idxs) nodes in
        let out = Array.map outbound cuts in
        let sent = Array.make w (Array.make (Array.length idxs) 0) in
        Array.map
          (fun d ->
            Shuffle_done
              (settle nodes.(d) cuts.(d)
                 ~received:(Array.map (fun o -> o.(d)) out)
                 ~sent))
          ws
    | Run_block _ | Pull_map _ | Deliver _ ->
        (* Simulated workers own disjoint runtimes, so a stage is
           embarrassingly parallel; each task writes only its own cell.
           The profiler, span tracer and cachesim sink are single-writer,
           so while any of them is on the workers run serially. *)
        let out = Array.make (Array.length ws) Ack in
        let run i = out.(i) <- serve_on ws.(i) (req ws.(i)) in
        (match par with
        | Some pl
          when (not (Prof.enabled ()))
               && (not (Obs.tracing ()))
               && not (Trace.enabled ()) ->
            Par.Pool.run pl (Array.init (Array.length ws) (fun i () -> run i))
        | _ ->
            Array.iteri
              (fun i wi ->
                if Obs.tracing () then
                  Obs.span (Printf.sprintf "worker:%d" wi) (fun () -> run i)
                else run i)
              ws);
        out
  in
  { name = "cluster"; call; wire = (fun () -> 0); after_stage = ignore }

(* ------------------------------------------------------------------ *)
(* The executor                                                        *)
(* ------------------------------------------------------------------ *)

(* Where a transfer's source contents come from. *)
type route =
  | Fetched (* a gather: its stage's reply or its run's pull brought them *)
  | Mesh (* a direct worker-to-worker shuffle, in its run's exchange *)
  | Driver_bound (* pulled (or read on the driver) at its own step *)

type transfer = {
  tr : Dprog.transfer;
  tslot : int; (* profiler slot: shuffled bytes are charged here *)
  troute : route;
  tcross : int; (* socket crossings per shuffled byte, for the wire predictor *)
}

(* A trigger's steps ([Dprog.steps]), annotated for the executor. *)
type step =
  | Driver of int (* index into the plan's driver blocks *)
  | Move of transfer
  | Stage of int * int * string (* block index, profiler slot, label *)

(* The transport call a step makes, for itself and for the later steps
   of its [Dprog.calls] entry. *)
type call =
  | No_call
  | Fetch of string array * int array
      (* the sources of these gathers (a stage's [pulls], else one
         [Pull_map]), and the gathers' step positions *)
  | Exchange of int array * int array
      (* one [Shuffle] of these [Dprog.transfers] entries, and the
         transfers' step positions *)

type plan = {
  steps : step array;
  calls : call array; (* per step *)
  driver : Runtime.blocks; (* [Dprog.driver_blocks], on the driver *)
  scatter : Runtime.scatter option; (* share layout; [None]: no Δ read *)
  deal : int option; (* the column shares are dealt on; [None]: round-robin *)
}

(* Registry instruments of one executor, named after its transport. The
   per-batch metrics record is a view over them: each batch is accounted
   into the counters first and the record is read back as the deltas, so
   `--metrics` totals and per-batch records can never disagree. *)
type instruments = {
  bytes_shuffled : Obs.Counter.t;
  wire_bytes : Obs.Counter.t;
  stages : Obs.Counter.t;
  batches : Obs.Counter.t;
  max_worker_ops : Obs.Counter.t;
  worker_ops : Obs.Counter.t;
  driver_ops : Obs.Counter.t;
  scatter_wire : Obs.Counter.t;
      (* registered here for the family; the socket transport adds the
         frames that carry the shares *)
  scattered : Obs.Counter.t;
  round_trips : Obs.Counter.t;
  latency : Obs.Histogram.t; (* modeled *)
  last_latency : Obs.Gauge.t;
  g_workers : Obs.Gauge.t;
  wops : Obs.Counter.t array; (* *_worker_ops_total{worker=i} *)
  wstage : Obs.Histogram.t array; (* *_stage_seconds{worker=i} *)
  links : (int * int, Obs.Counter.t) Hashtbl.t;
      (* *_mesh_bytes_total{src,dst}, registered on first traffic *)
}

(* Straggler detector: max/median worker wall per distributed stage. A
   perfectly balanced stage lands in the first bucket; the tail buckets
   say one worker ran several times longer than the typical one. *)
let h_straggler =
  Obs.Histogram.make
    ~buckets:[| 1.0; 1.05; 1.1; 1.25; 1.5; 2.0; 3.0; 5.0; 10.0 |]
    "divm_stage_straggler_ratio"

let instruments name w =
  let fam s = Printf.sprintf "divm_%s_%s" name s in
  let c s = Obs.Counter.make (fam s) in
  let lbl s wi = Obs.with_labels (fam s) [ ("worker", string_of_int wi) ] in
  {
    bytes_shuffled = c "bytes_shuffled_total";
    wire_bytes = c "wire_bytes_total";
    stages = c "stages_total";
    batches = c "batches_total";
    max_worker_ops = c "max_worker_ops_total";
    worker_ops = c "worker_ops_total";
    driver_ops = c "driver_ops_total";
    scatter_wire = c "scatter_wire_bytes_total";
    scattered = c "scattered_tuples_total";
    round_trips = c "round_trips_total";
    latency = Obs.Histogram.make (fam "batch_latency_seconds");
    last_latency = Obs.Gauge.make (fam "last_latency_seconds");
    g_workers = Obs.Gauge.make (fam "workers");
    wops =
      Array.init w (fun wi -> Obs.Counter.make (lbl "worker_ops_total" wi));
    wstage =
      Array.init w (fun wi -> Obs.Histogram.make (lbl "stage_seconds" wi));
    links = Hashtbl.create 16;
  }

type t = {
  workers : int;
  cost : Costmodel.t;
  dprog : Dprog.t;
  driver : Runtime.t;
  plans : (string * plan) list;
  delta_at_workers : bool;
  tp : transport;
  local : worker array; (* the in-process workers; empty for remote ones *)
  m : instruments;
}

let workers t = t.workers
let all_workers t = Array.init t.workers Fun.id

(* How many times a shuffled byte crosses a socket, feeding the a-priori
   wire predictor. A shuffle ships direct: one crossing per remote
   destination (a keyed repartition keeps ~1/w of the bytes home, which
   the per-byte estimate rounds to one crossing). A driver-bound
   transfer pulls a remote source once, then delivers once per
   destination (a broadcast fans out to every worker). *)
let crossings locs ~workers ~mesh (tr : Dprog.transfer) =
  let fanout =
    if Array.length tr.key = 0 && tr.tkind <> Dprog.Gather then workers else 1
  in
  if mesh then max 1 (fanout - 1)
  else
    match tr.tkind with
    | Dprog.Gather -> 1
    | Dprog.Scatter | Dprog.Repart ->
        (if Loc.find locs tr.source = Loc.Local then 0 else 1) + fanout

let make ~cost ~workers ~local tp (dp : Dprog.t) =
  let m = instruments tp.name workers in
  (* The driver never fires whole triggers, but the compute statements
     of the distributed program (with their transfer-renamed map
     references) must be visible to the access-pattern analysis so the
     pools get their slice indexes. *)
  let rprog = Dprog.compute_prog dp in
  let driver = Runtime.create ~domains:1 rprog in
  let transfers = Dprog.transfers dp in
  let transfer_index (tr : Dprog.transfer) =
    let rec go i =
      if i >= Array.length transfers then
        invalid_arg "Cluster: transfer missing from Dprog.transfers"
      else if transfers.(i) = (tr.tname, tr.key, tr.source) then i
      else go (i + 1)
    in
    go 0
  in
  let compile (dtr : Dprog.dtrigger) =
    let trigger = dtr.drelation in
    let dsteps = Dprog.steps dtr in
    let moved p =
      match dsteps.(p) with
      | Dprog.Move tr -> tr
      | Dprog.Driver _ | Dprog.Stage _ -> invalid_arg "Cluster: call on a non-transfer"
    in
    let calls = Array.make (Array.length dsteps) No_call in
    let route = Array.make (Array.length dsteps) Driver_bound in
    let fetch at ps =
      List.iter (fun p -> route.(p) <- Fetched) ps;
      calls.(at) <-
        Fetch
          ( Array.of_list (List.map (fun p -> (moved p).source) ps),
            Array.of_list ps )
    in
    List.iter
      (function
        | Dprog.Run (s, ps) -> fetch s ps
        | Dprog.Pull (p :: _ as ps) -> fetch p ps
        | Dprog.Exchange (p :: _ as ps) ->
            List.iter (fun p -> route.(p) <- Mesh) ps;
            calls.(p) <-
              Exchange
                ( Array.of_list (List.map (fun p -> transfer_index (moved p)) ps),
                  Array.of_list ps )
        | Dprog.Pull [] | Dprog.Exchange [] | Dprog.Via_driver _ -> ())
      (Dprog.calls dp.locs dsteps);
    let nstages = ref 0 in
    let steps =
      Array.mapi
        (fun i -> function
          | Dprog.Driver di -> Driver di
          | Dprog.Stage bi ->
              incr nstages;
              let label = Printf.sprintf "stage:%d" !nstages in
              Stage (bi, Prof.slot ~trigger ~label, label)
          | Dprog.Move tr ->
              let mesh = route.(i) = Mesh in
              Move
                {
                  tr;
                  tslot = Prof.slot ~trigger ~label:("transfer:" ^ tr.tname);
                  troute = route.(i);
                  tcross = crossings dp.locs ~workers ~mesh tr;
                })
        dsteps
    in
    let runs = Dprog.driver_blocks dtr in
    assert (
      List.length runs
      = Array.fold_left
          (fun n -> function Driver _ -> n + 1 | Move _ | Stage _ -> n)
          0 steps);
    let scatter =
      Runtime.scatter_plan rprog ~rel:trigger (Dprog.worker_blocks dtr)
    in
    (* the batch share rides the first stage's [Run_block] *)
    assert (scatter = None || !nstages > 0);
    ( trigger,
      {
        steps;
        calls;
        driver = Runtime.compile_blocks driver ~rel:trigger runs;
        scatter;
        deal = dtr.deal;
      } )
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
  {
    workers;
    cost;
    dprog = dp;
    driver;
    plans = List.map compile dp.dtriggers;
    delta_at_workers;
    tp;
    local;
    m;
  }

let of_transport ~cost ~workers tp dp = make ~cost ~workers ~local:[||] tp dp

let create ?(config = default_config) ?domains (dp : Dprog.t) =
  if config.workers < 1 then invalid_arg "Cluster.create: workers must be >= 1";
  let domains =
    match domains with Some d -> max 1 d | None -> Par.default_domains ()
  in
  let rprog = Dprog.compute_prog dp in
  let local = Array.init config.workers (fun _ -> worker_of rprog dp) in
  make ~cost:config.cost ~workers:config.workers ~local
    (in_process ~domains local) dp

let request_name = function
  | Run_block (rel, bi, _, pulls) ->
      Printf.sprintf "Run_block %s/%d pulling %d maps" rel bi (Array.length pulls)
  | Pull_map names -> Printf.sprintf "Pull_map of %d maps" (Array.length names)
  | Deliver (name, _) -> "Deliver " ^ name
  | Shuffle idxs -> Printf.sprintf "Shuffle of %d transfers" (Array.length idxs)

let reply_name = function
  | Block_done (_, _, cbs) ->
      Printf.sprintf "Block_done with %d maps" (Array.length cbs)
  | Map_contents cbs -> Printf.sprintf "Map_contents of %d maps" (Array.length cbs)
  | Ack -> "Ack"
  | Shuffle_done sts ->
      Printf.sprintf "Shuffle_done of %d transfers" (Array.length sts)

(* One round trip, counted here so both transports count alike: [req wi]
   to each worker [wi] of [ws], then every reply through [expect], which
   takes only the reply its request asks for (one map per pulled map,
   one stat per transfer). Any other reply fails the call, naming the
   worker and its request, before any reply is used. *)
let call t ws req expect =
  Obs.Counter.incr t.m.round_trips;
  Array.mapi
    (fun i r ->
      match expect r with
      | Some v -> v
      | None ->
          failwith
            (Printf.sprintf "Cluster: worker %d answered %s with %s" ws.(i)
               (request_name (req ws.(i)))
               (reply_name r)))
    (t.tp.call ws req)

let run t ~rel bi ~share ~pulls =
  let n = Array.length pulls in
  call t (all_workers t)
    (fun wi -> Run_block (rel, bi, Option.map (fun s -> s.(wi)) share, pulls))
    (function
      | Block_done (ops, wall, cbs) when Array.length cbs = n -> Some (ops, wall, cbs)
      | _ -> None)

let pull t names ws =
  let n = Array.length names and r = Pull_map names in
  call t ws (fun _ -> r) (function
    | Map_contents cbs when Array.length cbs = n -> Some cbs
    | _ -> None)

let deliver t ws name batch =
  ignore
    (call t ws
       (fun wi -> Deliver (name, batch wi))
       (function Ack -> Some () | _ -> None))

let exchange t idxs =
  let n = Array.length idxs and r = Shuffle idxs in
  call t (all_workers t) (fun _ -> r) (function
    | Shuffle_done sts when Array.length sts = n -> Some sts
    | _ -> None)

(* Modeled bytes moved by one batch's transfers. *)
type net = {
  mutable total : int;
  into_node : int array; (* bytes received per worker *)
  mutable into_driver : int;
}

let max_into net = Array.fold_left max net.into_driver net.into_node

let charge net ~origin ~dst b =
  if origin <> dst then begin
    net.total <- net.total + b;
    if dst < 0 then net.into_driver <- net.into_driver + b
    else net.into_node.(dst) <- net.into_node.(dst) + b
  end

(* A gather replaces the driver's map with every source batch, in
   ascending origin order, once every batch passed the width check. One
   pass per batch charges each row to the ledger and upserts it: a cell
   is boxed once, and a key is copied only on insert. Returns the modeled
   serialized bytes. *)
let gather t net name sources =
  let p = Runtime.map_pool t.driver name in
  Array.iter
    (fun (origin, cb) ->
      check_width p cb ~what:(fun () ->
          Printf.sprintf "batch gathered from %s for map %s"
            (if origin < 0 then "the driver"
             else Printf.sprintf "worker %d" origin)
            name))
    sources;
  Pool.clear p;
  let ser = ref 0 in
  Array.iter
    (fun (origin, cb) ->
      Colbatch.iter_rows cb (fun tup m ->
          let b = Costmodel.tuple_bytes tup in
          ser := !ser + b;
          charge net ~origin ~dst:(-1) b;
          Pool.add_borrow p tup m))
    sources;
  !ser

(* A transfer through the driver reads its source where it lives: the
   driver's own pool (origin -1) or, for a replicated map, worker 0's
   copy (origin -2), put in a scratch pool so that a scatter can cut it.
   A gather fills the driver's map; a scatter cuts the source by
   destination in the partition walk and delivers each worker its batch.
   ({!Dprog.calls} fetches every other gather and exchanges every other
   transfer between the workers.) Returns the modeled serialized bytes. *)
let via_driver t net (tr : Dprog.transfer) =
  let origin, src =
    match Loc.find t.dprog.locs tr.source with
    | Loc.Local -> (-1, Runtime.map_pool t.driver tr.source)
    | Loc.Replicated ->
        let cb = (pull t [| tr.source |] [| 0 |]).(0).(0) in
        let p = Pool.create ~key_width:(Colbatch.width cb) ~slices:[] () in
        merge_batch p cb;
        (-2, p)
    | Loc.Dist _ | Loc.Random ->
        invalid_arg ("Cluster: no route for transfer " ^ tr.tname)
  in
  if tr.tkind = Dprog.Gather then
    gather t net tr.tname [| (origin, contents tr.source src) |]
  else begin
    let p =
      partition ~ledger:true ~self:(-1) ~parts:t.workers ~key:tr.key tr.source
        src
    in
    Array.iteri (fun d b -> charge net ~origin ~dst:d b) p.modeled;
    deliver t (all_workers t) tr.tname (Array.get p.peers);
    p.ser
  end

let link_counter t src dst =
  match Hashtbl.find_opt t.m.links (src, dst) with
  | Some c -> c
  | None ->
      let c =
        Obs.Counter.make
          (Obs.with_labels
             (Printf.sprintf "divm_%s_mesh_bytes_total" t.tp.name)
             [ ("src", string_of_int src); ("dst", string_of_int dst) ])
      in
      Hashtbl.add t.m.links (src, dst) c;
      c

(* The ledger of one direct shuffle, from every worker's stat for it:
   each worker partitioned, exchanged and applied on its own, and
   reported the modeled bytes by the same origin-is-free rule as the
   driver's transfers, so the ledger — and every modeled latency
   downstream — is the same whichever transport ran it. Payload bytes a
   transport put on sockets arrive in [ss_sent] and land on the per-link
   counters. Returns (modeled ser bytes, per-worker walls, (src, dst,
   wire bytes) per active link). *)
let shuffle t net stats =
  let w = t.workers in
  let ser = ref 0 in
  let links = ref [] in
  Array.iteri
    (fun src st ->
      if Array.length st.ss_modeled <> w || Array.length st.ss_sent <> w then
        failwith
          (Printf.sprintf
             "Cluster: worker %d: shuffle stat arity mismatch (%d/%d \
              destinations, %d workers)"
             src
             (Array.length st.ss_modeled)
             (Array.length st.ss_sent) w);
      ser := !ser + st.ss_ser;
      Array.iteri (fun dst b -> charge net ~origin:src ~dst b) st.ss_modeled;
      Array.iteri
        (fun dst b ->
          if dst <> src && b > 0 then begin
            Obs.Counter.add (link_counter t src dst) b;
            links := (src, dst, b) :: !links
          end)
        st.ss_sent)
    stats;
  (!ser, Array.map (fun st -> st.ss_wall) stats, List.rev !links)

let median sorted =
  let n = Array.length sorted in
  if n land 1 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* [per_worker.(wi).(j)] for call member [j], moved to [into.(positions.(j))]
   as one array over the workers. *)
let unpack into positions per_worker =
  for j = 0 to Array.length positions - 1 do
    into.(positions.(j)) <- Array.map (fun per -> per.(j)) per_worker
  done

let apply_batch t ~rel batch =
  let plan =
    match List.assoc_opt rel t.plans with
    | Some p -> p
    | None -> invalid_arg ("Cluster.apply_batch: no trigger for " ^ rel)
  in
  let w = t.workers and m = t.m and tp = t.tp in
  let now = Unix.gettimeofday in
  let batch_wall0 = now () in
  let wire0 = tp.wire () in
  (* registry state before this batch: the returned record is the delta *)
  let bytes0 = Obs.Counter.value m.bytes_shuffled in
  let stages0 = Obs.Counter.value m.stages in
  let max_ops0 = Obs.Counter.value m.max_worker_ops in
  let dops0 = Obs.Counter.value m.driver_ops in
  let rt0 = Obs.Counter.value m.round_trips in
  Obs.span (tp.name ^ ":" ^ rel) @@ fun () ->
  (* Deal the batch into column shares carrying only the columns the
     workers' blocks read, round-robin or on the trigger's deal column;
     it lives at the workers when the delta pre-aggregations do,
     otherwise the driver keeps it and workers that read Δ see none. The
     shares ride the first stage's call. *)
  let shares = ref None in
  (match plan.scatter with
  | Some sc ->
      let shipped = if t.delta_at_workers then batch else Gmr.create () in
      Obs.Counter.add m.scattered (Gmr.cardinal shipped);
      shares := Some (Runtime.deal sc ?key:plan.deal ~parts:w shipped)
  | None -> ());
  Runtime.set_batch t.driver plan.driver
    (Runtime.Rows (if t.delta_at_workers then Gmr.create () else batch));
  let net = { total = 0; into_node = Array.make w 0; into_driver = 0 } in
  let latency = ref 0. in
  let stages = ref 0 in
  let link_wire = ref 0 in
  let driver_ops0 = Runtime.ops t.driver in
  (* bytes into the busiest node since the last distributed stage, for
     the straggler factor *)
  let pending_max_into = ref 0 in
  let stats = ref [] in
  (* what a call brought for a later step of it, by step position:
     gathered partitions, and shuffle stats *)
  let fetched = Array.make (Array.length plan.steps) [||] in
  let exchanged = Array.make (Array.length plan.steps) [||] in
  let attr k fmt = Printf.ksprintf (Obs.set_attr k) fmt in
  Array.iteri
    (fun i -> function
      | Driver di -> Runtime.run_block t.driver plan.driver di
      | Move tr ->
          Obs.span ("transfer:" ^ tr.tr.tname) (fun () ->
              let wall0 = now () and tw0 = tp.wire () in
              let words0 = Gc.minor_words () in
              let bytes_before = net.total and before_max = max_into net in
              (match plan.calls.(i) with
              | Fetch (names, ps) ->
                  unpack fetched ps (pull t names (all_workers t))
              | Exchange (idxs, ps) -> unpack exchanged ps (exchange t idxs)
              | No_call -> ());
              let ser, walls, links =
                match tr.troute with
                | Mesh -> shuffle t net exchanged.(i)
                | Fetched ->
                    ( gather t net tr.tr.tname
                        (Array.mapi (fun wi cb -> (wi, cb)) fetched.(i)),
                      [||],
                      [] )
                | Driver_bound -> (via_driver t net tr.tr, [||], [])
              in
              fetched.(i) <- [||];
              let sent = List.fold_left (fun a (_, _, b) -> a + b) 0 links in
              link_wire := !link_wire + sent;
              let wall = now () -. wall0 in
              let bytes = net.total - bytes_before in
              let into = max_into net - before_max in
              if Prof.enabled () then
                Prof.add tr.tslot ~ops:0 ~probes:0 ~misses:0 ~scanned:0
                  ~svscan:0 ~svsel:0 ~bytes
                  ~words:(int_of_float (Gc.minor_words () -. words0))
                  ~wall;
              pending_max_into := max !pending_max_into into;
              let dt =
                Costmodel.transfer_latency t.cost ~ser_bytes:ser ~max_into:into
              in
              latency := !latency +. dt;
              stats :=
                {
                  sname = "transfer:" ^ tr.tr.tname;
                  predicted = dt;
                  measured = wall;
                  sbytes = bytes;
                  swire = tp.wire () - tw0 + sent;
                  spwire =
                    Costmodel.predicted_wire_bytes ~crossings:tr.tcross
                      ~workers:w ~ser_bytes:ser;
                  swalls = walls;
                  slinks = links;
                }
                :: !stats;
              if Obs.tracing () then begin
                attr "modeled_ms" "%.6f" (dt *. 1e3);
                attr "measured_ms" "%.6f" (wall *. 1e3);
                attr "kind" "%s"
                  (match tr.tr.tkind with
                  | Dprog.Gather -> "gather"
                  | Dprog.Scatter -> "scatter"
                  | Dprog.Repart -> "repart");
                attr "bytes" "%d" bytes
              end)
      | Stage (bi, slot, label) ->
          incr stages;
          Obs.span label (fun () ->
              let wall0 = now () and tw0 = tp.wire () in
              let words0 = Gc.minor_words () in
              let replies =
                run t ~rel bi ~share:!shares
                  ~pulls:
                    (match plan.calls.(i) with
                    | Fetch (names, _) -> names
                    | No_call | Exchange _ -> [||])
              in
              shares := None;
              (match plan.calls.(i) with
              | Fetch (_, ps) ->
                  unpack fetched ps (Array.map (fun (_, _, cbs) -> cbs) replies)
              | No_call | Exchange _ -> ());
              let wall = now () -. wall0 in
              let walls = Array.map (fun (_, wl, _) -> wl) replies in
              let ops = ref 0 and max_ops = ref 0 in
              Array.iteri
                (fun wi (d, wl, _) ->
                  Obs.Counter.add m.wops.(wi) d;
                  Obs.Histogram.observe m.wstage.(wi) wl;
                  ops := !ops + d;
                  max_ops := max !max_ops d)
                replies;
              Obs.Counter.add m.worker_ops !ops;
              Obs.Counter.add m.max_worker_ops !max_ops;
              (* Straggler ratio over the workers' own measured walls —
                 transport turnaround excluded, so a loaded coordinator
                 does not read as a slow worker. *)
              (if w > 1 then
                 let sorted = Array.copy walls in
                 Array.sort compare sorted;
                 let med = median sorted in
                 if med > 0. then
                   Obs.Histogram.observe h_straggler (sorted.(w - 1) /. med));
              if Prof.enabled () then
                Prof.add slot ~ops:!ops ~probes:0 ~misses:0 ~scanned:0
                  ~svscan:0 ~svsel:0 ~bytes:0
                  ~words:(int_of_float (Gc.minor_words () -. words0))
                  ~wall;
              (* The modeled time is a pure function of the per-worker op
                 counts, so it is the same at any domain count and on
                 either transport. *)
              let dt =
                Costmodel.stage_latency t.cost ~workers:w ~max_ops:!max_ops
                  ~pending_max_into:!pending_max_into
              in
              pending_max_into := 0;
              latency := !latency +. dt;
              stats :=
                {
                  sname = label;
                  predicted = dt;
                  measured = wall;
                  sbytes = 0;
                  swire = tp.wire () - tw0;
                  spwire = 0;
                  swalls = walls;
                  slinks = [];
                }
                :: !stats;
              if Obs.tracing () then begin
                attr "modeled_ms" "%.6f" (dt *. 1e3);
                attr "measured_ms" "%.6f" (wall *. 1e3);
                attr "max_worker_ops" "%d" !max_ops;
                attr "workers" "%d" w
              end);
          (* outside the stage span, so e.g. telemetry pulls never
             pollute the stage's wire/wall accounting *)
          tp.after_stage ())
    plan.steps;
  (* account the batch into the registry, then read the record back *)
  let wire = tp.wire () - wire0 + !link_wire in
  Obs.Counter.add m.bytes_shuffled net.total;
  Obs.Counter.add m.wire_bytes wire;
  Obs.Counter.add m.stages !stages;
  Obs.Counter.incr m.batches;
  Obs.Counter.add m.driver_ops (Runtime.ops t.driver - driver_ops0);
  Obs.Histogram.observe m.latency !latency;
  Obs.Gauge.set m.last_latency !latency;
  Obs.Gauge.set m.g_workers (float_of_int w);
  if Obs.tracing () then begin
    attr "modeled_latency_ms" "%.6f" (!latency *. 1e3);
    attr "stages" "%d" !stages;
    attr "bytes_shuffled" "%d" net.total;
    attr "wire_bytes" "%d" wire;
    attr "round_trips" "%d" (Obs.Counter.value m.round_trips - rt0);
    attr "tuples" "%d" (Gmr.cardinal batch)
  end;
  {
    latency = !latency;
    wall = now () -. batch_wall0;
    stages = Obs.Counter.value m.stages - stages0;
    bytes_shuffled = Obs.Counter.value m.bytes_shuffled - bytes0;
    wire_bytes = wire;
    max_worker_ops = Obs.Counter.value m.max_worker_ops - max_ops0;
    driver_ops = Obs.Counter.value m.driver_ops - dops0;
    round_trips = Obs.Counter.value m.round_trips - rt0;
    stage_stats = List.rev !stats;
  }

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let map_contents t name =
  match Loc.find t.dprog.locs name with
  | Loc.Local -> Runtime.map_contents t.driver name
  | Loc.Replicated -> Colbatch.to_gmr (pull t [| name |] [| 0 |]).(0).(0)
  | Loc.Dist _ | Loc.Random ->
      let out = Gmr.create () in
      Array.iter
        (fun cbs -> Colbatch.iter_rows cbs.(0) (Gmr.add_borrow out))
        (pull t [| name |] (all_workers t));
      out

let result t qname =
  match List.assoc_opt qname t.dprog.base.queries with
  | Some m -> map_contents t m
  | None -> invalid_arg ("Cluster.result: unknown query " ^ qname)

(* Storage self-metrics for the driver and, when the workers live in
   this process, one representative worker (partitions are symmetric
   modulo hashing skew). *)
let storage_stats t =
  List.map (fun (n, s) -> ("driver/" ^ n, s)) (Runtime.storage_stats t.driver)
  @
  if Array.length t.local = 0 then []
  else
    List.map
      (fun (n, s) -> ("w0/" ^ n, s))
      (Runtime.storage_stats t.local.(0).wrt)

let check_placement t =
  let fail fmt = Printf.ksprintf failwith ("Cluster.check_placement: " ^^ fmt) in
  let parts name = pull t [| name |] (all_workers t) in
  List.iter
    (fun (m : Prog.map_decl) ->
      match Loc.find t.dprog.locs m.mname with
      | Loc.Replicated ->
          let parts = parts m.mname in
          let first = Colbatch.to_gmr parts.(0).(0) in
          Array.iteri
            (fun wi cbs ->
              if not (Gmr.equal first (Colbatch.to_gmr cbs.(0))) then
                fail "%s diverges on worker %d" m.mname wi)
            parts
      | Loc.Dist key ->
          Array.iteri
            (fun wi cbs ->
              Colbatch.iter_rows cbs.(0) (fun row _ ->
                  let d = Colbatch.dest ~key ~parts:t.workers row in
                  if d <> wi then
                    fail "%s holds %s on worker %d; its key hashes to worker %d"
                      m.mname (Divm_ring.Vtuple.to_string row) wi d))
            (parts m.mname)
      | Loc.Local | Loc.Random -> ())
    t.dprog.base.maps

(* ------------------------------------------------------------------ *)
(* Fault tolerance                                                     *)
(* ------------------------------------------------------------------ *)

module Checkpoint = struct
  (* node -> (map name -> contents in slot order); index 0 is the
     driver, 1..W workers *)
  type snapshot = (string * Colbatch.t) list array

  let save_file (s : snapshot) path =
    let oc = open_out_bin path in
    Marshal.to_channel oc s [];
    close_out oc

  let load_file path : snapshot =
    let ic = open_in_bin path in
    let s = (Marshal.from_channel ic : snapshot) in
    close_in ic;
    s

  let node_bytes node =
    let n = ref 0 in
    List.iter
      (fun (_, cb) ->
        Colbatch.iter_rows cb (fun tup _ -> n := !n + Costmodel.tuple_bytes tup))
      node;
    !n

  let byte_size (s : snapshot) =
    Array.fold_left (fun acc node -> acc + node_bytes node) 0 s
end

let persistent_maps t =
  List.filter_map
    (fun (m : Prog.map_decl) ->
      if m.mkind = Prog.Transient then None else Some m.mname)
    t.dprog.base.maps

let checkpoint t =
  let maps = persistent_maps t in
  (* one map per call, so no frame holds more than one map's contents *)
  let pulled = List.map (fun n -> (n, pull t [| n |] (all_workers t))) maps in
  let snap =
    Array.init (1 + t.workers) (fun i ->
        if i = 0 then
          List.map (fun n -> (n, contents n (Runtime.map_pool t.driver n))) maps
        else List.map (fun (n, parts) -> (n, parts.(i - 1).(0))) pulled)
  in
  (* Nodes serialize their partitions in parallel; the checkpoint barrier
     costs one sync round plus the slowest node's serialization. *)
  let max_node_bytes =
    Array.fold_left (fun a node -> max a (Checkpoint.node_bytes node)) 0 snap
  in
  ( snap,
    Costmodel.checkpoint_latency t.cost ~workers:t.workers ~max_node_bytes )

(* Every pool gets its checkpointed rows back in their slot order: the
   driver's merged here, the workers' delivered. *)
let restore t (snap : Checkpoint.snapshot) =
  List.iter (fun (name, cb) -> replace t.driver name cb) snap.(0);
  List.iter
    (fun (name, _) ->
      deliver t (all_workers t) name (fun wi -> List.assoc name snap.(wi + 1)))
    snap.(1)

(* The failed worker alone is addressed: every survivor keeps its pools,
   free slots included. *)
let fail_worker t wi =
  List.iter
    (fun name -> deliver t [| wi |] name (fun _ -> Colbatch.empty))
    (persistent_maps t)
