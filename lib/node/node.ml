open Divm_storage
open Divm_dist
open Divm_runtime
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Par = Divm_par.Par

(* Registry instruments, mirroring the simulator's so `--metrics` and
   Profile.reconcile treat both backends uniformly. *)
let m_bytes_shuffled = Obs.Counter.make "divm_node_bytes_shuffled_total"
let m_wire_bytes = Obs.Counter.make "divm_node_wire_bytes_total"
let m_stages = Obs.Counter.make "divm_node_stages_total"
let m_batches = Obs.Counter.make "divm_node_batches_total"
let m_worker_ops = Obs.Counter.make "divm_node_worker_ops_total"

(* The batch-scatter layer on its own: socket bytes of the share frames
   and their acks, and the tuples those shares carried. Deterministic for
   a given stream, so their ratio is a CI-checkable layer cost. *)
let m_scatter_wire = Obs.Counter.make "divm_node_scatter_wire_bytes_total"
let m_scatter_tuples = Obs.Counter.make "divm_node_scattered_tuples_total"
let m_driver_ops = Obs.Counter.make "divm_node_driver_ops_total"
let g_workers = Obs.Gauge.make "divm_node_workers"

(* Straggler detector: max/median worker wall per distributed stage. A
   perfectly balanced stage lands in the first bucket; the tail buckets
   say one worker ran several times longer than the typical one. *)
let h_straggler =
  Obs.Histogram.make
    ~buckets:[| 1.0; 1.05; 1.1; 1.25; 1.5; 2.0; 3.0; 5.0; 10.0 |]
    "divm_stage_straggler_ratio"

(* The worker side's share of [divm_record_ops_total] ([Counter.make] is
   idempotent per name, so in-process this is the runtime's own
   instrument). Workers fold their op deltas in explicitly — they run
   compiled blocks directly, never [Runtime.apply_batch] — which
   keeps the profiler invariant (slot sums = registry deltas) intact on
   the worker's own registry, and therefore on the coordinator's after
   the labeled merge. *)
let w_record_ops = Obs.Counter.make "divm_record_ops_total"

(* How transfer payloads travel between workers: [Star] relays every
   byte through the coordinator (two socket hops per payload byte),
   [Mesh] ships worker-to-worker over a full connection mesh and leaves
   the coordinator as the barrier/ack control plane. *)
type topology = Star | Mesh

type config = {
  workers : int;
  cost : Costmodel.t;
  socket_dir : string option;
  worker_exe : string option;
  shuffle : topology;
}

let config ?(workers = 2) ?(cost = Costmodel.default) ?socket_dir ?worker_exe
    ?(shuffle = Mesh) () =
  { workers; cost; socket_dir; worker_exe; shuffle }

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
  stage_stats : stage_stat list;
}

let ignore_sigpipe () =
  (* A worker dying mid-write must surface as EPIPE, not kill the
     coordinator. *)
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> ()

(* -------------------------------------------------------------- *)
(* Worker side                                                     *)
(* -------------------------------------------------------------- *)

type wstate = {
  wrt : Runtime.t;
  wblocks : (string * Runtime.blocks) list;
  wtransfers : (string * int array * string) array;
      (* the coordinator's Shuffle frames index into this; both sides
         derive it from the identical marshaled program *)
}

let build_wstate (dp : Dprog.t) =
  (* Same compilation path as the simulator's nodes: one serial runtime
     over the compute program, the trigger's worker blocks compiled by
     the runtime's own planner. The block indexes line up with the
     coordinator's plan because both walk the identical marshaled
     [Dprog.t]. *)
  let rt = Runtime.create ~domains:1 (Dprog.compute_prog dp) in
  let wblocks =
    List.map
      (fun (tr : Dprog.dtrigger) ->
        ( tr.drelation,
          Runtime.compile_blocks rt ~rel:tr.drelation (Dprog.worker_blocks tr) ))
      dp.dtriggers
  in
  { wrt = rt; wblocks; wtransfers = Dprog.transfers dp }

let wblocks s rel =
  match List.assoc_opt rel s.wblocks with
  | Some b -> b
  | None -> failwith ("divm_node worker: no trigger for " ^ rel)

(* Baseline registry snapshot for the worker's telemetry deltas: each
   [Pull_telemetry] ships [diff] against this and advances it. *)
let w_last_snap = ref []

(* Everything observed since the last pull: registry delta (zero entries
   dropped — a worker registers instruments it never touches), nonzero
   profiler slots, completed spans. Slots and spans reset so the next
   pull starts clean; the snapshot baseline advances. *)
let collect_telemetry () =
  let now = Unix.gettimeofday () in
  let later = Obs.snapshot () in
  let delta = Obs.diff ~later ~earlier:!w_last_snap in
  w_last_snap := later;
  let interesting (_, v) =
    match (v : Obs.value) with
    | Obs.VCounter c -> c <> 0
    | Obs.VGauge g -> g <> 0.
    | Obs.VHistogram h -> h.count <> 0
  in
  let slots =
    List.filter (fun (r : Prof.row) -> r.r_firings <> 0) (Prof.rows ())
  in
  Prof.reset ();
  let spans = Obs.events () in
  Obs.clear_events ();
  {
    Protocol.t_now = now;
    t_snap = List.filter interesting delta;
    t_slots = slots;
    t_spans = spans;
  }

(* ---- worker-to-worker mesh (the direct shuffle data plane) ---- *)

(* Mesh state, built by the coordinator's [Peers]/[Mesh_connect]
   handshake: one connected socket per peer worker, indexed by peer id
   ([None] at our own index). *)
type wmesh = {
  mself : int;
  mpaths : string array;
  mutable mlisten : Unix.file_descr option;
  mpeers : Unix.file_descr option array;
}

let mesh_bind ~id paths =
  let w = Array.length paths in
  if id < 0 || id >= w then
    failwith "divm_node worker: Peers does not cover this worker's id";
  let mlisten =
    (* Only acceptors need a listener: worker [i] accepts from every
       higher id and initiates to every lower one. *)
    if id < w - 1 then begin
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.unlink paths.(id) with _ -> ());
      Unix.bind fd (Unix.ADDR_UNIX paths.(id));
      Unix.listen fd w;
      Some fd
    end
    else None
  in
  { mself = id; mpaths = paths; mlisten; mpeers = Array.make w None }

(* Establish the full mesh: initiate to every lower id, accept from
   every higher one. A Unix-domain [connect] completes as soon as the
   target's listen backlog takes it, whether or not the target has
   reached its own accept loop — so the fixed initiate-then-accept order
   cannot deadlock, whatever order the coordinator's [Mesh_connect]
   frames land in. *)
let mesh_connect m =
  let w = Array.length m.mpaths in
  for j = 0 to m.mself - 1 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec conn tries =
      try Unix.connect fd (Unix.ADDR_UNIX m.mpaths.(j))
      with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.05;
        conn (tries - 1)
    in
    conn 100;
    ignore (Protocol.write_msg fd (Protocol.Hello m.mself));
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120. with _ -> ());
    m.mpeers.(j) <- Some fd
  done;
  (match m.mlisten with
  | None -> ()
  | Some lfd ->
      (* Higher ids arrive in arbitrary order; the Hello identifies each. *)
      for _ = m.mself + 1 to w - 1 do
        (match Unix.select [ lfd ] [] [] 30. with
        | [], _, _ ->
            failwith "divm_node worker: mesh peer did not connect within 30s"
        | _ -> ());
        let fd, _ = Unix.accept lfd in
        match Protocol.read_msg fd with
        | Protocol.Hello j, _ when j > m.mself && j < w && m.mpeers.(j) = None
          ->
            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120. with _ -> ());
            m.mpeers.(j) <- Some fd
        | _ -> failwith "divm_node worker: bad mesh handshake"
      done;
      (try Unix.close lfd with _ -> ());
      (try Unix.unlink m.mpaths.(m.mself) with _ -> ());
      m.mlisten <- None)

let mesh_close m =
  (match m.mlisten with
  | Some fd ->
      (try Unix.close fd with _ -> ());
      (try Unix.unlink m.mpaths.(m.mself) with _ -> ())
  | None -> ());
  m.mlisten <- None;
  Array.iteri
    (fun i p ->
      match p with
      | Some fd ->
          (try Unix.close fd with _ -> ());
          m.mpeers.(i) <- None
      | None -> ())
    m.mpeers

(* Full exchange: one frame out to every peer, one frame in from every
   peer, over a single non-blocking select loop that interleaves sends
   with receives. Every worker keeps draining its receive side while its
   own sends are in flight, so a peer blocked on a full socket buffer is
   always relieved by its receiver — the all-to-all cyclic-wait deadlock
   is impossible by construction. Returns the received raw frames,
   indexed by peer id. *)
let mesh_exchange m (frames : string array) =
  let w = Array.length m.mpeers in
  let self = m.mself in
  let peer_idx = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Some fd -> peer_idx := (fd, i) :: !peer_idx
      | None ->
          if i <> self then
            failwith
              (Printf.sprintf "divm_node worker: no mesh link to peer %d" i))
    m.mpeers;
  let index_of fd = List.assoc fd !peer_idx in
  let sent = Array.make w 0 in
  let out_done = Array.init w (fun i -> i = self) in
  let in_done = Array.init w (fun i -> i = self) in
  let bufs = Array.init w (fun _ -> Buffer.create 256) in
  let need = Array.make w (-1) in
  List.iter (fun (fd, _) -> Unix.set_nonblock fd) !peer_idx;
  let restore () =
    List.iter (fun (fd, _) -> try Unix.clear_nonblock fd with _ -> ()) !peer_idx
  in
  Fun.protect ~finally:restore @@ fun () ->
  let scratch = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 120. in
  while Array.exists not out_done || Array.exists not in_done do
    if Unix.gettimeofday () > deadline then
      raise (Protocol.Error "mesh exchange timed out after 120s");
    let rds =
      List.filter_map
        (fun (fd, i) -> if in_done.(i) then None else Some fd)
        !peer_idx
    and wrs =
      List.filter_map
        (fun (fd, i) -> if out_done.(i) then None else Some fd)
        !peer_idx
    in
    match Unix.select rds wrs [] 5. with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rs, ws, _ ->
        List.iter
          (fun fd ->
            let i = index_of fd in
            let s = frames.(i) in
            match
              Unix.write_substring fd s sent.(i) (String.length s - sent.(i))
            with
            | k ->
                sent.(i) <- sent.(i) + k;
                if sent.(i) >= String.length s then out_done.(i) <- true
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ())
          ws;
        List.iter
          (fun fd ->
            let i = index_of fd in
            match Unix.read fd scratch 0 (Bytes.length scratch) with
            | 0 ->
                raise
                  (Protocol.Error
                     (Printf.sprintf "mesh peer %d closed mid-shuffle" i))
            | k ->
                Buffer.add_subbytes bufs.(i) scratch 0 k;
                if need.(i) < 0 && Buffer.length bufs.(i) >= 4 then begin
                  let n =
                    Int32.to_int
                      (String.get_int32_be (Buffer.sub bufs.(i) 0 4) 0)
                  in
                  if n < 1 || n > Protocol.max_frame then
                    raise
                      (Protocol.Error
                         (Printf.sprintf
                            "mesh peer %d: declared frame length %d out of \
                             range (max_frame %d)"
                            i n Protocol.max_frame));
                  need.(i) <- n
                end;
                if need.(i) >= 0 && Buffer.length bufs.(i) >= 4 + need.(i)
                then
                  if Buffer.length bufs.(i) > 4 + need.(i) then
                    raise
                      (Protocol.Error
                         (Printf.sprintf
                            "mesh peer %d: %d trailing bytes after frame" i
                            (Buffer.length bufs.(i) - 4 - need.(i))))
                  else in_done.(i) <- true
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ())
          rs
  done;
  Array.init w (fun i -> if i = self then "" else Buffer.contents bufs.(i))

(* One direct shuffle: partition our source partition into per-destination
   pre-summed buffers, exchange with every peer, apply in source order.
   The modeled byte accounting is computed here with exactly the
   simulator's rule (origin = destination moves are free), and the
   apply loop below walks sources in ascending worker id — the same
   source order the coordinator's star path and the simulator use — so
   both the float association of cross-source collisions and the
   destination map's slot-creation order are preserved bit-identically. *)
let mesh_shuffle s m ~tname ~key ~source =
  let wall0 = Unix.gettimeofday () in
  let w = Array.length m.mpeers in
  let self = m.mself in
  let outs = Array.init w (fun _ -> Gmr.create ()) in
  let ser = ref 0 in
  let modeled = Array.make w 0 in
  Gmr.iter
    (fun tup mult ->
      let b = Costmodel.tuple_bytes tup in
      ser := !ser + b;
      if Array.length key = 0 then
        for d = 0 to w - 1 do
          Gmr.add outs.(d) tup mult;
          if d <> self then modeled.(d) <- modeled.(d) + b
        done
      else begin
        let d =
          Divm_ring.Vtuple.hash (Divm_ring.Vtuple.project tup key) mod w
        in
        Gmr.add outs.(d) tup mult;
        if d <> self then modeled.(d) <- modeled.(d) + b
      end)
    (Runtime.map_contents s.wrt source);
  Runtime.clear_map s.wrt tname;
  let frames =
    Array.init w (fun d ->
        if d = self then ""
        else Protocol.encode_frame (Protocol.Mesh_data (self, outs.(d))))
  in
  let received = if w > 1 then mesh_exchange m frames else frames in
  for src = 0 to w - 1 do
    let g =
      if src = self then outs.(self)
      else
        match Protocol.decode_frame received.(src) with
        | Protocol.Mesh_data (src', g), _ when src' = src -> g
        | Protocol.Mesh_data (src', _), _ ->
            failwith
              (Printf.sprintf
                 "divm_node worker: mesh frame from peer %d claims src %d"
                 src src')
        | _ ->
            failwith
              (Printf.sprintf
                 "divm_node worker: unexpected mesh message from peer %d" src)
    in
    (* slot-order replay, exactly like the star path's Deliver handler *)
    Gmr.iter (fun tup mult -> Runtime.add_to_map s.wrt tname tup mult) g
  done;
  {
    Protocol.ss_ser = !ser;
    ss_modeled = modeled;
    ss_sent = Array.map String.length frames;
    ss_wall = Unix.gettimeofday () -. wall0;
  }

let serve ~id fd =
  let state = ref None in
  let st () =
    match !state with
    | Some s -> s
    | None -> failwith "divm_node worker: message before Init"
  in
  let mesh = ref None in
  let running = ref true in
  while !running do
    match Protocol.read_msg fd with
    | exception End_of_file -> running := false
    | msg, _ ->
        let reply =
          match msg with
          | Protocol.Init s ->
              let dp : Dprog.t = Marshal.from_string s 0 in
              state := Some (build_wstate dp);
              Protocol.Ack
          | Protocol.Load_share (rel, cb) ->
              let s = st () in
              Runtime.set_batch s.wrt (wblocks s rel) cb;
              Protocol.Ack
          | Protocol.Run_block (rel, bi) ->
              let s = st () in
              let o0 = Runtime.ops s.wrt in
              let wall0 = Unix.gettimeofday () in
              (try Runtime.run_block s.wrt (wblocks s rel) bi
               with Invalid_argument msg -> failwith ("divm_node worker: " ^ msg));
              (* With the profiler on, the block's op delta is folded
                 into the worker's registered [divm_record_ops_total] —
                 symmetric with the per-unit slot attribution, so the
                 shipped slot rows reconcile exactly against the shipped
                 registry delta. *)
              let dops = Runtime.ops s.wrt - o0 in
              if Prof.enabled () then Obs.Counter.add w_record_ops dops;
              Protocol.Block_done (dops, Unix.gettimeofday () -. wall0)
          | Protocol.Pull_map name ->
              Protocol.Map_contents (Runtime.map_contents (st ()).wrt name)
          | Protocol.Deliver (name, g) ->
              let s = st () in
              (* replay in slot order: the decoded GMR preserves the
                 sender's buffer order, which is the order the simulator
                 delivers in. Any reordering here would permute the
                 transient's slots and perturb downstream float
                 summation, breaking bit-identity with the simulator. *)
              Gmr.iter (fun tup m -> Runtime.add_to_map s.wrt name tup m) g;
              Protocol.Ack
          | Protocol.Clear_map name ->
              Runtime.clear_map (st ()).wrt name;
              Protocol.Ack
          | Protocol.Start_telemetry (profile, trace) ->
              Prof.set_enabled profile;
              Obs.set_tracing trace;
              w_last_snap := Obs.snapshot ();
              Protocol.Ack
          | Protocol.Pull_telemetry ->
              Protocol.Telemetry (collect_telemetry ())
          | Protocol.Peers paths ->
              (match !mesh with Some m -> mesh_close m | None -> ());
              mesh := Some (mesh_bind ~id paths);
              Protocol.Ack
          | Protocol.Mesh_connect ->
              (match !mesh with
              | Some m -> mesh_connect m
              | None -> failwith "divm_node worker: Mesh_connect before Peers");
              Protocol.Ack
          | Protocol.Shuffle idx ->
              let s = st () in
              (match !mesh with
              | Some m ->
                  if idx >= Array.length s.wtransfers then
                    failwith
                      (Printf.sprintf
                         "divm_node worker: transfer index %d out of range \
                          (%d transfers)"
                         idx
                         (Array.length s.wtransfers));
                  let tname, key, source = s.wtransfers.(idx) in
                  Protocol.Shuffle_done (mesh_shuffle s m ~tname ~key ~source)
              | None ->
                  failwith
                    "divm_node worker: Shuffle before the mesh handshake")
          | Protocol.Shutdown ->
              running := false;
              Protocol.Ack
          | Protocol.Hello _ | Protocol.Load_batch _ | Protocol.Ack
          | Protocol.Block_done _
          | Protocol.Map_contents _ | Protocol.Telemetry _
          | Protocol.Shuffle_done _ | Protocol.Mesh_data _ ->
              failwith "divm_node worker: unexpected coordinator message"
        in
        ignore (Protocol.write_msg fd reply)
  done;
  match !mesh with Some m -> mesh_close m | None -> ()

let worker_main ~socket ~id =
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    try Unix.connect fd (Unix.ADDR_UNIX socket)
    with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  connect 100;
  ignore (Protocol.write_msg fd (Protocol.Hello id));
  serve ~id fd;
  (try Unix.close fd with _ -> ())

(* -------------------------------------------------------------- *)
(* Coordinator                                                     *)
(* -------------------------------------------------------------- *)

type transfer = {
  tname : string;
  tkind : Dprog.transfer_kind;
  key : int array;
  source : string;
  tslot : int;
}

type item =
  | NDriver of string * int * (unit -> unit)
  | NTransfer of transfer

type nblock =
  | BLocal of item list
  | BDist of int * int (* block index within the trigger, profiler slot *)

type conn = { fd : Unix.file_descr; pid : int option }

type t = {
  cfg : config;
  dprog : Dprog.t;
  driver : Runtime.t;
  conns : conn array;
  plans : (string * nblock list) list;
  scatter : (string * Runtime.scatter option) list;
      (* per trigger: the share layout the workers' blocks read, [None]
         when they read no Δ (then no share ships) *)
  delta_at_workers : bool;
  mutable wire : int; (* actual socket bytes, current batch *)
  mutable alive : bool;
  mutable telem_started : bool; (* Start_telemetry sent to every worker *)
  offsets : float array; (* estimated worker clock minus ours, seconds *)
  rtts : float array; (* best pull round-trip so far, per worker *)
  wops : Obs.Counter.t array; (* divm_node_worker_ops_total{worker=i} *)
  wstage : Obs.Histogram.t array; (* divm_node_stage_seconds{worker=i} *)
  mlinks : Obs.Counter.t array array;
      (* divm_node_mesh_bytes_total{src=i,dst=j}; empty under Star *)
  tindex : (string * int array * string, int) Hashtbl.t;
      (* (tname, key, source) -> index in Dprog.transfers; the workers
         derive the same table from the Init program, so a Shuffle frame
         carries four bytes instead of the three names *)
}

let workers t = t.cfg.workers
let worker_pids t = Array.to_list (Array.map (fun c -> c.pid) t.conns)

(* A dead socket alone is an opaque decode/EOF failure; the child's exit
   status says *why*. Poll briefly with WNOHANG — the SIGKILL/exit that
   killed the socket races our read of it. *)
let worker_fate t wi =
  match t.conns.(wi).pid with
  | None -> None
  | Some pid ->
      let rec poll tries =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if tries <= 0 then None
            else begin
              Unix.sleepf 0.05;
              poll (tries - 1)
            end
        | _, Unix.WEXITED n -> Some (Printf.sprintf "exited %d" n)
        | _, Unix.WSIGNALED n -> Some (Printf.sprintf "signaled %d" n)
        | _, Unix.WSTOPPED n -> Some (Printf.sprintf "stopped %d" n)
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
      in
      poll 10

let fail_worker t wi exn =
  let fate =
    match worker_fate t wi with
    | Some f -> Printf.sprintf "(worker %d, %s)" wi f
    | None -> Printf.sprintf "(worker %d, still running)" wi
  in
  failwith
    (Printf.sprintf "divm_node: %s connection failed mid-batch: %s" fate
       (Printexc.to_string exn))

let send t wi msg =
  try t.wire <- t.wire + Protocol.write_msg t.conns.(wi).fd msg with
  | (Protocol.Error _ | Unix.Unix_error _ | End_of_file) as e ->
      fail_worker t wi e

let recv t wi =
  match Protocol.read_msg t.conns.(wi).fd with
  | m, n ->
      t.wire <- t.wire + n;
      m
  | exception ((Protocol.Error _ | Unix.Unix_error _ | End_of_file) as e) ->
      fail_worker t wi e

let expect_ack t wi =
  match recv t wi with
  | Protocol.Ack -> ()
  | _ -> failwith (Printf.sprintf "divm_node: worker %d: expected Ack" wi)

let expect_contents t wi =
  match recv t wi with
  | Protocol.Map_contents g -> g
  | _ ->
      failwith (Printf.sprintf "divm_node: worker %d: expected Map_contents" wi)

let expect_done t wi =
  match recv t wi with
  | Protocol.Block_done (ops, wall) -> (ops, wall)
  | _ ->
      failwith (Printf.sprintf "divm_node: worker %d: expected Block_done" wi)

let expect_shuffle_done t wi =
  match recv t wi with
  | Protocol.Shuffle_done st -> st
  | _ ->
      failwith (Printf.sprintf "divm_node: worker %d: expected Shuffle_done" wi)

(* ---- worker process spawning ---- *)

let discover_exe cfg =
  let candidates =
    (match cfg.worker_exe with Some p -> [ p ] | None -> [])
    @ (match Sys.getenv_opt "DIVM_NODE_EXE" with Some p -> [ p ] | None -> [])
    @
    let dir = Filename.dirname Sys.executable_name in
    let sibling_bin = Filename.concat (Filename.dirname dir) "bin" in
    [
      Filename.concat dir "divm_node.exe";
      Filename.concat dir "divm_node";
      Filename.concat sibling_bin "divm_node.exe";
      Filename.concat sibling_bin "divm_node";
    ]
  in
  List.find_opt Sys.file_exists candidates

let socket_counter = ref 0

let fresh_socket_path cfg =
  incr socket_counter;
  let dir =
    match cfg.socket_dir with
    | Some d -> d
    | None -> Filename.get_temp_dir_name ()
  in
  Filename.concat dir
    (Printf.sprintf "divm_node_%d_%d.sock" (Unix.getpid ()) !socket_counter)

(* Exec-based spawning: the primary mechanism. Workers are fresh
   single-domain processes of the [divm_node] binary, immune to the
   fork-after-domain-spawn deadlock of OCaml 5 runtimes. *)
let spawn_exec exe cfg =
  let path = fresh_socket_path cfg in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec listener;
  (try Unix.unlink path with _ -> ());
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener cfg.workers;
  let pids =
    Array.init cfg.workers (fun wi ->
        Unix.create_process exe
          [| exe; "--worker"; "--socket"; path; "--id"; string_of_int wi |]
          Unix.stdin Unix.stdout Unix.stderr)
  in
  let conns = Array.make cfg.workers None in
  let fail msg =
    Array.iter (fun pid -> try Unix.kill pid Sys.sigkill with _ -> ()) pids;
    Array.iter
      (function Some fd -> ( try Unix.close fd with _ -> ()) | None -> ())
      conns;
    (try Unix.close listener with _ -> ());
    (try Unix.unlink path with _ -> ());
    failwith ("divm_node: " ^ msg)
  in
  for _ = 1 to cfg.workers do
    (match Unix.select [ listener ] [] [] 30. with
    | [], _, _ -> fail "worker did not connect within 30s"
    | _ -> ());
    let fd, _ = Unix.accept listener in
    match Protocol.read_msg fd with
    | Protocol.Hello wid, _ when wid >= 0 && wid < cfg.workers ->
        if conns.(wid) <> None then
          fail (Printf.sprintf "worker %d connected twice" wid);
        conns.(wid) <- Some fd
    | _ -> fail "bad handshake from worker"
    | exception e -> fail ("handshake failed: " ^ Printexc.to_string e)
  done;
  (try Unix.close listener with _ -> ());
  (try Unix.unlink path with _ -> ());
  Array.mapi
    (fun wi c ->
      match c with
      | Some fd -> { fd; pid = Some pids.(wi) }
      | None -> fail "missing worker connection" (* unreachable *))
    conns

(* Fork fallback for environments without the worker binary (e.g. a
   toplevel). Only safe before any Par pool domain exists: forking a
   multi-domain OCaml 5 process leaves the child's stop-the-world
   machinery waiting on domains that did not survive the fork. *)
let spawn_fork cfg =
  if Par.spawned_domains () > 0 then
    failwith
      "divm_node: no divm_node worker executable found and domains are \
       already spawned (fork unsafe); set DIVM_NODE_EXE or config.worker_exe";
  let parent_ends = ref [] in
  Array.init cfg.workers (fun wi ->
      let parent_fd, child_fd =
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      match Unix.fork () with
      | 0 ->
          (* Child: drop every parent-side descriptor, serve, hard-exit
             (no at_exit: the pool shutdown hook is the parent's). *)
          List.iter (fun fd -> try Unix.close fd with _ -> ()) !parent_ends;
          (try Unix.close parent_fd with _ -> ());
          ignore_sigpipe ();
          let code =
            try
              ignore (Protocol.write_msg child_fd (Protocol.Hello wi));
              serve ~id:wi child_fd;
              0
            with e ->
              prerr_endline ("divm_node worker: " ^ Printexc.to_string e);
              1
          in
          Unix._exit code
      | pid ->
          (try Unix.close child_fd with _ -> ());
          parent_ends := parent_fd :: !parent_ends;
          { fd = parent_fd; pid = Some pid })

let create ?(config = default_config) (dp : Dprog.t) =
  if config.workers < 1 then invalid_arg "Node.create: workers must be >= 1";
  ignore_sigpipe ();
  let conns =
    match discover_exe config with
    | Some exe -> spawn_exec exe config
    | None -> spawn_fork config
  in
  Array.iter
    (fun c ->
      (* Bounded coordinator waits: a wedged worker fails the batch
         instead of hanging a CI job. *)
      try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 120. with _ -> ())
    conns;
  let t0 =
    {
      cfg = config;
      dprog = dp;
      driver = Runtime.create ~domains:1 (Dprog.compute_prog dp);
      conns;
      plans = [];
      scatter = [];
      delta_at_workers = false;
      wire = 0;
      alive = true;
      telem_started = false;
      offsets = Array.make config.workers 0.;
      rtts = Array.make config.workers infinity;
      (* Per-worker labeled instruments, registered up front so a scrape
         of /metrics shows every worker from the first batch on. *)
      wops =
        Array.init config.workers (fun wi ->
            Obs.Counter.make
              (Obs.with_labels "divm_node_worker_ops_total"
                 [ ("worker", string_of_int wi) ]));
      wstage =
        Array.init config.workers (fun wi ->
            Obs.Histogram.make
              (Obs.with_labels "divm_node_stage_seconds"
                 [ ("worker", string_of_int wi) ]));
      (* Per-link wire counters, off-diagonal only: a worker never puts
         its own share on a socket. Diagonal cells exist (the matrix is
         square for direct indexing) but stay out of the registry. *)
      mlinks =
        (if config.shuffle = Mesh && config.workers > 1 then
           Array.init config.workers (fun s ->
               Array.init config.workers (fun d ->
                   Obs.Counter.make ~register:(s <> d)
                     (Obs.with_labels "divm_node_mesh_bytes_total"
                        [ ("src", string_of_int s); ("dst", string_of_int d) ])))
         else [||]);
      tindex =
        (let tbl = Hashtbl.create 16 in
         Array.iteri
           (fun i tr -> if not (Hashtbl.mem tbl tr) then Hashtbl.add tbl tr i)
           (Dprog.transfers dp);
         tbl);
    }
  in
  (* Ship the program; workers compile the same statements we do. *)
  let init = Protocol.Init (Marshal.to_string dp []) in
  Array.iteri (fun wi _ -> send t0 wi init) conns;
  Array.iteri (fun wi _ -> expect_ack t0 wi) conns;
  (* Mesh handshake: distribute every worker's listener path, barrier on
     the binds (so each listen backlog exists before any peer connects),
     then tell everyone to wire up. *)
  (if config.shuffle = Mesh then begin
     let paths = Array.init config.workers (fun _ -> fresh_socket_path config) in
     let peers = Protocol.Peers paths in
     Array.iteri (fun wi _ -> send t0 wi peers) conns;
     Array.iteri (fun wi _ -> expect_ack t0 wi) conns;
     Array.iteri (fun wi _ -> send t0 wi Protocol.Mesh_connect) conns;
     Array.iteri (fun wi _ -> expect_ack t0 wi) conns
   end);
  let compile_block trigger bi nstages (b : Dprog.block) =
    match b.bmode with
    | Dprog.MDist ->
        let label = Printf.sprintf "stage:%d" nstages in
        BDist (bi, Prof.slot ~trigger ~label)
    | Dprog.MLocal ->
        BLocal
          (List.map
             (fun d ->
               match d with
               | Dprog.Transfer { tname; tkind; key; source } ->
                   NTransfer
                     {
                       tname;
                       tkind;
                       key;
                       source;
                       tslot = Prof.slot ~trigger ~label:("transfer:" ^ tname);
                     }
               | Dprog.Compute s ->
                   let label = "driver:" ^ s.target in
                   NDriver
                     ( label,
                       Prof.slot ~trigger ~label,
                       List.hd (Runtime.compile_stmts t0.driver [ s ]) ))
             b.bstmts)
  in
  let plans =
    List.map
      (fun (tr : Dprog.dtrigger) ->
        let nstages = ref 0 in
        ( tr.drelation,
          List.mapi
            (fun bi (b : Dprog.block) ->
              if b.bmode = Dprog.MDist then incr nstages;
              compile_block tr.drelation bi !nstages b)
            tr.blocks ))
      dp.dtriggers
  in
  let delta_at_workers =
    List.exists
      (fun (m : Divm_compiler.Prog.map_decl) ->
        m.mkind = Divm_compiler.Prog.Transient
        && Divm_calc.Calc.has_deltas m.definition
        && Loc.find dp.locs m.mname <> Loc.Local)
      dp.base.maps
  in
  let scatter =
    let cprog = Dprog.compute_prog dp in
    List.map
      (fun (tr : Dprog.dtrigger) ->
        ( tr.drelation,
          Runtime.scatter_plan cprog ~rel:tr.drelation (Dprog.worker_blocks tr)
        ))
      dp.dtriggers
  in
  Obs.Gauge.set g_workers (float_of_int config.workers);
  { t0 with plans; scatter; delta_at_workers }

(* ---- transfers (star topology through the coordinator) ---- *)

type net = {
  mutable total_bytes : int;
  mutable into_node : int array;
  mutable into_driver : int;
}

let tuple_bytes = Costmodel.tuple_bytes

(* Pull sources, clear destinations, partition, deliver. The modeled byte
   accounting is the simulator's exactly — origin = destination moves are
   free in the model even though the star topology really sends them over
   two socket hops; the difference is precisely what [wire_bytes] vs
   [bytes_shuffled] exposes. *)
let run_transfer t net (tr : transfer) =
  let src_loc = Loc.find t.dprog.locs tr.source in
  let dst_loc = Loc.find t.dprog.locs tr.tname in
  let w = Array.length t.conns in
  let sources =
    match src_loc with
    | Loc.Local -> [ (-1, Runtime.map_contents t.driver tr.source) ]
    | Loc.Replicated ->
        send t 0 (Protocol.Pull_map tr.source);
        [ (-2, expect_contents t 0) ]
    | Loc.Dist _ | Loc.Random ->
        Array.iteri (fun wi _ -> send t wi (Protocol.Pull_map tr.source)) t.conns;
        Array.to_list (Array.init w (fun wi -> (wi, expect_contents t wi)))
  in
  (match dst_loc with
  | Loc.Local -> Runtime.clear_map t.driver tr.tname
  | _ ->
      Array.iteri (fun wi _ -> send t wi (Protocol.Clear_map tr.tname)) t.conns;
      Array.iteri (fun wi _ -> expect_ack t wi) t.conns);
  (* Per-destination out-buffers: duplicates pre-sum at the coordinator in
     source-iteration order, so the float each worker finally stores is
     bit-identical to the simulator's in-order adds into a cleared map. *)
  let outs = Array.init w (fun _ -> Gmr.create ()) in
  let deliver_worker origin wi tup m =
    Gmr.add outs.(wi) tup m;
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
                let sub = Divm_ring.Vtuple.project tup tr.key in
                deliver_worker origin
                  (Divm_ring.Vtuple.hash sub mod w)
                  tup m)
        contents)
    sources;
  if dst_loc <> Loc.Local then begin
    Array.iteri
      (fun wi _ -> send t wi (Protocol.Deliver (tr.tname, outs.(wi))))
      t.conns;
    Array.iteri (fun wi _ -> expect_ack t wi) t.conns
  end;
  !ser_bytes

(* ---- transfers (direct worker-to-worker mesh) ---- *)

(* A transfer goes over the mesh when every byte both starts and ends on
   workers: distributed-to-distributed scatters and repartitions. Gathers
   terminate at the driver and replicated/local sources live off the
   mesh, so those stay on the star path — which also keeps the star code
   exercised under the default Mesh config. *)
let mesh_eligible t (tr : transfer) =
  t.cfg.shuffle = Mesh
  && tr.tkind <> Dprog.Gather
  && (match Loc.find t.dprog.locs tr.source with
     | Loc.Dist _ | Loc.Random -> true
     | Loc.Local | Loc.Replicated -> false)
  && Loc.find t.dprog.locs tr.tname <> Loc.Local

(* How many times a shuffled byte crosses a socket, feeding the a-priori
   wire predictor. Star relays through the coordinator: one crossing to
   pull from a remote source, then one per delivery (a broadcast fans out
   to every worker). Mesh ships direct: one crossing per remote
   destination — a keyed repartition keeps ~1/w of the bytes home, which
   the per-byte estimate rounds to one crossing. *)
let predicted_crossings t (tr : transfer) ~mesh =
  let w = t.cfg.workers in
  let fanout =
    if Array.length tr.key = 0 && tr.tkind <> Dprog.Gather then w else 1
  in
  if mesh then max 1 (fanout - 1)
  else
    match tr.tkind with
    | Dprog.Gather -> 1
    | Dprog.Scatter | Dprog.Repart ->
        let src_remote =
          match Loc.find t.dprog.locs tr.source with
          | Loc.Dist _ | Loc.Random | Loc.Replicated -> true
          | Loc.Local -> false
        in
        (if src_remote then 1 else 0) + fanout

(* One mesh transfer: broadcast [Shuffle], barrier on every worker's
   [Shuffle_done], fold the reported stats into the same modeled-byte
   ledger the star path and the simulator fill — the workers apply the
   simulator's free-when-origin-equals-destination rule locally, so
   [net] ends up integer-identical and the modeled latency downstream is
   bit-identical. Actual socket bytes land in [t.wire] and the per-link
   counters instead. Returns (modeled ser bytes, per-worker shuffle
   walls, (src, dst, wire bytes) per active link). *)
let run_transfer_mesh t net (tr : transfer) =
  let w = Array.length t.conns in
  let idx =
    match Hashtbl.find_opt t.tindex (tr.tname, tr.key, tr.source) with
    | Some i -> i
    | None ->
        failwith
          (Printf.sprintf "divm_node: transfer %s <- %s not in Dprog.transfers"
             tr.tname tr.source)
  in
  let m = Protocol.Shuffle idx in
  Array.iteri (fun wi _ -> send t wi m) t.conns;
  let stats = Array.init w (fun wi -> expect_shuffle_done t wi) in
  let ser = ref 0 in
  let links = ref [] in
  Array.iteri
    (fun src (st : Protocol.shuffle_stat) ->
      if Array.length st.ss_modeled <> w || Array.length st.ss_sent <> w then
        failwith
          (Printf.sprintf
             "divm_node: worker %d: shuffle stat arity mismatch (%d/%d \
              destinations, %d workers)"
             src
             (Array.length st.ss_modeled)
             (Array.length st.ss_sent) w);
      ser := !ser + st.ss_ser;
      Array.iteri
        (fun dst b ->
          if dst <> src && b > 0 then begin
            net.total_bytes <- net.total_bytes + b;
            net.into_node.(dst) <- net.into_node.(dst) + b
          end)
        st.ss_modeled;
      Array.iteri
        (fun dst b ->
          if dst <> src && b > 0 then begin
            t.wire <- t.wire + b;
            Obs.Counter.add t.mlinks.(src).(dst) b;
            links := (src, dst, b) :: !links
          end)
        st.ss_sent)
    stats;
  ( !ser,
    Array.map (fun (st : Protocol.shuffle_stat) -> st.Protocol.ss_wall) stats,
    List.rev !links )

(* ---- telemetry plane (coordinator side) ---- *)

(* Lazily arm the workers' observers: collection can be switched on by
   the CLI layer after [create] (profile/trace activation happens once
   the engine exists), so the first batch that runs under an armed
   collector ships [Start_telemetry] with whatever is enabled then. *)
let maybe_start_telemetry t =
  if (not t.telem_started) && Obs.collection () then begin
    t.telem_started <- true;
    let m = Protocol.Start_telemetry (Prof.enabled (), Obs.tracing ()) in
    Array.iteri (fun wi _ -> send t wi m) t.conns;
    Array.iteri (fun wi _ -> expect_ack t wi) t.conns
  end

(* One pull per worker, sequentially: the request/reply timestamps double
   as a clock-offset probe (offset = worker_now - midpoint), and the
   estimate from the smallest round-trip seen so far wins — the classic
   NTP bound: the error is at most rtt/2. The offset is stored per pid
   and applied uniformly at export, so refining it between pulls can
   shift but never reorder a worker's own timeline. *)
let pull_telemetry t =
  Array.iteri
    (fun wi _ ->
      let t0 = Unix.gettimeofday () in
      send t wi Protocol.Pull_telemetry;
      match recv t wi with
      | Protocol.Telemetry tm ->
          let t1 = Unix.gettimeofday () in
          let rtt = t1 -. t0 in
          if rtt < t.rtts.(wi) then begin
            t.rtts.(wi) <- rtt;
            t.offsets.(wi) <- tm.Protocol.t_now -. ((t0 +. t1) /. 2.)
          end;
          let wl = [ ("worker", string_of_int wi) ] in
          Obs.ingest ~labels:wl tm.Protocol.t_snap;
          List.iter
            (fun (r : Prof.row) ->
              Prof.merge ~trigger:r.r_trigger
                ~label:(Printf.sprintf "%s@w%d" r.r_label wi)
                r)
            tm.Protocol.t_slots;
          if tm.Protocol.t_spans <> [] then
            Obs.add_remote_events ~pid:(wi + 2)
              ~pname:(Printf.sprintf "worker %d" wi)
              ~offset:t.offsets.(wi) tm.Protocol.t_spans
      | _ ->
          failwith
            (Printf.sprintf "divm_node: worker %d: expected Telemetry" wi))
    t.conns

(* ---- batch execution ---- *)

let apply_batch t ~rel batch =
  if not t.alive then failwith "divm_node: engine is shut down";
  let w = Array.length t.conns in
  let batch_wall0 = Unix.gettimeofday () in
  t.wire <- 0;
  maybe_start_telemetry t;
  Obs.span ("node:" ^ rel) @@ fun () ->
  (* The batch lives at the workers when the delta pre-aggregations do;
     otherwise the driver keeps it and workers that read Δ see none. *)
  (match List.assoc_opt rel t.scatter with
  | Some (Some sc) ->
      let wire0 = t.wire in
      let batch = if t.delta_at_workers then batch else Gmr.create () in
      let shares = Runtime.deal sc ~parts:w batch in
      Array.iteri
        (fun wi _ -> send t wi (Protocol.Load_share (rel, shares.(wi))))
        t.conns;
      Array.iteri (fun wi _ -> expect_ack t wi) t.conns;
      Obs.Counter.add m_scatter_wire (t.wire - wire0);
      Obs.Counter.add m_scatter_tuples (Gmr.cardinal batch)
  | Some None | None -> ());
  Runtime.load_batch t.driver ~rel
    (if t.delta_at_workers then Gmr.create () else batch);
  let blocks =
    match List.assoc_opt rel t.plans with
    | Some b -> b
    | None -> invalid_arg ("Node.apply_batch: no trigger for " ^ rel)
  in
  let net = { total_bytes = 0; into_node = Array.make w 0; into_driver = 0 } in
  let latency = ref 0. in
  let stages = ref 0 in
  let worker_ops = Array.make w 0 in
  let max_worker_ops = ref 0 in
  let driver_ops0 = Runtime.ops t.driver in
  let pending_max_into = ref 0 in
  let stats = ref [] in
  List.iter
    (fun nb ->
      match nb with
      | BLocal items ->
          List.iter
            (fun it ->
              match it with
              | NDriver (lbl, slot, f) ->
                  Runtime.run_attributed t.driver ~label:lbl ~slot f
              | NTransfer tr ->
                  Obs.span ("transfer:" ^ tr.tname) (fun () ->
                      let wall0 = Unix.gettimeofday () in
                      let wire0 = t.wire in
                      let bytes_before = net.total_bytes in
                      let before_max =
                        Array.fold_left max net.into_driver net.into_node
                      in
                      let mesh = mesh_eligible t tr in
                      let ser, mwalls, mlinks_l =
                        if mesh then run_transfer_mesh t net tr
                        else (run_transfer t net tr, [||], [])
                      in
                      let wall = Unix.gettimeofday () -. wall0 in
                      if Prof.enabled () then
                        Prof.add tr.tslot ~ops:0 ~probes:0 ~misses:0 ~scanned:0
                          ~svscan:0 ~svsel:0
                          ~bytes:(net.total_bytes - bytes_before)
                          ~wall;
                      let after_max =
                        Array.fold_left max net.into_driver net.into_node
                      in
                      pending_max_into :=
                        max !pending_max_into (after_max - before_max);
                      let dt =
                        Costmodel.transfer_latency t.cfg.cost ~ser_bytes:ser
                          ~max_into:(after_max - before_max)
                      in
                      latency := !latency +. dt;
                      stats :=
                        {
                          sname = "transfer:" ^ tr.tname;
                          predicted = dt;
                          measured = wall;
                          sbytes = net.total_bytes - bytes_before;
                          swire = t.wire - wire0;
                          spwire =
                            Costmodel.predicted_wire_bytes
                              ~crossings:(predicted_crossings t tr ~mesh)
                              ~workers:w ~ser_bytes:ser;
                          swalls = mwalls;
                          slinks = mlinks_l;
                        }
                        :: !stats;
                      if Obs.tracing () then begin
                        Obs.set_attr "modeled_ms"
                          (Printf.sprintf "%.6f" (dt *. 1e3));
                        Obs.set_attr "measured_ms"
                          (Printf.sprintf "%.6f" (wall *. 1e3));
                        Obs.set_attr "bytes"
                          (string_of_int (net.total_bytes - bytes_before))
                      end))
            items
      | BDist (bi, slot) ->
          incr stages;
          let lbl = Printf.sprintf "stage:%d" !stages in
          Obs.span lbl (fun () ->
              let wall0 = Unix.gettimeofday () in
              let wire0 = t.wire in
              (* Broadcast, then barrier on every worker's reply — the
                 workers execute their partitions genuinely in parallel. *)
              Array.iteri
                (fun wi _ -> send t wi (Protocol.Run_block (rel, bi)))
                t.conns;
              let replies = Array.init w (fun wi -> expect_done t wi) in
              let wall = Unix.gettimeofday () -. wall0 in
              let deltas = Array.map fst replies in
              let walls = Array.map snd replies in
              let max_ops = ref 0 in
              Array.iteri
                (fun wi d ->
                  worker_ops.(wi) <- worker_ops.(wi) + d;
                  Obs.Counter.add t.wops.(wi) d;
                  Obs.Histogram.observe t.wstage.(wi) walls.(wi);
                  max_ops := max !max_ops d)
                deltas;
              (* Straggler ratio over the workers' own measured walls —
                 socket turnaround excluded, so a loaded coordinator does
                 not read as a slow worker. *)
              (if w > 1 then
                 let sorted = Array.copy walls in
                 Array.sort compare sorted;
                 let median =
                   if w land 1 = 1 then sorted.(w / 2)
                   else (sorted.((w / 2) - 1) +. sorted.(w / 2)) /. 2.
                 in
                 if median > 0. then
                   Obs.Histogram.observe h_straggler (sorted.(w - 1) /. median));
              max_worker_ops := !max_worker_ops + !max_ops;
              if Prof.enabled () then
                Prof.add slot
                  ~ops:(Array.fold_left ( + ) 0 deltas)
                  ~probes:0 ~misses:0 ~scanned:0 ~svscan:0 ~svsel:0 ~bytes:0
                  ~wall;
              let dt =
                Costmodel.stage_latency t.cfg.cost ~workers:w ~max_ops:!max_ops
                  ~pending_max_into:!pending_max_into
              in
              pending_max_into := 0;
              latency := !latency +. dt;
              stats :=
                {
                  sname = lbl;
                  predicted = dt;
                  measured = wall;
                  sbytes = 0;
                  swire = t.wire - wire0;
                  spwire = 0;
                  swalls = walls;
                  slinks = [];
                }
                :: !stats;
              if Obs.tracing () then begin
                Obs.set_attr "modeled_ms" (Printf.sprintf "%.6f" (dt *. 1e3));
                Obs.set_attr "measured_ms" (Printf.sprintf "%.6f" (wall *. 1e3));
                Obs.set_attr "max_worker_ops" (string_of_int !max_ops);
                Obs.set_attr "workers" (string_of_int w)
              end);
          (* Ship the stage's telemetry right at the barrier (outside the
             stage span, so pull traffic never pollutes stage wire/wall
             accounting). *)
          if t.telem_started then pull_telemetry t)
    blocks;
  let driver_ops = Runtime.ops t.driver - driver_ops0 in
  let wall = Unix.gettimeofday () -. batch_wall0 in
  Obs.Counter.add m_bytes_shuffled net.total_bytes;
  Obs.Counter.add m_wire_bytes t.wire;
  Obs.Counter.add m_stages !stages;
  Obs.Counter.incr m_batches;
  Obs.Counter.add m_worker_ops (Array.fold_left ( + ) 0 worker_ops);
  Obs.Counter.add m_driver_ops driver_ops;
  if Obs.tracing () then begin
    Obs.set_attr "modeled_latency_ms" (Printf.sprintf "%.6f" (!latency *. 1e3));
    Obs.set_attr "stages" (string_of_int !stages);
    Obs.set_attr "bytes_shuffled" (string_of_int net.total_bytes);
    Obs.set_attr "wire_bytes" (string_of_int t.wire)
  end;
  {
    latency = !latency;
    wall;
    stages = !stages;
    bytes_shuffled = net.total_bytes;
    wire_bytes = t.wire;
    max_worker_ops = !max_worker_ops;
    driver_ops;
    stage_stats = List.rev !stats;
  }

(* ---- inspection ---- *)

let map_contents t name =
  if not t.alive then failwith "divm_node: engine is shut down";
  match Loc.find t.dprog.locs name with
  | Loc.Local -> Runtime.map_contents t.driver name
  | Loc.Replicated ->
      send t 0 (Protocol.Pull_map name);
      expect_contents t 0
  | Loc.Dist _ | Loc.Random ->
      Array.iteri (fun wi _ -> send t wi (Protocol.Pull_map name)) t.conns;
      let out = Gmr.create () in
      Array.iteri
        (fun wi _ -> Gmr.union_into out (expect_contents t wi))
        t.conns;
      out

let result t qname =
  match List.assoc_opt qname t.dprog.base.queries with
  | Some m -> map_contents t m
  | None -> invalid_arg ("Node.result: unknown query " ^ qname)

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    (* Final drain: anything observed since the last stage barrier (or a
       collector armed after the last batch) still reaches the merged
       view before the workers go away. *)
    if Obs.collection () then begin
      (try maybe_start_telemetry t with _ -> ());
      if t.telem_started then try pull_telemetry t with _ -> ()
    end;
    Array.iter
      (fun c ->
        try ignore (Protocol.write_msg c.fd Protocol.Shutdown) with _ -> ())
      t.conns;
    Array.iter
      (fun c -> try ignore (Protocol.read_msg c.fd) with _ -> ())
      t.conns;
    Array.iter (fun c -> try Unix.close c.fd with _ -> ()) t.conns;
    Array.iter
      (fun c ->
        match c.pid with
        | Some pid -> ( try ignore (Unix.waitpid [] pid) with _ -> ())
        | None -> ())
      t.conns
  end
