open Divm_dist
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Cluster = Divm_cluster.Cluster

type config = {
  workers : int;
  cost : Costmodel.t;
  socket_dir : string option;
  worker_exe : string option;
}

let config ?(workers = 2) ?(cost = Costmodel.default) ?socket_dir ?worker_exe
    () =
  { workers; cost; socket_dir; worker_exe }

let default_config = config ()

type stage_stat = Cluster.stage_stat = {
  sname : string;
  predicted : float;
  measured : float;
  sbytes : int;
  swire : int;
  spwire : int;
  swalls : float array;
  slinks : (int * int * int) list;
}

let ignore_sigpipe () =
  (* A worker dying mid-write must surface as EPIPE, not kill the
     coordinator. *)
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> ()

(* -------------------------------------------------------------- *)
(* Sockets                                                         *)
(* -------------------------------------------------------------- *)

(* Bounded waits, so a wedged peer fails the batch instead of hanging a
   CI job: how long a reply (or a mesh exchange) may take, and how long
   a peer may take to connect at start-up. *)
let reply_timeout = 120.
let connect_timeout = 30.

let set_reply_timeout fd =
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout with _ -> ()

(* Connect to a Unix-domain listener that may not be bound yet, retrying
   every 50 ms for up to 5 s. *)
let connect_retry path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    try Unix.connect fd (Unix.ADDR_UNIX path)
    with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.sleepf 0.05;
      go (tries - 1)
  in
  go 100;
  fd

(* Accept [n] peers on [lfd], each opening with [Hello id]; [take id fd]
   validates and records one (raising [Failure] to reject it). [who]
   names the peers in the errors. *)
let accept_hellos lfd ~n ~who ~take =
  for _ = 1 to n do
    (match Unix.select [ lfd ] [] [] connect_timeout with
    | [], _, _ ->
        failwith
          (Printf.sprintf "%s did not connect within %.0fs" who connect_timeout)
    | _ -> ());
    let fd, _ = Unix.accept lfd in
    match Protocol.read_msg fd with
    | Protocol.Hello id, _ -> take id fd
    | _ -> failwith ("bad handshake from " ^ who)
  done

(* -------------------------------------------------------------- *)
(* Worker side                                                     *)
(* -------------------------------------------------------------- *)

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
   ([None] at our own index), non-blocking once connected, and the one
   read buffer every exchange reuses. *)
type wmesh = {
  mself : int;
  mpaths : string array;
  mutable mlisten : Unix.file_descr option;
  mpeers : Unix.file_descr option array;
  mrecv : Bytes.t;
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
  {
    mself = id;
    mpaths = paths;
    mlisten;
    mpeers = Array.make w None;
    mrecv = Bytes.create 65536;
  }

(* Establish the full mesh: initiate to every lower id, accept from
   every higher one. A Unix-domain [connect] completes as soon as the
   target's listen backlog takes it, whether or not the target has
   reached its own accept loop — so the fixed initiate-then-accept order
   cannot deadlock, whatever order the coordinator's [Mesh_connect]
   frames land in. *)
let mesh_connect m =
  let w = Array.length m.mpaths in
  for j = 0 to m.mself - 1 do
    let fd = connect_retry m.mpaths.(j) in
    ignore (Protocol.write_msg fd (Protocol.Hello m.mself));
    set_reply_timeout fd;
    m.mpeers.(j) <- Some fd
  done;
  (match m.mlisten with
  | None -> ()
  | Some lfd ->
      (* Higher ids arrive in arbitrary order; the Hello identifies each. *)
      (try
         accept_hellos lfd ~n:(w - 1 - m.mself) ~who:"mesh peer"
           ~take:(fun j fd ->
             if j <= m.mself || j >= w || m.mpeers.(j) <> None then
               failwith "bad mesh handshake";
             set_reply_timeout fd;
             m.mpeers.(j) <- Some fd)
       with Failure msg -> failwith ("divm_node worker: " ^ msg));
      (try Unix.close lfd with _ -> ());
      (try Unix.unlink m.mpaths.(m.mself) with _ -> ());
      m.mlisten <- None);
  (* The handshake is done; from here on the links only carry exchanges,
     whose select loop never blocks on a socket. *)
  Array.iter (Option.iter Unix.set_nonblock) m.mpeers

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
  let chunk = m.mrecv in
  let deadline = Unix.gettimeofday () +. reply_timeout in
  while Array.exists not out_done || Array.exists not in_done do
    if Unix.gettimeofday () > deadline then
      raise
        (Protocol.Error
           (Printf.sprintf "mesh exchange timed out after %.0fs" reply_timeout));
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
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                raise
                  (Protocol.Error
                     (Printf.sprintf "mesh peer %d closed mid-shuffle" i))
            | k ->
                Buffer.add_subbytes bufs.(i) chunk 0 k;
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

(* The crossing of one exchange ({!Cluster.serve}'s [exchange]): frame
   each peer's batches, swap the frames over the mesh, and decode what
   every peer sent, which must come from that peer and hold one batch per
   transfer. Returns the received batches and, per peer, the frame bytes
   each transfer accounts for. *)
let swap mesh out =
  match mesh with
  | None -> failwith "divm_node worker: Shuffle before the mesh handshake"
  | Some m ->
      let self = m.mself and n = Array.length out.(m.mself) in
      let framed =
        Array.mapi
          (fun d bufs ->
            if d = self then ("", Array.make n 0)
            else Protocol.mesh_frame ~src:self bufs)
          out
      in
      let raw =
        if Array.length out > 1 then mesh_exchange m (Array.map fst framed)
        else [| "" |]
      in
      ( Array.mapi
          (fun src f ->
            if src = self then [||]
            else
              match Protocol.decode_frame f with
              | Protocol.Mesh_data (src', bufs), _
                when src' = src && Array.length bufs = n ->
                  bufs
              | _ ->
                  failwith
                    (Printf.sprintf
                       "divm_node worker: peer %d did not send its Mesh_data \
                        with %d buffers"
                       src n))
          raw,
        Array.map snd framed )

let ack = Protocol.Reply Cluster.Ack

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
              state := Some (Cluster.worker (Marshal.from_string s 0 : Dprog.t));
              ack
          | Protocol.Request r ->
              let parts =
                match !mesh with Some m -> Array.length m.mpeers | None -> 1
              in
              Protocol.Reply
                (Cluster.serve (st ()) ~self:id ~parts ~exchange:(swap !mesh) r)
          | Protocol.Start_telemetry (profile, trace) ->
              Prof.set_enabled profile;
              Obs.set_tracing trace;
              w_last_snap := Obs.snapshot ();
              ack
          | Protocol.Pull_telemetry -> Protocol.Telemetry (collect_telemetry ())
          | Protocol.Peers paths ->
              (match !mesh with Some m -> mesh_close m | None -> ());
              mesh := Some (mesh_bind ~id paths);
              ack
          | Protocol.Mesh_connect ->
              (match !mesh with
              | Some m -> mesh_connect m
              | None -> failwith "divm_node worker: Mesh_connect before Peers");
              ack
          | Protocol.Shutdown ->
              running := false;
              ack
          | Protocol.Hello _ | Protocol.Load_batch _ | Protocol.Reply _
          | Protocol.Telemetry _ | Protocol.Mesh_data _ ->
              failwith "divm_node worker: unexpected coordinator message"
        in
        ignore (Protocol.write_msg fd reply)
  done;
  match !mesh with Some m -> mesh_close m | None -> ()

let worker_main ~socket ~id =
  ignore_sigpipe ();
  let fd = connect_retry socket in
  ignore (Protocol.write_msg fd (Protocol.Hello id));
  serve ~id fd;
  (try Unix.close fd with _ -> ())

(* -------------------------------------------------------------- *)
(* Coordinator                                                     *)
(* -------------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; pid : int }

type coord = {
  conns : conn array;
  mutable wire : int; (* actual socket bytes, monotone *)
  mutable alive : bool;
  mutable telem_started : bool; (* Start_telemetry sent to every worker *)
  offsets : float array; (* estimated worker clock minus ours, seconds *)
  rtts : float array; (* best pull round-trip so far, per worker *)
}

type t = { c : coord; ex : Cluster.t }

let executor t = t.ex
let worker_pids t = Array.to_list (Array.map (fun c -> c.pid) t.c.conns)

(* A dead socket alone is an opaque decode/EOF failure; the child's exit
   status says *why*. Poll briefly with WNOHANG — the SIGKILL/exit that
   killed the socket races our read of it. *)
let worker_fate t wi =
  let rec poll tries =
    match Unix.waitpid [ Unix.WNOHANG ] t.conns.(wi).pid with
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

let unexpected wi what =
  failwith (Printf.sprintf "divm_node: worker %d: expected %s" wi what)

let expect_ack t wi =
  match recv t wi with Protocol.Reply Cluster.Ack -> () | _ -> unexpected wi "Ack"

(* One frame to every worker, then every acknowledgment. *)
let barrier t msg =
  Array.iteri (fun wi _ -> send t wi msg) t.conns;
  Array.iteri (fun wi _ -> expect_ack t wi) t.conns

(* ---- worker process spawning ---- *)

(* An explicit binary ([config.worker_exe], else [DIVM_NODE_EXE]) must
   exist; otherwise look next to the running executable and in a sibling
   [bin/] directory. *)
let discover_exe cfg =
  let explicit =
    match cfg.worker_exe with
    | Some p -> Some (p, "config.worker_exe")
    | None ->
        Sys.getenv_opt "DIVM_NODE_EXE"
        |> Option.map (fun p -> (p, "DIVM_NODE_EXE"))
  in
  match explicit with
  | Some (p, src) ->
      if Sys.file_exists p then p
      else
        failwith
          (Printf.sprintf
             "divm_node: worker executable %s (from %s) does not exist" p src)
  | None -> (
      let dir = Filename.dirname Sys.executable_name in
      let sibling_bin = Filename.concat (Filename.dirname dir) "bin" in
      let candidates =
        List.concat_map
          (fun d -> List.map (Filename.concat d) [ "divm_node.exe"; "divm_node" ])
          [ dir; sibling_bin ]
      in
      match List.find_opt Sys.file_exists candidates with
      | Some p -> p
      | None ->
          failwith
            "divm_node: no divm_node worker executable found next to the \
             running binary; set DIVM_NODE_EXE or Node.config ~worker_exe")

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

(* Workers are fresh single-domain processes of the [divm_node] binary
   (exec, never fork: forking a multi-domain OCaml 5 process leaves the
   child waiting on domains that did not survive the fork). *)
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
  (try
     accept_hellos listener ~n:cfg.workers ~who:"worker" ~take:(fun wid fd ->
         if wid < 0 || wid >= cfg.workers then
           failwith "bad handshake from worker";
         if conns.(wid) <> None then
           failwith (Printf.sprintf "worker %d connected twice" wid);
         conns.(wid) <- Some fd)
   with
  | Failure msg -> fail msg
  | e -> fail ("handshake failed: " ^ Printexc.to_string e));
  (try Unix.close listener with _ -> ());
  (try Unix.unlink path with _ -> ());
  Array.mapi
    (fun wi c ->
      match c with
      | Some fd -> { fd; pid = pids.(wi) }
      | None -> fail "missing worker connection" (* unreachable *))
    conns

(* ---- telemetry plane (coordinator side) ---- *)

(* Lazily arm the workers' observers: collection can be switched on by
   the CLI layer after [create] (profile/trace activation happens once
   the engine exists), so the first batch that runs under an armed
   collector ships [Start_telemetry] with whatever is enabled then. *)
let maybe_start_telemetry t =
  if (not t.telem_started) && Obs.collection () then begin
    t.telem_started <- true;
    barrier t (Protocol.Start_telemetry (Prof.enabled (), Obs.tracing ()))
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

(* ---- the socket transport ---- *)

(* Every call first checks the engine is up and arms the workers'
   telemetry if a collector was switched on since. Requests are
   pipelined: one frame to every addressed worker, then every reply. *)
let ready t =
  if not t.alive then failwith "divm_node: engine is shut down";
  maybe_start_telemetry t

(* The frames that carry the batch shares are the scatter layer's wire
   bytes (the executor registers this counter in the node family). *)
let scatter_wire = Obs.Counter.make "divm_node_scatter_wire_bytes_total"

let transport t =
  let call ws req =
    ready t;
    Array.iter
      (fun wi ->
        let w0 = t.wire and r = req wi in
        send t wi (Protocol.Request r);
        match r with
        | Cluster.Run_block (_, _, Some _, _) ->
            Obs.Counter.add scatter_wire (t.wire - w0)
        | _ -> ())
      ws;
    Array.map
      (fun wi ->
        match recv t wi with
        | Protocol.Reply r -> r
        | _ -> unexpected wi "a reply")
      ws
  in
  {
    Cluster.name = "node";
    call;
    wire = (fun () -> t.wire);
    (* Ship the stage's telemetry right at the barrier. *)
    after_stage = (fun () -> if t.telem_started then pull_telemetry t);
  }

let create ?(config = default_config) (dp : Dprog.t) =
  if config.workers < 1 then invalid_arg "Node.create: workers must be >= 1";
  ignore_sigpipe ();
  let conns = spawn_exec (discover_exe config) config in
  Array.iter (fun c -> set_reply_timeout c.fd) conns;
  let c =
    {
      conns;
      wire = 0;
      alive = true;
      telem_started = false;
      offsets = Array.make config.workers 0.;
      rtts = Array.make config.workers infinity;
    }
  in
  (* Ship the program; workers compile the same statements we do. Then
     the mesh handshake: distribute every worker's listener path, barrier
     on the binds (so each listen backlog exists before any peer
     connects), then tell everyone to wire up. *)
  barrier c (Protocol.Init (Marshal.to_string dp []));
  barrier c
    (Protocol.Peers
       (Array.init config.workers (fun _ -> fresh_socket_path config)));
  barrier c Protocol.Mesh_connect;
  {
    c;
    ex =
      Cluster.of_transport ~cost:config.cost ~workers:config.workers
        (transport c) dp;
  }

let shutdown { c = t; _ } =
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
      (fun c -> try ignore (Unix.waitpid [] c.pid) with _ -> ())
      t.conns
  end
