(* End-to-end and per-layer benchmark of the view-maintenance engine.

   A closed-loop generator feeds TPC-H update batches through the public
   Engine API (batch i+1 goes in when [apply_batch] for batch i returns)
   and afterwards checks every maintained view against the Exec reference
   interpreter. Four workloads stress different layers; README.md records
   why each exists and which layer metric should move which end-to-end
   metric.

     dune exec --profile release bench/suite/suite.exe -- \
       [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] \
       [--scale X] [--json FILE] [--require BENCHMARK.json]
     dune exec --profile release bench/suite/suite.exe -- \
       --compare PARENT.jsonl CHANGE.jsonl

   Every metric prints as [METRIC <workload> <name> <value> <unit>]; the
   last line of stdout is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. *)

open Divm

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type backend = Local | Multiprocess
type stream = Insert | Window

type workload = {
  name : string;
  backend : backend;
  queries : string list;
  stream : stream;
  passes : int;  (** replays of the measured tail at [--seconds 15] *)
}

let local_queries = [ "Q1"; "Q3"; "Q6"; "Q13"; "Q17"; "Q19"; "Q22" ]

(* Pass counts make each workload's measured part take about [--seconds]
   on a 2-core x86-64 host; [min_batches] may raise a query's. *)
let workloads =
  [
    { name = "local-insert"; backend = Local; queries = local_queries;
      stream = Insert; passes = 440 };
    { name = "local-window"; backend = Local; queries = local_queries;
      stream = Window; passes = 210 };
    { name = "mp-gather"; backend = Multiprocess; queries = [ "Q1"; "Q6" ];
      stream = Insert; passes = 450 };
    { name = "mp-shuffle"; backend = Multiprocess; queries = [ "Q3"; "Q17" ];
      stream = Insert; passes = 160 };
  ]

let nominal_seconds = 15.
let workers = 2
let window_depth = 20

(* Every query gets at least this many measured batches at [--seconds
   15], so at least 10 of them lie beyond its 99th percentile. *)
let min_batches = 1000

(* Worker sockets and Chrome traces live here, relative to the working
   directory: Unix socket paths are limited to ~107 bytes, so an absolute
   path under a deep checkout might not bind. *)
let out_dir = ".bench_suite"

(* suite.exe sits in bench/suite/ of the build tree and the worker binary
   in bin/. DIVM_NODE_EXE, when set, wins (Node reads it itself). *)
let worker_exe () =
  if Sys.getenv_opt "DIVM_NODE_EXE" <> None then None
  else
    let root = Filename.(dirname (dirname (dirname Sys.executable_name))) in
    let p = Filename.concat root (Filename.concat "bin" "divm_node.exe") in
    if Sys.file_exists p then Some p else None

let engine_config = function
  | Local -> Engine.config ~domains:1 ()
  | Multiprocess ->
      Engine.config ~domains:1
        ~backend:
          (Engine.Multiprocess
             (Node.config ~workers ~socket_dir:out_dir
                ?worker_exe:(worker_exe ()) ()))
        ()

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type input = {
  w : Workload.t;
  warm : (string * Gmr.t) list;  (** coalesced 70% prefix, bulk-loaded *)
  tail : (string * Gmr.t) array;  (** the measured 30%, in stream order *)
  batches : (string * Gmr.t) array;
      (** the tail batches, then the retraction of each *)
  sched : int array;  (** indexes into [batches], in feeding order *)
  net : int array;  (** per tail batch: times inserted minus retracted *)
}

(* First 70% of the tuples, coalesced into one batch per relation. *)
let split_warm stream =
  let total = List.fold_left (fun a (_, b) -> a + Gmr.cardinal b) 0 stream in
  let rec go n acc = function
    | ((_, b) as x) :: rest when n < total * 7 / 10 ->
        go (n + Gmr.cardinal b) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let prefix, tail = go 0 [] stream in
  let warm =
    List.fold_left
      (fun acc (r, b) ->
        match List.assoc_opt r acc with
        | Some g ->
            Gmr.union_into g b;
            acc
        | None -> acc @ [ (r, Gmr.copy b) ])
      [] prefix
  in
  (warm, Array.of_list tail)

(* Insert: the tail replayed [passes] times in stream order. Window: each
   pass draws as many tail batches as the tail holds, uniformly with
   replacement from a seeded generator, and every insert is followed by
   the retraction of the batch of the same relation inserted
   [window_depth] batches earlier, so the last [window_depth] batches of
   each relation stay live and about half the rows are deletes. Drawing
   with replacement lets a batch fall out of the window entirely, so its
   keys cancel to zero and leave the pools. The pass count is the
   workload's, raised to give [min_batches], both scaled by [seconds]. *)
let prepare (wl : workload) ~seed ~seconds stream qname =
  let w = Workload.find qname in
  let rels = List.concat_map (fun (_, e) -> Calc.base_rels e) w.Workload.maps in
  let warm, tail =
    split_warm (List.filter (fun (r, _) -> List.mem r rels) stream)
  in
  let k = Array.length tail in
  (* Batches per pass, and those a window never retracts. *)
  let per_pass, kept =
    match wl.stream with
    | Insert -> (k, 0)
    | Window ->
        let fed = List.sort_uniq compare (Array.to_list (Array.map fst tail)) in
        (2 * k, window_depth * List.length fed)
  in
  let nominal = max wl.passes ((min_batches + kept + per_pass - 1) / max 1 per_pass) in
  let passes =
    max 1 (int_of_float (Float.round (float_of_int nominal *. seconds /. nominal_seconds)))
  in
  let net = Array.make k 0 in
  let sched =
    match wl.stream with
    | Insert ->
        Array.fill net 0 k passes;
        Array.init (passes * k) (fun i -> i mod k)
    | Window ->
        let st = Random.State.make [| seed; Hashtbl.hash qname |] in
        let live = Hashtbl.create 8 in
        let out = ref [] in
        for _ = 1 to passes * k do
          let j = Random.State.int st k in
          out := j :: !out;
          net.(j) <- net.(j) + 1;
          let rel = fst tail.(j) in
          let q =
            match Hashtbl.find_opt live rel with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.add live rel q;
                q
          in
          Queue.push j q;
          if Queue.length q > window_depth then begin
            let old = Queue.pop q in
            net.(old) <- net.(old) - 1;
            out := (k + old) :: !out
          end
        done;
        Array.of_list (List.rev !out)
  in
  let retractions = Array.map (fun (r, b) -> (r, Gmr.scale b (-1.))) tail in
  { w; warm; tail; batches = Array.append tail retractions; sched; net }

(* ------------------------------------------------------------------ *)
(* Accumulation                                                        *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable attempts : int;  (** batches attempted *)
  mutable errors : int;  (** raised *)
  mutable tuples : int;
  mutable wall : float;  (** Σ report.wall *)
  (* Times below are CPU time of the engine's processes at the reference
     host speed; the [_wall] twins are wall-clock time as measured. *)
  mutable lat : float array list;
      (** Engine.apply_batch times per query; NaN where the batch raised *)
  mutable lat_wall : float array list;
  mutable rates : float list;  (** per query: median of its round rates *)
  mutable rates_wall : float list;
  mutable setup : float;  (** Σ over queries of the median set-up *)
  mutable setup_wall : float;
  mutable speeds : float list;  (** host-speed samples *)
  mutable wire : int;
  mutable modeled : float;
  mutable shuffled : int;
  mutable stages : int;
  (* Node layer, summed over batches: seconds and wire bytes. *)
  mutable scatter : float;
  mutable stage : float;
  mutable busy : float;
  mutable transfer : float;
  mutable mesh : float;
  mutable stage_wire : int;
  mutable transfer_wire : int;
  mutable stragglers : float list;
  mutable alloc : float;  (** coordinator words allocated in the loop *)
  mutable worker_kb : int;  (** max over queries of Σ worker VmHWM *)
  mutable checked : int;
  mutable mismatched : int;
  counters : (string, int) Hashtbl.t;  (** registry deltas by series *)
  (* Replays of a layer's public function on the measured batches. *)
  mutable encode : float;
  mutable decode : float;
  mutable frame_bytes : int;
  mutable proto_tuples : int;
  mutable transpose : float;
  mutable compact : float;
  mutable col_tuples : int;
}

let new_acc () =
  {
    attempts = 0; errors = 0; tuples = 0; wall = 0.; lat = []; lat_wall = [];
    rates = []; rates_wall = []; setup = 0.; setup_wall = 0.; speeds = [];
    wire = 0; modeled = 0.; shuffled = 0; stages = 0;
    scatter = 0.; stage = 0.; busy = 0.; transfer = 0.; mesh = 0.;
    stage_wire = 0; transfer_wire = 0; stragglers = []; alloc = 0.;
    worker_kb = 0; checked = 0; mismatched = 0;
    counters = Hashtbl.create 16; encode = 0.; decode = 0.; frame_bytes = 0;
    proto_tuples = 0; transpose = 0.; compact = 0.; col_tuples = 0;
  }

let median_of xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between closest ranks of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((r -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let is_transfer (s : Node.stage_stat) =
  String.starts_with ~prefix:"transfer:" s.sname

let record acc ~node (r : Engine.report) =
  acc.tuples <- acc.tuples + r.Engine.tuples;
  acc.wall <- acc.wall +. r.wall;
  acc.wire <- acc.wire + r.wire_bytes;
  acc.modeled <- acc.modeled +. Option.value r.modeled ~default:0.;
  acc.shuffled <- acc.shuffled + r.bytes_shuffled;
  acc.stages <- acc.stages + r.stages;
  if node then begin
    let measured = ref 0. in
    List.iter
      (fun (s : Node.stage_stat) ->
        let slowest = Array.fold_left Float.max 0. s.swalls in
        measured := !measured +. s.measured;
        if is_transfer s then begin
          acc.transfer <- acc.transfer +. s.measured;
          acc.mesh <- acc.mesh +. slowest;
          acc.transfer_wire <- acc.transfer_wire + s.swire
        end
        else begin
          acc.stage <- acc.stage +. s.measured;
          acc.busy <- acc.busy +. slowest;
          acc.stage_wire <- acc.stage_wire + s.swire;
          let m = median_of (Array.to_list s.swalls) in
          if Array.length s.swalls > 1 && m > 0. then
            acc.stragglers <- (slowest /. m) :: acc.stragglers
        end)
      r.stage_stats;
    acc.scatter <- acc.scatter +. r.wall -. !measured
  end

let add_counters acc ~later ~earlier =
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.VCounter c ->
          Hashtbl.replace acc.counters name
            (c + Option.value (Hashtbl.find_opt acc.counters name) ~default:0)
      | _ -> ())
    (Obs.diff ~later ~earlier)

(* A family summed over the coordinator's series and the workers'
   {worker="i"} series. *)
let family acc name =
  Hashtbl.fold
    (fun n c a -> if Obs.base_of n = name then a + c else a)
    acc.counters 0

(* Record ops: divm_record_ops_total counts the local runtime's; the
   distributed backends count their workers' and driver's ops in their own
   unlabeled totals (the labeled per-worker series of those families repeat
   the same ops, so they are left out). *)
let record_ops acc =
  family acc "divm_record_ops_total"
  + List.fold_left
      (fun a n -> a + Option.value (Hashtbl.find_opt acc.counters n) ~default:0)
      0
      [
        "divm_cluster_worker_ops_total"; "divm_cluster_driver_ops_total";
        "divm_node_worker_ops_total"; "divm_node_driver_ops_total";
      ]

let alloc_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* VmHWM of a process in kB (0 when unreadable). *)
let hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
      List.fold_left
        (fun a line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value (int_of_string_opt kb) ~default:a
              | [] -> a)
          | _ -> a)
        0
        (String.split_on_char '\n' s)

(* Process ids of this process's children: the engine's workers. *)
let children () =
  let self = string_of_int (Unix.getpid ()) in
  let path = Printf.sprintf "/proc/%s/task/%s/children" self self in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | s -> List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s))

(* Σ VmHWM of the engine's worker processes. *)
let children_kb () = List.fold_left (fun a pid -> a + hwm_kb pid) 0 (children ())

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* The host is shared with other tenants, and its speed as a wall clock
   sees it swings by tens of percent within one run. The timed
   end-to-end metrics therefore use a clock that leaves the host out:

   - CPU time of the engine's processes: this one, which runs the whole
     engine on the local backend and the coordinator on
     the multiprocess one, plus the worker processes. While the
     hypervisor runs another tenant on the core, the kernel books the gap
     as steal time; while another process of this machine holds the
     core, the engine waits runnable. Neither is run time of the
     engine's tasks.
   - Scaled to a reference host speed. CPU time still stretches when
     other tenants' memory traffic slows the shared cache and memory,
     which a probe below sees vary by up to 40% for seconds at a time.
     Every [segment] seconds of a measured loop, and around the set-ups,
     this thread times a fixed probing kernel in CPU time, and each time
     is multiplied by the mean speed of the two samples around it over
     [reference_mops].

   Wall-clock twins of the timed metrics print next to them. *)

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The workers' /proc/<pid>/schedstat files, kept open. The first field
   is the task's run time in nanoseconds, steal excluded. *)
let open_workers () =
  Array.of_list
    (List.map
       (fun pid ->
         Unix.openfile (Printf.sprintf "/proc/%s/schedstat" pid) [ Unix.O_RDONLY ] 0)
       (children ()))

let schedstat_buf = Bytes.create 128

(* Σ run time of the workers since each started, in seconds. *)
let workers_cpu fds =
  Array.fold_left
    (fun a fd ->
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let n = Unix.read fd schedstat_buf 0 (Bytes.length schedstat_buf) in
      let s = Bytes.sub_string schedstat_buf 0 n in
      let ns = String.sub s 0 (Option.value (String.index_opt s ' ') ~default:n) in
      a +. (float_of_string ns *. 1e-9))
    0. fds

(* The probing kernel works on an 8 MB table, past a core's L2, so it
   waits on the shared cache and memory the way the engine's pools do;
   per batch, it tracks the engine's CPU time on the memory-bound
   queries several times better than an arithmetic loop (README.md).
   It is bench code, so an engine change cannot change its work. It
   allocates nothing and its table lies outside the OCaml heap, so the
   engine's garbage cannot slow it, nor can it change how the GC paces
   the engine. It refills the table first, so every sample does the
   same work. *)
let reference_mops = 60.
let segment = 0.1

let probe_table =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20)

(* Host speed: million probes per CPU-second over [reference_mops]. *)
let host_speed () =
  let table = probe_table in
  let mask = Bigarray.Array1.dim table - 1 and ops = 200_000 in
  Bigarray.Array1.fill table 0;
  let x = ref 88172645463325252 in
  let c0 = self_cpu () in
  for i = 1 to ops do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let key = !x land max_int in
    let h = ref (key land mask) in
    while table.{!h} <> 0 && table.{!h} <> key do
      h := (!h + 1) land mask
    done;
    if i land 3 = 0 then table.{!h} <- key
  done;
  float_of_int ops /. (self_cpu () -. c0) /. 1e6 /. reference_mops

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* A query's throughput is the median over this many rounds of equal
   batch counts, each round's rate being Σ tuples / Σ time. *)
let rounds = 10

(* Rate per round of [tup] tuples over the times [t]. *)
let round_rates tup t =
  let n = Array.length t in
  List.filter_map
    (fun r ->
      let lo = r * n / rounds and hi = (r + 1) * n / rounds in
      let k = ref 0 and s = ref 0. in
      for i = lo to hi - 1 do
        if not (Float.is_nan t.(i)) then begin
          k := !k + tup.(i);
          s := !s +. t.(i)
        end
      done;
      if !s > 0. then Some (float_of_int !k /. !s) else None)
    (List.init rounds Fun.id)

(* Set an engine up [cycles] times (create + bulk load of the warm
   prefix), time each, measure the schedule on the last one, and return
   the query results for the oracle. When [traced], the Chrome trace of
   set-up plus the first pass goes to [out_dir]; spans after that are
   dropped batch by batch so memory stays bounded. *)
let measure (wl : workload) ~cycles ~traced acc inp =
  let span name f = Obs.span ("bench:" ^ name) f in
  let cfg = engine_config wl.backend in
  (* The workers start in Engine.create, so their whole run time at the
     end of the load belongs to the set-up. *)
  let rec setup k =
    let t0 = now () and c0 = self_cpu () in
    let e = span "create" (fun () -> Engine.create ~config:cfg inp.w) in
    span "load" (fun () -> Engine.load e inp.warm);
    let c1 = self_cpu () and t1 = now () in
    let fds = open_workers () in
    if wl.backend = Multiprocess && Array.length fds <> workers then
      failwith
        (Printf.sprintf "expected %d worker processes, found %d" workers
           (Array.length fds));
    let cpu = c1 -. c0 +. workers_cpu fds and wall = t1 -. t0 in
    if k <= 1 then (e, fds, [ (cpu, wall) ])
    else begin
      Array.iter Unix.close fds;
      span "shutdown" (fun () -> Engine.shutdown e);
      let e', fds', ts = setup (k - 1) in
      (e', fds', (cpu, wall) :: ts)
    end
  in
  if traced then Obs.clear_events ();
  let speed0 = host_speed () in
  let e, fds, times = setup cycles in
  let n = Array.length inp.sched in
  let lat = Array.make n nan and lat_wall = Array.make n nan in
  let tup = Array.make n 0 and speed = Array.make n 1. in
  let first = min n (Array.length inp.tail) in
  let node = wl.backend = Multiprocess in
  (* The host-speed sample that opens the current segment of the loop. *)
  let seg_first = ref 0 and seg_speed = ref (host_speed ()) in
  let seg_t0 = ref (now ()) in
  let setup_speed = (speed0 +. !seg_speed) /. 2. in
  let snap0 = Obs.snapshot () in
  let words0 = alloc_words () in
  (* The workers' run time up to the start of the current batch: a batch
     is charged what they run until the next one starts, so work they do
     after acknowledging it counts too. *)
  let wprev = ref (workers_cpu fds) in
  let loop0 = now () in
  Array.iteri
    (fun i j ->
      let rel, b = inp.batches.(j) in
      acc.attempts <- acc.attempts + 1;
      let c0 = self_cpu () and t0 = now () in
      (match span "apply_batch" (fun () -> Engine.apply_batch e ~rel b) with
      | rep ->
          let t1 = now () and c1 = self_cpu () in
          lat.(i) <- c1 -. c0;
          lat_wall.(i) <- t1 -. t0;
          tup.(i) <- rep.Engine.tuples;
          record acc ~node rep
      | exception ex ->
          acc.errors <- acc.errors + 1;
          Printf.eprintf "%s %s: batch %d raised %s\n%!" wl.name
            inp.w.Workload.wname i (Printexc.to_string ex));
      if traced && i >= first - 1 then begin
        if i = first - 1 then
          Obs.write_chrome_trace
            (Filename.concat out_dir
               (Printf.sprintf "trace-%s-%s.json" wl.name inp.w.Workload.wname));
        Obs.clear_events ()
      end;
      if i = n - 1 || now () -. !seg_t0 >= segment then begin
        let s = host_speed () in
        Array.fill speed !seg_first (i + 1 - !seg_first) ((!seg_speed +. s) /. 2.);
        acc.speeds <- s :: acc.speeds;
        seg_first := i + 1;
        seg_speed := s;
        seg_t0 := now ()
      end;
      let w = workers_cpu fds in
      lat.(i) <- lat.(i) +. (w -. !wprev);
      wprev := w)
    inp.sched;
  let loop = now () -. loop0 in
  acc.alloc <- acc.alloc +. (alloc_words () -. words0);
  let set_up = median_of (List.map fst times) *. setup_speed in
  acc.setup <- acc.setup +. set_up;
  acc.setup_wall <- acc.setup_wall +. median_of (List.map snd times);
  let scaled = Array.mapi (fun i t -> t *. speed.(i)) lat in
  let median_rate t =
    match round_rates tup t with [] -> None | rs -> Some (median_of rs)
  in
  Option.iter (fun r -> acc.rates <- r :: acc.rates) (median_rate scaled);
  Option.iter (fun r -> acc.rates_wall <- r :: acc.rates_wall) (median_rate lat_wall);
  acc.lat <- scaled :: acc.lat;
  acc.lat_wall <- lat_wall :: acc.lat_wall;
  Printf.eprintf
    "%s %s: %d batches in %.2f s (CPU %.2f s), set-up %.3f s, host speed %.3f\n%!"
    wl.name inp.w.Workload.wname n loop
    (Array.fold_left (fun a x -> if Float.is_nan x then a else a +. x) 0. lat)
    set_up
    (median_of (Array.to_list speed));
  let results =
    List.map
      (fun (name, _) -> (name, span "query" (fun () -> Engine.query e name)))
      inp.w.Workload.maps
  in
  acc.worker_kb <- max acc.worker_kb (children_kb ());
  Array.iter Unix.close fds;
  span "shutdown" (fun () -> Engine.shutdown e);
  (* After shutdown: its final telemetry drain lands the workers' last
     counter deltas. *)
  add_counters acc ~later:(Obs.snapshot ()) ~earlier:snap0;
  results

let replay_reps = 5

let time_reps f =
  let t0 = now () in
  for _ = 1 to replay_reps do
    f ()
  done;
  now () -. t0

(* Layers without an in-program timer: replay their public functions on
   the query's tail batches, outside the timed loop. Transposition and
   compaction run for every backend (compaction keyed on the first column,
   merging on all); the frame codec runs where batches cross a socket, on
   the coordinator's round-robin shares of each batch. *)
let replay acc ~protocol inp =
  Array.iter
    (fun (rel, b) ->
      let n = Gmr.cardinal b in
      let width = Gmr.fold (fun t _ _ -> Array.length t) b 0 in
      if n > 0 && width > 0 then begin
        acc.col_tuples <- acc.col_tuples + n;
        acc.transpose <-
          acc.transpose +. time_reps (fun () -> ignore (Colbatch.of_gmr ~width b));
        let cb = Colbatch.of_gmr ~width b in
        let key = [| 0 |] and rest = Array.init (width - 1) (fun i -> i + 1) in
        acc.compact <-
          acc.compact
          +. time_reps (fun () -> ignore (Colbatch.compact_group cb ~key ~rest));
        if protocol then begin
          let shares = Array.init workers (fun _ -> Gmr.create ()) in
          let i = ref 0 in
          Gmr.iter
            (fun t m ->
              Gmr.add shares.(!i mod workers) t m;
              incr i)
            b;
          let msgs = Array.map (fun s -> Protocol.Load_batch (rel, s)) shares in
          let frames = Array.map Protocol.encode_frame msgs in
          acc.proto_tuples <- acc.proto_tuples + n;
          Array.iter
            (fun f -> acc.frame_bytes <- acc.frame_bytes + String.length f)
            frames;
          acc.encode <-
            acc.encode
            +. time_reps (fun () ->
                   Array.iter (fun m -> ignore (Protocol.encode_frame m)) msgs);
          acc.decode <-
            acc.decode
            +. time_reps (fun () ->
                   Array.iter (fun f -> ignore (Protocol.decode_frame f)) frames)
        end
      end)
    inp.tail

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

(* The first key whose multiplicities differ, with (wanted, got). The
   tolerance is 1e-9 of the view's largest magnitude: incremental float
   sums carry rounding error on the scale of their summands, not of the
   result. A group whose contributions all cancel keeps a residue near
   1e-7 next to revenues near 1e6 (Q3 under local-window), and Q1's sums
   pass 1e9, where an absolute 1e-6 flags rounding noise. *)
let difference want got =
  let largest g = Gmr.fold (fun _ m a -> Float.max a (Float.abs m)) g 1. in
  let tol = 1e-9 *. Float.max (largest want) (largest got) in
  let first a b =
    Gmr.fold
      (fun t m d ->
        match d with
        | None when Float.abs (m -. Gmr.mult b t) > tol -> Some (t, m, Gmr.mult b t)
        | d -> d)
      a None
  in
  match first want got with
  | Some d -> Some d
  | None -> Option.map (fun (t, g, w) -> (t, w, g)) (first got want)

(* Re-evaluate every result map in full over the net base contents
   the engine was fed (warm prefix plus every scheduled batch, with
   signs) and compare. *)
let check (wl : workload) acc inp results =
  let net = Hashtbl.create 8 in
  List.iter (fun (r, b) -> Hashtbl.replace net r (Gmr.copy b)) inp.warm;
  Array.iteri
    (fun i (rel, b) ->
      let g =
        match Hashtbl.find_opt net rel with
        | Some g -> g
        | None ->
            let g = Gmr.create () in
            Hashtbl.replace net rel g;
            g
      in
      let c = float_of_int inp.net.(i) in
      if c <> 0. then Gmr.iter (fun t m -> Gmr.add g t (m *. c)) b)
    inp.tail;
  let ex = Exec.create (Workload.compile inp.w) in
  Exec.load ex (Hashtbl.fold (fun r g l -> (r, g) :: l) net []);
  List.iter
    (fun (name, got) ->
      acc.checked <- acc.checked + 1;
      match difference (Exec.result ex name) got with
      | None -> ()
      | Some (key, want, have) ->
          acc.mismatched <- acc.mismatched + 1;
          Printf.eprintf
            "%s %s: view %s differs from the re-evaluation oracle at %s: \
             expected %.17g, engine has %.17g\n%!"
            wl.name inp.w.Workload.wname name (Vtuple.to_string key) want have)
    results

(* ------------------------------------------------------------------ *)
(* Runs and metrics                                                    *)
(* ------------------------------------------------------------------ *)

(* Run every query of the workload, each with its own engine, then (when
   untraced) check them all against the oracle: after the measurements,
   so the coordinator's peak RSS leaves out the reference interpreter. *)
let run_workload (wl : workload) ~stream ~seed ~seconds ~cycles ~traced
    ~replays =
  let acc = new_acc () in
  let checks =
    List.map
      (fun q ->
        let inp = prepare wl ~seed ~seconds stream q in
        let results = measure wl ~cycles ~traced acc inp in
        if replays then replay acc ~protocol:(wl.backend = Multiprocess) inp;
        (inp, results))
      wl.queries
  in
  let coord_kb = hwm_kb "self" in
  if not traced then begin
    let t0 = now () in
    List.iter (fun (inp, res) -> check wl acc inp res) checks;
    Printf.eprintf "%s: %d views checked against the oracle in %.2f s\n%!"
      wl.name acc.checked (now () -. t0)
  end;
  (acc, coord_kb)

let ratio a b = if b = 0. then 0. else a /. b
let per a b = ratio (float_of_int a) (float_of_int b)

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Latency samples, sorted; batches that raised (NaN) are left out. *)
let sorted ls =
  let a = List.filter (fun x -> not (Float.is_nan x)) (Array.to_list (Array.concat ls)) in
  Array.of_list (List.sort compare a)

(* Percentiles are taken per query and averaged geometrically, like the
   throughput: pooled, they would land on whichever query's batches
   straddle them and jump between queries from run to run. Each query
   has at least [min_batches] batches, so 10 lie beyond its 99th. *)
let per_query_ms p lats =
  geomean (List.map (fun l -> percentile (sorted [ l ]) p *. 1e3) lats)

let p50_ms = per_query_ms 50.
let p99_ms = per_query_ms 99.

(* The end-to-end metrics BENCHMARK.json bounds; times are CPU time of
   the engine's processes at the reference host speed. *)
let e2e_metrics acc ~coord_kb =
  [
    ("tuples_per_cpu_s", geomean acc.rates, "tuples/cpu-s");
    ("batch_cpu_p50_ms", p50_ms acc.lat, "ms");
    ("batch_cpu_p99_ms", p99_ms acc.lat, "ms");
    ("setup_s", acc.setup, "s");
    ("peak_rss_mb", float_of_int (coord_kb + acc.worker_kb) /. 1024., "MB");
  ]

(* Printed with every run but absent from the result line: the same
   times on the wall clock, the median host speed, the sample count
   behind the percentiles, and the failure shares, which the result line
   carries as [attempted]/[failed]. *)
let info_metrics acc =
  [
    ("tuples_per_s_wall", geomean acc.rates_wall, "tuples/s");
    ("batch_p50_ms_wall", p50_ms acc.lat_wall, "ms");
    ("batch_p99_ms_wall", p99_ms acc.lat_wall, "ms");
    ("setup_s_wall", acc.setup_wall, "s");
    ("host_speed", median_of acc.speeds, "ratio");
    ( "query_batches_min",
      float_of_int
        (List.fold_left (fun a l -> min a (Array.length (sorted [ l ]))) max_int acc.lat),
      "count" );
    ("view_mismatch_frac", per acc.mismatched acc.checked, "frac");
    ("batch_error_frac", per acc.errors acc.attempts, "frac");
  ]

(* Counted per-layer metrics that come from the engine's reports: exact,
   and 0 where a backend has no such layer, so they carry no bound. *)
let report_metrics acc =
  [
    ("wire_bytes_per_tuple", per acc.wire acc.tuples, "B/tuple");
    ("modeled_batch_ms", ratio acc.modeled (float_of_int acc.attempts) *. 1e3, "ms");
    ("cluster.bytes_shuffled_per_tuple", per acc.shuffled acc.tuples, "B/tuple");
    ("cluster.stages_per_batch", per acc.stages acc.attempts, "stages/batch");
  ]

(* [u] is the untraced run (report-derived layers, replays, allocation),
   [t] the traced run (registry deltas including the workers' series). *)
let layer_metrics ~u ~t =
  let b = float_of_int (max 1 u.attempts) in
  let ms x = x /. b *. 1e3 in
  let c = family t in
  let ns x n = ratio x (float_of_int (n * replay_reps)) *. 1e9 in
  [
    ("node.scatter_driver_ms_per_batch", ms u.scatter, "ms");
    ("node.stage_ms_per_batch", ms u.stage, "ms");
    ("node.worker_busy_ms_per_batch", ms u.busy, "ms");
    ("node.barrier_wait_ms_per_batch", ms (u.stage -. u.busy), "ms");
    ("node.transfer_ms_per_batch", ms u.transfer, "ms");
    ("node.mesh_worker_ms_per_batch", ms u.mesh, "ms");
    ( "node.scatter_wire_bytes_per_tuple",
      (if u.stage_wire + u.transfer_wire = 0 then 0.
       else per (u.wire - u.stage_wire - u.transfer_wire) u.tuples),
      "B/tuple" );
    ("node.stage_wire_bytes_per_tuple", per u.stage_wire u.tuples, "B/tuple");
    ("node.transfer_wire_bytes_per_tuple", per u.transfer_wire u.tuples, "B/tuple");
    ("node.straggler_ratio_p50", median_of u.stragglers, "ratio");
    ("protocol.encode_ns_per_tuple", ns u.encode u.proto_tuples, "ns/tuple");
    ("protocol.decode_ns_per_tuple", ns u.decode u.proto_tuples, "ns/tuple");
    ("protocol.frame_bytes_per_tuple", per u.frame_bytes u.proto_tuples, "B/tuple");
    ("runtime.record_ops_per_tuple", per (record_ops t) t.tuples, "ops/tuple");
    ("runtime.index_probes_per_tuple", per (c "divm_index_probes_total") t.tuples, "probes/tuple");
    ( "runtime.probe_miss_ratio",
      per (c "divm_index_probe_misses_total") (c "divm_index_probes_total"),
      "ratio" );
    ("runtime.slice_scanned_per_tuple", per (c "divm_slice_scanned_total") t.tuples, "rows/tuple");
    ("runtime.probes_saved_per_tuple", per (c "divm_probes_saved_total") t.tuples, "probes/tuple");
    ( "runtime.rows_compacted_per_tuple",
      per (c "divm_batch_rows_compacted_total") t.tuples,
      "rows/tuple" );
    ( "runtime.selvec_scanned_per_tuple",
      per (c "divm_selvec_rows_scanned_total") t.tuples,
      "rows/tuple" );
    ( "runtime.selvec_selectivity",
      per (c "divm_selvec_rows_selected_total") (c "divm_selvec_rows_scanned_total"),
      "ratio" );
    ("colbatch.transpose_ns_per_tuple", ns u.transpose u.col_tuples, "ns/tuple");
    ("colbatch.compact_ns_per_tuple", ns u.compact u.col_tuples, "ns/tuple");
    ( "colbatch.rows_cancelled_per_tuple",
      per (c "divm_batch_rows_cancelled_total") t.tuples,
      "rows/tuple" );
    ( "colbatch.dict_hit_ratio",
      per (c "divm_dict_intern_hits_total")
        (c "divm_dict_intern_hits_total" + c "divm_dict_intern_misses_total"),
      "ratio" );
    ("engine.alloc_words_per_tuple", ratio u.alloc (float_of_int u.tuples), "words/tuple");
    ("trace.overhead_frac", 1. -. ratio (geomean t.rates) (geomean u.rates), "ratio");
  ]

(* The four Node times partition the batch wall by construction; this
   checks the partition (every stage_stat is a stage or a transfer). *)
let reconcile (wl : workload) u =
  let b = float_of_int (max 1 u.attempts) in
  let parts = (u.scatter +. u.busy +. (u.stage -. u.busy) +. u.transfer) /. b in
  let mean = u.wall /. b in
  let off = ratio (Float.abs (parts -. mean)) mean in
  Printf.printf
    "RECONCILE %s node scatter_driver+worker_busy+barrier_wait+transfer = \
     %.4f ms vs mean batch wall %.4f ms (%.3f%%) %s\n"
    wl.name (parts *. 1e3) (mean *. 1e3) (off *. 100.)
    (if off <= 0.01 then "OK" else "MISMATCH")

type outcome = {
  wname : string;
  attempted : int;  (** batches plus result maps checked *)
  failed : int;  (** batches that raised plus maps that differ *)
  line : (string * float * string) list;  (** the result line's metrics *)
  shown : (string * float * string) list;  (** every printed metric *)
}

(* Untraced: the end-to-end metrics, from three set-ups per query. Traced:
   an untraced and a traced run of half the length each, one set-up per
   query; the result line then carries the per-layer metrics. *)
let run_one (wl : workload) ~stream ~seed ~seconds ~traced =
  let cycles = if traced then 1 else 3 in
  let seconds = if traced then seconds /. 2. else seconds in
  let u, coord_kb =
    run_workload wl ~stream ~seed ~seconds ~cycles ~traced:false ~replays:traced
  in
  let e2e = e2e_metrics u ~coord_kb and info = info_metrics u in
  let attempted = u.attempts + u.checked and failed = u.errors + u.mismatched in
  if not traced then
    { wname = wl.name; attempted; failed; line = e2e; shown = e2e @ info @ report_metrics u }
  else begin
    Obs.set_collection true;
    Obs.set_tracing true;
    let t, _ =
      run_workload wl ~stream ~seed ~seconds ~cycles ~traced:true ~replays:false
    in
    Obs.set_tracing false;
    Obs.set_collection false;
    Obs.clear_events ();
    if wl.backend = Multiprocess then reconcile wl u;
    let layers = report_metrics u @ layer_metrics ~u ~t in
    {
      wname = wl.name;
      attempted = attempted + t.attempts;
      failed = failed + t.errors;
      line = layers;
      shown = e2e @ info @ layers;
    }
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* JSON object members ["name": {"value": v, "unit": u}, ...]. *)
let json_members ?(prefix = "") ms =
  String.concat ", "
    (List.map
       (fun (n, v, u) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
           (Obs.json_string (prefix ^ n))
           (json_num v) (Obs.json_string u))
       ms)

let () =
  let wls = ref [] and seed = ref 2016 and seconds = ref nominal_seconds in
  let trace = ref false and scale = ref 4.0 and json = ref None in
  let require = ref None and files = ref None in
  let usage () =
    prerr_endline
      "usage: suite.exe [--workload NAME]... [--seed N] [--seconds S] \
       [--trace [0|1]] [--scale X] [--json FILE] [--require BENCHMARK.json]\n\
      \       suite.exe --compare PARENT.jsonl CHANGE.jsonl";
    exit 2
  in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: n :: rest ->
        if not (List.exists (fun (w : workload) -> w.name = n) workloads) then begin
          Printf.eprintf "unknown workload %s; known: %s\n" n
            (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
          exit 2
        end;
        wls := !wls @ [ n ];
        parse rest
    | "--seed" :: n :: rest ->
        seed := num int_of_string_opt n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := num float_of_string_opt s;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--scale" :: s :: rest ->
        scale := num float_of_string_opt s;
        parse rest
    | "--json" :: f :: rest ->
        json := Some f;
        parse rest
    | "--require" :: f :: rest ->
        require := Some f;
        parse rest
    | "--compare" :: a :: b :: rest ->
        files := Some (a, b);
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !files with
  | Some (parent, change) -> exit (Compare.compare ~parent ~change)
  | None ->
      let selected =
        match !wls with
        | [] -> workloads
        | names ->
            List.map
              (fun n -> List.find (fun (w : workload) -> w.name = n) workloads)
              names
      in
      if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
      let stream =
        Tpch.Gen.stream { Tpch.Gen.scale = !scale; seed = !seed } ~batch_size:1000
      in
      let outcomes =
        List.map
          (fun wl ->
            let o =
              run_one wl ~stream ~seed:!seed ~seconds:!seconds ~traced:!trace
            in
            List.iter
              (fun (n, v, u) ->
                Printf.printf "METRIC %s %s %.9g %s\n%!" o.wname n v u)
              o.shown;
            o)
          selected
      in
      Option.iter
        (fun f ->
          let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 f in
          List.iter
            (fun o ->
              Printf.fprintf oc
                "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"scale\": \
                 %s, \"trace\": %d, \"correct\": %b, \"attempted\": %d, \
                 \"failed\": %d, \"metrics\": {%s}}\n"
                (Obs.json_string o.wname) !seed (json_num !seconds)
                (json_num !scale)
                (if !trace then 1 else 0)
                (o.failed = 0) o.attempted o.failed (json_members o.shown))
            outcomes;
          close_out oc)
        !json;
      let required =
        match !require with
        | None -> true
        | Some f ->
            Compare.require f
              (List.map (fun o -> (o.wname, o.failed, o.shown)) outcomes)
      in
      (* The result line; metric names carry the workload when several
         ran. *)
      let several = List.length outcomes > 1 in
      let attempted = List.fold_left (fun a o -> a + o.attempted) 0 outcomes in
      let failed = List.fold_left (fun a o -> a + o.failed) 0 outcomes in
      let members =
        List.map
          (fun o ->
            json_members ~prefix:(if several then o.wname ^ "/" else "") o.line)
          outcomes
      in
      Printf.printf
        "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        (failed = 0) attempted failed
        (String.concat ", " members);
      if failed > 0 || not required then exit 1
