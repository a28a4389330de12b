module Obs = Divm_obs.Obs
module Profile = Divm_profile.Profile

type opts = { explain : bool; profile : bool }

let install ?metrics_json ~metrics ~trace () =
  (* Any consumer of the registry/trace means the distributed engines
     should pull their workers' share into the merged view. *)
  if metrics || metrics_json <> None || trace <> None then
    Obs.set_collection true;
  (* at_exit runs hooks in reverse registration order: register metrics
     first so the trace file is written before the snapshot is printed. *)
  if metrics then
    at_exit (fun () -> prerr_string (Obs.to_text (Obs.snapshot ())));
  (match metrics_json with
  | None -> ()
  | Some file ->
      at_exit (fun () ->
          let oc = open_out file in
          output_string oc (Obs.to_json (Obs.snapshot ()));
          close_out oc));
  match trace with
  | None -> ()
  | Some file ->
      Obs.set_tracing true;
      at_exit (fun () ->
          Obs.write_chrome_trace file;
          Printf.eprintf "wrote %d spans to %s\n%!"
            (List.length (Obs.events ()))
            file)

(* [--listen PORT]: the scrape endpoint wants the merged live registry,
   so it arms collection too. *)
let listen port =
  Obs.set_collection true;
  let bound = Obs_http.listen port in
  Printf.eprintf "serving /metrics on http://127.0.0.1:%d\n%!" bound;
  bound

let activate ?plan ?storage opts =
  (match (opts.explain, plan) with
  | true, Some p -> print_string (Profile.render p)
  | _ -> ());
  if opts.profile then begin
    Obs.set_collection true;
    Profile.reset ();
    Profile.set_enabled true;
    (* registry state when profiling starts: the exit report reconciles
       slot sums against the registry deltas of the same window *)
    let earlier = Obs.snapshot () in
    at_exit (fun () ->
        let diff = Obs.diff ~later:(Obs.snapshot ()) ~earlier in
        prerr_string
          (Profile.report ?plan
             ?storage:(Option.map (fun f -> f ()) storage)
             ~diff ()))
  end

open Cmdliner

let metrics_t =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print a final metrics registry snapshot (Prometheus text format) \
           on stderr at exit.")

let metrics_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write a final metrics registry snapshot as JSON to $(docv) at \
           exit.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record trace spans and write them to $(docv) as Chrome \
           trace_event JSON at exit (open in chrome://tracing or Perfetto).")

let explain_t =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the compiled trigger program's plan: per statement the \
           chosen access path (foreach/get/slice), which index serves it, \
           the columnar route, and (distributed) location tags, blocks and \
           transfers.")

let profile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable the per-statement profiler and print a hot-statement \
           report (ops/probes/bytes/wall per statement, reconciled against \
           registry totals) on stderr at exit.")

let listen_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "listen" ] ~docv:"PORT"
        ~doc:
          "Serve the live metrics registry over HTTP on \
           127.0.0.1:$(docv) while running: $(b,GET /metrics) answers \
           Prometheus text, $(b,GET /metrics.json) the JSON report. With \
           a distributed backend the registry includes the \
           per-worker-labeled merged telemetry.")

let setup =
  Term.(
    const (fun metrics metrics_json trace listen_port explain profile ->
        install ?metrics_json ~metrics ~trace ();
        (match listen_port with Some p -> ignore (listen p) | None -> ());
        { explain; profile })
    $ metrics_t $ metrics_json_t $ trace_t $ listen_t $ explain_t $ profile_t)

(* ---------------- unified engine flags ---------------- *)

module Engine = Divm_engine.Engine
module Workload = Divm_workload.Workload

type common = { engine : Engine.config; opts : opts }

(* Re-point the backend variant: a [--backend] name keeps the current
   backend's parameters when it already is that variant (so [defaults]
   survive), otherwise starts from that backend's default config;
   [--workers] re-parameterizes whichever distributed backend won. *)
let resolve_backend (current : Engine.backend) backend workers =
  let base =
    match backend with
    | None -> current
    | Some `Local -> Engine.Local
    | Some `Simulated -> (
        match current with
        | Engine.Simulated _ -> current
        | _ -> Engine.Simulated (Divm_cluster.Cluster.config ()))
    | Some `Multiprocess -> (
        match current with
        | Engine.Multiprocess _ -> current
        | _ -> Engine.Multiprocess (Divm_node.Node.config ()))
  in
  match (workers, base) with
  | None, b -> b
  | Some w, Engine.Simulated cc ->
      Engine.Simulated { cc with Divm_cluster.Cluster.workers = w }
  | Some w, Engine.Multiprocess nc ->
      Engine.Multiprocess { nc with Divm_node.Node.workers = w }
  | Some _, Engine.Local -> Engine.Local

let combine (defaults : Engine.config) backend workers domains batch level opts
    =
  let engine =
    {
      defaults with
      Engine.backend =
        resolve_backend defaults.Engine.backend backend workers;
      domains =
        (match domains with Some _ -> domains | None -> defaults.Engine.domains);
      batch_size = Option.value batch ~default:defaults.Engine.batch_size;
      opt_level = Option.value level ~default:defaults.Engine.opt_level;
    }
  in
  { engine; opts }

let backend_conv =
  Arg.enum
    [ ("local", `Local); ("simulated", `Simulated); ("multiprocess", `Multiprocess) ]

(* An integer flag confined to [lo, hi]: out-of-range values are a usage
   error (exit 124) rather than an exception deep inside an engine. *)
let int_within ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when lo <= n && n <= hi -> Ok n
    | _ when hi = max_int ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
    | _ ->
        Error
          (`Msg (Printf.sprintf "expected an integer from %d to %d, got %S" lo hi s))
  in
  Arg.conv (parse, Format.pp_print_int)

let parse_common ?(defaults = Engine.default_config) () =
  let backend_t =
    Arg.(
      value
      & opt (some backend_conv) None
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Execution backend: $(b,local) (specialized single-process \
             runtime), $(b,simulated) (deterministic cluster simulator, \
             modeled latency), or $(b,multiprocess) (real worker processes \
             over sockets; the cost model becomes a predictor reported next \
             to measured wall time).")
  in
  let workers_t =
    Arg.(
      value
      & opt (some (int_within 1)) None
      & info [ "workers"; "w" ] ~docv:"N"
          ~doc:"Worker count for the simulated or multiprocess backend.")
  in
  let domains_t =
    Arg.(
      value
      & opt (some (int_within 1)) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Execution domains (default: $(b,DIVM_DOMAINS) or 1): the local \
             runtime's batch fan-out, or the simulator's stage fan-out. \
             Ignored by the multiprocess backend (its parallelism is the \
             worker processes).")
  in
  let batch_t =
    Arg.(
      value
      & opt (some (int_within 1)) None
      & info [ "batch" ] ~docv:"N" ~doc:"Update batch size.")
  in
  let level_t =
    Arg.(
      value
      & opt (some (int_within ~hi:4 0)) None
      & info [ "opt-level" ] ~docv:"L"
          ~doc:
            "Distributed optimization level 0\xE2\x80\x934: the Fig. 13 \
             levels 0\xE2\x80\x933, then 4, each batch dealt on the key its \
             trigger repartitions by.")
  in
  Term.(
    const (combine defaults)
    $ backend_t $ workers_t $ domains_t $ batch_t $ level_t $ setup)

let workload_conv parse =
  Arg.conv (parse, fun ppf (w : Workload.t) -> Format.pp_print_string ppf w.wname)

let query =
  let parse s =
    try Ok (Workload.find s)
    with Invalid_argument _ ->
      Error (`Msg (Printf.sprintf "unknown query %S (expected Q1-Q22 or DS...)" s))
  in
  Arg.(
    value
    & pos 0 (workload_conv parse) (Workload.find "Q3")
    & info [] ~docv:"QUERY" ~doc:"Query name (Q1\xE2\x80\x93Q22, DS3\xE2\x80\xA6).")

(* The SQL compiles while the flags parse, so a bad query is a usage
   error like any other bad argument. *)
let sql =
  let parse text =
    try Ok (Workload.of_sql text)
    with Divm_sql.Sql.Parse_error m | Divm_sql.Sql.Compile_error m ->
      Error (`Msg m)
  in
  Arg.(
    value
    & opt (some (workload_conv parse)) None
    & info [ "sql" ] ~docv:"SQL"
        ~doc:"Compile this SQL string (TPC-H schema) instead.")

let activate_engine eng opts =
  let name = (Engine.workload eng).Workload.wname in
  let plan =
    match Engine.dprog eng with
    | Some dp -> Profile.explain_dist ~name dp
    | None -> Profile.explain ~name (Engine.prog eng)
  in
  activate ~plan ~storage:(fun () -> Engine.storage_stats eng) opts
