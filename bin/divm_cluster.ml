(* divm_cluster — run a TPC-H or TPC-DS query on a distributed backend
   and report per-batch metrics.

   --backend simulated (default): the deterministic cluster simulator —
   modeled latency, shuffled bytes, stages. --backend multiprocess: real
   worker processes over Unix domain sockets; the same cost model runs as
   a predictor, and each batch reports modeled latency next to measured
   wall time and actual wire bytes. Both backends are one executor over
   two transports: they leave bit-identical stores, and --stage-json
   FILE writes the same per-stage reconciliation on either.

   With --trace FILE every batch becomes a cluster:REL (or node:REL) span
   whose stage:N and transfer:NAME children carry modeled_ms attributes;
   --metrics prints the registry totals at exit. *)

open Divm
open Cmdliner
module Obs_cli = Divm_obs_cli.Obs_cli

let run query scale repeat stage_json (common : Obs_cli.common) =
  let cfg = common.engine in
  let eng = Engine.create ~config:cfg (Workload.find query) in
  Obs_cli.activate_engine eng common.opts;
  let w = Engine.workload eng in
  let workers =
    match cfg.backend with
    | Engine.Simulated cc -> cc.Cluster.workers
    | Engine.Multiprocess nc -> nc.Node.workers
    | Engine.Local -> 1
  in
  let stream = Workload.stream w ~scale ~seed:42 ~batch_size:cfg.batch_size in
  Printf.printf
    "%s on %d %s workers (opt level %d), batches of %d tuples\n\
     %-10s %8s %9s %9s %8s %7s\n"
    w.Workload.wname workers (Engine.backend_name eng) cfg.opt_level
    cfg.batch_size "relation" "tuples" "modeled" "wall" "shuffle" "stages";
  let reports = ref [] in
  (* --repeat replays the stream: a load loop for watching the live
     --listen endpoint or soaking the telemetry path. Only the first
     pass prints per-batch rows; multiplicities accumulate across
     passes, which the per-batch reporting does not care about. *)
  for pass = 1 to max 1 repeat do
    List.iter
      (fun (rel, b) ->
        let r = Engine.apply_batch eng ~rel b in
        reports := r :: !reports;
        if pass = 1 then
          Printf.printf "%-10s %8d %8.1fms %8.1fms %7dKB %7d\n" rel
            r.Engine.tuples
            (Option.value r.Engine.modeled ~default:0. *. 1000.)
            (r.Engine.wall *. 1000.)
            (r.Engine.bytes_shuffled / 1024)
            r.Engine.stages)
      stream
  done;
  List.iter
    (fun (mname, _) ->
      Printf.printf "%s: %d result tuples\n" mname
        (Gmr.cardinal (Engine.query eng mname)))
    w.Workload.maps;
  (match stage_json with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Engine.reconcile_json (List.rev !reports));
      close_out oc;
      Printf.eprintf "wrote per-stage reconciliation to %s\n%!" file);
  Engine.shutdown eng

let query_t = Arg.(value & pos 0 string "Q3" & info [] ~docv:"QUERY")
let scale_t = Arg.(value & opt float 2.0 & info [ "scale" ] ~doc:"Stream scale")

let repeat_t =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Replay the update stream $(docv) times (a load loop for \
           watching $(b,--listen) live or soaking the telemetry path).")

let stage_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "stage-json" ] ~docv:"FILE"
        ~doc:
          "Write per-stage predicted-vs-measured latency (and modeled vs \
           actual bytes) as JSON to $(docv) at the end of the run.")

(* This binary's defaults: the simulated backend, 8 workers, 2000-tuple
   batches — `--backend multiprocess --workers 2` flips to real processes. *)
let defaults =
  Engine.config
    ~backend:(Engine.Simulated (Cluster.config ~workers:8 ()))
    ~batch_size:2000 ()

let cmd =
  Cmd.v
    (Cmd.info "divm_cluster"
       ~doc:
         "Distributed incremental view maintenance on the simulated or \
          multi-process cluster")
    Term.(
      const run $ query_t $ scale_t $ repeat_t $ stage_json_t
      $ Obs_cli.parse_common ~defaults ())

let () = exit (Cmd.eval cmd)
