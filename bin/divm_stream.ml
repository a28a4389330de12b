(* divm_stream — run a query over a synthesized update stream and report
   throughput and the result.

   Defaults to the local specialized runtime; --backend simulated or
   --backend multiprocess routes the same stream through the distributed
   engines behind the same Engine API.

   With --trace FILE each trigger firing shows up as a trigger:REL span
   with per-statement children; --metrics prints the registry (record
   ops, index probes, batch latency histogram, …) at exit. *)

open Divm
open Cmdliner
module Obs_cli = Divm_obs_cli.Obs_cli

let run w scale single show_result tbl_dir (common : Obs_cli.common) =
  let cfg = common.engine in
  (* distributed backends have no single-tuple path: they run one-tuple
     batches, and their compiler needs pre-aggregation *)
  let cfg =
    match cfg.backend with
    | Engine.Local when single -> { cfg with Engine.preaggregate = false }
    | _ -> cfg
  in
  let eng = Engine.create ~config:cfg w in
  Obs_cli.activate_engine eng common.opts;
  let w = Engine.workload eng in
  let stream =
    match tbl_dir with
    | Some _ when Workload.is_tpcds w ->
        Printf.eprintf
          "divm_stream: --tbl-dir loads dbgen TPC-H files; %s is a TPC-DS query\n"
          w.Workload.wname;
        Engine.shutdown eng;
        exit 2
    | Some dir ->
        (* real dbgen data: each table arrives as one bulk batch *)
        Tpch.Load.load_dir dir
    | None -> Workload.stream w ~scale ~seed:42 ~batch_size:cfg.batch_size
  in
  let tuples = ref 0 in
  let ops = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (rel, b) ->
      tuples := !tuples + Gmr.cardinal b;
      if single then
        Gmr.iter
          (fun tup m ->
            let r = Engine.apply_single eng ~rel tup m in
            ops := !ops + r.Engine.ops)
          b
      else begin
        let r = Engine.apply_batch eng ~rel b in
        ops := !ops + r.Engine.ops
      end)
    stream;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%s: %d tuples in %.3fs (%.0f tuples/s, %s mode, %s backend)\n"
    w.Workload.wname !tuples dt
    (float_of_int !tuples /. dt)
    (if single then "single-tuple"
     else Printf.sprintf "batch=%d" cfg.Engine.batch_size)
    (Engine.backend_name eng);
  Printf.printf "materialized maps: %d, record ops: %d\n"
    (List.length (Engine.prog eng).Prog.maps)
    !ops;
  if show_result then
    List.iter
      (fun (mname, _) ->
        Format.printf "%s = %a@." mname Gmr.pp (Engine.query eng mname))
      w.Workload.maps;
  Engine.shutdown eng

let scale_t = Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Stream scale")

let single_t =
  Arg.(value & flag & info [ "single" ] ~doc:"Tuple-at-a-time processing")

let result_t =
  Arg.(value & flag & info [ "result" ] ~doc:"Print the final query result")

let tbl_t =
  Arg.(
    value
    & opt (some dir) None
    & info [ "tbl-dir" ]
        ~doc:"Load dbgen .tbl files from this directory instead of generating")

let cmd =
  Cmd.v
    (Cmd.info "divm_stream"
       ~doc:"Maintain a TPC-H or TPC-DS query over an update stream")
    Term.(
      const run $ Obs_cli.query $ scale_t $ single_t $ result_t $ tbl_t
      $ Obs_cli.parse_common ~defaults:(Engine.config ~batch_size:1000 ()) ())

let () = exit (Cmd.eval cmd)
