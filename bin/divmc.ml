(* divmc — the view-maintenance compiler front end.

   Compile a TPC-H/TPC-DS query (by name) or an SQL string over the TPC-H
   schema, and print the trigger program, the distributed program, or its
   job/stage summary. Takes the same engine flags as the runner binaries
   (--opt-level selects the distributed pipeline level; --backend and
   --workers parse but compile-only modes never spawn engines). *)

open Divm
open Cmdliner
module Obs_cli = Divm_obs_cli.Obs_cli

let run query sql mode preagg (common : Obs_cli.common) =
  let opts = common.opts in
  let level = common.engine.Engine.opt_level in
  let w = Option.value sql ~default:query in
  let prog = Workload.compile ~preaggregate:preagg w in
  match mode with
  | `Local ->
      if opts.explain then
        print_string (Profile.render (Profile.explain ~name:w.wname prog))
      else Format.printf "%a@." Prog.pp prog
  | `Dist ->
      let dp = Workload.distribute ~level w prog in
      if opts.explain then
        print_string (Profile.render (Profile.explain_dist ~name:w.wname dp))
      else Format.printf "%a@." Dprog.pp dp
  | `Stats ->
      let dp = Workload.distribute ~level w prog in
      if opts.explain then
        print_string (Profile.render (Profile.explain_dist ~name:w.wname dp));
      Format.printf "maps: %d  statements: %d@." (List.length prog.maps)
        (Prog.stmt_count prog);
      List.iter
        (fun (tr : Dprog.dtrigger) ->
          let jobs, stages = Dprog.jobs_and_stages dp tr.drelation in
          let l, d = Dprog.block_counts tr in
          Format.printf
            "trigger %-12s jobs=%d stages=%d blocks=%d local + %d distributed@."
            tr.drelation jobs stages l d)
        dp.dtriggers

let mode_t =
  Arg.(
    value
    & vflag `Local
        [
          (`Local, info [ "local" ] ~doc:"Print the local trigger program (default)");
          (`Dist, info [ "dist" ] ~doc:"Print the distributed program");
          (`Stats, info [ "stats" ] ~doc:"Print program statistics");
        ])

let preagg_t =
  Arg.(
    value & opt bool true
    & info [ "preagg" ] ~doc:"Batch pre-aggregation (§3.3)")

let cmd =
  Cmd.v
    (Cmd.info "divmc" ~doc:"Compile queries to incremental maintenance programs")
    Term.(
      const run $ Obs_cli.query $ Obs_cli.sql $ mode_t $ preagg_t
      $ Obs_cli.parse_common ())

let () = exit (Cmd.eval cmd)
