open Divm_storage
open Divm_compiler
open Divm_dist
module Runtime = Divm_runtime.Runtime
module Cluster = Divm_cluster.Cluster
module Node = Divm_node.Node
module Workload = Divm_workload.Workload

type backend =
  | Local
  | Simulated of Cluster.config
  | Multiprocess of Node.config

type config = {
  backend : backend;
  domains : int option;
  batch_size : int;
  opt_level : int;
  preaggregate : bool;
}

let config ?(backend = Local) ?domains ?(batch_size = 1000)
    ?(opt_level = Distribute.default_options.level) ?(preaggregate = true) () =
  { backend; domains; batch_size; opt_level; preaggregate }

let default_config = config ()

type report = {
  tuples : int;
  ops : int;
  wall : float;
  modeled : float option;
  stages : int;
  bytes_shuffled : int;
  wire_bytes : int;
  round_trips : int;
  stage_stats : Cluster.stage_stat list;
}

type impl = ILocal of Runtime.t | IDist of Cluster.t

type t = {
  cfg : config;
  w : Workload.t;
  eprog : Prog.t;
  edprog : Dprog.t option;
  impl : impl;
  close : unit -> unit;
}

let create ?(config = default_config) (w : Workload.t) =
  let prog = Workload.compile ~preaggregate:config.preaggregate w in
  let dist build =
    let dp = Workload.distribute ~level:config.opt_level w prog in
    let c, close = build dp in
    { cfg = config; w; eprog = prog; edprog = Some dp; impl = IDist c; close }
  in
  match config.backend with
  | Local ->
      let rt = Runtime.create ?domains:config.domains prog in
      {
        cfg = config;
        w;
        eprog = prog;
        edprog = None;
        impl = ILocal rt;
        close = ignore;
      }
  | Simulated cc ->
      dist (fun dp ->
          (Cluster.create ~config:cc ?domains:config.domains dp, ignore))
  | Multiprocess nc ->
      dist (fun dp ->
          let n = Node.create ~config:nc dp in
          (Node.executor n, fun () -> Node.shutdown n))

let workload t = t.w
let prog t = t.eprog
let dprog t = t.edprog

let backend_name t =
  match t.cfg.backend with
  | Local -> "local"
  | Simulated _ -> "simulated"
  | Multiprocess _ -> "multiprocess"

let domains t = match t.impl with ILocal rt -> Runtime.domains rt | IDist _ -> 1

let local_report (r : Runtime.batch_report) =
  {
    tuples = r.tuples;
    ops = r.ops;
    wall = r.wall;
    modeled = None;
    stages = 0;
    bytes_shuffled = 0;
    wire_bytes = 0;
    round_trips = 0;
    stage_stats = [];
  }

let apply_batch t ~rel batch =
  match t.impl with
  | ILocal rt -> local_report (Runtime.apply_batch rt ~rel batch)
  | IDist c ->
      let m = Cluster.apply_batch c ~rel batch in
      {
        tuples = Gmr.cardinal batch;
        ops = m.driver_ops + m.max_worker_ops;
        wall = m.wall;
        modeled = Some m.latency;
        stages = m.stages;
        bytes_shuffled = m.bytes_shuffled;
        wire_bytes = m.wire_bytes;
        round_trips = m.round_trips;
        stage_stats = m.stage_stats;
      }

let apply_single t ~rel tup m =
  match t.impl with
  | ILocal rt -> local_report (Runtime.apply_single rt ~rel tup m)
  | IDist _ ->
      let b = Gmr.create ~size:1 () in
      Gmr.add b tup m;
      apply_batch t ~rel b

let load t entries =
  List.iter (fun (rel, b) -> ignore (apply_batch t ~rel b)) entries

let query t qname =
  match t.impl with
  | ILocal rt -> Runtime.result rt qname
  | IDist c -> Cluster.result c qname

let storage_stats t =
  match t.impl with
  | ILocal rt -> Runtime.storage_stats rt
  | IDist c -> Cluster.storage_stats c

let shutdown t = t.close ()

(* Reconciliation artifact: per stage name, how the predictor did against
   the measurement, summed over the batches. Distributed stages also
   aggregate the workers' self-measured walls, attributing the slowest
   worker and its straggler ratio (max/median over the summed walls);
   mesh transfers additionally aggregate per-link wire bytes. *)
let reconcile_json reports =
  (* stage name -> its stats in batch order, names in first-seen order *)
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (s : Cluster.stage_stat) ->
          match Hashtbl.find_opt groups s.sname with
          | Some l -> l := s :: !l
          | None ->
              order := s.sname :: !order;
              Hashtbl.add groups s.sname (ref [ s ]))
        r.stage_stats)
    reports;
  let row name =
    let ss = List.rev !(Hashtbl.find groups name) in
    let sum f = List.fold_left (fun a s -> a + f s) 0 ss in
    let sumf f = List.fold_left (fun a s -> a +. f s) 0. ss in
    let b = Buffer.create 256 in
    let add fmt = Printf.bprintf b fmt in
    let list f l = add "%s" (String.concat ", " (List.map f l)) in
    add "\n  {\"name\": %S, \"batches\": %d, \"predicted_ms\": %.6f, \
         \"measured_ms\": %.6f, \"bytes\": %d, \"wire_bytes\": %d"
      name (List.length ss)
      (sumf (fun s -> s.predicted) *. 1e3)
      (sumf (fun s -> s.measured) *. 1e3)
      (sum (fun s -> s.sbytes))
      (sum (fun s -> s.swire));
    let pwire = sum (fun s -> s.spwire) in
    if pwire > 0 then add ", \"predicted_wire_bytes\": %d" pwire;
    let links = Hashtbl.create 4 in
    List.iter
      (fun (s : Cluster.stage_stat) ->
        List.iter
          (fun (src, dst, n) ->
            let k = (src, dst) in
            Hashtbl.replace links k
              (n + Option.value (Hashtbl.find_opt links k) ~default:0))
          s.slinks)
      ss;
    if Hashtbl.length links > 0 then begin
      add ", \"mesh_links\": [";
      list
        (fun ((src, dst), n) ->
          Printf.sprintf "{\"src\": %d, \"dst\": %d, \"bytes\": %d}" src dst n)
        (List.sort compare (List.of_seq (Hashtbl.to_seq links)));
      add "]"
    end;
    let ws =
      List.fold_left
        (fun acc (s : Cluster.stage_stat) ->
          if s.swalls = [||] then acc
          else if Array.length acc = Array.length s.swalls then
            Array.map2 ( +. ) acc s.swalls
          else Array.copy s.swalls)
        [||] ss
    in
    let w = Array.length ws in
    if w > 0 then begin
      add ", \"worker_walls_ms\": [";
      list (fun x -> Printf.sprintf "%.6f" (x *. 1e3)) (Array.to_list ws);
      add "]";
      let slowest = ref 0 in
      Array.iteri (fun j x -> if x > ws.(!slowest) then slowest := j) ws;
      let sorted = Array.copy ws in
      Array.sort compare sorted;
      let median =
        if w land 1 = 1 then sorted.(w / 2)
        else (sorted.((w / 2) - 1) +. sorted.(w / 2)) /. 2.
      in
      add ", \"slowest_worker\": %d" !slowest;
      if median > 0. then
        add ", \"straggler_ratio\": %.4f" (sorted.(w - 1) /. median)
    end;
    add "}";
    Buffer.contents b
  in
  "[" ^ String.concat "," (List.rev_map row !order) ^ "\n]\n"
