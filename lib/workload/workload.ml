open Divm_ring
open Divm_calc
open Divm_compiler
open Divm_dist

type t = {
  wname : string;
  maps : (string * Calc.expr) list;
  streams : (string * Schema.t) list;
  partition_keys : string list;
}

let find name =
  let n = String.uppercase_ascii name in
  if String.length n >= 2 && String.sub n 0 2 = "DS" then
    let q = Divm_tpcds.Queries.find n in
    {
      wname = q.Divm_tpcds.Queries.qname;
      maps = q.Divm_tpcds.Queries.maps;
      streams = Divm_tpcds.Schema.streams;
      partition_keys = Divm_tpcds.Schema.partition_keys;
    }
  else
    let q = Divm_tpch.Queries.find n in
    {
      wname = q.Divm_tpch.Queries.qname;
      maps = q.Divm_tpch.Queries.maps;
      streams = Divm_tpch.Schema.streams;
      partition_keys = Divm_tpch.Schema.partition_keys;
    }

let of_sql ?(name = "Q") text =
  {
    wname = name;
    maps = Divm_sql.Sql.compile ~catalog:Divm_tpch.Schema.streams ~name text;
    streams = Divm_tpch.Schema.streams;
    partition_keys = Divm_tpch.Schema.partition_keys;
  }

let compile ?(preaggregate = true) w =
  Compile.compile
    ~options:{ Compile.default_options with preaggregate }
    ~streams:w.streams w.maps

let is_tpcds w = w.streams = Divm_tpcds.Schema.streams

let stream w ~scale ~seed ~batch_size =
  if is_tpcds w then Divm_tpcds.Gen.stream { scale; seed } ~batch_size
  else Divm_tpch.Gen.stream { scale; seed } ~batch_size

let distribute ?(level = Distribute.default_options.level) w prog =
  let catalog = Loc.heuristic ~keys:w.partition_keys prog in
  Distribute.compile
    ~options:{ Distribute.default_options with level }
    ~catalog prog
