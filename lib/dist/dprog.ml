open Divm_calc
open Divm_compiler

type transfer_kind = Scatter | Repart | Gather

type transfer = {
  tname : string;
  tkind : transfer_kind;
  key : int array;
  source : string;
}

type dstmt = Compute of Prog.stmt | Transfer of transfer

type mode = MLocal | MDist

type block = { bmode : mode; bstmts : dstmt list }
type dtrigger = { drelation : string; blocks : block list; deal : int option }
type t = { base : Prog.t; locs : Loc.catalog; dtriggers : dtrigger list }

let writes = function
  | Compute s -> s.Prog.target
  | Transfer { tname; _ } -> tname

let reads = function
  | Compute s -> Calc.map_refs s.Prog.rhs
  | Transfer { source; _ } -> [ source ]

let is_assign = function
  | Compute { Prog.op = Prog.Assign; _ } -> true
  | Transfer _ -> true (* transfers overwrite their destination *)
  | _ -> false

let mode_of locs = function
  | Transfer _ -> MLocal
  | Compute s -> (
      match Loc.find locs s.Prog.target with
      | Loc.Local -> MLocal
      | Loc.Dist _ | Loc.Replicated | Loc.Random -> MDist)

(* What a statement writes and reads, and whether it overwrites. *)
type effect = { w : string; r : string list; assign : bool }

let effect s = { w = writes s; r = reads s; assign = is_assign s }

let commutes e1 e2 =
  (not (List.mem e1.w e2.r))
  && (not (List.mem e2.w e1.r))
  && (e1.w <> e2.w || not (e1.assign || e2.assign))

let commute s1 s2 = commutes (effect s1) (effect s2)

(* --- Appendix C.3, transcribed --- *)

(* Fusion tests statements pairwise, again after every merge, so each
   block travels with its statements' effects, computed once. *)
let blocks_commute (_, e1) (_, e2) =
  List.for_all (fun l -> List.for_all (commutes l) e2) e1

let merge_into_head hd tl =
  List.fold_left
    (fun (((b1, e1) as h), rhs) ((b2, e2) as b) ->
      if b1.bmode = b2.bmode && List.for_all (fun b' -> blocks_commute b' b) rhs
      then (({ b1 with bstmts = b1.bstmts @ b2.bstmts }, e1 @ e2), rhs)
      else (h, rhs @ [ b ]))
    (hd, []) tl

let fuse blocks =
  let rec go = function
    | [] -> []
    | hd :: tl ->
        let hd2, tl2 = merge_into_head hd tl in
        (* a head nothing merged into comes back as it went in *)
        if hd2 == hd then fst hd :: go tl else go (hd2 :: tl2)
  in
  go (List.map (fun b -> (b, List.map effect b.bstmts)) blocks)

let promote locs stmts =
  List.map (fun s -> { bmode = mode_of locs s; bstmts = [ s ] }) stmts

let find_trigger t rel =
  match List.find_opt (fun tr -> String.equal tr.drelation rel) t.dtriggers with
  | Some tr -> tr
  | None -> invalid_arg ("Dprog.find_trigger: " ^ rel)

let jobs_and_stages t rel =
  let tr = find_trigger t rel in
  let stages =
    List.length (List.filter (fun b -> b.bmode = MDist) tr.blocks)
  in
  let jobs, _ =
    List.fold_left
      (fun (jobs, in_run) b ->
        match b.bmode with
        | MDist -> if in_run then (jobs, true) else (jobs + 1, true)
        | MLocal -> (jobs, false))
      (0, false) tr.blocks
  in
  (jobs, stages)

(* The plain trigger program over just the compute statements, in block
   order — what a node's [Runtime] compiles, and what EXPLAIN's
   access-path analysis runs on. *)
let compute_prog (t : t) =
  let triggers =
    List.map
      (fun tr ->
        {
          Prog.relation = tr.drelation;
          stmts =
            List.concat_map
              (fun b ->
                List.filter_map
                  (function Compute s -> Some s | Transfer _ -> None)
                  b.bstmts)
              tr.blocks;
        })
      t.dtriggers
  in
  { t.base with Prog.triggers = triggers }

let transfers (t : t) =
  Array.of_list
    (List.concat_map
       (fun tr ->
         List.concat_map
           (fun b ->
             List.filter_map
               (function
                 | Transfer { tname; key; source; _ } ->
                     Some (tname, key, source)
                 | Compute _ -> None)
               b.bstmts)
           tr.blocks)
       t.dtriggers)

let block_counts tr =
  List.fold_left
    (fun (l, d) b -> match b.bmode with MLocal -> (l + 1, d) | MDist -> (l, d + 1))
    (0, 0) tr.blocks

let pp_key ppf key =
  Format.fprintf ppf "<%s>"
    (String.concat "," (Array.to_list (Array.map string_of_int key)))

let pp_dstmt locs ppf s =
  let mode = match mode_of locs s with MLocal -> "LOCAL" | MDist -> "DISTRIBUTED" in
  match s with
  | Compute st ->
      Format.fprintf ppf "%-11s %s %s { %s }" mode st.Prog.target
        (match st.Prog.op with Prog.Add_to -> "+=" | Prog.Assign -> ":=")
        (String.concat ", " (Calc.map_refs st.Prog.rhs))
  | Transfer { tname; tkind; key; source } ->
      let kw =
        match tkind with
        | Scatter -> "SCATTER"
        | Repart -> "REPARTITION"
        | Gather -> "GATHER"
      in
      Format.fprintf ppf "%-11s %s := %s%a { %s }" mode tname kw pp_key key
        source

let deal_column t tr =
  Option.map
    (fun c ->
      (List.nth (List.assoc tr.drelation t.base.streams) c : Divm_ring.Schema.var)
        .name)
    tr.deal

let pp ppf t =
  List.iter
    (fun tr ->
      Format.fprintf ppf "@[<v>ON UPDATE %s%s:@ " tr.drelation
        (match deal_column t tr with
        | Some v -> " (batch dealt on " ^ v ^ ")"
        | None -> "");
      List.iteri
        (fun i b ->
          Format.fprintf ppf "-- block %d (%s)@ " i
            (match b.bmode with MLocal -> "local" | MDist -> "distributed");
          List.iter
            (fun s -> Format.fprintf ppf "  %a@ " (pp_dstmt t.locs) s)
            b.bstmts)
        tr.blocks;
      Format.fprintf ppf "@]@.")
    t.dtriggers

let worker_blocks tr =
  let delivered = ref [] in
  List.map
    (fun b ->
      let filled = !delivered in
      List.iter
        (function
          | Transfer { tname; _ } -> delivered := tname :: !delivered
          | Compute _ -> ())
        b.bstmts;
      match b.bmode with
      | MLocal -> ([], [])
      | MDist ->
          ( filled,
            List.filter_map
              (function Compute s -> Some s | Transfer _ -> None)
              b.bstmts ))
    tr.blocks

let driver_blocks tr =
  let delivered = ref [] and run = ref [] and runs = ref [] in
  let close () =
    if !run <> [] then runs := (!delivered, List.rev !run) :: !runs;
    run := []
  in
  List.iter
    (fun b ->
      match b.bmode with
      | MDist -> close ()
      | MLocal ->
          List.iter
            (function
              | Compute s -> run := s :: !run
              | Transfer { tname; _ } ->
                  close ();
                  delivered := tname :: !delivered)
            b.bstmts)
    tr.blocks;
  close ();
  List.rev !runs

(* --- transport calls --- *)

type step = Driver of int | Stage of int | Move of transfer

let steps tr =
  let nruns = ref 0 and in_run = ref false in
  List.concat
    (List.mapi
       (fun bi b ->
         match b.bmode with
         | MDist ->
             in_run := false;
             [ Stage bi ]
         | MLocal ->
             List.filter_map
               (function
                 | Transfer t ->
                     in_run := false;
                     Some (Move t)
                 | Compute _ when !in_run -> None
                 | Compute _ ->
                     in_run := true;
                     incr nruns;
                     Some (Driver (!nruns - 1)))
               b.bstmts)
       tr.blocks)
  |> Array.of_list

let on_workers locs name =
  match Loc.find locs name with
  | Loc.Dist _ | Loc.Random -> true
  | Loc.Local | Loc.Replicated -> false

let is_mesh locs t =
  t.tkind <> Gather && on_workers locs t.source
  && Loc.find locs t.tname <> Loc.Local

type call =
  | Run of int * int list
  | Pull of int list
  | Exchange of int list
  | Via_driver of int

(* The grouping rule. Driver runs never end a call: they cannot change
   worker state, and no transfer a call carries reads driver state. *)
let calls locs steps =
  let closed = ref [] and cur = ref None in
  let close () =
    Option.iter (fun c -> closed := c :: !closed) !cur;
    cur := None
  in
  let dest i = match steps.(i) with Move t -> t.tname | _ -> "" in
  Array.iteri
    (fun i step ->
      match (step, !cur) with
      | Driver _, _ -> ()
      | Stage _, _ ->
          close ();
          cur := Some (Run (i, []))
      | Move t, _ when t.tkind = Gather && on_workers locs t.source -> (
          match !cur with
          | Some (Run (s, ps)) -> cur := Some (Run (s, ps @ [ i ]))
          | Some (Pull ps) -> cur := Some (Pull (ps @ [ i ]))
          | _ ->
              close ();
              cur := Some (Pull [ i ]))
      | Move t, Some (Exchange ps)
        when is_mesh locs t && not (List.exists (fun p -> dest p = t.source) ps)
        ->
          cur := Some (Exchange (ps @ [ i ]))
      | Move t, _ when is_mesh locs t ->
          close ();
          cur := Some (Exchange [ i ])
      | Move _, _ ->
          close ();
          closed := Via_driver i :: !closed)
    steps;
  close ();
  List.rev !closed

let round_trips locs steps calls =
  List.fold_left
    (fun n -> function
      | Run _ | Pull _ | Exchange _ -> n + 1
      | Via_driver i -> (
          match steps.(i) with
          | Move t ->
              n
              + (if Loc.find locs t.source = Loc.Local then 0 else 1)
              + if t.tkind = Gather then 0 else 1
          | Driver _ | Stage _ -> invalid_arg "Dprog.round_trips"))
    0 calls
