open Divm_ring
open Divm_storage
module Obs = Divm_obs.Obs

let i x = Value.Int x
let t2 a b = [| i a; i b |]

let test_pool_basic () =
  let p = Pool.create ~key_width:2 ~slices:[] () in
  Pool.add p (t2 1 10) 2.;
  Pool.add p (t2 1 10) 3.;
  Pool.add p (t2 2 20) 1.;
  Alcotest.(check int) "cardinal" 2 (Pool.cardinal p);
  Alcotest.(check (float 1e-9)) "get" 5. (Pool.get p (t2 1 10));
  Pool.add p (t2 1 10) (-5.);
  Alcotest.(check int) "cancel removes" 1 (Pool.cardinal p);
  Alcotest.(check (float 1e-9)) "absent" 0. (Pool.get p (t2 1 10));
  Pool.add p (t2 2 20) 8.;
  Alcotest.(check (float 1e-9)) "add sums" 9. (Pool.get p (t2 2 20))

let test_pool_free_list () =
  let p = Pool.create ~key_width:1 ~slices:[] () in
  for x = 0 to 9 do
    Pool.add p [| i x |] 1.
  done;
  for x = 0 to 4 do
    Pool.add p [| i x |] (-1.)
  done;
  Alcotest.(check int) "five free slots" 5 (Pool.free_slots p);
  (* New inserts must reuse freed slots. *)
  for x = 100 to 104 do
    Pool.add p [| i x |] 1.
  done;
  Alcotest.(check int) "slots reused" 0 (Pool.free_slots p);
  Alcotest.(check int) "cardinal" 10 (Pool.cardinal p)

let test_pool_slice () =
  let p = Pool.create ~key_width:2 ~slices:[ [| 1 |] ] () in
  Pool.add p (t2 1 10) 1.;
  Pool.add p (t2 2 10) 2.;
  Pool.add p (t2 3 20) 3.;
  let seen = ref [] in
  Pool.slice p ~index:0 [| i 10 |] (fun key m -> seen := (key.(0), m) :: !seen);
  Alcotest.(check int) "slice size" 2 (List.length !seen);
  Alcotest.(check bool) "slice members" true
    (List.mem (i 1, 1.) !seen && List.mem (i 2, 2.) !seen);
  (* Deletion must update the secondary index. *)
  Pool.add p (t2 1 10) (-1.);
  let n = ref 0 in
  Pool.slice p ~index:0 [| i 10 |] (fun _ _ -> incr n);
  Alcotest.(check int) "slice after delete" 1 !n;
  (* The last record of sub-key 20 retires the sub-key itself: the slice
     probe misses instead of finding an empty bucket. *)
  Pool.add p (t2 3 20) (-3.);
  let misses = Obs.Counter.make "divm_index_probe_misses_total" in
  let before = Obs.Counter.value misses in
  let n = ref 0 in
  Pool.slice p ~index:0 [| i 20 |] (fun _ _ -> incr n);
  Alcotest.(check int) "retired sub-key slices nothing" 0 !n;
  Alcotest.(check int) "retired sub-key probe misses" (before + 1)
    (Obs.Counter.value misses);
  Alcotest.(check (option int)) "find_slice hit" (Some 0)
    (Pool.find_slice p [| 1 |]);
  Alcotest.(check (option int)) "find_slice miss" None
    (Pool.find_slice p [| 0 |])

let test_pool_growth_and_gmr () =
  let p = Pool.create ~key_width:1 ~slices:[] () in
  for x = 0 to 999 do
    Pool.add p [| i x |] (float_of_int (x + 1))
  done;
  Alcotest.(check int) "grown pool" 1000 (Pool.cardinal p);
  Alcotest.(check (float 1e-9)) "value after growth" 500. (Pool.get p [| i 499 |]);
  let g = Pool.to_gmr p in
  Alcotest.(check int) "roundtrip cardinal" 1000 (Gmr.cardinal g);
  Alcotest.(check (float 1e-9)) "roundtrip value" 500. (Gmr.mult g [| i 499 |])

let test_pool_clear () =
  let p = Pool.create ~key_width:1 ~slices:[ [| 0 |] ] () in
  Pool.add p [| i 1 |] 1.;
  Pool.clear p;
  Alcotest.(check int) "cleared" 0 (Pool.cardinal p);
  Alcotest.(check (float 1e-9)) "get after clear" 0. (Pool.get p [| i 1 |]);
  Pool.add p [| i 1 |] 2.;
  Alcotest.(check (float 1e-9)) "reusable" 2. (Pool.get p [| i 1 |])

let test_colbatch_roundtrip () =
  let g =
    Gmr.of_list [ (t2 1 10, 1.); (t2 2 20, -2.); (t2 3 30, 3.) ]
  in
  let b = Colbatch.of_gmr ~width:2 g in
  Alcotest.(check int) "length" 3 (Colbatch.length b);
  Alcotest.(check int) "width" 2 (Colbatch.width b);
  Alcotest.(check bool) "roundtrip" true (Gmr.equal g (Colbatch.to_gmr b))

let test_trace_hooks () =
  let events = ref 0 in
  Trace.set_sink (Some (fun _ _ -> incr events));
  let p = Pool.create ~key_width:1 ~slices:[] () in
  Pool.add p [| i 1 |] 1.;
  ignore (Pool.get p [| i 1 |]);
  Pool.foreach p (fun _ _ -> ());
  Trace.set_sink None;
  let frozen = !events in
  ignore (Pool.get p [| i 1 |]);
  Alcotest.(check bool) "events recorded" true (frozen >= 3);
  Alcotest.(check int) "sink disabled" frozen !events

(* Model-based property: a pool with a secondary index behaves exactly like
   a GMR under random add/set/clear programs, including slice results. *)
let qcheck_pool_model =
  let open QCheck in
  let gen_op =
    Gen.(
      frequency
        [
          (6, map2 (fun a m -> `Add (a, float_of_int m)) (int_range 0 8) (int_range (-2) 3));
          (2, map2 (fun a m -> `Set (a, float_of_int m)) (int_range 0 8) (int_range 0 3));
          (1, return `Clear);
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
      Gen.(list_size (int_range 1 60) gen_op)
  in
  QCheck.Test.make ~name:"pool = gmr model under random programs" ~count:200
    arb (fun ops ->
      let p = Pool.create ~key_width:2 ~slices:[ [| 1 |] ] () in
      let model = Gmr.create () in
      List.iter
        (fun op ->
          match op with
          | `Add (a, m) ->
              let key = t2 a (a mod 3) in
              Pool.add p key m;
              Gmr.add model key m
          | `Set (a, m) ->
              let key = t2 a (a mod 3) in
              Pool.add p key (m -. Pool.get p key);
              Gmr.set model key m
          | `Clear ->
              Pool.clear p;
              Gmr.clear model)
        ops;
      (* cardinality, contents, and slices agree with the model *)
      Pool.cardinal p = Gmr.cardinal model
      && Gmr.equal (Pool.to_gmr p) model
      && List.for_all
           (fun b ->
             let via_slice = ref 0. and via_model = ref 0. in
             Pool.slice p ~index:0 [| i b |] (fun _ m -> via_slice := !via_slice +. m);
             Gmr.iter
               (fun key m ->
                 if Value.equal key.(1) (i b) then via_model := !via_model +. m)
               model;
             Float.abs (!via_slice -. !via_model) < 1e-9)
           [ 0; 1; 2 ])

(* Independent reference model for the storage core: a plain association
   list keyed by [Vtuple.equal], with the engine's cancellation threshold.
   Deliberately NOT a Gmr — Gmr sits on the same Oaidx core, so checking
   against it would let a shared bug cancel out. *)
module Model = struct
  type t = (Vtuple.t * float) list

  let get m key =
    match List.find_opt (fun (k, _) -> Vtuple.equal k key) m with
    | Some (_, v) -> v
    | None -> 0.

  let add m key x =
    if Float.abs x < Gmr.zero_eps then m
    else
      match List.partition (fun (k, _) -> Vtuple.equal k key) m with
      | [ (k0, v) ], rest ->
          let v' = v +. x in
          if Float.abs v' < Gmr.zero_eps then rest else (k0, v') :: rest
      | [], rest -> (key, x) :: rest
      | _ -> assert false

  let set m key x =
    let rest = List.filter (fun (k, _) -> not (Vtuple.equal k key)) m in
    if Float.abs x < Gmr.zero_eps then rest else (key, x) :: rest
end

(* Key fields flip between [Int x] and [Float (float x)]: the two forms are
   equal (and must collide) per [Value.equal]/[Value.hash]. *)
let field x as_float = if as_float then Value.Float (float_of_int x) else i x

type churn_op =
  | Add of int * bool * int * bool * float
  | Set of int * bool * int * bool * float
  | Remove of int * bool * int * bool
  | Clear

let show_op = function
  | Add (a, fa, b, fb, m) -> Printf.sprintf "Add(%d%s,%d%s,%g)" a
      (if fa then "f" else "") b (if fb then "f" else "") m
  | Set (a, fa, b, fb, m) -> Printf.sprintf "Set(%d%s,%d%s,%g)" a
      (if fa then "f" else "") b (if fb then "f" else "") m
  | Remove (a, fa, b, fb) -> Printf.sprintf "Remove(%d%s,%d%s)" a
      (if fa then "f" else "") b (if fb then "f" else "")
  | Clear -> "Clear"

let gen_churn =
  let open QCheck.Gen in
  (* enough distinct keys (0..40 x 0..8) that long programs force index
     growth, and enough cancellation that freed slots get reused *)
  let key = quad (int_range 0 40) bool (int_range 0 8) bool in
  let op =
    frequency
      [
        ( 6,
          map2
            (fun (a, fa, b, fb) m -> Add (a, fa, b, fb, float_of_int m))
            key (int_range (-2) 3) );
        ( 2,
          map2
            (fun (a, fa, b, fb) m -> Set (a, fa, b, fb, float_of_int m))
            key (int_range 0 3) );
        (2, map (fun (a, fa, b, fb) -> Remove (a, fa, b, fb)) key);
        (1, return Clear);
      ]
  in
  list_size (int_range 1 300) op

let arb_churn =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    gen_churn

let key_of = function
  | Add (a, fa, b, fb, _) | Set (a, fa, b, fb, _) | Remove (a, fa, b, fb) ->
      Some [| field a fa; field b fb |]
  | Clear -> None

(* Pool vs the association-list model: get, foreach, and every slice must
   agree after arbitrary churn (growth, free-slot reuse, mixed-type keys).
   Two slice indexes, so two sub-key tables grow and retire side by
   side. *)
let qcheck_pool_churn =
  QCheck.Test.make ~name:"pool = assoc-list model under churn" ~count:150
    arb_churn (fun ops ->
      let p = Pool.create ~key_width:2 ~slices:[ [| 1 |]; [| 0 |] ] () in
      let model = ref [] in
      List.iter
        (fun op ->
          match (op, key_of op) with
          | Add (_, _, _, _, m), Some key ->
              Pool.add p key m;
              model := Model.add !model key m
          | Set (_, _, _, _, m), Some key ->
              Pool.add p key (m -. Pool.get p key);
              model := Model.set !model key m
          | Remove _, Some key ->
              Pool.add p key (-.Pool.get p key);
              model := Model.set !model key 0.
          | _ ->
              Pool.clear p;
              model := [])
        ops;
      let ok_card = Pool.cardinal p = List.length !model in
      (* gets agree for every key the program ever mentioned *)
      let ok_get =
        List.for_all
          (fun op ->
            match key_of op with
            | None -> true
            | Some key ->
                Float.abs (Pool.get p key -. Model.get !model key) < 1e-9)
          ops
      in
      (* foreach emits exactly the model's entries *)
      let seen = ref 0 in
      let ok_foreach = ref true in
      Pool.foreach p (fun key v ->
          incr seen;
          if Float.abs (v -. Model.get !model key) >= 1e-9 then
            ok_foreach := false);
      (* each slice bucket (queried in both key forms) sums like the model *)
      let ok_slice index pos range =
        List.for_all
          (fun b ->
            List.for_all
              (fun fb ->
                let got = ref 0. and want = ref 0. in
                Pool.slice p ~index [| field b fb |] (fun _ m ->
                    got := !got +. m);
                List.iter
                  (fun (k, v) ->
                    if Value.equal k.(pos) (i b) then want := !want +. v)
                  !model;
                Float.abs (!got -. !want) < 1e-9)
              [ false; true ])
          (List.init range Fun.id)
      in
      ok_card && ok_get && !ok_foreach && !seen = List.length !model
      && ok_slice 0 1 9 && ok_slice 1 0 41)

(* A pool keeps its records in a GMR: with any number of slice indexes it
   must assign slots exactly as a plain GMR does, so both iterate in the
   same order with bit-equal multiplicities. Later float sums follow that
   order, which is what keeps stores bit-identical. Fractional
   multiplicities make the sums round and some of them cancel to residue
   below [Gmr.zero_eps]. *)
let qcheck_pool_slot_order =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          ( 12,
            map3
              (fun a b m -> `Add (t2 a b, m))
              (int_range 0 30) (int_range 0 5)
              (oneofl [ 0.1; 0.2; -0.3; 0.7; -1.5; 2.; 1e-10 ]) );
          (1, return `Clear);
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
      Gen.(list_size (int_range 1 400) op)
  in
  QCheck.Test.make ~name:"pool slot order = gmr slot order" ~count:100 arb
    (fun ops ->
      let pools =
        List.map
          (fun slices -> Pool.create ~key_width:2 ~slices ())
          [ []; [ [| 1 |] ]; [ [| 1 |]; [| 0 |] ] ]
      in
      let g = Gmr.create () in
      List.iter
        (function
          | `Add (key, m) ->
              List.iter (fun p -> Pool.add p key m) pools;
              Gmr.add g key m
          | `Clear ->
              List.iter Pool.clear pools;
              Gmr.clear g)
        ops;
      let entries iter =
        let l = ref [] in
        iter (fun key m -> l := (key, Int64.bits_of_float m) :: !l);
        List.rev !l
      in
      let want = entries (fun f -> Gmr.iter f g) in
      List.for_all
        (fun p ->
          let got = entries (Pool.foreach p) in
          List.length got = List.length want
          && List.for_all2
               (fun (k, m) (k', m') -> Vtuple.equal k k' && Int64.equal m m')
               got want)
        pools)

(* ------------------------------------------------------------------ *)
(* Radix key grouping vs the sort-based oracle                         *)
(* ------------------------------------------------------------------ *)

(* A batch of [rows] built by [of_iter], writing [cols] (default: all). *)
let of_rows ?cols ~width rows =
  let cols = Option.value cols ~default:(Array.init width Fun.id) in
  Colbatch.of_iter ~cols ~width ~count:(List.length rows) (fun emit ->
      List.iter (fun (t, m) -> emit t m) rows)

(* A grouped batch's linear content: rows (over all its columns) summed
   into a GMR. Both grouping paths emit the same rows in different
   orders, so they must agree on it. *)
let compact_rows_gmr cb weights =
  let g = Gmr.create () in
  let w = Colbatch.width cb in
  for r = 0 to Colbatch.length cb - 1 do
    let tup = Array.init w (fun c -> Colbatch.get (Colbatch.col cb c) r) in
    Gmr.add g tup weights.(r)
  done;
  g

let check_starts cb starts =
  let n = Colbatch.length cb in
  let k = Array.length starts in
  Alcotest.(check int) "starts begins at 0" 0 starts.(0);
  Alcotest.(check int) "starts ends at length" n starts.(k - 1);
  for gi = 0 to k - 2 do
    if starts.(gi) >= starts.(gi + 1) then
      Alcotest.failf "starts not strictly increasing at %d" gi
  done

(* Grouping neither merges nor drops: one output row per input row. *)
let check_one_row_per_row src cb =
  Alcotest.(check int) "one output row per input row" (Colbatch.length src)
    (Colbatch.length cb)

let check_groups_key_constant cb starts nk =
  for gi = 0 to Array.length starts - 2 do
    for r = starts.(gi) + 1 to starts.(gi + 1) - 1 do
      for c = 0 to nk - 1 do
        let col = Colbatch.col cb c in
        if not (Value.equal (Colbatch.get col starts.(gi)) (Colbatch.get col r))
        then Alcotest.failf "group %d not key-constant at row %d col %d" gi r c
      done
    done
  done

(* Cell domain small enough that duplicate rows, shared keys and
   canceling multiplicities all occur; Int/Float cross-equal forms and
   strings force mixed (boxed) columns. *)
let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun x -> Value.Int x) (int_range 0 3));
        (2, map (fun x -> Value.Float (float_of_int x)) (int_range 0 3));
        (1, map (fun x -> Value.Float (float_of_int x +. 0.5)) (int_range 0 3));
        (1, map (fun x -> Value.Date x) (int_range 0 3));
        ( 1,
          map
            (fun x -> Value.String (String.make 1 (Char.chr (65 + x))))
            (int_range 0 3) );
      ])

let gen_compact_case =
  let open QCheck.Gen in
  int_range 1 4 >>= fun w ->
  list_size (int_range 0 50)
    (pair (array_repeat w gen_cell)
       (map float_of_int (oneofl [ -2; -1; 1; 2 ])))
  >>= fun rows ->
  (* a random permutation of the columns, split into selected key/rest *)
  list_repeat w (int_bound 10_000) >>= fun ks ->
  let perm =
    List.map snd (List.sort compare (List.combine ks (List.init w Fun.id)))
  in
  int_bound w >>= fun s ->
  int_bound s >>= fun nk ->
  let sel = List.filteri (fun i _ -> i < s) perm in
  let key = Array.of_list (List.filteri (fun i _ -> i < nk) sel) in
  let rest = Array.of_list (List.filteri (fun i _ -> i >= nk) sel) in
  return (w, rows, key, rest)

let show_compact_case (w, rows, key, rest) =
  Printf.sprintf "w=%d key=[%s] rest=[%s] rows=[%s]" w
    (String.concat ";" (Array.to_list (Array.map string_of_int key)))
    (String.concat ";" (Array.to_list (Array.map string_of_int rest)))
    (String.concat "; "
       (List.map
          (fun (t, m) ->
            Printf.sprintf "%s*%g"
              (String.concat ","
                 (Array.to_list (Array.map Value.to_string t)))
              m)
          rows))

(* The radix path (one counting pass over the key hash) against a
   stable comparison sort by key, on the same batch: one output row per
   input row, identical linear content (rows × mults as GMRs) and valid,
   key-constant groups. The second round masks grouping hashes to 2 bits
   so distinct keys collide constantly — the radix output may then split
   a key into several runs, but never change what the batch sums to. *)
let qcheck_compact_radix_vs_sorted =
  let arb = QCheck.make ~print:show_compact_case gen_compact_case in
  QCheck.Test.make ~name:"radix compact_group = sorted oracle" ~count:300 arb
    (fun (w, rows, key, rest) ->
      let b = of_rows ~width:w rows in
      let nk = Array.length key in
      List.iter
        (fun bits ->
          Colbatch.hash_bits_for_tests := bits;
          Fun.protect
            ~finally:(fun () -> Colbatch.hash_bits_for_tests := None)
            (fun () ->
              let cr, sr = Colbatch.compact_group b ~key ~rest in
              let cs, ss = Colbatch.compact_group_sorted b ~key ~rest in
              check_one_row_per_row b cr;
              check_one_row_per_row b cs;
              if
                not
                  (Gmr.equal ~eps:1e-9
                     (compact_rows_gmr cr (Colbatch.mults cr))
                     (compact_rows_gmr cs (Colbatch.mults cs)))
              then Alcotest.fail "row/mult content diverges";
              check_starts cr sr;
              check_starts cs ss;
              check_groups_key_constant cr sr nk;
              check_groups_key_constant cs ss nk))
        [ None; Some 2 ];
      true)

(* ------------------------------------------------------------------ *)
(* The batch builder: representation committed at build                *)
(* ------------------------------------------------------------------ *)

(* width 2: [Int k; String s] per row *)
let mk_str_batch rows =
  of_rows ~width:2
    (List.map (fun (k, s, m) -> ([| i k; Value.String s |], m)) rows)

(* A low-cardinality string column is dictionary-encoded as it is
   built, codes in first-seen order; an int column is unboxed. *)
let test_builder_strings () =
  let names = [ "AIR"; "RAIL"; "MAIL"; "AIR"; "RAIL"; "AIR" ] in
  let b = mk_str_batch (List.mapi (fun k s -> (k, s, 1.)) names) in
  (match Colbatch.col b 0 with
  | Colbatch.CInt _ -> ()
  | _ -> Alcotest.fail "int column must be CInt");
  match Colbatch.col b 1 with
  | Colbatch.CDict (d, codes) ->
      Alcotest.(check (list string))
        "entries in first-seen order" [ "AIR"; "RAIL"; "MAIL" ]
        (List.init (Colbatch.dict_size d) (Colbatch.dict_entry d));
      Alcotest.(check (list int))
        "codes" [ 0; 1; 2; 0; 1; 0 ] (Array.to_list codes)
  | _ -> Alcotest.fail "low-cardinality string column must be CDict"

(* A cell the committed representation cannot hold — a 65th distinct
   string, or a second value kind — turns the column boxed in every
   share, and every cell written before it keeps its value. 64 distinct
   strings stay encoded. *)
let test_builder_demotes () =
  let strs k = List.init k (fun x -> Value.String (Printf.sprintf "s%02d" x)) in
  let mixed = List.init 9 (fun x -> i x) @ [ Value.Float 0.5; i 9 ] in
  List.iter
    (fun (what, cells, boxed) ->
      let g = Gmr.create () in
      List.iteri (fun k v -> Gmr.add g [| i k; v |] 1.) cells;
      let order = ref [] in
      Gmr.iter (fun t _ -> order := Array.copy t :: !order) g;
      let order = Array.of_list (List.rev !order) in
      List.iter
        (fun parts ->
          let shares =
            Colbatch.shares_of_gmr ~cols:[| 0; 1 |] ~width:2 ~parts g
          in
          Array.iteri
            (fun q sh ->
              (match (Colbatch.col sh 1, boxed) with
              | Colbatch.CBoxed _, true | Colbatch.CDict _, false -> ()
              | _ ->
                  Alcotest.failf "%s, %d parts: share %d has the wrong kind"
                    what parts q);
              for r = 0 to Colbatch.length sh - 1 do
                let want = order.((r * parts) + q) in
                for c = 0 to 1 do
                  let got = Colbatch.get (Colbatch.col sh c) r in
                  if not (Value.equal want.(c) got) then
                    Alcotest.failf "%s, %d parts: share %d row %d col %d changed"
                      what parts q r c
                done
              done)
            shares)
        [ 1; 3 ])
    [
      ("64 distinct strings", strs 64, false);
      ("65 distinct strings", strs 65, true);
      ("a float in an int column", mixed, true);
    ]

(* [of_iter ~cols] writes only [cols]; the other columns are absent. *)
let test_of_iter_cols () =
  let b =
    of_rows ~cols:[| 0; 2 |] ~width:3
      [
        ([| i 1; i 10; Value.String "x" |], 1.);
        ([| i 2; i 20; Value.String "y" |], 2.);
      ]
  in
  Alcotest.(check (array int)) "live columns" [| 0; 2 |] (Colbatch.live_cols b);
  Alcotest.(check int) "width" 3 (Colbatch.width b);
  Alcotest.(check bool) "written cells" true
    (Value.equal (i 2) (Colbatch.get (Colbatch.col b 0) 1)
    && Value.equal (Value.String "y") (Colbatch.get (Colbatch.col b 2) 1))

(* The builder sizes its arrays from [count]: a row more or a row fewer
   than [count] is an error, not a short or overrun batch. *)
let test_builder_row_count () =
  let build count =
    Colbatch.of_iter ~cols:[| 0; 1 |] ~width:2 ~count (fun emit ->
        for k = 0 to 2 do
          emit [| i k; Value.String "a" |] 1.
        done)
  in
  List.iter
    (fun count ->
      match build count with
      | _ -> Alcotest.failf "count %d over 3 rows accepted" count
      | exception Invalid_argument _ -> ())
    [ 2; 4 ];
  Alcotest.(check int) "exact count" 3 (Colbatch.length (build 3))

(* Radix key grouping over CDict columns (codes as cell hashes) against
   the sort-based oracle, including forced 2-bit hash collisions: one
   output row per input row, same linear content, valid group
   structure. Mirrors
   [qcheck_compact_radix_vs_sorted], but guarantees dictionary-encoded
   key and rest columns. *)
let gen_dict_compact_case =
  let open QCheck.Gen in
  list_size (int_range 0 40)
    (pair
       (pair (int_range 0 3) (oneofl [ "AIR"; "RAIL"; "MAIL"; "SHIP" ]))
       (map float_of_int (oneofl [ -2; -1; 1; 2 ])))
  >>= fun rows ->
  oneofl [ ([| 1 |], [| 0 |]); ([| 0; 1 |], [||]); ([||], [| 1 |]) ]
  >>= fun (key, rest) -> return (rows, key, rest)

let qcheck_compact_dict_vs_sorted =
  let print (rows, key, rest) =
    Printf.sprintf "key=[%s] rest=[%s] rows=[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int key)))
      (String.concat ";" (Array.to_list (Array.map string_of_int rest)))
      (String.concat "; "
         (List.map
            (fun ((k, s), m) -> Printf.sprintf "(%d,%s)*%g" k s m)
            rows))
  in
  let arb = QCheck.make ~print gen_dict_compact_case in
  QCheck.Test.make ~name:"radix compact_group on CDict = sorted oracle"
    ~count:200 arb (fun (rows, key, rest) ->
      let b = mk_str_batch (List.map (fun ((k, s), m) -> (k, s, m)) rows) in
      (if List.length rows > 0 then
         match Colbatch.col b 1 with
         | Colbatch.CDict _ -> ()
         | _ -> Alcotest.fail "string column should be dictionary-encoded");
      let nk = Array.length key in
      List.iter
        (fun bits ->
          Colbatch.hash_bits_for_tests := bits;
          Fun.protect
            ~finally:(fun () -> Colbatch.hash_bits_for_tests := None)
            (fun () ->
              let cr, sr = Colbatch.compact_group b ~key ~rest in
              let cs, ss = Colbatch.compact_group_sorted b ~key ~rest in
              check_one_row_per_row b cr;
              check_one_row_per_row b cs;
              if
                not
                  (Gmr.equal ~eps:1e-9
                     (compact_rows_gmr cr (Colbatch.mults cr))
                     (compact_rows_gmr cs (Colbatch.mults cs)))
              then Alcotest.fail "dict grouping content diverges";
              check_starts cr sr;
              check_starts cs ss;
              check_groups_key_constant cr sr nk))
        [ None; Some 2 ];
      true)

(* Same churn programs against Gmr: mult/iter/cardinal agreement. *)
let qcheck_gmr_churn =
  QCheck.Test.make ~name:"gmr = assoc-list model under churn" ~count:150
    arb_churn (fun ops ->
      let g = Gmr.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          match (op, key_of op) with
          | Add (_, _, _, _, m), Some key ->
              Gmr.add g key m;
              model := Model.add !model key m
          | Set (_, _, _, _, m), Some key ->
              Gmr.set g key m;
              model := Model.set !model key m
          | Remove _, Some key ->
              Gmr.set g key 0.;
              model := Model.set !model key 0.
          | _ ->
              Gmr.clear g;
              model := [])
        ops;
      let ok_mult =
        List.for_all
          (fun op ->
            match key_of op with
            | None -> true
            | Some key ->
                Float.abs (Gmr.mult g key -. Model.get !model key) < 1e-9
                && Gmr.mem g key = (Model.get !model key <> 0.))
          ops
      in
      let seen = ref 0 in
      let ok_iter = ref true in
      Gmr.iter
        (fun key m ->
          incr seen;
          if Float.abs (m -. Model.get !model key) >= 1e-9 then
            ok_iter := false)
        g;
      ok_mult && !ok_iter
      && !seen = List.length !model
      && Gmr.cardinal g = List.length !model)

let suites =
  [
    ( "storage",
      [
        Alcotest.test_case "pool add/get/cancel" `Quick test_pool_basic;
        Alcotest.test_case "pool free list" `Quick test_pool_free_list;
        Alcotest.test_case "pool slice index" `Quick test_pool_slice;
        Alcotest.test_case "pool growth + gmr roundtrip" `Quick
          test_pool_growth_and_gmr;
        Alcotest.test_case "pool clear" `Quick test_pool_clear;
        Alcotest.test_case "colbatch roundtrip" `Quick test_colbatch_roundtrip;
        Alcotest.test_case "trace hooks" `Quick test_trace_hooks;
        Alcotest.test_case "builder interns strings at build" `Quick
          test_builder_strings;
        Alcotest.test_case "builder boxes in every share" `Quick
          test_builder_demotes;
        Alcotest.test_case "of_iter ~cols leaves rest absent" `Quick
          test_of_iter_cols;
        Alcotest.test_case "builder checks the row count" `Quick
          test_builder_row_count;
        QCheck_alcotest.to_alcotest qcheck_compact_radix_vs_sorted;
        QCheck_alcotest.to_alcotest qcheck_compact_dict_vs_sorted;
        QCheck_alcotest.to_alcotest qcheck_pool_model;
        QCheck_alcotest.to_alcotest qcheck_pool_churn;
        QCheck_alcotest.to_alcotest qcheck_pool_slot_order;
        QCheck_alcotest.to_alcotest qcheck_gmr_churn;
      ] );
  ]
