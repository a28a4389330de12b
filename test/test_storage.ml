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
  Pool.set p (t2 2 20) 9.;
  Alcotest.(check (float 1e-9)) "set overwrites" 9. (Pool.get p (t2 2 20))

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
  let p2 = Pool.of_gmr ~key_width:1 ~slices:[] g in
  Alcotest.(check (float 1e-9)) "roundtrip value" 500. (Pool.get p2 [| i 499 |])

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
              Pool.set p key m;
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
   agree after arbitrary churn (growth, free-slot reuse, mixed-type keys). *)
let qcheck_pool_churn =
  QCheck.Test.make ~name:"pool = assoc-list model under churn" ~count:150
    arb_churn (fun ops ->
      let p = Pool.create ~key_width:2 ~slices:[ [| 1 |] ] () in
      let model = ref [] in
      List.iter
        (fun op ->
          match (op, key_of op) with
          | Add (_, _, _, _, m), Some key ->
              Pool.add p key m;
              model := Model.add !model key m
          | Set (_, _, _, _, m), Some key ->
              Pool.set p key m;
              model := Model.set !model key m
          | Remove _, Some key ->
              Pool.set p key 0.;
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
      let ok_slice =
        List.for_all
          (fun b ->
            List.for_all
              (fun fb ->
                let got = ref 0. and want = ref 0. in
                Pool.slice p ~index:0 [| field b fb |] (fun _ m ->
                    got := !got +. m);
                List.iter
                  (fun (k, v) ->
                    if Value.equal k.(1) (i b) then want := !want +. v)
                  !model;
                Float.abs (!got -. !want) < 1e-9)
              [ false; true ])
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      ok_card && ok_get && !ok_foreach && !seen = List.length !model
      && ok_slice)

(* ------------------------------------------------------------------ *)
(* Radix key grouping vs the sort-based oracle                         *)
(* ------------------------------------------------------------------ *)

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
      let b =
        Colbatch.of_iter ~width:w ~count:(List.length rows) (fun emit ->
            List.iter (fun (t, m) -> emit t m) rows)
      in
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
(* Dictionary-encoded string columns (PR 9)                            *)
(* ------------------------------------------------------------------ *)

let mk_str_batch rows =
  (* width 2: [Int k; String s] per row, unit multiplicity *)
  Colbatch.of_iter ~width:2 ~count:(List.length rows) (fun emit ->
      List.iter (fun (k, s) -> emit [| i k; Value.String s |] 1.) rows)

(* [dictify_cols] promotes a low-cardinality string column in place,
   accounts the dictionary in [byte_size] per the documented wire layout
   (count + length-prefixed entries + one i32 code per row), and
   invalidates the memoized boxed size. *)
let test_dictify_byte_size () =
  let names = [ "AIR"; "RAIL"; "MAIL"; "AIR"; "RAIL"; "AIR" ] in
  let rows = List.mapi (fun k s -> (k, s)) names in
  let b = mk_str_batch rows in
  (* memoize the boxed size first, so a stale memo would be caught below *)
  let boxed_size = Colbatch.byte_size b in
  Colbatch.dictify_cols b [ 1 ];
  (match Colbatch.col b 1 with
  | Colbatch.CDict (d, codes) ->
      Alcotest.(check int) "dict size" 3 (Colbatch.dict_size d);
      List.iteri
        (fun r s ->
          Alcotest.(check string) "code decodes to source string" s
            (Colbatch.dict_entry d codes.(r)))
        names
  | _ -> Alcotest.fail "low-cardinality string column not promoted to CDict");
  let n = List.length names in
  let dict_payload =
    List.fold_left
      (fun acc s -> acc + 4 + String.length s)
      4
      [ "AIR"; "RAIL"; "MAIL" ]
  in
  (* mults (8n) + CInt column (8n) + dictionary payload + i32 codes (4n) *)
  let expect = (8 * n) + (8 * n) + dict_payload + (4 * n) in
  Alcotest.(check int) "memo invalidated, dictionary accounted" expect
    (Colbatch.byte_size b);
  Alcotest.(check bool) "dict size differs from the boxed size" true
    (expect <> boxed_size);
  (* re-running is idempotent: already-CDict columns are skipped *)
  Colbatch.dictify_cols b [ 1 ];
  Alcotest.(check int) "idempotent" expect (Colbatch.byte_size b)

(* Past the cardinality cutoff (64 distinct entries) the column must stay
   boxed under both the targeted upgrade and the wire path's dealing
   pass, and the byte_size memo must not churn. *)
let test_dictify_cardinality_cutoff () =
  let rows = List.init 80 (fun k -> (k, Printf.sprintf "name-%04d" k)) in
  let b = mk_str_batch rows in
  let before = Colbatch.byte_size b in
  Colbatch.dictify_cols b [ 1 ];
  (match Colbatch.col b 1 with
  | Colbatch.CBoxed _ -> ()
  | _ -> Alcotest.fail "high-cardinality column must stay boxed (targeted)");
  Alcotest.(check int) "byte_size unchanged" before (Colbatch.byte_size b);
  let wire =
    Colbatch.shares_of_gmr ~cols:[| 0; 1 |] ~width:2 ~parts:1
      (Colbatch.to_gmr b)
  in
  match Colbatch.col wire.(0) 1 with
  | Colbatch.CBoxed _ -> ()
  | _ -> Alcotest.fail "high-cardinality column must stay boxed (wire)"

(* The targeted form only touches the named columns; non-string columns
   are skipped; content is unchanged either way. *)
let test_dictify_targeted () =
  let mk () =
    Colbatch.of_iter ~width:3 ~count:4 (fun emit ->
        List.iter
          (fun (a, s1, s2) ->
            emit [| i a; Value.String s1; Value.String s2 |] 1.)
          [ (1, "x", "p"); (2, "y", "q"); (3, "x", "p"); (4, "z", "q") ])
  in
  let b = mk () in
  let orig = Colbatch.to_gmr (mk ()) in
  Colbatch.dictify_cols b [ 0; 1 ];
  (match Colbatch.col b 0 with
  | Colbatch.CInt _ -> ()
  | _ -> Alcotest.fail "numeric column must not change representation");
  (match Colbatch.col b 1 with
  | Colbatch.CDict _ -> ()
  | _ -> Alcotest.fail "named string column must promote");
  (match Colbatch.col b 2 with
  | Colbatch.CBoxed _ -> ()
  | _ -> Alcotest.fail "unnamed string column must stay boxed");
  Alcotest.(check bool) "content unchanged by promotion" true
    (Gmr.equal orig (Colbatch.to_gmr b))

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
      let b = mk_str_batch (List.map fst rows) in
      List.iteri
        (fun r (_, m) -> (Colbatch.mults b).(r) <- m)
        rows;
      Colbatch.dictify_cols b [ 1 ];
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
        Alcotest.test_case "dictify accounts bytes + invalidates memo" `Quick
          test_dictify_byte_size;
        Alcotest.test_case "dictify cardinality cutoff" `Quick
          test_dictify_cardinality_cutoff;
        Alcotest.test_case "dictify_cols is targeted" `Quick
          test_dictify_targeted;
        QCheck_alcotest.to_alcotest qcheck_compact_radix_vs_sorted;
        QCheck_alcotest.to_alcotest qcheck_compact_dict_vs_sorted;
        QCheck_alcotest.to_alcotest qcheck_pool_model;
        QCheck_alcotest.to_alcotest qcheck_pool_churn;
        QCheck_alcotest.to_alcotest qcheck_gmr_churn;
      ] );
  ]
