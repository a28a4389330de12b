(* Multi-process engine tests: the wire codec round-trips bit-exactly and
   rejects malformed frames; a real 2-worker process cluster leaves stores
   bit-identical to the simulator over random TPC-H streams (both are one
   executor over two transports); the Engine facade gives the same answers
   through every backend. *)

open Divm_ring
open Divm_storage
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Profile = Divm_profile.Profile
module Protocol = Divm_node.Protocol
module Runtime = Divm_runtime.Runtime
module Node = Divm_node.Node
module Cluster = Divm_cluster.Cluster
module Workload = Divm_workload.Workload
module Dprog = Divm_dist.Dprog
module Loc = Divm_dist.Loc
module Engine = Divm_engine.Engine
module Tpch = Divm_tpch

(* ------------------------------------------------------------------ *)
(* Codec round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Value.Int i) int);
        ( 3,
          map
            (fun f -> Value.Float f)
            (oneof
               [
                 float;
                 oneofl [ 0.0; -0.0; 1e-300; -1e300; 0.1; infinity ];
               ]) );
        (2, map (fun s -> Value.String s) (string_size (int_range 0 20)));
        (1, map (fun d -> Value.Date d) (int_range 19920101 19981231));
      ])

(* Payload row counts: [small] is what the truncation check can afford
   (it cuts every prefix of every frame); [large] also draws runs of up
   to 2,000 rows. *)
let small_rows = QCheck.Gen.int_range 0 25

let large_rows =
  QCheck.Gen.(frequency [ (3, int_range 0 25); (1, int_range 26 2000) ])

(* One column's cells: a single kind (the typed runs), low-cardinality
   strings (dictionary runs) or any value (boxed runs). *)
let gen_cells =
  QCheck.Gen.(
    oneofl
      [
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float;
        map (fun d -> Value.Date d) (int_range 19920101 19981231);
        map (fun s -> Value.String s) (oneofl [ "AIR"; "RAIL"; "MAIL"; "" ]);
        gen_value;
      ])

(* A map has one arity, 0 to 6, like every map and batch that crosses:
   its rows draw each column from one [gen_cells]. Zero rows make the
   empty map, zero columns the width-0 map (one row at most, like Q6's
   scalar result). Multiplicities are constant (the share's one-f64
   layout) or drawn per row. *)
let gen_gmr_sized rows =
  QCheck.Gen.(
    rows >>= fun n ->
    int_range 0 6 >>= fun w ->
    list_repeat w gen_cells >>= fun cols ->
    list_repeat n (map Array.of_list (flatten_l cols)) >>= fun tuples ->
    map
      (fun ms ->
        let g = Gmr.create () in
        List.iter2 (Gmr.add g) tuples ms;
        g)
      (oneof
         [
           map (fun m -> List.init n (fun _ -> m)) (oneofl [ 1.; -1.; 0.5 ]);
           list_repeat n (oneof [ float; oneofl [ 1.; -2.; 0.5 ] ]);
         ]))

let gen_name =
  QCheck.Gen.(
    string_size ~gen:(map (fun i -> Char.chr i) (int_range 97 122))
      (int_range 1 12))

(* Floats for the telemetry fields: the codec ships IEEE-754 bits, so
   the generator deliberately includes signed zero and infinities. *)
let gen_f =
  QCheck.Gen.(
    oneof [ float; oneofl [ 0.0; -0.0; 1e-300; -1e300; 0.1; infinity ] ])

let gen_obs_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun c -> Obs.VCounter c) int);
        (2, map (fun g -> Obs.VGauge g) gen_f);
        ( 2,
          int_range 0 5 >>= fun nb ->
          map3
            (fun buckets counts (sum, count) ->
              Obs.VHistogram
                {
                  buckets = Array.of_list buckets;
                  counts = Array.of_list counts;
                  sum;
                  count;
                })
            (list_repeat nb gen_f)
            (list_repeat (nb + 1) (int_range 0 1_000_000))
            (pair gen_f (int_range 0 1_000_000)) );
      ])

let gen_snapshot =
  QCheck.Gen.(list_size (int_range 0 8) (pair gen_name gen_obs_value))

let gen_row =
  QCheck.Gen.(
    map3
      (fun trigger label (f, (o, (p, (ms, (s, (sv, (se, (b, w)))))))) ->
        {
          Prof.r_trigger = trigger;
          r_label = label;
          r_firings = f;
          r_ops = o;
          r_probes = p;
          r_misses = ms;
          r_scanned = s;
          r_svscan = sv;
          r_svsel = se;
          r_bytes = b;
          r_wall = w;
        })
      gen_name gen_name
      (pair (int_range 0 1000)
         (pair int
            (pair int
               (pair int (pair int (pair int (pair int (pair int gen_f)))))))))

let gen_event =
  QCheck.Gen.(
    map3
      (fun name (start, dur) (depth, attrs) ->
        {
          Obs.ev_name = name;
          ev_start = start;
          ev_dur = dur;
          ev_depth = depth;
          ev_attrs = attrs;
        })
      gen_name (pair gen_f gen_f)
      (pair (int_range 0 5)
         (list_size (int_range 0 3) (pair gen_name gen_name))))

let gen_telem =
  QCheck.Gen.(
    map3
      (fun t_now t_snap (t_slots, t_spans) ->
        { Protocol.t_now; t_snap; t_slots; t_spans })
      gen_f gen_snapshot
      (pair
         (list_size (int_range 0 6) gen_row)
         (list_size (int_range 0 6) gen_event)))

(* Byte counts in a shuffle stat are non-negative by construction (the
   decoder rejects anything else — see the mesh strictness test). *)
let gen_shuffle_stat =
  QCheck.Gen.(
    map3
      (fun ser (modeled, sent) wall ->
        {
          Protocol.ss_ser = ser;
          ss_modeled = Array.of_list modeled;
          ss_sent = Array.of_list sent;
          ss_wall = wall;
        })
      (int_range 0 1_000_000)
      (pair
         (list_size (int_range 0 4) (int_range 0 1_000_000))
         (list_size (int_range 0 4) (int_range 0 1_000_000)))
      gen_f)

(* Batch shares: every column kind, a random live subset (possibly
   empty, possibly all), and both multiplicity layouts — constant (the
   all-inserts / all-deletes batch) and per row. *)
let gen_col n =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun l -> Colbatch.CInt (Array.of_list l)) (list_repeat n int));
        ( 2,
          map
            (fun l -> Colbatch.CFloat (Array.of_list l))
            (list_repeat n gen_f) );
        ( 1,
          map
            (fun l -> Colbatch.CDate (Array.of_list l))
            (list_repeat n (int_range 19920101 19981231)) );
        ( 2,
          int_range 1 4 >>= fun dn ->
          map
            (fun codes ->
              Colbatch.CDict
                ( Colbatch.dict_of_strings
                    (Array.init dn (fun e -> Printf.sprintf "s%d" e)),
                  Array.of_list codes ))
            (list_repeat n (int_range 0 (dn - 1))) );
        ( 1,
          map
            (fun l -> Colbatch.CBoxed (Array.of_list l))
            (list_repeat n gen_value) );
      ])

let gen_share_sized rows =
  QCheck.Gen.(
    int_range 1 6 >>= fun width ->
    rows >>= fun n ->
    list_repeat width (pair bool (gen_col n)) >>= fun cols ->
    map
      (fun mults ->
        let pairs =
          List.concat
            (List.mapi (fun c (live, col) -> if live then [ (c, col) ] else []) cols)
        in
        Colbatch.of_live_cols ~width (Array.of_list pairs)
          ~mults:(Array.of_list mults))
      (oneof
         [
           map (fun m -> List.init n (fun _ -> m)) (oneofl [ 1.; -1.; -0.0 ]);
           list_repeat n gen_f;
         ]))

(* The maps of one frame: 0–20 of them, empty ones included, each of
   [map_rows] rows — or one map of [rows] rows. *)
let gen_gmrs ~rows ~map_rows =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map Array.of_list
            (list_size (int_range 0 20)
               (frequency
                  [ (1, return (Gmr.create ())); (3, gen_gmr_sized map_rows) ]))
        );
        (1, map (fun g -> [| g |]) (gen_gmr_sized rows));
      ])

let gen_names = QCheck.Gen.(map Array.of_list (list_size (int_range 0 20) gen_name))

(* [map_rows] sizes the maps of a multi-map frame, [rows] every other
   payload. *)
let gen_msg_sized ~rows ~map_rows =
  let gen_gmr = gen_gmr_sized rows in
  let gen_gmrs = gen_gmrs ~rows ~map_rows in
  QCheck.Gen.(
    frequency
      [
        (1, map (fun i -> Protocol.Hello i) (int_range 0 100));
        (1, map (fun s -> Protocol.Init s) (string_size (int_range 0 64)));
        ( 3,
          map2 (fun r g -> Protocol.Load_batch (r, g)) gen_name gen_gmr );
        ( 4,
          map4
            (fun r i share names -> Protocol.Run_block (r, i, share, names))
            gen_name (int_range 0 50)
            (opt (gen_share_sized rows))
            gen_names );
        ( 3,
          map3
            (fun i w gs -> Protocol.Block_done (i, w, gs))
            (int_range 0 1_000_000) gen_f gen_gmrs );
        (1, map (fun ms -> Protocol.Pull_map ms) gen_names);
        (3, map (fun gs -> Protocol.Map_contents gs) gen_gmrs);
        (3, map2 (fun m g -> Protocol.Deliver (m, g)) gen_name gen_gmr);
        (1, return Protocol.Ack);
        (1, return Protocol.Shutdown);
        ( 1,
          map2
            (fun p tr -> Protocol.Start_telemetry (p, tr))
            bool bool );
        (1, return Protocol.Pull_telemetry);
        (2, map (fun tm -> Protocol.Telemetry tm) gen_telem);
        ( 1,
          map
            (fun ps -> Protocol.Peers (Array.of_list ps))
            (list_size (int_range 0 4) gen_name) );
        (1, return Protocol.Mesh_connect);
        ( 1,
          map
            (fun l -> Protocol.Shuffle (Array.of_list l))
            (list_size (int_range 0 20) (int_range 0 1000)) );
        ( 1,
          map
            (fun l -> Protocol.Shuffle_done (Array.of_list l))
            (list_size (int_range 0 20) gen_shuffle_stat) );
        ( 3,
          map2
            (fun src gs -> Protocol.Mesh_data (src, gs))
            (int_range 0 8) gen_gmrs );
      ])

(* Bit-exact multiset equality: same tuples (values compared structurally,
   which for floats is bit comparison via [compare]) and multiplicities
   equal as IEEE-754 bit patterns. *)
let gmr_bits_equal a b =
  Gmr.cardinal a = Gmr.cardinal b
  && Gmr.fold
       (fun t m acc ->
         acc && Gmr.mem b t
         && Int64.equal (Int64.bits_of_float m) (Int64.bits_of_float (Gmr.mult b t)))
       a true

let fbits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let value_bits_equal (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Float x, Value.Float y -> fbits_equal x y
  | a, b -> a = b

(* Same physical representation, cell for cell (floats by their bits,
   dictionaries entry for entry). *)
let col_bits_equal (a : Colbatch.col) (b : Colbatch.col) =
  let all2 f x y = Array.length x = Array.length y && Array.for_all2 f x y in
  match (a, b) with
  | Colbatch.CInt x, Colbatch.CInt y | Colbatch.CDate x, Colbatch.CDate y ->
      x = y
  | Colbatch.CFloat x, Colbatch.CFloat y -> all2 fbits_equal x y
  | Colbatch.CDict (d1, c1), Colbatch.CDict (d2, c2) ->
      c1 = c2
      && Colbatch.dict_size d1 = Colbatch.dict_size d2
      && List.for_all
           (fun e -> Colbatch.dict_entry d1 e = Colbatch.dict_entry d2 e)
           (List.init (Colbatch.dict_size d1) Fun.id)
  | Colbatch.CBoxed x, Colbatch.CBoxed y -> all2 value_bits_equal x y
  | _ -> false

(* Shares compare on what travels: width, rows, live positions, live
   columns and multiplicities. Absent columns carry no data. *)
let share_bits_equal a b =
  Colbatch.width a = Colbatch.width b
  && Colbatch.length a = Colbatch.length b
  && Colbatch.live_cols a = Colbatch.live_cols b
  && Array.for_all
       (fun c -> col_bits_equal (Colbatch.col a c) (Colbatch.col b c))
       (Colbatch.live_cols a)
  && Array.for_all2 fbits_equal (Colbatch.mults a) (Colbatch.mults b)

let obs_value_equal a b =
  match (a, b) with
  | Obs.VCounter x, Obs.VCounter y -> x = y
  | Obs.VGauge x, Obs.VGauge y -> fbits_equal x y
  | Obs.VHistogram h1, Obs.VHistogram h2 ->
      Array.length h1.buckets = Array.length h2.buckets
      && Array.for_all2 fbits_equal h1.buckets h2.buckets
      && h1.counts = h2.counts
      && fbits_equal h1.sum h2.sum
      && h1.count = h2.count
  | _ -> false

let row_equal (a : Prof.row) (b : Prof.row) =
  a.r_trigger = b.r_trigger && a.r_label = b.r_label
  && a.r_firings = b.r_firings && a.r_ops = b.r_ops
  && a.r_probes = b.r_probes && a.r_misses = b.r_misses
  && a.r_scanned = b.r_scanned && a.r_bytes = b.r_bytes
  && fbits_equal a.r_wall b.r_wall

let event_equal (a : Obs.event) (b : Obs.event) =
  a.ev_name = b.ev_name
  && fbits_equal a.ev_start b.ev_start
  && fbits_equal a.ev_dur b.ev_dur
  && a.ev_depth = b.ev_depth && a.ev_attrs = b.ev_attrs

let telem_equal (a : Protocol.telem) (b : Protocol.telem) =
  fbits_equal a.t_now b.t_now
  && List.length a.t_snap = List.length b.t_snap
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && obs_value_equal v1 v2)
       a.t_snap b.t_snap
  && List.length a.t_slots = List.length b.t_slots
  && List.for_all2 row_equal a.t_slots b.t_slots
  && List.length a.t_spans = List.length b.t_spans
  && List.for_all2 event_equal a.t_spans b.t_spans

let all2 f a b = Array.length a = Array.length b && Array.for_all2 f a b

let msg_equal (a : Protocol.msg) (b : Protocol.msg) =
  match (a, b) with
  | Protocol.Load_batch (r1, g1), Protocol.Load_batch (r2, g2)
  | Protocol.Deliver (r1, g1), Protocol.Deliver (r2, g2) ->
      String.equal r1 r2 && gmr_bits_equal g1 g2
  | Protocol.Run_block (r1, i1, s1, n1), Protocol.Run_block (r2, i2, s2, n2)
    ->
      String.equal r1 r2 && i1 = i2 && n1 = n2
      && Option.equal share_bits_equal s1 s2
  | Protocol.Map_contents g1, Protocol.Map_contents g2 ->
      all2 gmr_bits_equal g1 g2
  | Protocol.Block_done (o1, w1, g1), Protocol.Block_done (o2, w2, g2) ->
      o1 = o2 && fbits_equal w1 w2 && all2 gmr_bits_equal g1 g2
  | Protocol.Telemetry t1, Protocol.Telemetry t2 -> telem_equal t1 t2
  | Protocol.Mesh_data (s1, g1), Protocol.Mesh_data (s2, g2) ->
      s1 = s2 && all2 gmr_bits_equal g1 g2
  | Protocol.Shuffle_done st1, Protocol.Shuffle_done st2 ->
      all2
        (fun (st1 : Protocol.shuffle_stat) (st2 : Protocol.shuffle_stat) ->
          st1.ss_ser = st2.ss_ser
          && st1.ss_modeled = st2.ss_modeled
          && st1.ss_sent = st2.ss_sent
          && fbits_equal st1.ss_wall st2.ss_wall)
        st1 st2
  | a, b -> a = b

let qcheck_codec_roundtrip =
  let arb =
    QCheck.make ~print:(fun _ -> "<msg>")
      (gen_msg_sized ~rows:large_rows ~map_rows:small_rows)
  in
  QCheck.Test.make ~name:"protocol codec round-trips bit-exactly" ~count:500 arb
    (fun m ->
      let payload = Protocol.encode m in
      if not (msg_equal m (Protocol.decode payload)) then
        Alcotest.fail "decode (encode m) <> m";
      let frame = Protocol.encode_frame m in
      let m', consumed = Protocol.decode_frame frame in
      if consumed <> String.length frame then
        Alcotest.failf "frame not fully consumed: %d <> %d" consumed
          (String.length frame);
      if not (msg_equal m m') then Alcotest.fail "frame round-trip diverged";
      (* Frames are self-delimiting: a concatenated stream splits back. *)
      let m'', consumed' = Protocol.decode_frame (frame ^ frame) in
      msg_equal m m'' && consumed' = String.length frame)

let expect_error name f =
  match f () with
  | exception Protocol.Error _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Protocol.Error, got %s" name
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: malformed input accepted" name

let qcheck_codec_truncated =
  let arb =
    QCheck.make ~print:(fun _ -> "<msg>")
      (gen_msg_sized ~rows:small_rows ~map_rows:(QCheck.Gen.int_range 0 3))
  in
  QCheck.Test.make ~name:"truncated frames and payloads are rejected" ~count:200
    arb (fun m ->
      let frame = Protocol.encode_frame m in
      let n = String.length frame in
      (* Any strict prefix must be rejected (or, below 4 header bytes,
         still rejected — decode_frame never guesses). *)
      for cut = 1 to n - 1 do
        expect_error
          (Printf.sprintf "prefix of %d/%d bytes" cut n)
          (fun () -> Protocol.decode_frame (String.sub frame 0 cut))
      done;
      true)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_error_with name substrings f =
  match f () with
  | exception Protocol.Error msg ->
      List.iter
        (fun sub ->
          if not (contains msg sub) then
            Alcotest.failf "%s: error %S lacks %S" name msg sub)
        substrings
  | exception e ->
      Alcotest.failf "%s: expected Protocol.Error, got %s" name
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: malformed input accepted" name

(* Words allocated by [f ()], exceptions included. *)
let alloc_words f =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  (try f () with _ -> ());
  words () -. w0

let test_codec_malformed () =
  (* Length prefix exceeding max_frame. *)
  let oversized =
    let b = Buffer.create 8 in
    Buffer.add_int32_be b (Int32.of_int (Protocol.max_frame + 1));
    Buffer.add_string b "xxxx";
    Buffer.contents b
  in
  expect_error "oversized length prefix" (fun () ->
      Protocol.decode_frame oversized);
  (* Zero-length payload. *)
  expect_error "empty payload" (fun () ->
      Protocol.decode_frame "\x00\x00\x00\x00");
  (* Unknown tag byte, and the retired tag 9 (deliveries clear the
     destination themselves). *)
  expect_error "unknown tag" (fun () -> Protocol.decode "\xff");
  expect_error_with "retired tag 9" [ "unknown message tag 9" ] (fun () ->
      Protocol.decode "\x09\x00\x00\x00\x01m");
  (* Trailing garbage after a complete message. *)
  expect_error "trailing bytes" (fun () ->
      Protocol.decode (Protocol.encode Protocol.Ack ^ "\x00"));
  (* A map claiming more rows than the payload holds: patch the row count
     of the one empty map (after tag, map count and width). *)
  let lying =
    let s =
      Bytes.of_string
        (Protocol.encode (Protocol.Map_contents [| Gmr.create () |]))
    in
    Bytes.set_int32_be s 7 1000l;
    Bytes.to_string s
  in
  expect_error_with "lying row count" [ "Map_contents"; "truncated" ] (fun () ->
      Protocol.decode lying);
  (* A map's rows share one arity; the encoder refuses one that mixes
     arities rather than cut its rows to the first row's width. *)
  let mixed =
    Gmr.of_list [ ([| Value.Int 1 |], 1.); ([| Value.Int 2; Value.Int 3 |], 1.) ]
  in
  expect_error_with "map mixing arities" [ "arity 1 and 2" ] (fun () ->
      Protocol.encode (Protocol.Deliver ("m", mixed)));
  (* A map count larger than the payload is rejected before the map
     array is allocated: 10 bytes declaring 8,000,000 maps. *)
  let many =
    let b = Buffer.create 16 in
    Buffer.add_uint8 b 7 (* Map_contents *);
    Buffer.add_int32_be b 8_000_000l;
    Buffer.add_int32_be b 0l;
    Buffer.add_uint8 b 0;
    Buffer.contents b
  in
  expect_error_with "map count past the payload" [ "Map_contents"; "truncated" ]
    (fun () -> Protocol.decode many);
  let words = alloc_words (fun () -> ignore (Protocol.decode many)) in
  Alcotest.(check bool)
    (Printf.sprintf "map count rejected after allocating %.0f words" words)
    true (words < 1000.);
  (* The bound is the empty share's 9 bytes: zeros decode as empty maps,
     and 8 bytes per declared map are too few for them, so the frame is
     rejected before a single map is decoded. *)
  let zeros =
    let b = Buffer.create 800_016 in
    Buffer.add_uint8 b 7 (* Map_contents *);
    Buffer.add_int32_be b 100_000l;
    Buffer.add_string b (String.make 800_000 '\x00');
    Buffer.contents b
  in
  let words = alloc_words (fun () -> ignore (Protocol.decode zeros)) in
  Alcotest.(check bool)
    (Printf.sprintf "100,000 maps in 800,000 bytes rejected after %.0f words"
       words)
    true (words < 1000.)

(* ------------------------------------------------------------------ *)
(* Dictionary-encoded string columns on the wire (PR 9)                *)
(* ------------------------------------------------------------------ *)

(* Low-cardinality string columns must actually ship as dictionary +
   codes (column kind 4), round-trip bit-exactly, and high-cardinality
   columns must stay on the boxed layout (kind 3). The kind byte of the
   second column sits at a computable offset: tag + map count (i32) +
   share head (width u16, rows i32, live count u16) + column 0 (position
   u16, cells i32, kind u8, n unboxed i64s) + column 1's position and
   cells. *)
let test_codec_dict_roundtrip () =
  let modes = [| "AIR"; "RAIL"; "MAIL"; "SHIP" |] in
  let g = Gmr.create () in
  for k = 0 to 39 do
    Gmr.add g [| Value.Int (k mod 7); Value.String modes.(k mod 4) |] 1.
  done;
  let payload = Protocol.encode (Protocol.Map_contents [| g |]) in
  let kind_pos n = 1 + 4 + (2 + 4 + 2) + (2 + 4 + 1 + (8 * n)) + (2 + 4) in
  Alcotest.(check char)
    "string column ships dictionary-encoded" '\x04'
    payload.[kind_pos (Gmr.cardinal g)];
  (match Protocol.decode payload with
  | Protocol.Map_contents [| g' |] ->
      Alcotest.(check bool) "dict round-trip bit-exact" true
        (gmr_bits_equal g g')
  | _ -> Alcotest.fail "decoded to a different message");
  let gh = Gmr.create () in
  for k = 0 to 69 do
    Gmr.add gh [| Value.Int k; Value.String (Printf.sprintf "name-%04d" k) |] 1.
  done;
  let ph = Protocol.encode (Protocol.Map_contents [| gh |]) in
  Alcotest.(check char)
    "high-cardinality column stays boxed" '\x03'
    ph.[kind_pos (Gmr.cardinal gh)];
  match Protocol.decode ph with
  | Protocol.Map_contents [| g' |] ->
      Alcotest.(check bool) "boxed round-trip bit-exact" true
        (gmr_bits_equal gh g')
  | _ -> Alcotest.fail "decoded to a different message"

(* ------------------------------------------------------------------ *)
(* Batch share frames                                                  *)
(* ------------------------------------------------------------------ *)

(* The head of a [Run_block] payload for stream "r", block 0, pulling
   no map, that carries a share, and of a [Map_contents] payload
   carrying one map. *)
let run_block_head b =
  Buffer.add_uint8 b 4 (* Run_block *);
  Buffer.add_int32_be b 1l;
  Buffer.add_string b "r";
  Buffer.add_int32_be b 0l (* block *);
  Buffer.add_int32_be b 0l (* pulled maps *);
  Buffer.add_uint8 b 1 (* a share follows *)

let map_contents_head b =
  Buffer.add_uint8 b 7 (* Map_contents *);
  Buffer.add_int32_be b 1l (* one map *)

(* A hand-built payload carrying one share, by default in a
   [Run_block]: [cols] lists (position, declared cell count, kind +
   payload writer); the multiplicity is the constant 1. *)
let share_payload ?(head = run_block_head) ?(width = 3) ?(rows = 2)
    ?(trailing = "") cols =
  let b = Buffer.create 64 in
  head b;
  Buffer.add_uint16_be b width;
  Buffer.add_int32_be b (Int32.of_int rows);
  Buffer.add_uint16_be b (List.length cols);
  List.iter
    (fun (c, len, body) ->
      Buffer.add_uint16_be b c;
      Buffer.add_int32_be b (Int32.of_int len);
      body b)
    cols;
  Buffer.add_uint8 b 1;
  Buffer.add_int64_be b (Int64.bits_of_float 1.);
  Buffer.add_string b trailing;
  Buffer.contents b

let int_cells cells b =
  Buffer.add_uint8 b 0;
  List.iter (fun x -> Buffer.add_int64_be b (Int64.of_int x)) cells

let dict_cells entries codes b =
  Buffer.add_uint8 b 4;
  Buffer.add_int32_be b (Int32.of_int (List.length entries));
  List.iter
    (fun s ->
      Buffer.add_int32_be b (Int32.of_int (String.length s));
      Buffer.add_string b s)
    entries;
  List.iter (fun c -> Buffer.add_int32_be b (Int32.of_int c)) codes

(* [rejects name sub cols ()] decodes a hand-built share payload (a
   [Map_contents] one when [map]) and expects a [Protocol.Error] naming
   the frame and containing [sub]. *)
let rejects ?(map = false) name sub cols ?width ?rows ?trailing () =
  let head = if map then map_contents_head else run_block_head in
  expect_error_with name
    [ (if map then "Map_contents" else "Run_block"); sub ]
    (fun () ->
      Protocol.decode (share_payload ~head ?width ?rows ?trailing cols))

(* Hand-built dictionary runs the encoder would never produce: the
   strict decoder must reject duplicate dictionary entries and codes
   outside [0, dict size), in map payloads and batch shares alike. *)
let test_codec_dict_strict () =
  (* sanity: a well-formed hand-built dictionary map decodes, duplicate
     rows merging by multiplicity *)
  (match
     Protocol.decode
       (share_payload ~head:map_contents_head ~width:1 ~rows:3
          [ (0, 3, dict_cells [ "x"; "y" ] [ 0; 1; 0 ]) ])
   with
  | Protocol.Map_contents [| g |] ->
      Alcotest.(check (float 1e-9)) "codes decode through the dictionary" 2.
        (Gmr.mult g [| Value.String "x" |])
  | _ -> Alcotest.fail "decoded to a different message");
  rejects ~map:true "duplicate dictionary entry" "duplicate dictionary entry"
    [ (0, 2, dict_cells [ "x"; "x" ] [ 0; 1 ]) ]
    ~width:1 ();
  rejects ~map:true "code out of range" "dictionary code 1 out of range"
    [ (0, 2, dict_cells [ "x" ] [ 0; 1 ]) ]
    ~width:1 ();
  rejects ~map:true "negative code" "dictionary code -1 out of range"
    [ (0, 2, dict_cells [ "x" ] [ 0; -1 ]) ]
    ~width:1 ();
  rejects "negative dictionary code in a batch share"
    "dictionary code -1 out of range"
    [ (0, 2, dict_cells [ "x" ] [ 0; -1 ]) ]
    ()

(* A share ships only its live columns, each tagged with its position,
   and decodes straight into a typed batch; a map is the share of every
   column and decodes into its rows. One reader serves both, and the
   strict decoder names the frame for every defect the encoder can never
   produce. *)
let test_codec_share_strict () =
  (match
     Protocol.decode
       (share_payload
          [ (0, 2, int_cells [ 7; 8 ]); (2, 2, dict_cells [ "A"; "R" ] [ 1; 0 ]) ])
   with
  | Protocol.Run_block ("r", 0, Some cb, [||]) ->
      Alcotest.(check (array int)) "live positions" [| 0; 2 |]
        (Colbatch.live_cols cb);
      Alcotest.(check int) "stream width" 3 (Colbatch.width cb);
      Alcotest.(check bool) "dictionary cells decode" true
        (Colbatch.get (Colbatch.col cb 2) 0 = Value.String "R");
      Alcotest.(check (array (float 0.))) "constant multiplicity" [| 1.; 1. |]
        (Colbatch.mults cb)
  | _ -> Alcotest.fail "decoded to a different message");
  (* rows are rebuilt in order, so equal rows merge by multiplicity *)
  (match
     Protocol.decode
       (share_payload ~head:map_contents_head
          [
            (0, 2, int_cells [ 7; 7 ]);
            (1, 2, dict_cells [ "x"; "y" ] [ 0; 0 ]);
            (2, 2, int_cells [ 1; 1 ]);
          ])
   with
  | Protocol.Map_contents [| g |] ->
      Alcotest.(check int) "one distinct row" 1 (Gmr.cardinal g);
      Alcotest.(check (float 0.)) "codes decode through the dictionary" 2.
        (Gmr.mult g [| Value.Int 7; Value.String "x"; Value.Int 1 |])
  | _ -> Alcotest.fail "decoded to a different message");
  rejects "column index past the stream width" "out of range"
    [ (3, 2, int_cells [ 1; 2 ]) ]
    ();
  rejects "repeated column index" "column index 1 after 1"
    [ (1, 2, int_cells [ 1; 2 ]); (1, 2, int_cells [ 3; 4 ]) ]
    ();
  rejects "column indexes out of order" "column index 0 after 2"
    [ (2, 2, int_cells [ 1; 2 ]); (0, 2, int_cells [ 3; 4 ]) ]
    ();
  rejects ~map:true "map payload with an absent column"
    "map payload carries 2 of its 3 columns"
    [ (0, 2, int_cells [ 1; 2 ]); (2, 2, int_cells [ 3; 4 ]) ]
    ();
  rejects "dictionary code out of range" "dictionary code 1 out of range"
    [ (0, 2, dict_cells [ "x" ] [ 0; 1 ]) ]
    ();
  rejects "column length differs from the row count" "3 cells for 2 rows"
    [ (0, 3, int_cells [ 1; 2; 3 ]) ]
    ();
  rejects "trailing bytes" "trailing bytes"
    [ (0, 2, int_cells [ 1; 2 ]) ]
    ~trailing:"\x00" ();
  (* the encoder's own output for a pruned share: absent columns cost
     nothing on the wire *)
  let cb =
    Colbatch.of_live_cols ~width:16
      [| (4, Colbatch.CFloat [| 1.5; 2.5 |]) |]
      ~mults:[| 1.; 1. |]
  in
  let full =
    Colbatch.of_live_cols ~width:16
      (Array.init 16 (fun c -> (c, Colbatch.CFloat [| 1.5; 2.5 |])))
      ~mults:[| 1.; 1. |]
  in
  let size cb =
    String.length (Protocol.encode (Protocol.Run_block ("r", 0, Some cb, [||])))
  in
  Alcotest.(check int) "15 absent columns save 15 column runs"
    (15 * (2 + 4 + 1 + 16))
    (size full - size cb)

(* A 38-byte share frame declaring 8,000,000 rows of one Int column
   carries one cell: the run's length is checked before its array is
   allocated, so the decoder rejects it without allocating the declared
   64 MB. *)
let test_codec_truncated_run () =
  let b = Buffer.create 32 in
  run_block_head b;
  Buffer.add_uint16_be b 1 (* stream width *);
  Buffer.add_int32_be b 8_000_000l (* rows *);
  Buffer.add_uint16_be b 1 (* live columns *);
  Buffer.add_uint16_be b 0 (* position *);
  Buffer.add_int32_be b 8_000_000l (* cells *);
  Buffer.add_uint8 b 0 (* Int run *);
  Buffer.add_int64_be b 42L;
  let payload = Buffer.contents b in
  Alcotest.(check int) "payload bytes" 38 (String.length payload);
  expect_error_with "truncated Int run" [ "Run_block"; "truncated" ] (fun () ->
      Protocol.decode payload);
  let words = alloc_words (fun () -> ignore (Protocol.decode payload)) in
  Alcotest.(check bool)
    (Printf.sprintf "rejected after allocating %.0f words (< 1 MB)" words)
    true
    (words *. float_of_int (Sys.word_size / 8) < 1024. *. 1024.)

(* [Runtime.deal] over random batches: every width 1–6, random column
   subsets, every cell kind, a column mixing Int and Float, a string
   column past the 64-entry dictionary cutoff, the empty batch and 1–4
   parts. *)
type cell_kind = KInt | KFloat | KDate | KStr | KStrWide | KMixed

let gen_kind_cell = function
  | KInt -> QCheck.Gen.map (fun i -> Value.Int i) (QCheck.Gen.int_range (-5) 5)
  | KFloat -> QCheck.Gen.map (fun f -> Value.Float f) gen_f
  | KDate ->
      QCheck.Gen.map (fun d -> Value.Date d)
        (QCheck.Gen.int_range 19920101 19981231)
  | KStr ->
      QCheck.Gen.map (fun s -> Value.String s)
        (QCheck.Gen.oneofl [ "AIR"; "RAIL"; "MAIL"; "SHIP" ])
  | KStrWide ->
      QCheck.Gen.map
        (fun i -> Value.String (Printf.sprintf "name-%d" i))
        (QCheck.Gen.int_range 0 999)
  | KMixed ->
      QCheck.Gen.oneof
        [
          QCheck.Gen.map (fun i -> Value.Int i) (QCheck.Gen.int_range 0 9);
          QCheck.Gen.map (fun f -> Value.Float f) gen_f;
        ]

let gen_deal_case =
  QCheck.Gen.(
    int_range 1 6 >>= fun width ->
    list_repeat width (oneofl [ KInt; KFloat; KDate; KStr; KStrWide; KMixed ])
    >>= fun kinds ->
    frequency [ (1, return 0); (4, int_range 1 200) ] >>= fun n ->
    list_repeat n
      (pair
         (map Array.of_list (flatten_l (List.map gen_kind_cell kinds)))
         (oneof [ oneofl [ 1.; -1.; 2. ]; float_range (-10.) 10. ]))
    >>= fun rows ->
    list_repeat width bool >>= fun sel ->
    int_range 1 4 >|= fun parts ->
    let g = Gmr.create () in
    List.iter (fun (t, m) -> Gmr.add g t m) rows;
    let cols =
      List.concat (List.mapi (fun c s -> if s then [ c ] else []) sel)
    in
    (width, Array.of_list cols, parts, g))

let col_kind = function
  | Colbatch.CInt _ -> "int"
  | Colbatch.CDate _ -> "date"
  | Colbatch.CFloat _ -> "float"
  | Colbatch.CDict _ -> "dict"
  | Colbatch.CBoxed _ -> "boxed"

(* The batch-wide representation of one column's cells, as the
   transpose + dictionary-encode + gather pipeline chose it. *)
let expected_kind (cells : Value.t list) =
  let all p = List.for_all p cells in
  match cells with
  | [] -> "int"
  | _ when all (function Value.Int _ -> true | _ -> false) -> "int"
  | _ when all (function Value.Float _ -> true | _ -> false) -> "float"
  | _ when all (function Value.Date _ -> true | _ -> false) -> "date"
  | _ when all (function Value.String _ -> true | _ -> false) ->
      if List.length (List.sort_uniq compare cells) <= 64 then "dict"
      else "boxed"
  | _ -> "boxed"

let qcheck_deal =
  let print (width, cols, parts, g) =
    Printf.sprintf "width=%d cols=[%s] parts=%d rows=%d" width
      (String.concat ";" (Array.to_list (Array.map string_of_int cols)))
      parts (Gmr.cardinal g)
  in
  QCheck.Test.make ~name:"deal: round-robin rows, batch-wide kinds, one dictionary"
    ~count:300 (QCheck.make ~print gen_deal_case)
    (fun (width, cols, parts, g) ->
      let shares = Runtime.deal { Runtime.sc_width = width; sc_cols = cols } ~parts g in
      let rows = Array.of_list (List.rev (Gmr.fold (fun t m acc -> (t, m) :: acc) g [])) in
      let n = Array.length rows in
      Alcotest.(check int) "one share per part" parts (Array.length shares);
      Array.iteri
        (fun p sh ->
          Alcotest.(check int) "share width" width (Colbatch.width sh);
          Alcotest.(check (array int)) "live columns = sc_cols" cols
            (Colbatch.live_cols sh);
          Alcotest.(check int) "share rows"
            (if n > p then ((n - p - 1) / parts) + 1 else 0)
            (Colbatch.length sh);
          for j = 0 to Colbatch.length sh - 1 do
            let tup, m = rows.(p + (j * parts)) in
            if not (fbits_equal m (Colbatch.mults sh).(j)) then
              Alcotest.failf "share %d row %d: multiplicity differs" p j;
            Array.iter
              (fun c ->
                if not (value_bits_equal tup.(c) (Colbatch.get (Colbatch.col sh c) j))
                then Alcotest.failf "share %d row %d column %d differs" p j c)
              cols
          done)
        shares;
      Array.iter
        (fun c ->
          let cells = Array.to_list (Array.map (fun (t, _) -> t.(c)) rows) in
          let kinds = Array.map (fun sh -> col_kind (Colbatch.col sh c)) shares in
          Array.iter
            (fun k ->
              Alcotest.(check string)
                (Printf.sprintf "column %d kind" c)
                (expected_kind cells) k)
            kinds;
          match Colbatch.col shares.(0) c with
          | Colbatch.CDict (d, _) ->
              Array.iter
                (fun sh ->
                  match Colbatch.col sh c with
                  | Colbatch.CDict (d', _) when d' == d -> ()
                  | _ -> Alcotest.failf "column %d: a dictionary per share" c)
                shares;
              let first_seen =
                List.fold_left
                  (fun acc v ->
                    match v with
                    | Value.String s when not (List.mem s acc) -> s :: acc
                    | _ -> acc)
                  [] cells
                |> List.rev
              in
              Alcotest.(check (list string))
                (Printf.sprintf "column %d: entries in first-appearance order" c)
                first_seen
                (List.init (Colbatch.dict_size d) (Colbatch.dict_entry d))
          | _ -> ())
        cols;
      true)

(* ------------------------------------------------------------------ *)
(* Mesh frame strictness + error context                               *)
(* ------------------------------------------------------------------ *)

(* The strict decoder rejects negative fields the encoder would never
   produce, and every field-level failure cites the frame's claimed tag
   and payload length — debuggable from the exception alone. *)
let test_codec_mesh_strict () =
  (* Negative transfer index: the first i32 after the tag byte and the
     index count. *)
  let shuffle = Protocol.encode (Protocol.Shuffle [| 3 |]) in
  let neg_idx = Bytes.of_string shuffle in
  Bytes.set neg_idx 5 '\xff';
  expect_error_with "negative transfer index"
    [ "Shuffle"; "tag 17"; "negative transfer index" ]
    (fun () -> Protocol.decode (Bytes.to_string neg_idx));
  (* Negative mesh source id: the i32 right after the tag byte. *)
  let md = Protocol.encode (Protocol.Mesh_data (0, [| Gmr.create () |])) in
  let neg_src = Bytes.of_string md in
  Bytes.set neg_src 1 '\xff';
  expect_error_with "negative mesh source id"
    [ "Mesh_data"; "tag 19"; "negative mesh source id" ]
    (fun () -> Protocol.decode (Bytes.to_string neg_src));
  (* Negative serialized byte count: the i64 right after the tag byte and
     the stat count. *)
  let sd =
    Protocol.encode
      (Protocol.Shuffle_done
         [|
           {
             Protocol.ss_ser = 1;
             ss_modeled = [| 2 |];
             ss_sent = [| 3 |];
             ss_wall = 0.;
           };
         |])
  in
  let neg_ser = Bytes.of_string sd in
  Bytes.set neg_ser 5 '\xff';
  expect_error_with "negative serialized byte count"
    [ "Shuffle_done"; "tag 18"; "negative" ]
    (fun () -> Protocol.decode (Bytes.to_string neg_ser));
  (* Negative modeled byte count: the per-peer arrays ride as i32;
     layout is tag(1) + stat count(4) + ser i64(8) + count(4), then the
     first entry. *)
  let neg_modeled = Bytes.of_string sd in
  Bytes.set neg_modeled 17 '\xff';
  expect_error_with "negative modeled byte count"
    [ "Shuffle_done"; "tag 18"; "negative modeled byte count" ]
    (fun () -> Protocol.decode (Bytes.to_string neg_modeled));
  (* Truncation inside a payload names the claimed message and its
     actual length. *)
  expect_error_with "truncated Shuffle payload"
    [ "Shuffle"; "tag 17" ]
    (fun () -> Protocol.decode (String.sub shuffle 0 (String.length shuffle - 1)));
  (* A frame-cap violation cites the declared length and the would-be
     tag byte of the garbage that follows. *)
  let oversized =
    let b = Buffer.create 8 in
    Buffer.add_int32_be b (Int32.of_int (Protocol.max_frame + 1));
    Buffer.add_uint8 b 8 (* Deliver *);
    Buffer.contents b
  in
  expect_error_with "frame-cap violation cites length and tag"
    [ "declared frame length"; string_of_int (Protocol.max_frame + 1); "Deliver" ]
    (fun () -> Protocol.decode_frame oversized)

(* ------------------------------------------------------------------ *)
(* Simulated vs multiprocess store equivalence                         *)
(* ------------------------------------------------------------------ *)

let non_transient (prog : Divm_compiler.Prog.t) =
  List.filter_map
    (fun (m : Divm_compiler.Prog.map_decl) ->
      if m.mkind <> Divm_compiler.Prog.Transient then Some m.mname else None)
    prog.maps

(* Round trips one batch of [rel] makes under [dp]'s grouping rule. *)
let static_round_trips (dp : Dprog.t) rel =
  let steps = Dprog.steps (Dprog.find_trigger dp rel) in
  Dprog.round_trips dp.locs steps (Dprog.calls dp.locs steps)

(* Replay [stream] through the simulator and a process cluster of [dp]
   (query [qn]'s program, possibly edited) at [workers]: every modeled
   quantity (latency, shuffle bytes, stages, and per stage its name,
   modeled bytes and prediction) must be bit-identical, and so must every
   non-transient store; both must make the round trips the grouping rule
   predicts. Returns, per result view, the simulator's and the process
   cluster's contents, and the process cluster's transfer-stage wire
   bytes. *)
let replay_dp ~workers ~stream qn dp =
  let w = Workload.find qn in
  let prog = Workload.compile w in
  let sim = Cluster.create ~config:(Cluster.config ~workers ()) ~domains:1 dp in
  let node = Node.create ~config:(Node.config ~workers ()) dp in
  let proc = Node.executor node in
  let transfer_wire = ref 0 in
  Fun.protect
    ~finally:(fun () -> Node.shutdown node)
    (fun () ->
      List.iter
        (fun (rel, b) ->
          let ms = Cluster.apply_batch sim ~rel b in
          let mp = Cluster.apply_batch proc ~rel b in
          let fail what = Alcotest.failf "%s/%dw: %s diverges" qn workers what in
          if not (fbits_equal ms.latency mp.latency) then fail "modeled latency";
          if ms.bytes_shuffled <> mp.bytes_shuffled then fail "shuffled bytes";
          if ms.stages <> mp.stages then fail "stage count";
          if ms.round_trips <> mp.round_trips then fail "round trips";
          if ms.round_trips <> static_round_trips dp rel then
            fail ("round trips of a " ^ rel ^ " batch vs the grouping rule");
          if List.length ms.stage_stats <> List.length mp.stage_stats then
            fail "stage list";
          List.iter2
            (fun (a : Cluster.stage_stat) (b : Cluster.stage_stat) ->
              if a.sname <> b.sname || a.sbytes <> b.sbytes
                 || not (fbits_equal a.predicted b.predicted)
              then fail ("stage " ^ a.sname);
              if String.starts_with ~prefix:"transfer:" b.sname then
                transfer_wire := !transfer_wire + b.swire)
            ms.stage_stats mp.stage_stats)
        stream;
      List.iter
        (fun name ->
          if not (gmr_bits_equal (Cluster.map_contents sim name)
                    (Cluster.map_contents proc name))
          then
            Alcotest.failf "%s/%dw: store %s differs simulator vs processes" qn
              workers name)
        (non_transient prog);
      ( List.map
          (fun (name, _) -> (name, Cluster.result sim name, Cluster.result proc name))
          w.Workload.maps,
        !transfer_wire ))

let replay_sim_proc ?level ~workers ~stream qn =
  let w = Workload.find qn in
  replay_dp ~workers ~stream qn
    (Workload.distribute ?level w (Workload.compile w))

(* Both backends' result views must match [Exec] re-evaluated over the
   net base contents [stream] leaves behind. *)
let check_views_vs_exec ~stream ~what qn views =
  let ex = Divm_runtime.Exec.create (Workload.compile (Workload.find qn)) in
  Divm_runtime.Exec.load ex (Tpch_suite.net_contents stream);
  List.iter
    (fun (name, gsim, gproc) ->
      let want = Divm_runtime.Exec.result ex name in
      List.iter
        (fun (which, got) ->
          match Tpch_suite.view_difference want got with
          | None -> ()
          | Some key ->
              Alcotest.failf
                "%s/%s/%s: view %s differs from Exec at %s: expected %.17g, \
                 got %.17g"
                qn what which name (Vtuple.to_string key) (Gmr.mult want key)
                (Gmr.mult got key))
        [ ("simulator", gsim); ("multiprocess", gproc) ])
    views

(* The acceptance property of the whole subsystem: a real process
   cluster replaying a random TPC-H stream, at 2 and 4 workers, agrees
   bit for bit with the simulator running the same program — on every
   store and every modeled quantity. Small batches exercise many
   one-row shares; large ones real repartition traffic, which must
   travel the worker mesh. *)
let qcheck_node_equiv =
  let arb =
    QCheck.(
      make
        ~print:(Print.pair Print.int Print.int)
        Gen.(pair (int_range 0 10_000) (oneof [ int_range 1 40; return 500 ])))
  in
  QCheck.Test.make
    ~name:"multiprocess stores bit-identical to simulator at 2 and 4 workers"
    ~count:3 arb
    (fun (seed, batch_size) ->
      let stream = Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed } ~batch_size in
      List.iter
        (fun workers ->
          let wire =
            List.fold_left
              (fun acc qn -> acc + snd (replay_sim_proc ~workers ~stream qn))
              0 Tpch_suite.queries
          in
          if batch_size = 500 && wire = 0 then
            Alcotest.failf "%dw: no mesh transfer wire traffic at all" workers)
        [ 2; 4 ];
      true)

(* The simulator = processes contract over retraction streams, at 2 and
   4 workers, and at opt level 0 (which moves more than twice the
   transfers of level 3) at 2, with the reference interpreter as the
   oracle: both backends' result views must match [Exec] re-evaluated
   over the net base contents the stream leaves behind. *)
let qcheck_retraction_equiv =
  let arb = QCheck.(make ~print:Print.int Gen.(int_range 0 10_000)) in
  QCheck.Test.make
    ~name:
      "retraction streams: simulator = processes = Exec at 2 and 4 workers, \
       and at opt level 0"
    ~count:1 arb
    (fun seed ->
      let inserts =
        Tpch.Gen.stream { Tpch.Gen.scale = 0.01; seed } ~batch_size:200
      in
      let stream = Tpch_suite.with_retractions ~k:3 inserts in
      List.iter
        (fun qn ->
          List.iter
            (fun (level, workers) ->
              let views, _ = replay_sim_proc ?level ~workers ~stream qn in
              check_views_vs_exec ~stream
                ~what:
                  (Printf.sprintf "%dw/O%d" workers (Option.value level ~default:3))
                qn views)
            [ (None, 2); (None, 4); (Some 0, 2) ])
        Tpch_suite.queries;
      true)

(* ------------------------------------------------------------------ *)
(* Round trips: one transport call per transfer run                    *)
(* ------------------------------------------------------------------ *)

(* Per batch at 2 workers, on both transports: Q1 and Q6 ship the share
   with their one stage, whose reply carries every gather; Q17's lineitem
   trigger runs stage 1 (with the share), one exchange of its four
   repartitions, and stage 2 carrying its fifteen gathers back. *)
let test_round_trips () =
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 11 } ~batch_size:300
  in
  List.iter
    (fun (qn, rel, want) ->
      let w = Workload.find qn in
      let dp = Workload.distribute w (Workload.compile w) in
      Alcotest.(check int) (qn ^ " " ^ rel ^ ": grouping rule") want
        (static_round_trips dp rel);
      let batch = List.assoc rel stream in
      let sim = Cluster.create ~config:(Cluster.config ~workers:2 ()) ~domains:1 dp in
      let node = Node.create ~config:(Node.config ~workers:2 ()) dp in
      Fun.protect
        ~finally:(fun () -> Node.shutdown node)
        (fun () ->
          List.iter
            (fun (which, ex, family) ->
              let c = Printf.sprintf "divm_%s_round_trips_total" family in
              let before = Obs.counter_value (Obs.snapshot ()) c in
              let m = Cluster.apply_batch ex ~rel batch in
              Alcotest.(check int)
                (Printf.sprintf "%s %s on the %s" qn rel which)
                want m.Cluster.round_trips;
              Alcotest.(check int)
                (Printf.sprintf "%s %s: %s counter" qn rel which)
                want
                (Obs.counter_value (Obs.snapshot ()) c - before))
            [ ("simulator", sim, "cluster"); ("processes", Node.executor node, "node") ]))
    [ ("Q1", "lineitem", 1); ("Q6", "lineitem", 1); ("Q17", "lineitem", 3) ]

(* Q17 with one repartition split into two hops: the first moves
   DELTA_lineitem_1 into a fresh map on another key, the second reads
   that map. The second hop's source is the destination of the transfer
   just before it, so the run rule cuts the exchange in two. On both
   transports the views must still equal [Exec], and every stored map
   must equal the unedited program's (Q17's scalar result is often empty
   on small streams; the maps it is maintained from are not). *)
let test_run_rule_chain () =
  let w = Workload.find "Q17" in
  let dp = Workload.distribute w (Workload.compile w) in
  let steps dp = Dprog.steps (Dprog.find_trigger dp "lineitem") in
  let exchanges dp =
    List.filter_map
      (function Dprog.Exchange ps -> Some (List.length ps) | _ -> None)
      (Dprog.calls dp.Dprog.locs (steps dp))
  in
  Alcotest.(check (list int)) "Q17 lineitem: one exchange of 4" [ 4 ]
    (exchanges dp);
  let first =
    Array.fold_left
      (fun acc s ->
        match (acc, s) with
        | None, Dprog.Move t when Dprog.is_mesh dp.locs t -> Some t
        | _ -> acc)
      None (steps dp)
    |> Option.get
  in
  let hop = first.tname ^ "_hop" in
  let decl =
    List.find (fun (m : Divm_compiler.Prog.map_decl) -> m.mname = first.tname)
      dp.base.maps
  in
  let arity = List.length decl.mschema in
  let chained =
    {
      Dprog.base =
        { dp.base with maps = dp.base.maps @ [ { decl with mname = hop } ] };
      locs = (hop, Loc.Dist [| arity - 1 |]) :: dp.locs;
      dtriggers =
        List.map
          (fun (tr : Dprog.dtrigger) ->
            {
              tr with
              blocks =
                List.map
                  (fun (b : Dprog.block) ->
                    {
                      b with
                      bstmts =
                        List.concat_map
                          (function
                            | Dprog.Transfer t when t = first ->
                                [
                                  Dprog.Transfer
                                    { t with tname = hop; key = [| arity - 1 |] };
                                  Dprog.Transfer { t with source = hop };
                                ]
                            | d -> [ d ])
                          b.bstmts;
                    })
                  tr.blocks;
            })
          dp.dtriggers;
    }
  in
  Alcotest.(check (list int)) "the chain cuts the run: exchanges of 1 and 4"
    [ 1; 4 ] (exchanges chained);
  Alcotest.(check int) "one more round trip per lineitem batch" 4
    (static_round_trips chained "lineitem");
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 19 } ~batch_size:300
  in
  let views, _ = replay_dp ~workers:2 ~stream "Q17" chained in
  check_views_vs_exec ~stream ~what:"chained" "Q17" views;
  let stores dp =
    let c = Cluster.create ~config:(Cluster.config ~workers:2 ()) ~domains:1 dp in
    List.iter (fun (rel, b) -> ignore (Cluster.apply_batch c ~rel b)) stream;
    List.map (fun n -> (n, Cluster.map_contents c n)) (non_transient dp.base)
  in
  let want = stores dp in
  Alcotest.(check bool) "the stream fills some store" true
    (List.exists (fun (_, g) -> Gmr.cardinal g > 0) want);
  List.iter2
    (fun (n, g) (_, g') ->
      if not (Gmr.equal ~eps:1e-6 g g') then
        Alcotest.failf "store %s: chained program differs from Q17's" n)
    want (stores chained)

(* Q3's customer trigger at level 3 gathers a delta, scatters it back
   through the driver, then repartitions: the gather rides stage 1's
   reply, and the driver-bound scatter keeps its place between it and
   the exchange. *)
let test_q3_customer_order () =
  let w = Workload.find "Q3" in
  let dp = Workload.distribute ~level:3 w (Workload.compile w) in
  let steps = Dprog.steps (Dprog.find_trigger dp "customer") in
  let kind p =
    match steps.(p) with
    | Dprog.Move { tkind = Dprog.Gather; _ } -> "gather"
    | Dprog.Move { tkind = Dprog.Scatter; _ } -> "scatter"
    | Dprog.Move { tkind = Dprog.Repart; _ } -> "repart"
    | Dprog.Stage _ | Dprog.Driver _ -> "?"
  in
  Alcotest.(check (list string)) "calls in plan order"
    [ "stage [gather]"; "driver scatter"; "exchange [repart]"; "stage []" ]
    (List.map
       (function
         | Dprog.Run (_, ps) ->
             "stage [" ^ String.concat "," (List.map kind ps) ^ "]"
         | Dprog.Pull ps -> "pull [" ^ String.concat "," (List.map kind ps) ^ "]"
         | Dprog.Exchange ps ->
             "exchange [" ^ String.concat "," (List.map kind ps) ^ "]"
         | Dprog.Via_driver p -> "driver " ^ kind p)
       (Dprog.calls dp.locs steps));
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 23 } ~batch_size:300
  in
  let views, _ = replay_dp ~workers:2 ~stream "Q3" dp in
  check_views_vs_exec ~stream ~what:"O3" "Q3" views

(* ------------------------------------------------------------------ *)
(* Engine facade                                                       *)
(* ------------------------------------------------------------------ *)

let test_engine_backends () =
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.05; seed = 7 } ~batch_size:300
  in
  let run backend =
    let eng =
      Engine.create ~config:(Engine.config ~backend ~domains:1 ()) (Workload.find "Q3")
    in
    Fun.protect
      ~finally:(fun () -> Engine.shutdown eng)
      (fun () ->
        let reports =
          List.map (fun (rel, b) -> Engine.apply_batch eng ~rel b) stream
        in
        (Engine.query eng "Q3", Engine.backend_name eng, reports))
  in
  let g_local, n_local, _ = run Engine.Local in
  let g_sim, n_sim, _ =
    run (Engine.Simulated (Cluster.config ~workers:2 ()))
  in
  let g_proc, n_proc, proc_reports =
    run (Engine.Multiprocess (Node.config ~workers:2 ()))
  in
  Alcotest.(check string) "local name" "local" n_local;
  Alcotest.(check string) "simulated name" "simulated" n_sim;
  Alcotest.(check string) "multiprocess name" "multiprocess" n_proc;
  if not (Gmr.equal ~eps:1e-6 g_local g_sim) then
    Alcotest.failf "Q3 diverges local vs simulated:@.%a@.vs %a" Gmr.pp g_sim
      Gmr.pp g_local;
  if not (gmr_bits_equal g_sim g_proc) then
    Alcotest.fail "Q3 diverges simulated vs multiprocess";
  (* Multiprocess reports carry the predictor next to the measurement,
     and reconcile_json aggregates them into the CI artifact. *)
  List.iter
    (fun (r : Engine.report) ->
      match r.Engine.modeled with
      | Some l when l >= 0. -> ()
      | _ -> Alcotest.fail "multiprocess report lacks modeled latency")
    proc_reports;
  Alcotest.(check bool) "some batch predicted positive latency" true
    (List.exists
       (fun (r : Engine.report) ->
         match r.Engine.modeled with Some l -> l > 0. | None -> false)
       proc_reports);
  Alcotest.(check bool) "some batch carries stage stats" true
    (List.exists (fun (r : Engine.report) -> r.Engine.stage_stats <> []) proc_reports);
  let json = Engine.reconcile_json proc_reports in
  Alcotest.(check bool) "reconcile json has stage rows" true
    (String.length json > 2
    && String.sub json 0 1 = "["
    &&
    let has s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    has json "\"predicted_ms\"" && has json "\"measured_ms\"")

let test_engine_single_and_load () =
  (* apply_single on a distributed backend is a one-tuple batch; load on a
     distributed backend replays entries incrementally. Both must agree
     with the simulator fed the same tuples. *)
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.03; seed = 3 } ~batch_size:50
  in
  let mk backend = Engine.create ~config:(Engine.config ~backend ()) (Workload.find "Q6") in
  let a = mk (Engine.Simulated (Cluster.config ~workers:2 ())) in
  let b = mk (Engine.Simulated (Cluster.config ~workers:2 ())) in
  List.iter
    (fun (rel, batch) ->
      ignore (Engine.apply_batch a ~rel batch);
      Gmr.iter (fun t m -> ignore (Engine.apply_single b ~rel t m)) batch)
    stream;
  if not (Gmr.equal ~eps:1e-6 (Engine.query a "Q6") (Engine.query b "Q6")) then
    Alcotest.fail "Q6 diverges between batch and single-tuple application"

(* Both backends report the same per-stage reconciliation: the stage
   names, modeled bytes and predictions in [Engine.reconcile_json] agree
   row for row (only measured times and wire bytes differ). *)
let test_reconcile_json_backends () =
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 17 } ~batch_size:300
  in
  let rows json =
    List.filter_map
      (fun line ->
        try
          Scanf.sscanf line
            " {\"name\": %S, \"batches\": %d, \"predicted_ms\": %[0-9.], \
             \"measured_ms\": %[0-9.], \"bytes\": %d"
            (fun name n predicted _ bytes -> Some (name, n, predicted, bytes))
        with Scanf.Scan_failure _ | End_of_file -> None)
      (String.split_on_char '\n' json)
  in
  List.iter
    (fun qn ->
      let run backend =
        let eng =
          Engine.create
            ~config:(Engine.config ~backend ~domains:1 ())
            (Workload.find qn)
        in
        Fun.protect
          ~finally:(fun () -> Engine.shutdown eng)
          (fun () ->
            Engine.reconcile_json
              (List.map (fun (rel, b) -> Engine.apply_batch eng ~rel b) stream))
      in
      let sim = rows (run (Engine.Simulated (Cluster.config ~workers:2 ()))) in
      let proc = rows (run (Engine.Multiprocess (Node.config ~workers:2 ()))) in
      Alcotest.(check bool) (qn ^ ": simulator reports stages") true (sim <> []);
      Alcotest.(check (list (pair (pair string int) (pair string int))))
        (qn ^ ": stage names, batches, predicted_ms, bytes")
        (List.map (fun (n, b, p, y) -> ((n, b), (p, y))) sim)
        (List.map (fun (n, b, p, y) -> ((n, b), (p, y))) proc))
    [ "Q3"; "Q6"; "Q17" ]

(* Checkpoint and restore run through the transport like everything
   else: on 2 worker processes, checkpoint → 5 batches → restore leaves
   every store bit-identical to the simulator doing the same, and equal
   to the checkpointed state. *)
let test_checkpoint_restore_processes () =
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 9 } ~batch_size:10
  in
  let w = Workload.find "Q3" in
  let prog = Workload.compile w in
  let dp = Workload.distribute w prog in
  let sim = Cluster.create ~config:(Cluster.config ~workers:2 ()) ~domains:1 dp in
  let node = Node.create ~config:(Node.config ~workers:2 ()) dp in
  let proc = Node.executor node in
  Fun.protect
    ~finally:(fun () -> Node.shutdown node)
    (fun () ->
      let head = List.filteri (fun i _ -> i < 6) stream in
      let next = List.filteri (fun i _ -> i >= 6 && i < 11) stream in
      let feed c =
        List.iter (fun (rel, b) -> ignore (Cluster.apply_batch c ~rel b))
      in
      let stores c =
        List.map (fun n -> (n, Cluster.map_contents c n)) (non_transient prog)
      in
      feed sim head;
      feed proc head;
      let snap_s, lat_s = Cluster.checkpoint sim in
      let snap_p, lat_p = Cluster.checkpoint proc in
      Alcotest.(check bool) "checkpoint latency bit-identical" true
        (fbits_equal lat_s lat_p);
      Alcotest.(check int) "checkpoint sizes agree"
        (Cluster.Checkpoint.byte_size snap_s)
        (Cluster.Checkpoint.byte_size snap_p);
      let at_ckpt = stores proc in
      feed sim next;
      feed proc next;
      Alcotest.(check bool) "state moved on" true
        (List.exists2
           (fun (_, g) (_, g0) -> not (gmr_bits_equal g g0))
           (stores proc) at_ckpt);
      Cluster.restore sim snap_s;
      Cluster.restore proc snap_p;
      List.iter2
        (fun (n, gs) ((_, gp), (_, g0)) ->
          if not (gmr_bits_equal gs gp) then
            Alcotest.failf "store %s: simulator vs processes after restore" n;
          if not (gmr_bits_equal g0 gp) then
            Alcotest.failf "store %s differs from its checkpointed state" n)
        (stores sim)
        (List.combine (stores proc) at_ckpt))

(* A worker binary that does not exist is an error naming it, not a
   silent fall-back to some other binary. *)
let test_missing_worker_exe () =
  let w = Workload.find "Q6" in
  let dp = Workload.distribute w (Workload.compile w) in
  match
    Node.create ~config:(Node.config ~worker_exe:"/nonexistent/divm_node" ()) dp
  with
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the path: %s" msg)
        true
        (contains msg "/nonexistent/divm_node")
  | n ->
      Node.shutdown n;
      Alcotest.fail "a nonexistent worker executable was accepted"

(* ------------------------------------------------------------------ *)
(* Distributed telemetry                                               *)
(* ------------------------------------------------------------------ *)

(* Restore every global observer flag no matter how a telemetry test
   exits — later suites assume the defaults. *)
let with_observers f =
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Obs.set_collection false;
      Obs.set_tracing false;
      Obs.clear_events ();
      Profile.reset ())
    f

(* The PR 3 invariant — profiler slot sums equal registry deltas —
   extended across process boundaries: with telemetry collection armed,
   the merged coordinator registry must reconcile exactly against the
   merged slots, the per-worker labeled record-op counters must sum to
   the coordinator's own worker-op total, and that total must equal the
   simulator's for the same program and stream (the proven equivalence
   pattern, applied to telemetry). *)
let test_telemetry_reconcile () =
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 21 } ~batch_size:400
  in
  let w = Workload.find "Q3" in
  let dp = Workload.distribute w (Workload.compile w) in
  (* Simulator reference with every observer off. *)
  let sim_base = Obs.snapshot () in
  let sim =
    Cluster.create ~config:(Cluster.config ~workers:2 ()) ~domains:1 dp
  in
  List.iter (fun (rel, b) -> ignore (Cluster.apply_batch sim ~rel b)) stream;
  let sim_diff = Obs.diff ~later:(Obs.snapshot ()) ~earlier:sim_base in
  let sim_worker_ops =
    Obs.counter_value sim_diff "divm_cluster_worker_ops_total"
  in
  Alcotest.(check bool) "simulator did distributed work" true
    (sim_worker_ops > 0);
  with_observers @@ fun () ->
  Obs.set_collection true;
  Profile.reset ();
  Profile.set_enabled true;
  let base = Obs.snapshot () in
  let node = Node.create ~config:(Node.config ~workers:2 ()) dp in
  Fun.protect
    ~finally:(fun () -> Node.shutdown node)
    (fun () ->
      List.iter
        (fun (rel, b) ->
          ignore (Cluster.apply_batch (Node.executor node) ~rel b))
        stream);
  (* shutdown ran inside finally: the final pull has merged by now *)
  let diff = Obs.diff ~later:(Obs.snapshot ()) ~earlier:base in
  let labeled_record_ops =
    List.fold_left
      (fun acc (n, v) ->
        match v with
        | Obs.VCounter c
          when Obs.base_of n = "divm_record_ops_total" && n <> Obs.base_of n ->
            acc + c
        | _ -> acc)
      0 diff
  in
  let node_worker_ops = Obs.counter_value diff "divm_node_worker_ops_total" in
  Alcotest.(check int)
    "merged per-worker record ops equal the coordinator's worker-op total"
    node_worker_ops labeled_record_ops;
  Alcotest.(check int)
    "worker ops equal the simulator's for the same stream" sim_worker_ops
    node_worker_ops;
  let per_worker =
    List.filter
      (fun (n, v) ->
        match v with
        | Obs.VCounter c ->
            Obs.base_of n = "divm_node_worker_ops_total"
            && n <> Obs.base_of n && c > 0
        | _ -> false)
      diff
  in
  Alcotest.(check int) "both workers contributed labeled op counters" 2
    (List.length per_worker);
  List.iter
    (fun (what, slots, registry) ->
      Alcotest.(check int)
        (Printf.sprintf "cross-process reconciliation of %s is exact" what)
        registry slots)
    (Profile.reconcile ~diff)

(* Merged Chrome trace: spans from three pids (coordinator + 2 workers)
   on one corrected timeline; the per-pid offset is applied uniformly at
   export, so a worker's own span order survives correction, and every
   corrected worker span lands inside the coordinator's observed
   window. *)
let test_merged_trace_monotonic () =
  with_observers @@ fun () ->
  Obs.clear_events ();
  Obs.set_collection true;
  Obs.set_tracing true;
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 5 } ~batch_size:500
  in
  let w = Workload.find "Q3" in
  let dp = Workload.distribute w (Workload.compile w) in
  let t_start = Unix.gettimeofday () in
  let node = Node.create ~config:(Node.config ~workers:2 ()) dp in
  Fun.protect
    ~finally:(fun () -> Node.shutdown node)
    (fun () ->
      List.iter
        (fun (rel, b) ->
          ignore (Cluster.apply_batch (Node.executor node) ~rel b))
        stream);
  let t_end = Unix.gettimeofday () in
  let remote = Obs.remote_events () in
  Alcotest.(check int) "both workers shipped spans" 2 (List.length remote);
  List.iter
    (fun (pid, pname, offset, evs) ->
      Alcotest.(check bool)
        (Printf.sprintf "worker pid %d is distinct from the coordinator's" pid)
        true
        (pid >= 2 && contains pname "worker");
      Alcotest.(check bool) "worker produced spans" true (evs <> []);
      (* Uniform offset: sorting by raw start and by corrected start must
         agree — the correction can shift but never reorder. *)
      let sorted =
        List.sort
          (fun (a : Obs.event) b -> compare a.ev_start b.ev_start)
          evs
      in
      let prev = ref neg_infinity in
      List.iter
        (fun (e : Obs.event) ->
          let corrected = e.ev_start -. offset in
          if corrected < !prev then
            Alcotest.failf
              "pid %d: offset correction reordered spans (%.9f after %.9f)"
              pid corrected !prev;
          prev := corrected;
          (* One coherent timeline: the corrected span sits inside the
             coordinator's observed window (slack for the shutdown-pull
             spans and clock estimation error). *)
          let slack = 0.5 in
          if
            corrected < t_start -. slack
            || corrected +. e.ev_dur > t_end +. slack
          then
            Alcotest.failf
              "pid %d: corrected span [%0.6f, %0.6f] escapes the \
               coordinator window [%0.6f, %0.6f]"
              pid corrected
              (corrected +. e.ev_dur)
              (t_start -. slack) (t_end +. slack))
        sorted)
    remote;
  let json = Obs.chrome_trace_json () in
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "merged trace has spans under pid %d" pid)
        true
        (contains json (Printf.sprintf "\"pid\":%d" pid)))
    [ 1; 2; 3 ]

(* A worker killed mid-stream surfaces as a [Failure] naming the worker
   and its signal, not an opaque socket error: on Q6, and on Q17's
   lineitem trigger, whose batch is a stage, an exchange and a stage
   carrying its gathers. *)
let test_worker_death_report () =
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 2 } ~batch_size:200
  in
  List.iter
    (fun (qn, rel, victim) ->
      let w = Workload.find qn in
      let dp = Workload.distribute w (Workload.compile w) in
      let batches = List.filter (fun (r, _) -> r = rel) stream in
      let node = Node.create ~config:(Node.config ~workers:2 ()) dp in
      Fun.protect
        ~finally:(fun () -> Node.shutdown node)
        (fun () ->
          let ex = Node.executor node in
          ignore (Cluster.apply_batch ex ~rel (List.assoc rel batches));
          Unix.kill (List.nth (Node.worker_pids node) victim) Sys.sigkill;
          Unix.sleepf 0.1;
          match
            List.iter
              (fun (rel, b) -> ignore (Cluster.apply_batch ex ~rel b))
              batches
          with
          | exception Failure msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: error names the dead worker: %s" qn msg)
                true
                (contains msg (Printf.sprintf "worker %d" victim));
              Alcotest.(check bool)
                (Printf.sprintf "%s: error carries the signal: %s" qn msg)
                true (contains msg "signaled")
          | () ->
              Alcotest.failf "%s: batches kept succeeding with a dead worker" qn))
    [ ("Q6", "lineitem", 0); ("Q17", "lineitem", 1) ]

let suites =
  [
    ( "node",
      [
        QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_codec_truncated;
        Alcotest.test_case "malformed frames rejected" `Quick
          test_codec_malformed;
        Alcotest.test_case "dict columns round-trip on the wire" `Quick
          test_codec_dict_roundtrip;
        Alcotest.test_case "dict frames decode strictly" `Quick
          test_codec_dict_strict;
        Alcotest.test_case "share frames decode strictly" `Quick
          test_codec_share_strict;
        Alcotest.test_case "truncated run rejected before allocating" `Quick
          test_codec_truncated_run;
        QCheck_alcotest.to_alcotest qcheck_deal;
        Alcotest.test_case "mesh frames decode strictly with error context"
          `Quick test_codec_mesh_strict;
        QCheck_alcotest.to_alcotest qcheck_node_equiv;
        QCheck_alcotest.to_alcotest qcheck_retraction_equiv;
        Alcotest.test_case "engine backends agree" `Quick test_engine_backends;
        Alcotest.test_case "engine single/load paths" `Quick
          test_engine_single_and_load;
        Alcotest.test_case "stage reconciliation agrees across backends"
          `Quick test_reconcile_json_backends;
        Alcotest.test_case "checkpoint/restore on processes = simulator"
          `Quick test_checkpoint_restore_processes;
        Alcotest.test_case "missing worker executable is named" `Quick
          test_missing_worker_exe;
        Alcotest.test_case "telemetry reconciles across processes" `Quick
          test_telemetry_reconcile;
        Alcotest.test_case "merged trace is offset-corrected and ordered"
          `Quick test_merged_trace_monotonic;
        Alcotest.test_case "worker death names the worker and signal" `Quick
          test_worker_death_report;
        Alcotest.test_case "round trips per batch on both transports" `Quick
          test_round_trips;
        Alcotest.test_case "a chained repartition takes two exchanges" `Quick
          test_run_rule_chain;
        Alcotest.test_case "Q3 customer: gather, driver scatter, exchange"
          `Quick test_q3_customer_order;
      ] );
  ]
