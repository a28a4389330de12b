(* Multi-process engine tests: the wire codec round-trips bit-exactly and
   rejects malformed frames; a real 2-worker process cluster leaves stores
   bit-identical to the simulator over random TPC-H streams; the Engine
   facade gives the same answers through every backend. *)

open Divm_ring
open Divm_storage
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Profile = Divm_profile.Profile
module Protocol = Divm_node.Protocol
module Node = Divm_node.Node
module Cluster = Divm_cluster.Cluster
module Workload = Divm_workload.Workload
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

let gen_tuple = QCheck.Gen.(map Array.of_list (list_size (int_range 0 6) gen_value))

let gen_gmr =
  QCheck.Gen.(
    map
      (fun l ->
        let g = Gmr.create () in
        List.iter (fun (t, m) -> Gmr.add g t m) l;
        g)
      (list_size (int_range 0 25)
         (pair gen_tuple (oneof [ float; oneofl [ 1.; -2.; 0.5 ] ]))))

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

let gen_share =
  QCheck.Gen.(
    int_range 1 6 >>= fun width ->
    int_range 0 25 >>= fun n ->
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

let gen_msg =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun i -> Protocol.Hello i) (int_range 0 100));
        (1, map (fun s -> Protocol.Init s) (string_size (int_range 0 64)));
        ( 3,
          map2 (fun r g -> Protocol.Load_batch (r, g)) gen_name gen_gmr );
        ( 3,
          map2 (fun r cb -> Protocol.Load_share (r, cb)) gen_name gen_share );
        (1, map2 (fun r i -> Protocol.Run_block (r, i)) gen_name (int_range 0 50));
        ( 1,
          map2
            (fun i w -> Protocol.Block_done (i, w))
            (int_range 0 1_000_000) gen_f );
        (1, map (fun m -> Protocol.Pull_map m) gen_name);
        (3, map (fun g -> Protocol.Map_contents g) gen_gmr);
        (3, map2 (fun m g -> Protocol.Deliver (m, g)) gen_name gen_gmr);
        (1, map (fun m -> Protocol.Clear_map m) gen_name);
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
        (1, map (fun i -> Protocol.Shuffle i) (int_range 0 1000));
        (1, map (fun st -> Protocol.Shuffle_done st) gen_shuffle_stat);
        ( 2,
          map2
            (fun src g -> Protocol.Mesh_data (src, g))
            (int_range 0 8) gen_gmr );
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

let msg_equal (a : Protocol.msg) (b : Protocol.msg) =
  match (a, b) with
  | Protocol.Load_batch (r1, g1), Protocol.Load_batch (r2, g2)
  | Protocol.Deliver (r1, g1), Protocol.Deliver (r2, g2) ->
      String.equal r1 r2 && gmr_bits_equal g1 g2
  | Protocol.Load_share (r1, s1), Protocol.Load_share (r2, s2) ->
      String.equal r1 r2 && share_bits_equal s1 s2
  | Protocol.Map_contents g1, Protocol.Map_contents g2 -> gmr_bits_equal g1 g2
  | Protocol.Block_done (o1, w1), Protocol.Block_done (o2, w2) ->
      o1 = o2 && fbits_equal w1 w2
  | Protocol.Telemetry t1, Protocol.Telemetry t2 -> telem_equal t1 t2
  | Protocol.Mesh_data (s1, g1), Protocol.Mesh_data (s2, g2) ->
      s1 = s2 && gmr_bits_equal g1 g2
  | Protocol.Shuffle_done st1, Protocol.Shuffle_done st2 ->
      st1.ss_ser = st2.ss_ser
      && st1.ss_modeled = st2.ss_modeled
      && st1.ss_sent = st2.ss_sent
      && fbits_equal st1.ss_wall st2.ss_wall
  | a, b -> a = b

let qcheck_codec_roundtrip =
  let arb = QCheck.make ~print:(fun _ -> "<msg>") gen_msg in
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
  let arb = QCheck.make ~print:(fun _ -> "<msg>") gen_msg in
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
  (* Unknown tag byte. *)
  expect_error "unknown tag" (fun () -> Protocol.decode "\xff");
  (* Trailing garbage after a complete message. *)
  expect_error "trailing bytes" (fun () ->
      Protocol.decode (Protocol.encode Protocol.Ack ^ "\x00"));
  (* Gmr count claiming more entries than the payload holds. *)
  let lying =
    let b = Buffer.create 16 in
    Buffer.add_string b (Protocol.encode (Protocol.Map_contents (Gmr.create ())))
    ;
    (* patch the count field (last 4 bytes of the empty-Gmr encoding) *)
    let s = Bytes.of_string (Buffer.contents b) in
    Bytes.set s (Bytes.length s - 1) '\xff';
    Bytes.to_string s
  in
  expect_error "lying entry count" (fun () -> Protocol.decode lying)

(* ------------------------------------------------------------------ *)
(* Dictionary-encoded string columns on the wire (PR 9)                *)
(* ------------------------------------------------------------------ *)

(* Low-cardinality string columns must actually ship as dictionary +
   codes (column kind 4), round-trip bit-exactly, and high-cardinality
   columns must stay on the boxed layout (kind 3). The kind byte of the
   second column sits at a computable offset: tag + entry count (i32) +
   layout (u8) + width (u16) + column 0's kind (u8) + n unboxed i64s. *)
let test_codec_dict_roundtrip () =
  let modes = [| "AIR"; "RAIL"; "MAIL"; "SHIP" |] in
  let g = Gmr.create () in
  for k = 0 to 39 do
    Gmr.add g [| Value.Int (k mod 7); Value.String modes.(k mod 4) |] 1.
  done;
  let payload = Protocol.encode (Protocol.Map_contents g) in
  let kind_pos n = 1 + 4 + 1 + 2 + 1 + (8 * n) in
  Alcotest.(check char)
    "string column ships dictionary-encoded" '\x04'
    payload.[kind_pos (Gmr.cardinal g)];
  (match Protocol.decode payload with
  | Protocol.Map_contents g' ->
      Alcotest.(check bool) "dict round-trip bit-exact" true
        (gmr_bits_equal g g')
  | _ -> Alcotest.fail "decoded to a different message");
  let gh = Gmr.create () in
  for k = 0 to 69 do
    Gmr.add gh [| Value.Int k; Value.String (Printf.sprintf "name-%04d" k) |] 1.
  done;
  let ph = Protocol.encode (Protocol.Map_contents gh) in
  Alcotest.(check char)
    "high-cardinality column stays boxed" '\x03'
    ph.[kind_pos (Gmr.cardinal gh)];
  match Protocol.decode ph with
  | Protocol.Map_contents g' ->
      Alcotest.(check bool) "boxed round-trip bit-exact" true
        (gmr_bits_equal gh g')
  | _ -> Alcotest.fail "decoded to a different message"

(* Hand-built dictionary frames the encoder would never produce: the
   strict decoder must reject duplicate dictionary entries and codes
   outside [0, dict size). *)
let dict_payload ~entries ~codes =
  let n = Array.length codes in
  let b = Buffer.create 64 in
  Buffer.add_uint8 b 7 (* Map_contents *);
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_uint8 b 1 (* columnar layout *);
  Buffer.add_uint16_be b 1 (* width *);
  Buffer.add_uint8 b 4 (* dictionary column kind *);
  Buffer.add_int32_be b (Int32.of_int (Array.length entries));
  Array.iter
    (fun s ->
      Buffer.add_int32_be b (Int32.of_int (String.length s));
      Buffer.add_string b s)
    entries;
  Array.iter (fun c -> Buffer.add_int32_be b (Int32.of_int c)) codes;
  for _ = 1 to n do
    Buffer.add_int64_be b (Int64.bits_of_float 1.)
  done;
  Buffer.contents b

let test_codec_dict_strict () =
  (* sanity: a well-formed hand-built dict frame decodes, duplicate rows
     merging by multiplicity *)
  (match
     Protocol.decode (dict_payload ~entries:[| "x"; "y" |] ~codes:[| 0; 1; 0 |])
   with
  | Protocol.Map_contents g ->
      Alcotest.(check (float 1e-9)) "codes decode through the dictionary" 2.
        (Gmr.mult g [| Value.String "x" |])
  | _ -> Alcotest.fail "decoded to a different message");
  expect_error "duplicate dictionary entry" (fun () ->
      Protocol.decode (dict_payload ~entries:[| "x"; "x" |] ~codes:[| 0 |]));
  expect_error "code out of range" (fun () ->
      Protocol.decode (dict_payload ~entries:[| "x" |] ~codes:[| 0; 1 |]));
  expect_error "negative code" (fun () ->
      Protocol.decode (dict_payload ~entries:[| "x" |] ~codes:[| -1 |]))

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

(* ------------------------------------------------------------------ *)
(* Batch share frames                                                  *)
(* ------------------------------------------------------------------ *)

(* A hand-built [Load_share] payload for stream "r": [cols] lists
   (position, declared cell count, kind + payload writer); the
   multiplicity is the constant 1. *)
let share_payload ?(width = 3) ?(rows = 2) ?(trailing = "") cols =
  let b = Buffer.create 64 in
  Buffer.add_uint8 b 20 (* Load_share *);
  Buffer.add_int32_be b 1l;
  Buffer.add_string b "r";
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

(* A share ships only its live columns, each tagged with its position,
   and decodes straight into a typed batch; the strict decoder names the
   frame for every defect the encoder can never produce. *)
let test_codec_share_strict () =
  (match
     Protocol.decode
       (share_payload
          [ (0, 2, int_cells [ 7; 8 ]); (2, 2, dict_cells [ "A"; "R" ] [ 1; 0 ]) ])
   with
  | Protocol.Load_share ("r", cb) ->
      Alcotest.(check (array int)) "live positions" [| 0; 2 |]
        (Colbatch.live_cols cb);
      Alcotest.(check int) "stream width" 3 (Colbatch.width cb);
      Alcotest.(check bool) "dictionary cells decode" true
        (Colbatch.get (Colbatch.col cb 2) 0 = Value.String "R");
      Alcotest.(check (array (float 0.))) "constant multiplicity" [| 1.; 1. |]
        (Colbatch.mults cb)
  | _ -> Alcotest.fail "decoded to a different message");
  let rejects name sub cols ?width ?rows ?trailing () =
    expect_error_with name [ "Load_share"; sub ] (fun () ->
        Protocol.decode (share_payload ?width ?rows ?trailing cols))
  in
  rejects "column index past the stream width" "out of range"
    [ (3, 2, int_cells [ 1; 2 ]) ]
    ();
  rejects "duplicate column index" "duplicate column index 1"
    [ (1, 2, int_cells [ 1; 2 ]); (1, 2, int_cells [ 3; 4 ]) ]
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
  let size cb = String.length (Protocol.encode (Protocol.Load_share ("r", cb))) in
  Alcotest.(check int) "15 absent columns save 15 column runs"
    (15 * (2 + 4 + 1 + 16))
    (size full - size cb)

(* ------------------------------------------------------------------ *)
(* Mesh frame strictness + error context                               *)
(* ------------------------------------------------------------------ *)

(* The strict decoder rejects negative fields the encoder would never
   produce, and every field-level failure cites the frame's claimed tag
   and payload length — debuggable from the exception alone. *)
let test_codec_mesh_strict () =
  (* Negative transfer index: the i32 right after the tag byte. *)
  let shuffle = Protocol.encode (Protocol.Shuffle 3) in
  let neg_idx = Bytes.of_string shuffle in
  Bytes.set neg_idx 1 '\xff';
  expect_error_with "negative transfer index"
    [ "Shuffle"; "tag 17"; "negative transfer index" ]
    (fun () -> Protocol.decode (Bytes.to_string neg_idx));
  (* Negative mesh source id: the i32 right after the tag byte. *)
  let md = Protocol.encode (Protocol.Mesh_data (0, Gmr.create ())) in
  let neg_src = Bytes.of_string md in
  Bytes.set neg_src 1 '\xff';
  expect_error_with "negative mesh source id"
    [ "Mesh_data"; "tag 19"; "negative mesh source id" ]
    (fun () -> Protocol.decode (Bytes.to_string neg_src));
  (* Negative serialized byte count: the i64 right after the tag byte. *)
  let sd =
    Protocol.encode
      (Protocol.Shuffle_done
         {
           Protocol.ss_ser = 1;
           ss_modeled = [| 2 |];
           ss_sent = [| 3 |];
           ss_wall = 0.;
         })
  in
  let neg_ser = Bytes.of_string sd in
  Bytes.set neg_ser 1 '\xff';
  expect_error_with "negative serialized byte count"
    [ "Shuffle_done"; "tag 18"; "negative" ]
    (fun () -> Protocol.decode (Bytes.to_string neg_ser));
  (* Negative modeled byte count: the per-peer arrays ride as i32;
     layout is tag(1) + ser i64(8) + count(4), then the first entry. *)
  let neg_modeled = Bytes.of_string sd in
  Bytes.set neg_modeled 13 '\xff';
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

let tpch_queries =
  [ "Q1"; "Q3"; "Q4"; "Q6"; "Q7"; "Q12"; "Q13"; "Q14"; "Q17"; "Q19"; "Q22" ]

let close_rel a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max a b)

(* The acceptance property of the whole subsystem: a real 2-process
   cluster replaying a random TPC-H stream leaves every non-transient
   store bit-identical to the simulator running the same program at the
   same worker count, and the cost model predicts the same latency and
   shuffle bytes on both (it sees the same op counts). *)
let qcheck_node_equiv =
  let arb =
    QCheck.(
      make
        ~print:(Print.pair Print.int Print.int)
        Gen.(pair (int_range 0 10_000) (int_range 1 40)))
  in
  QCheck.Test.make
    ~name:"multiprocess stores bit-identical to simulator on TPC-H streams"
    ~count:3 arb
    (fun (seed, batch_size) ->
      let stream = Tpch.Gen.stream { Tpch.Gen.scale = 0.03; seed } ~batch_size in
      List.iter
        (fun qn ->
          let w = Workload.find qn in
          let prog = Workload.compile w in
          let dp = Workload.distribute w prog in
          let sim =
            Cluster.create ~config:(Cluster.config ~workers:2 ()) ~domains:1 dp
          in
          let node = Node.create ~config:(Node.config ~workers:2 ()) dp in
          Fun.protect
            ~finally:(fun () -> Node.shutdown node)
            (fun () ->
              List.iter
                (fun (rel, b) ->
                  let ms = Cluster.apply_batch sim ~rel b in
                  let mn = Node.apply_batch node ~rel b in
                  if not (close_rel ms.Cluster.latency mn.Node.latency) then
                    Alcotest.failf
                      "%s: predicted latency diverges from simulator: %g vs %g"
                      qn mn.Node.latency ms.Cluster.latency;
                  if ms.Cluster.bytes_shuffled <> mn.Node.bytes_shuffled then
                    Alcotest.failf
                      "%s: modeled shuffle bytes diverge: %d vs %d" qn
                      mn.Node.bytes_shuffled ms.Cluster.bytes_shuffled;
                  if ms.Cluster.stages <> mn.Node.stages then
                    Alcotest.failf "%s: stage counts diverge: %d vs %d" qn
                      mn.Node.stages ms.Cluster.stages)
                stream;
              List.iter
                (fun (m : Divm_compiler.Prog.map_decl) ->
                  if m.mkind <> Divm_compiler.Prog.Transient then
                    let gs = Cluster.map_contents sim m.mname in
                    let gn = Node.map_contents node m.mname in
                    if not (gmr_bits_equal gs gn) then
                      Alcotest.failf
                        "%s: store %s differs between simulator and worker \
                         processes"
                        qn m.mname)
                prog.Divm_compiler.Prog.maps))
        tpch_queries;
      true)

(* Replay [stream] through the simulator and a star and a mesh process
   cluster of query [qn] at [workers]: every modeled quantity (latency,
   shuffle bytes, stages) and every non-transient store must agree bit
   for bit across the three. Returns the star and mesh transfer-stage
   wire bytes and, per result view, the simulator's and the mesh
   cluster's contents. *)
let replay_sim_star_mesh ~workers ~stream qn =
  let w = Workload.find qn in
  let prog = Workload.compile w in
  let dp = Workload.distribute w prog in
  let sim = Cluster.create ~config:(Cluster.config ~workers ()) ~domains:1 dp in
  let star = Node.create ~config:(Node.config ~workers ~shuffle:Node.Star ()) dp in
  let mesh = Node.create ~config:(Node.config ~workers ~shuffle:Node.Mesh ()) dp in
  let star_tw = ref 0 and mesh_tw = ref 0 in
  let transfer_wire acc (m : Node.metrics) =
    List.iter
      (fun (s : Node.stage_stat) ->
        if String.length s.Node.sname >= 9
           && String.sub s.Node.sname 0 9 = "transfer:"
        then acc := !acc + s.Node.swire)
      m.Node.stage_stats
  in
  Fun.protect
    ~finally:(fun () ->
      Node.shutdown star;
      Node.shutdown mesh)
    (fun () ->
      List.iter
        (fun (rel, b) ->
          let ms = Cluster.apply_batch sim ~rel b in
          let mst = Node.apply_batch star ~rel b in
          let mme = Node.apply_batch mesh ~rel b in
          transfer_wire star_tw mst;
          transfer_wire mesh_tw mme;
          List.iter
            (fun (which, (mn : Node.metrics)) ->
              if not (close_rel ms.Cluster.latency mn.Node.latency) then
                Alcotest.failf
                  "%s/%dw/%s: predicted latency diverges from simulator: %g \
                   vs %g"
                  qn workers which mn.Node.latency ms.Cluster.latency;
              if ms.Cluster.bytes_shuffled <> mn.Node.bytes_shuffled then
                Alcotest.failf
                  "%s/%dw/%s: modeled shuffle bytes diverge: %d vs %d" qn
                  workers which mn.Node.bytes_shuffled ms.Cluster.bytes_shuffled;
              if ms.Cluster.stages <> mn.Node.stages then
                Alcotest.failf "%s/%dw/%s: stage counts diverge: %d vs %d" qn
                  workers which mn.Node.stages ms.Cluster.stages)
            [ ("star", mst); ("mesh", mme) ])
        stream;
      List.iter
        (fun (m : Divm_compiler.Prog.map_decl) ->
          if m.mkind <> Divm_compiler.Prog.Transient then begin
            let gs = Cluster.map_contents sim m.mname in
            let gst = Node.map_contents star m.mname in
            let gme = Node.map_contents mesh m.mname in
            if not (gmr_bits_equal gs gst) then
              Alcotest.failf "%s/%dw: store %s differs simulator vs star" qn
                workers m.mname;
            if not (gmr_bits_equal gst gme) then
              Alcotest.failf "%s/%dw: store %s differs star vs mesh" qn workers
                m.mname
          end)
        prog.Divm_compiler.Prog.maps;
      ( !star_tw,
        !mesh_tw,
        List.map
          (fun (name, _) ->
            (name, Cluster.result sim name, Node.result mesh name))
          w.Workload.maps ))

(* Tentpole acceptance of the shuffle mesh: over the same random TPC-H
   stream, the star and mesh topologies leave every non-transient store
   bit-identical to each other and to the simulator — at 2 AND 4 workers
   — while agreeing on every modeled quantity (the cost model never sees
   the topology). And the point of the mesh: summed over all queries,
   its transfer-stage wire bytes come to at most 0.6x the star's
   (aggregate, because gather-only queries are wire-identical under
   both). *)
let qcheck_star_mesh_equiv =
  let arb = QCheck.(make ~print:Print.int Gen.(int_range 0 10_000)) in
  QCheck.Test.make
    ~name:"star and mesh shuffles bit-identical to simulator at 2 and 4 workers"
    ~count:1 arb
    (fun seed ->
      let stream =
        Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed } ~batch_size:500
      in
      List.iter
        (fun workers ->
          let star_tw = ref 0 and mesh_tw = ref 0 in
          List.iter
            (fun qn ->
              let st, me, _ = replay_sim_star_mesh ~workers ~stream qn in
              star_tw := !star_tw + st;
              mesh_tw := !mesh_tw + me)
            tpch_queries;
          if !mesh_tw = 0 then
            Alcotest.failf "%dw: no mesh transfer wire traffic at all" workers;
          (* The acceptance bar, aggregated over the suite: at 2 workers
             mesh stays at or under 0.6x star even at this miniature
             scale. At 4 workers the per-transfer control floors
             (4 Shuffle + 4 Shuffle_done + 12 Mesh_data frames vs star's
             pull/deliver round trips) are a larger share of these tiny
             payloads, so the 0.6x bound belongs to benched scales (the
             CI smoke job enforces it there) — here mesh must still be
             strictly cheaper. *)
          if workers = 2 && !mesh_tw * 10 > !star_tw * 6 then
            Alcotest.failf
              "%dw: mesh transfer wire bytes %d exceed 0.6x star's %d" workers
              !mesh_tw !star_tw;
          if !mesh_tw >= !star_tw then
            Alcotest.failf
              "%dw: mesh transfer wire bytes %d not below star's %d" workers
              !mesh_tw !star_tw)
        [ 2; 4 ];
      true)

(* The stream with every batch retracted [k] batches later (after the
   last insert, the remaining ones in order): about half the rows are
   deletes, keys cancel to zero and leave pools, and the vectorized
   worker groups drop cancelled rows ([group_drop_cancelled]). *)
let with_retractions ~k stream =
  let a = Array.of_list stream in
  let n = Array.length a in
  let neg (rel, b) = (rel, Gmr.scale b (-1.)) in
  List.concat
    (List.init (n + k) (fun i ->
         (if i < n then [ a.(i) ] else [])
         @ if i >= k && i - k < n then [ neg a.(i - k) ] else []))

(* First key whose multiplicities differ by more than 1e-9 of the view's
   largest magnitude (incremental float sums carry rounding error on the
   scale of their summands, not of the result). *)
let view_difference want got =
  let largest g = Gmr.fold (fun _ m a -> Float.max a (Float.abs m)) g 1. in
  let tol = 1e-9 *. Float.max (largest want) (largest got) in
  let first a b =
    Gmr.fold
      (fun t m d ->
        match d with
        | None when Float.abs (m -. Gmr.mult b t) > tol -> Some t
        | d -> d)
      a None
  in
  match first want got with Some t -> Some t | None -> first got want

(* The simulator = star = mesh contract over retraction streams, at 2
   and 4 workers, with the reference interpreter as the oracle: both
   engines' result views must match [Exec] re-evaluated over the net
   base contents the stream leaves behind. *)
let qcheck_retraction_equiv =
  let arb = QCheck.(make ~print:Print.int Gen.(int_range 0 10_000)) in
  QCheck.Test.make
    ~name:"retraction streams: simulator = star = mesh = Exec at 2 and 4 workers"
    ~count:1 arb
    (fun seed ->
      let inserts =
        Tpch.Gen.stream { Tpch.Gen.scale = 0.01; seed } ~batch_size:200
      in
      let stream = with_retractions ~k:3 inserts in
      List.iter
        (fun qn ->
          let w = Workload.find qn in
          let net = Hashtbl.create 8 in
          List.iter
            (fun (rel, b) ->
              let g =
                match Hashtbl.find_opt net rel with
                | Some g -> g
                | None ->
                    let g = Gmr.create () in
                    Hashtbl.replace net rel g;
                    g
              in
              Gmr.iter (fun t m -> Gmr.add g t m) b)
            stream;
          let ex = Divm_runtime.Exec.create (Workload.compile w) in
          Divm_runtime.Exec.load ex
            (Hashtbl.fold (fun r g l -> (r, g) :: l) net []);
          List.iter
            (fun workers ->
              let _, _, views = replay_sim_star_mesh ~workers ~stream qn in
              List.iter
                (fun (name, gsim, gproc) ->
                  let want = Divm_runtime.Exec.result ex name in
                  List.iter
                    (fun (which, got) ->
                      match view_difference want got with
                      | None -> ()
                      | Some key ->
                          Alcotest.failf
                            "%s/%dw/%s: view %s differs from Exec at %s: \
                             expected %.17g, got %.17g"
                            qn workers which name (Vtuple.to_string key)
                            (Gmr.mult want key) (Gmr.mult got key))
                    [ ("simulator", gsim); ("multiprocess", gproc) ])
                views)
            [ 2; 4 ])
        tpch_queries;
      true)

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

(* Boxed-vs-unboxed equivalence through the Engine facade: every
   non-transient store reaches the same state whether the Local executor
   runs typed columnar batches or generic rows, on all three backends.
   For the distributed backends the [columnar] knob is a no-op on
   execution, but both runs cross the new columnar wire layout (and its
   row-layout fallback on mixed-type columns), so the comparison pins the
   codec too. *)
let test_columnar_backend_equiv () =
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 13 } ~batch_size:500
  in
  let backends =
    [
      ("local", fun () -> Engine.Local);
      ("simulated", fun () -> Engine.Simulated (Cluster.config ~workers:2 ()));
      ( "multiprocess",
        fun () -> Engine.Multiprocess (Node.config ~workers:2 ()) );
    ]
  in
  List.iter
    (fun qn ->
      let w = Workload.find qn in
      let run backend columnar =
        let eng =
          Engine.create
            ~config:(Engine.config ~backend ~domains:1 ~columnar ())
            w
        in
        Fun.protect
          ~finally:(fun () -> Engine.shutdown eng)
          (fun () ->
            List.iter
              (fun (rel, b) -> ignore (Engine.apply_batch eng ~rel b))
              stream;
            List.filter_map
              (fun (m : Divm_compiler.Prog.map_decl) ->
                if m.mkind <> Divm_compiler.Prog.Transient then
                  Some (m.mname, Engine.map_contents eng m.mname)
                else None)
              (Engine.prog eng).Divm_compiler.Prog.maps)
      in
      List.iter
        (fun (bname, mk) ->
          let unboxed = run (mk ()) true and boxed = run (mk ()) false in
          List.iter2
            (fun (n1, g1) (n2, g2) ->
              Alcotest.(check string) "same map order" n1 n2;
              (* same computation replayed in a different merge order:
                 equal within summation-order epsilon *)
              if not (Gmr.equal ~eps:1e-6 g1 g2) then
                Alcotest.failf
                  "%s/%s: store %s differs between columnar and generic \
                   storage"
                  qn bname n1)
            unboxed boxed)
        backends)
    tpch_queries

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

(* ------------------------------------------------------------------ *)
(* Cluster config/argument domain precedence                           *)
(* ------------------------------------------------------------------ *)

let test_cluster_domains_contradiction () =
  let w = Workload.find "Q6" in
  let dp = Workload.distribute w (Workload.compile w) in
  (match
     Cluster.create ~config:(Cluster.config ~workers:2 ~domains:2 ()) ~domains:4
       dp
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "contradictory domain counts accepted");
  (* Agreement and one-sided pinning are fine. *)
  ignore
    (Cluster.create ~config:(Cluster.config ~workers:2 ~domains:2 ()) ~domains:2
       dp);
  ignore (Cluster.create ~config:(Cluster.config ~workers:2 ()) ~domains:1 dp)

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
      List.iter (fun (rel, b) -> ignore (Node.apply_batch node ~rel b)) stream);
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
      List.iter (fun (rel, b) -> ignore (Node.apply_batch node ~rel b)) stream);
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
   and its signal, not an opaque socket error. *)
let test_worker_death_report () =
  let stream =
    Tpch.Gen.stream { Tpch.Gen.scale = 0.02; seed = 2 } ~batch_size:200
  in
  let w = Workload.find "Q6" in
  let dp = Workload.distribute w (Workload.compile w) in
  let node = Node.create ~config:(Node.config ~workers:2 ()) dp in
  Fun.protect
    ~finally:(fun () -> Node.shutdown node)
    (fun () ->
      let rel, batch = List.hd stream in
      ignore (Node.apply_batch node ~rel batch);
      (match Node.worker_pids node with
      | Some pid :: _ -> Unix.kill pid Sys.sigkill
      | _ -> Alcotest.fail "coordinator does not know its worker pids");
      Unix.sleepf 0.1;
      match
        List.iter (fun (rel, b) -> ignore (Node.apply_batch node ~rel b)) stream
      with
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error names the dead worker: %s" msg)
            true (contains msg "worker 0");
          Alcotest.(check bool)
            (Printf.sprintf "error carries the signal: %s" msg)
            true (contains msg "signaled")
      | () -> Alcotest.fail "batches kept succeeding with a dead worker")

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
        Alcotest.test_case "mesh frames decode strictly with error context"
          `Quick test_codec_mesh_strict;
        QCheck_alcotest.to_alcotest qcheck_node_equiv;
        QCheck_alcotest.to_alcotest qcheck_star_mesh_equiv;
        QCheck_alcotest.to_alcotest qcheck_retraction_equiv;
        Alcotest.test_case "engine backends agree" `Quick test_engine_backends;
        Alcotest.test_case "columnar on/off stores agree on every backend"
          `Slow test_columnar_backend_equiv;
        Alcotest.test_case "engine single/load paths" `Quick
          test_engine_single_and_load;
        Alcotest.test_case "cluster domains contradiction" `Quick
          test_cluster_domains_contradiction;
        Alcotest.test_case "telemetry reconciles across processes" `Quick
          test_telemetry_reconcile;
        Alcotest.test_case "merged trace is offset-corrected and ordered"
          `Quick test_merged_trace_monotonic;
        Alcotest.test_case "worker death names the worker and signal" `Quick
          test_worker_death_report;
      ] );
  ]
