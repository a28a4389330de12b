open Divm_ring
open Divm_storage
open Divm_obs

type telem = {
  t_now : float;
  t_snap : Obs.snapshot;
  t_slots : Prof.row list;
  t_spans : Obs.event list;
}

type shuffle_stat = {
  ss_ser : int;
  ss_modeled : int array;
  ss_sent : int array;
  ss_wall : float;
}

type msg =
  | Hello of int
  | Init of string
  | Load_batch of string * Gmr.t
  | Load_share of string * Colbatch.t
  | Run_block of string * int
  | Block_done of int * float
  | Pull_map of string
  | Map_contents of Gmr.t
  | Deliver of string * Gmr.t
  | Clear_map of string
  | Ack
  | Shutdown
  | Start_telemetry of bool * bool
  | Pull_telemetry
  | Telemetry of telem
  | Peers of string array
  | Mesh_connect
  | Shuffle of int
  | Shuffle_done of shuffle_stat
  | Mesh_data of int * Gmr.t

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt
let max_frame = 64 * 1024 * 1024

(* -------------------------------------------------------------- *)
(* Encoding                                                        *)
(* -------------------------------------------------------------- *)

let add_string b s =
  let n = String.length s in
  if n > max_frame then err "string field of %d bytes exceeds max_frame" n;
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b s

let add_f64 b f = Buffer.add_int64_be b (Int64.bits_of_float f)
let add_i64 b i = Buffer.add_int64_be b (Int64.of_int i)

(* Element count of a list field. Every element encodes to >= 1 byte, so
   the frame cap bounds any legitimate count; the decoder enforces the
   same bound before allocating. *)
let add_count b n =
  if n > max_frame then err "list of %d elements exceeds max_frame" n;
  Buffer.add_int32_be b (Int32.of_int n)

(* Telemetry payload: registry snapshot entries (name + kind byte:
   0 = counter, 1 = gauge, 2 = histogram with its bucket layout),
   profiler slot rows, completed spans. Floats travel as IEEE-754 bits,
   like the data plane, so merged-vs-local reconciliation is exact. *)
let add_snapshot b (snap : Obs.snapshot) =
  add_count b (List.length snap);
  List.iter
    (fun (name, v) ->
      add_string b name;
      match (v : Obs.value) with
      | Obs.VCounter c ->
          Buffer.add_uint8 b 0;
          add_i64 b c
      | Obs.VGauge g ->
          Buffer.add_uint8 b 1;
          add_f64 b g
      | Obs.VHistogram { buckets; counts; sum; count } ->
          Buffer.add_uint8 b 2;
          add_count b (Array.length buckets);
          if Array.length counts <> Array.length buckets + 1 then
            err "histogram %s: %d counts for %d buckets" name
              (Array.length counts) (Array.length buckets);
          Array.iter (add_f64 b) buckets;
          Array.iter (add_i64 b) counts;
          add_f64 b sum;
          add_i64 b count)
    snap

let add_slots b (rows : Prof.row list) =
  add_count b (List.length rows);
  List.iter
    (fun (r : Prof.row) ->
      add_string b r.r_trigger;
      add_string b r.r_label;
      add_i64 b r.r_firings;
      add_i64 b r.r_ops;
      add_i64 b r.r_probes;
      add_i64 b r.r_misses;
      add_i64 b r.r_scanned;
      add_i64 b r.r_svscan;
      add_i64 b r.r_svsel;
      add_i64 b r.r_bytes;
      add_f64 b r.r_wall)
    rows

let add_spans b (evs : Obs.event list) =
  add_count b (List.length evs);
  List.iter
    (fun (e : Obs.event) ->
      add_string b e.ev_name;
      add_f64 b e.ev_start;
      add_f64 b e.ev_dur;
      Buffer.add_int32_be b (Int32.of_int e.ev_depth);
      add_count b (List.length e.ev_attrs);
      List.iter
        (fun (k, v) ->
          add_string b k;
          add_string b v)
        e.ev_attrs)
    evs

let add_telem b t =
  add_f64 b t.t_now;
  add_snapshot b t.t_snap;
  add_slots b t.t_slots;
  add_spans b t.t_spans

let add_value b (v : Value.t) =
  match v with
  | Value.Int i ->
      Buffer.add_uint8 b 0;
      Buffer.add_int64_be b (Int64.of_int i)
  | Value.Float f ->
      Buffer.add_uint8 b 1;
      Buffer.add_int64_be b (Int64.bits_of_float f)
  | Value.String s ->
      Buffer.add_uint8 b 2;
      add_string b s
  | Value.Date d ->
      Buffer.add_uint8 b 3;
      Buffer.add_int64_be b (Int64.of_int d)

let add_tuple b (tup : Vtuple.t) =
  let n = Array.length tup in
  if n > 0xffff then err "tuple arity %d exceeds encoding limit" n;
  Buffer.add_uint16_be b n;
  Array.iter (add_value b) tup

(* Uniform tuple arity of a GMR, or [None] for mixed arities (which must
   fall back to the row layout). *)
let gmr_width g =
  let w = ref (-1) and ok = ref true in
  Gmr.iter
    (fun tup _ ->
      let n = Array.length tup in
      if !w = -1 then w := n else if n <> !w then ok := false)
    g;
  if !ok && !w >= 0 && !w <= 0xffff then Some !w else None

let add_rows b g =
  Gmr.iter
    (fun tup m ->
      add_tuple b tup;
      Buffer.add_int64_be b (Int64.bits_of_float m))
    g

(* GMR payload: entry count, then a layout byte. Layout 1 ships the
   entries as flat typed columns (u16 width; per column a u8 kind tag and
   an unboxed payload; then the multiplicities) — one contiguous run per
   attribute instead of a tag per cell. Layout 0 is the per-row fallback,
   kept for empty and mixed-arity GMRs. Both layouts preserve the
   source's slot iteration order, so replaying a decoded GMR rebuilds a
   bit-identical store. *)
(* One typed column of [n] cells: a u8 kind tag, then an unboxed
   payload — one contiguous run per attribute instead of a tag per
   cell. *)
let add_col b n (c : Colbatch.col) =
  match c with
  | Colbatch.CInt a ->
      Buffer.add_uint8 b 0;
      for i = 0 to n - 1 do
        Buffer.add_int64_be b (Int64.of_int a.(i))
      done
  | Colbatch.CFloat a ->
      Buffer.add_uint8 b 1;
      for i = 0 to n - 1 do
        Buffer.add_int64_be b (Int64.bits_of_float a.(i))
      done
  | Colbatch.CDate a ->
      Buffer.add_uint8 b 2;
      for i = 0 to n - 1 do
        Buffer.add_int64_be b (Int64.of_int a.(i))
      done
  | Colbatch.CBoxed a ->
      Buffer.add_uint8 b 3;
      for i = 0 to n - 1 do
        add_value b a.(i)
      done
  | Colbatch.CDict (d, codes) ->
      (* dictionary once, then one i32 code per row — repeated strings
         never travel twice *)
      Buffer.add_uint8 b 4;
      let dn = Colbatch.dict_size d in
      add_count b dn;
      for e = 0 to dn - 1 do
        add_string b (Colbatch.dict_entry d e)
      done;
      for i = 0 to n - 1 do
        Buffer.add_int32_be b (Int32.of_int codes.(i))
      done

(* GMR payload: entry count, then a layout byte. Layout 1 ships the
   entries as flat typed columns (u16 width; per column an [add_col]
   run; then the multiplicities). Layout 0 is the per-row fallback, kept
   for empty and mixed-arity GMRs. Both layouts preserve the source's
   slot iteration order, so replaying a decoded GMR rebuilds a
   bit-identical store. *)
let add_gmr b g =
  Buffer.add_int32_be b (Int32.of_int (Gmr.cardinal g));
  match gmr_width g with
  | Some w when Gmr.cardinal g > 0 && w > 0 ->
      Buffer.add_uint8 b 1;
      Buffer.add_uint16_be b w;
      let cb = Colbatch.of_gmr ~width:w g in
      (* safety net: any all-string column that arrived boxed (legacy
         construction paths) still ships dictionary-encoded *)
      Colbatch.dictify cb;
      let n = Colbatch.length cb in
      for c = 0 to w - 1 do
        add_col b n (Colbatch.col cb c)
      done;
      Array.iter
        (fun m -> Buffer.add_int64_be b (Int64.bits_of_float m))
        (Colbatch.mults cb)
  | _ ->
      Buffer.add_uint8 b 0;
      add_rows b g

(* Batch share payload: stream width (u16), row count (i32), live column
   count (u16); per live column its position (u16), its cell count (i32,
   always the row count) and an [add_col] run; then the multiplicities —
   u8 1 and one f64 when every row carries the same bit pattern (the
   common all-inserts or all-deletes batch), else u8 0 and one f64 per
   row. Absent columns cost nothing. *)
let add_share b cb =
  let w = Colbatch.width cb and n = Colbatch.length cb in
  if w > 0xffff then err "share width %d exceeds encoding limit" w;
  let live = Colbatch.live_cols cb in
  Buffer.add_uint16_be b w;
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_uint16_be b (Array.length live);
  Array.iter
    (fun c ->
      Buffer.add_uint16_be b c;
      Buffer.add_int32_be b (Int32.of_int n);
      add_col b n (Colbatch.col cb c))
    live;
  let ms = Colbatch.mults cb in
  let bits = Int64.bits_of_float in
  if n > 0 && Array.for_all (fun m -> Int64.equal (bits m) (bits ms.(0))) ms
  then begin
    Buffer.add_uint8 b 1;
    Buffer.add_int64_be b (bits ms.(0))
  end
  else begin
    Buffer.add_uint8 b 0;
    Array.iter (fun m -> Buffer.add_int64_be b (bits m)) ms
  end

let tag_of = function
  | Hello _ -> 1
  | Init _ -> 2
  | Load_batch _ -> 3
  | Run_block _ -> 4
  | Block_done _ -> 5
  | Pull_map _ -> 6
  | Map_contents _ -> 7
  | Deliver _ -> 8
  | Clear_map _ -> 9
  | Ack -> 10
  | Shutdown -> 11
  | Start_telemetry _ -> 12
  | Pull_telemetry -> 13
  | Telemetry _ -> 14
  | Peers _ -> 15
  | Mesh_connect -> 16
  | Shuffle _ -> 17
  | Shuffle_done _ -> 18
  | Mesh_data _ -> 19
  | Load_share _ -> 20

let max_tag = 20

(* Names for diagnostics only: a malformed frame's error message cites
   the message it claimed to be, so a bad peer is debuggable from the
   exception alone instead of a socket hexdump. *)
let tag_name = function
  | 1 -> "Hello"
  | 2 -> "Init"
  | 3 -> "Load_batch"
  | 4 -> "Run_block"
  | 5 -> "Block_done"
  | 6 -> "Pull_map"
  | 7 -> "Map_contents"
  | 8 -> "Deliver"
  | 9 -> "Clear_map"
  | 10 -> "Ack"
  | 11 -> "Shutdown"
  | 12 -> "Start_telemetry"
  | 13 -> "Pull_telemetry"
  | 14 -> "Telemetry"
  | 15 -> "Peers"
  | 16 -> "Mesh_connect"
  | 17 -> "Shuffle"
  | 18 -> "Shuffle_done"
  | 19 -> "Mesh_data"
  | 20 -> "Load_share"
  | _ -> "unknown"

let encode m =
  let b = Buffer.create 256 in
  Buffer.add_uint8 b (tag_of m);
  (match m with
  | Hello wid -> Buffer.add_int32_be b (Int32.of_int wid)
  | Init s -> add_string b s
  | Load_batch (rel, g) ->
      add_string b rel;
      add_gmr b g
  | Load_share (rel, cb) ->
      add_string b rel;
      add_share b cb
  | Run_block (rel, bi) ->
      add_string b rel;
      Buffer.add_int32_be b (Int32.of_int bi)
  | Block_done (ops, wall) ->
      Buffer.add_int64_be b (Int64.of_int ops);
      add_f64 b wall
  | Pull_map name | Clear_map name -> add_string b name
  | Map_contents g -> add_gmr b g
  | Deliver (name, g) ->
      add_string b name;
      add_gmr b g
  | Ack | Shutdown | Pull_telemetry | Mesh_connect -> ()
  | Start_telemetry (profile, trace) ->
      Buffer.add_uint8 b (Bool.to_int profile);
      Buffer.add_uint8 b (Bool.to_int trace)
  | Telemetry t -> add_telem b t
  | Peers paths ->
      add_count b (Array.length paths);
      Array.iter (add_string b) paths
  | Shuffle idx -> Buffer.add_int32_be b (Int32.of_int idx)
  | Shuffle_done st ->
      (* control-plane reply on the hot per-transfer path: the per-peer
         byte counts are bounded by max_frame, so they ship as i32, not
         i64 — at w workers that is 8w fewer bytes on every transfer *)
      add_i64 b st.ss_ser;
      add_count b (Array.length st.ss_modeled);
      Array.iter (fun v -> Buffer.add_int32_be b (Int32.of_int v)) st.ss_modeled;
      add_count b (Array.length st.ss_sent);
      Array.iter (fun v -> Buffer.add_int32_be b (Int32.of_int v)) st.ss_sent;
      add_f64 b st.ss_wall
  | Mesh_data (src, g) ->
      Buffer.add_int32_be b (Int32.of_int src);
      add_gmr b g);
  Buffer.contents b

(* -------------------------------------------------------------- *)
(* Decoding (strict: every read is bounds-checked)                 *)
(* -------------------------------------------------------------- *)

type reader = { buf : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.buf then
    err "truncated payload: need %d bytes at offset %d of %d" n r.pos
      (String.length r.buf)

let get_u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  need r 2;
  let v = String.get_uint16_be r.buf r.pos in
  r.pos <- r.pos + 2;
  v

let get_i32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_be r.buf r.pos) in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v = String.get_int64_be r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let get_string r =
  let n = get_i32 r in
  if n < 0 || n > max_frame then err "string length %d out of range" n;
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let get_f64 r = Int64.float_of_bits (get_i64 r)

(* List element count: bounded before any allocation. Every element of
   the lists below encodes to >= 8 bytes, so max_frame / 8 is a safe
   upper bound for a payload that can actually exist. *)
let get_count r what =
  let n = get_i32 r in
  if n < 0 || n > max_frame / 8 then err "%s count %d out of range" what n;
  n

let get_bool r what =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> err "%s flag byte %d is not a bool" what v

let get_value r : Value.t =
  match get_u8 r with
  | 0 -> Value.Int (Int64.to_int (get_i64 r))
  | 1 -> Value.Float (Int64.float_of_bits (get_i64 r))
  | 2 -> Value.String (get_string r)
  | 3 -> Value.Date (Int64.to_int (get_i64 r))
  | t -> err "unknown value tag %d" t

let get_tuple r : Vtuple.t =
  let n = get_u16 r in
  Array.init n (fun _ -> get_value r)

(* One [add_col] run of [n] cells. *)
let get_col r n : Colbatch.col =
  match get_u8 r with
  | 0 -> Colbatch.CInt (Array.init n (fun _ -> Int64.to_int (get_i64 r)))
  | 1 -> Colbatch.CFloat (Array.init n (fun _ -> Int64.float_of_bits (get_i64 r)))
  | 2 -> Colbatch.CDate (Array.init n (fun _ -> Int64.to_int (get_i64 r)))
  | 3 -> Colbatch.CBoxed (Array.init n (fun _ -> get_value r))
  | 4 ->
      let dn = get_count r "dictionary entry" in
      let seen = Hashtbl.create (max 16 dn) in
      let vals =
        Array.init dn (fun _ ->
            let s = get_string r in
            if Hashtbl.mem seen s then err "duplicate dictionary entry %S" s;
            Hashtbl.add seen s ();
            s)
      in
      let codes =
        Array.init n (fun _ ->
            let c = get_i32 r in
            if c < 0 || c >= dn then
              err "dictionary code %d out of range [0,%d)" c dn;
            c)
      in
      Colbatch.CDict (Colbatch.dict_of_strings vals, codes)
  | k -> err "unknown column kind %d" k

(* Row counts are bounded before any allocation, so a corrupt count can
   allocate at most a frame's worth of 8-byte multiplicities. *)
let get_rows r what =
  let n = get_i32 r in
  if n < 0 then err "negative %s count %d" what n;
  if n > max_frame / 8 then err "%s count %d exceeds frame capacity" what n;
  n

let get_gmr r =
  let n = get_rows r "entry" in
  match get_u8 r with
  | 0 ->
      let g = Gmr.create ~size:(max 16 n) () in
      for _ = 1 to n do
        let tup = get_tuple r in
        let m = Int64.float_of_bits (get_i64 r) in
        Gmr.add g tup m
      done;
      g
  | 1 ->
      let w = get_u16 r in
      if w = 0 then err "columnar layout with zero width";
      if n = 0 then err "columnar layout with zero entries";
      let cols = Array.init w (fun _ -> get_col r n) in
      let mults =
        Array.init n (fun _ -> Int64.float_of_bits (get_i64 r))
      in
      Colbatch.to_gmr (Colbatch.of_cols cols ~mults)
  | l -> err "unknown gmr layout %d" l

let get_share r =
  let w = get_u16 r in
  let n = get_rows r "row" in
  let k = get_u16 r in
  if k > w then err "%d live columns for stream width %d" k w;
  let seen = Array.make w false in
  let cols =
    Array.init k (fun _ ->
        let c = get_u16 r in
        if c >= w then err "column index %d out of range (stream width %d)" c w;
        if seen.(c) then err "duplicate column index %d" c;
        seen.(c) <- true;
        let len = get_i32 r in
        if len <> n then
          err "column %d carries %d cells for %d rows" c len n;
        (c, get_col r n))
  in
  let mults =
    match get_u8 r with
    | 0 -> Array.init n (fun _ -> get_f64 r)
    | 1 ->
        if n = 0 then err "constant multiplicity for zero rows";
        Array.make n (get_f64 r)
    | l -> err "unknown multiplicity layout %d" l
  in
  Colbatch.of_live_cols ~width:w cols ~mults

let get_snapshot r : Obs.snapshot =
  let n = get_count r "snapshot entry" in
  List.init n (fun _ ->
      let name = get_string r in
      match get_u8 r with
      | 0 -> (name, Obs.VCounter (Int64.to_int (get_i64 r)))
      | 1 -> (name, Obs.VGauge (get_f64 r))
      | 2 ->
          let nb = get_count r "histogram bucket" in
          let buckets = Array.init nb (fun _ -> get_f64 r) in
          let counts =
            Array.init (nb + 1) (fun _ -> Int64.to_int (get_i64 r))
          in
          let sum = get_f64 r in
          let count = Int64.to_int (get_i64 r) in
          (name, Obs.VHistogram { buckets; counts; sum; count })
      | k -> err "unknown snapshot value kind %d" k)

let get_slots r : Prof.row list =
  let n = get_count r "profiler slot" in
  List.init n (fun _ ->
      let r_trigger = get_string r in
      let r_label = get_string r in
      let r_firings = Int64.to_int (get_i64 r) in
      let r_ops = Int64.to_int (get_i64 r) in
      let r_probes = Int64.to_int (get_i64 r) in
      let r_misses = Int64.to_int (get_i64 r) in
      let r_scanned = Int64.to_int (get_i64 r) in
      let r_svscan = Int64.to_int (get_i64 r) in
      let r_svsel = Int64.to_int (get_i64 r) in
      let r_bytes = Int64.to_int (get_i64 r) in
      let r_wall = get_f64 r in
      {
        Prof.r_trigger;
        r_label;
        r_firings;
        r_ops;
        r_probes;
        r_misses;
        r_scanned;
        r_svscan;
        r_svsel;
        r_bytes;
        r_wall;
      })

let get_spans r : Obs.event list =
  let n = get_count r "span" in
  List.init n (fun _ ->
      let ev_name = get_string r in
      let ev_start = get_f64 r in
      let ev_dur = get_f64 r in
      let ev_depth = get_i32 r in
      if ev_depth < 0 then err "negative span depth %d" ev_depth;
      let na = get_count r "span attribute" in
      let ev_attrs =
        List.init na (fun _ ->
            let k = get_string r in
            let v = get_string r in
            (k, v))
      in
      { Obs.ev_name; ev_start; ev_dur; ev_depth; ev_attrs })

let get_telem r =
  let t_now = get_f64 r in
  let t_snap = get_snapshot r in
  let t_slots = get_slots r in
  let t_spans = get_spans r in
  { t_now; t_snap; t_slots; t_spans }

let get_nonneg r what =
  let v = Int64.to_int (get_i64 r) in
  if v < 0 then err "negative %s %d" what v;
  v

let get_nonneg32 r what =
  let v = get_i32 r in
  if v < 0 then err "negative %s %d" what v;
  v

let get_shuffle_stat r =
  let ss_ser = get_nonneg r "serialized byte count" in
  let nm = get_count r "modeled byte entry" in
  let ss_modeled =
    Array.init nm (fun _ -> get_nonneg32 r "modeled byte count")
  in
  let ns = get_count r "sent byte entry" in
  let ss_sent = Array.init ns (fun _ -> get_nonneg32 r "sent byte count") in
  let ss_wall = get_f64 r in
  { ss_ser; ss_modeled; ss_sent; ss_wall }

let decode s =
  let r = { buf = s; pos = 0 } in
  let tag = get_u8 r in
  if tag < 1 || tag > max_tag then err "unknown message tag %d" tag;
  let m =
    (* Re-raise field-level defects with the frame's identity attached:
       which message it claimed to be and how long the payload actually
       was — the context that otherwise takes a socket hexdump. *)
    try
      match tag with
      | 1 -> Hello (get_i32 r)
      | 2 -> Init (get_string r)
      | 3 ->
          let rel = get_string r in
          Load_batch (rel, get_gmr r)
      | 4 ->
          let rel = get_string r in
          Run_block (rel, get_i32 r)
      | 5 ->
          let ops = Int64.to_int (get_i64 r) in
          Block_done (ops, get_f64 r)
      | 6 -> Pull_map (get_string r)
      | 7 -> Map_contents (get_gmr r)
      | 8 ->
          let name = get_string r in
          Deliver (name, get_gmr r)
      | 9 -> Clear_map (get_string r)
      | 10 -> Ack
      | 11 -> Shutdown
      | 12 ->
          let profile = get_bool r "profile" in
          Start_telemetry (profile, get_bool r "trace")
      | 13 -> Pull_telemetry
      | 14 -> Telemetry (get_telem r)
      | 15 ->
          let n = get_count r "peer" in
          Peers (Array.init n (fun _ -> get_string r))
      | 16 -> Mesh_connect
      | 17 ->
          let idx = get_i32 r in
          if idx < 0 then err "negative transfer index %d" idx;
          Shuffle idx
      | 18 -> Shuffle_done (get_shuffle_stat r)
      | 19 ->
          let src = get_i32 r in
          if src < 0 then err "negative mesh source id %d" src;
          Mesh_data (src, get_gmr r)
      | 20 ->
          let rel = get_string r in
          Load_share (rel, get_share r)
      | _ -> assert false
    with Error msg ->
      err "bad %s frame (tag %d, %d-byte payload): %s" (tag_name tag) tag
        (String.length s) msg
  in
  if r.pos <> String.length s then
    err "bad %s frame (tag %d): %d trailing bytes after message"
      (tag_name tag) tag
      (String.length s - r.pos);
  m

(* -------------------------------------------------------------- *)
(* Framing                                                         *)
(* -------------------------------------------------------------- *)

let encode_frame m =
  let payload = encode m in
  let n = String.length payload in
  if n > max_frame then
    err "%s frame (tag %d) of %d bytes exceeds max_frame %d"
      (tag_name (tag_of m)) (tag_of m) n max_frame;
  let b = Buffer.create (n + 4) in
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload;
  Buffer.contents b

(* When enough bytes follow a bad length prefix, cite the would-be tag:
   a frame-cap trip usually means desynced framing, and the byte where
   the tag should be says what the stream thinks it is sending. *)
let describe_tag_byte s pos =
  if String.length s > pos then
    let t = Char.code s.[pos] in
    Printf.sprintf " (first payload byte: tag %d, %s)" t (tag_name t)
  else ""

let frame_len s =
  if String.length s < 4 then err "truncated frame: no length prefix";
  let n = Int32.to_int (String.get_int32_be s 0) in
  if n < 1 then err "declared frame length %d out of range%s" n (describe_tag_byte s 4);
  if n > max_frame then
    err "declared frame length %d exceeds max_frame %d%s" n max_frame
      (describe_tag_byte s 4);
  n

let decode_frame s =
  let n = frame_len s in
  if String.length s < 4 + n then
    err "truncated frame: length prefix says %d, only %d available" n
      (String.length s - 4);
  (decode (String.sub s 4 n), 4 + n)

let write_msg fd m =
  let frame = encode_frame m in
  let n = String.length frame in
  let pos = ref 0 in
  while !pos < n do
    match Unix.write_substring fd frame !pos (n - !pos) with
    | 0 -> err "write returned 0"
    | k -> pos := !pos + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  n

(* Read exactly [n] bytes. [at_boundary] distinguishes an orderly peer
   close (End_of_file) from a connection dying mid-frame (Error). *)
let really_read fd n ~at_boundary =
  let buf = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    match Unix.read fd buf !pos (n - !pos) with
    | 0 ->
        if at_boundary && !pos = 0 then raise End_of_file
        else err "connection closed mid-frame (%d of %d bytes)" !pos n
    | k -> pos := !pos + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Bytes.unsafe_to_string buf

let read_msg fd =
  let header = really_read fd 4 ~at_boundary:true in
  let n = Int32.to_int (String.get_int32_be header 0) in
  if n < 1 || n > max_frame then begin
    (* The stream is already lost; peek the would-be tag byte so the
       error names the frame the peer thought it was sending. *)
    let tag_info =
      match really_read fd 1 ~at_boundary:false with
      | s -> Printf.sprintf " (next byte: tag %d, %s)" (Char.code s.[0]) (tag_name (Char.code s.[0]))
      | exception _ -> ""
    in
    err "declared frame length %d out of range (max_frame %d)%s" n max_frame
      tag_info
  end;
  let payload = really_read fd n ~at_boundary:false in
  (decode payload, 4 + n)
