open Divm_ring
open Divm_storage
open Divm_obs
module Cluster = Divm_cluster.Cluster

type telem = {
  t_now : float;
  t_snap : Obs.snapshot;
  t_slots : Prof.row list;
  t_spans : Obs.event list;
}

type msg =
  | Hello of int
  | Init of string
  | Load_batch of string * Gmr.t
  | Request of Cluster.request
  | Reply of Cluster.reply
  | Shutdown
  | Start_telemetry of bool * bool
  | Pull_telemetry
  | Telemetry of telem
  | Peers of string array
  | Mesh_connect
  | Mesh_data of int * Colbatch.t array

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt
let max_frame = 64 * 1024 * 1024

(* -------------------------------------------------------------- *)
(* Encoding                                                        *)
(* -------------------------------------------------------------- *)

(* A frame under construction: one buffer, length prefix included,
   filled front to back. The bulk payload of a data frame (a share, or
   every map a frame carries) is its last field; [fit] sizes the buffer
   once to end exactly after it, so the finished frame is the buffer
   itself. *)
type writer = { mutable buf : Bytes.t; mutable len : int }

(* Offset of [n] freshly reserved bytes. *)
let reserve w n =
  let pos = w.len in
  if n > Bytes.length w.buf - pos then begin
    let b = Bytes.create (max (pos + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 b 0 pos;
    w.buf <- b
  end;
  w.len <- pos + n;
  pos

(* Make the buffer end exactly [n] bytes past what is written so far. *)
let fit w n =
  if Bytes.length w.buf <> w.len + n then begin
    let b = Bytes.create (w.len + n) in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b
  end

let put_u8 w v =
  let p = reserve w 1 in
  Bytes.set_uint8 w.buf p v

let put_u16 w v =
  let p = reserve w 2 in
  Bytes.set_uint16_be w.buf p v

let put_i32 w v =
  let p = reserve w 4 in
  Bytes.set_int32_be w.buf p (Int32.of_int v)

let put_i64 w v =
  let p = reserve w 8 in
  Bytes.set_int64_be w.buf p (Int64.of_int v)

let put_f64 w f =
  let p = reserve w 8 in
  Bytes.set_int64_be w.buf p (Int64.bits_of_float f)

let put_string w s =
  let n = String.length s in
  if n > max_frame then err "string field of %d bytes exceeds max_frame" n;
  put_i32 w n;
  let p = reserve w n in
  Bytes.blit_string s 0 w.buf p n

(* Element count of a list field. Every element encodes to >= 1 byte, so
   the frame cap bounds any legitimate count; the decoder enforces the
   same bound before allocating. *)
let put_count w n =
  if n > max_frame then err "list of %d elements exceeds max_frame" n;
  put_i32 w n

(* A counted array field; a loop, so an empty one allocates nothing. *)
let put_array w put a =
  put_count w (Array.length a);
  for i = 0 to Array.length a - 1 do
    put w a.(i)
  done

(* Typed runs: all [n] cells are reserved at once, then filled in a
   loop. *)
let put_ints w n (a : int array) =
  let p = reserve w (8 * n) in
  let b = w.buf in
  for i = 0 to n - 1 do
    Bytes.set_int64_be b (p + (8 * i)) (Int64.of_int a.(i))
  done

let put_floats w n (a : float array) =
  let p = reserve w (8 * n) in
  let b = w.buf in
  for i = 0 to n - 1 do
    Bytes.set_int64_be b (p + (8 * i)) (Int64.bits_of_float a.(i))
  done

let put_codes w n (a : int array) =
  let p = reserve w (4 * n) in
  let b = w.buf in
  for i = 0 to n - 1 do
    Bytes.set_int32_be b (p + (4 * i)) (Int32.of_int a.(i))
  done

(* Telemetry payload: registry snapshot entries (name + kind byte:
   0 = counter, 1 = gauge, 2 = histogram with its bucket layout),
   profiler slot rows, completed spans. Floats travel as IEEE-754 bits,
   like the data plane, so merged-vs-local reconciliation is exact. *)
let put_snapshot w (snap : Obs.snapshot) =
  put_count w (List.length snap);
  List.iter
    (fun (name, v) ->
      put_string w name;
      match (v : Obs.value) with
      | Obs.VCounter c ->
          put_u8 w 0;
          put_i64 w c
      | Obs.VGauge g ->
          put_u8 w 1;
          put_f64 w g
      | Obs.VHistogram { buckets; counts; sum; count } ->
          put_u8 w 2;
          put_count w (Array.length buckets);
          if Array.length counts <> Array.length buckets + 1 then
            err "histogram %s: %d counts for %d buckets" name
              (Array.length counts) (Array.length buckets);
          Array.iter (put_f64 w) buckets;
          Array.iter (put_i64 w) counts;
          put_f64 w sum;
          put_i64 w count)
    snap

let put_slots w (rows : Prof.row list) =
  put_count w (List.length rows);
  List.iter
    (fun (r : Prof.row) ->
      put_string w r.r_trigger;
      put_string w r.r_label;
      put_i64 w r.r_firings;
      put_i64 w r.r_ops;
      put_i64 w r.r_probes;
      put_i64 w r.r_misses;
      put_i64 w r.r_scanned;
      put_i64 w r.r_svscan;
      put_i64 w r.r_svsel;
      put_i64 w r.r_bytes;
      put_i64 w r.r_words;
      put_f64 w r.r_wall)
    rows

let put_spans w (evs : Obs.event list) =
  put_count w (List.length evs);
  List.iter
    (fun (e : Obs.event) ->
      put_string w e.ev_name;
      put_f64 w e.ev_start;
      put_f64 w e.ev_dur;
      put_i32 w e.ev_depth;
      put_count w (List.length e.ev_attrs);
      List.iter
        (fun (k, v) ->
          put_string w k;
          put_string w v)
        e.ev_attrs)
    evs

let put_telem w t =
  put_f64 w t.t_now;
  put_snapshot w t.t_snap;
  put_slots w t.t_slots;
  put_spans w t.t_spans

let put_value w (v : Value.t) =
  match v with
  | Value.Int i ->
      put_u8 w 0;
      put_i64 w i
  | Value.Float f ->
      put_u8 w 1;
      put_f64 w f
  | Value.String s ->
      put_u8 w 2;
      put_string w s
  | Value.Date d ->
      put_u8 w 3;
      put_i64 w d

let value_size : Value.t -> int = function
  | Value.Int _ | Value.Float _ | Value.Date _ -> 9
  | Value.String s -> 5 + String.length s

(* One typed column of [n] cells: a u8 kind tag, then an unboxed
   payload — one contiguous run per attribute instead of a tag per
   cell. *)
let put_col w n (c : Colbatch.col) =
  match c with
  | Colbatch.CInt a ->
      put_u8 w 0;
      put_ints w n a
  | Colbatch.CFloat a ->
      put_u8 w 1;
      put_floats w n a
  | Colbatch.CDate a ->
      put_u8 w 2;
      put_ints w n a
  | Colbatch.CBoxed a ->
      put_u8 w 3;
      for i = 0 to n - 1 do
        put_value w a.(i)
      done
  | Colbatch.CDict (d, codes) ->
      (* dictionary once, then one i32 code per row — repeated strings
         never travel twice *)
      put_u8 w 4;
      let dn = Colbatch.dict_size d in
      put_count w dn;
      for e = 0 to dn - 1 do
        put_string w (Colbatch.dict_entry d e)
      done;
      put_codes w n codes

(* Encoded size of a [put_col] run. *)
let col_size n (c : Colbatch.col) =
  match c with
  | Colbatch.CInt _ | Colbatch.CFloat _ | Colbatch.CDate _ -> 1 + (8 * n)
  | Colbatch.CBoxed a ->
      let s = ref 1 in
      for i = 0 to n - 1 do
        s := !s + value_size a.(i)
      done;
      !s
  | Colbatch.CDict (d, _) ->
      let s = ref (5 + (4 * n)) in
      for e = 0 to Colbatch.dict_size d - 1 do
        s := !s + 4 + String.length (Colbatch.dict_entry d e)
      done;
      !s

(* Relation payload, always a frame's last field: width (u16), row count
   (i32), live column count (u16); per live column its position (u16,
   ascending), its cell count (i32, always the row count) and a [put_col]
   run; then the multiplicities — u8 1 and one f64 when every row carries
   the same bit pattern (the common all-inserts or all-deletes batch),
   else u8 0 and one f64 per row. A batch share carries the columns its
   worker's blocks read, and absent columns cost nothing; a map carries
   every column. A payload is sized ([sized]) before it is written
   ([put_share]), so a frame carrying several maps is sized once before
   any is written. *)
type share = {
  cb : Colbatch.t;
  live : int array;
  constant : bool;
  size : int;
}

let rec same_bits (ms : float array) b i =
  i >= Array.length ms
  || (Int64.equal (Int64.bits_of_float ms.(i)) b && same_bits ms b (i + 1))

let sized cb live =
  let wd = Colbatch.width cb and n = Colbatch.length cb in
  if wd > 0xffff then err "share width %d exceeds encoding limit" wd;
  let ms = Colbatch.mults cb in
  let constant = n > 0 && same_bits ms (Int64.bits_of_float ms.(0)) 1 in
  let size =
    Array.fold_left
      (fun s c -> s + 6 + col_size n (Colbatch.col cb c))
      (9 + if constant then 8 else 8 * n)
      live
  in
  { cb; live; constant; size }

let put_share w { cb; live; constant; _ } =
  let n = Colbatch.length cb in
  put_u16 w (Colbatch.width cb);
  put_i32 w n;
  put_u16 w (Array.length live);
  Array.iter
    (fun c ->
      put_u16 w c;
      put_i32 w n;
      put_col w n (Colbatch.col cb c))
    live;
  if constant then begin
    put_u8 w 1;
    put_f64 w (Colbatch.mults cb).(0)
  end
  else begin
    put_u8 w 0;
    put_floats w n (Colbatch.mults cb)
  end

(* A payload that is the frame's only one: size the frame, then write. *)
let put_last w sh =
  fit w sh.size;
  put_share w sh

(* A map travels as the share of every column, its rows in slot order,
   so merging the decoded rows in order rebuilds a bit-identical store:
   it is already a column batch, the one a pool's partition walk cut. An
   empty map is the empty share: width 0, no rows, 9 bytes. *)
let empty_share = sized Colbatch.empty [||]

let batch_share cb =
  if Colbatch.length cb = 0 then empty_share
  else sized cb (Colbatch.live_cols cb)

(* [Load_batch] alone still carries a GMR, as the same bytes: the width
   is the arity of its first row, and every row must have it. *)
exception Arity of int

let map_share g =
  match Gmr.iter (fun tup _ -> raise_notrace (Arity (Array.length tup))) g with
  | () -> empty_share
  | exception Arity wd ->
      let live = Array.init wd Fun.id in
      let rows emit =
        Gmr.iter
          (fun tup m ->
            if Array.length tup <> wd then
              err "map mixes rows of arity %d and %d" wd (Array.length tup);
            emit tup m)
          g
      in
      sized
        (Colbatch.of_iter ~cols:live ~width:wd ~count:(Gmr.cardinal g) rows)
        live

(* Every map of a frame, always its last field: a count, then each
   share, all sized before any is written. *)
let put_shares w shares =
  put_count w (Array.length shares);
  fit w (Array.fold_left (fun s sh -> s + sh.size) 0 shares);
  Array.iter (put_share w) shares

let put_maps w cbs = put_shares w (Array.map batch_share cbs)

let tag_of = function
  | Hello _ -> 1
  | Init _ -> 2
  | Load_batch _ -> 3
  | Request (Cluster.Run_block _) -> 4
  | Reply (Cluster.Block_done _) -> 5
  | Request (Cluster.Pull_map _) -> 6
  | Reply (Cluster.Map_contents _) -> 7
  | Request (Cluster.Deliver _) -> 8
  | Reply Cluster.Ack -> 10
  | Shutdown -> 11
  | Start_telemetry _ -> 12
  | Pull_telemetry -> 13
  | Telemetry _ -> 14
  | Peers _ -> 15
  | Mesh_connect -> 16
  | Request (Cluster.Shuffle _) -> 17
  | Reply (Cluster.Shuffle_done _) -> 18
  | Mesh_data _ -> 19

(* Tag 9 is retired ([Deliver] clears the destination itself), and so is
   tag 20 (the batch share rides [Run_block]): both decode as unknown, so
   a frame from a mismatched peer fails loudly. *)
let max_tag = 19
let known_tag tag = tag >= 1 && tag <= max_tag && tag <> 9

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
  | _ -> "unknown"

let put_msg w m =
  put_u8 w (tag_of m);
  match m with
  | Hello wid -> put_i32 w wid
  | Init s -> put_string w s
  | Load_batch (rel, g) ->
      put_string w rel;
      put_last w (map_share g)
  | Request (Cluster.Run_block (rel, bi, share, names)) -> (
      put_string w rel;
      put_i32 w bi;
      put_array w put_string names;
      match share with
      | None -> put_u8 w 0
      | Some cb ->
          put_u8 w 1;
          put_last w (sized cb (Colbatch.live_cols cb)))
  | Reply (Cluster.Block_done (ops, wall, cbs)) ->
      put_i64 w ops;
      put_f64 w wall;
      put_maps w cbs
  | Request (Cluster.Pull_map names) -> put_array w put_string names
  | Reply (Cluster.Map_contents cbs) -> put_maps w cbs
  | Request (Cluster.Deliver (name, cb)) ->
      put_string w name;
      put_last w (batch_share cb)
  | Reply Cluster.Ack | Shutdown | Pull_telemetry | Mesh_connect -> ()
  | Start_telemetry (profile, trace) ->
      put_u8 w (Bool.to_int profile);
      put_u8 w (Bool.to_int trace)
  | Telemetry t -> put_telem w t
  | Peers paths -> put_array w put_string paths
  | Request (Cluster.Shuffle idxs) -> put_array w put_i32 idxs
  | Reply (Cluster.Shuffle_done sts) ->
      (* control-plane reply on the hot per-transfer path: the per-peer
         byte counts are bounded by max_frame, so they ship as i32, not
         i64 — at w workers that is 8w fewer bytes on every transfer *)
      put_array w
        (fun w (st : Cluster.shuffle_stat) ->
          put_i64 w st.ss_ser;
          put_array w put_i32 st.ss_modeled;
          put_array w put_i32 st.ss_sent;
          put_f64 w st.ss_wall)
        sts
  | Mesh_data (src, cbs) ->
      put_i32 w src;
      put_maps w cbs

(* The frame is built once: the length prefix is reserved up front and
   patched in place. Frames whose last field is a share or maps come out
   exactly sized ([fit]) and are returned without a copy; the small rest
   is trimmed. *)
let finish_frame w ~tag =
  let n = w.len - 4 in
  if n > max_frame then
    err "%s frame (tag %d) of %d bytes exceeds max_frame %d" (tag_name tag)
      tag n max_frame;
  Bytes.set_int32_be w.buf 0 (Int32.of_int n);
  if w.len = Bytes.length w.buf then Bytes.unsafe_to_string w.buf
  else Bytes.sub_string w.buf 0 w.len

let new_writer () = { buf = Bytes.create 64; len = 4 }

let encode_frame m =
  let w = new_writer () in
  put_msg w m;
  finish_frame w ~tag:(tag_of m)

let mesh_frame ~src bufs =
  let w = new_writer () and tag = tag_of (Mesh_data (src, bufs)) in
  put_u8 w tag;
  put_i32 w src;
  let shares = Array.map batch_share bufs in
  put_shares w shares;
  let sizes = Array.map (fun sh -> sh.size) shares in
  let frame = finish_frame w ~tag in
  if Array.length sizes > 0 then
    sizes.(0) <-
      sizes.(0) + String.length frame - Array.fold_left ( + ) 0 sizes;
  (frame, sizes)

let encode m =
  let f = encode_frame m in
  String.sub f 4 (String.length f - 4)

(* -------------------------------------------------------------- *)
(* Decoding (strict: every read is bounds-checked)                 *)
(* -------------------------------------------------------------- *)

(* The payload is [buf]'s bytes [base, stop): a frame decodes in place,
   behind its length prefix. *)
type reader = { buf : string; mutable pos : int; base : int; stop : int }

let need r n =
  if n > r.stop - r.pos then
    err "truncated payload: need %d bytes at offset %d of %d" n
      (r.pos - r.base) (r.stop - r.base)

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

(* List element count: bounded before any allocation. It is capped at
   max_frame / 8, and the [elt] bytes each element takes at least must
   still be in the payload. *)
let get_count r what ~elt =
  let n = get_i32 r in
  if n < 0 || n > max_frame / 8 then err "%s count %d out of range" what n;
  need r (elt * n);
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

(* Start of a typed run of [n] cells of [size] bytes: the run's whole
   length is checked once, before its array is allocated, so a truncated
   run cannot allocate what it declares. *)
let run r size n =
  need r (size * n);
  let p = r.pos in
  r.pos <- p + (size * n);
  p

let get_ints r n =
  let p = run r 8 n in
  let s = r.buf and a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Int64.to_int (String.get_int64_be s (p + (8 * i)))
  done;
  a

let get_floats r n =
  let p = run r 8 n in
  let s = r.buf and a = Array.create_float n in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (String.get_int64_be s (p + (8 * i)))
  done;
  a

let get_codes r n ~dn =
  let p = run r 4 n in
  let s = r.buf and a = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = Int32.to_int (String.get_int32_be s (p + (4 * i))) in
    if c < 0 || c >= dn then err "dictionary code %d out of range [0,%d)" c dn;
    a.(i) <- c
  done;
  a

(* One [put_col] run of [n] cells. *)
let get_col r n : Colbatch.col =
  match get_u8 r with
  | 0 -> Colbatch.CInt (get_ints r n)
  | 1 -> Colbatch.CFloat (get_floats r n)
  | 2 -> Colbatch.CDate (get_ints r n)
  | 3 ->
      (* a boxed cell takes at least 5 bytes (tag + empty string) *)
      need r (5 * n);
      let a = Array.make n (Value.Int 0) in
      for i = 0 to n - 1 do
        a.(i) <- get_value r
      done;
      Colbatch.CBoxed a
  | 4 ->
      let dn = get_count r "dictionary entry" ~elt:4 in
      let seen = Hashtbl.create (max 16 dn) in
      let vals = Array.make dn "" in
      for e = 0 to dn - 1 do
        let s = get_string r in
        if Hashtbl.mem seen s then err "duplicate dictionary entry %S" s;
        Hashtbl.add seen s ();
        vals.(e) <- s
      done;
      Colbatch.CDict (Colbatch.dict_of_strings vals, get_codes r n ~dn)
  | k -> err "unknown column kind %d" k

(* Row counts are range-checked here; the runs that carry the rows are
   length-checked before they are allocated. *)
let get_rows r what =
  let n = get_i32 r in
  if n < 0 then err "negative %s count %d" what n;
  if n > max_frame / 8 then err "%s count %d exceeds frame capacity" what n;
  n

(* A counted array field whose elements take at least [elt] bytes each:
   the count is bounded by the payload before the array is allocated. *)
let get_array r what ~elt get =
  match get_count r what ~elt with
  | 0 -> [||]
  | n -> Array.init n (fun _ -> get r)

(* The one reader of relation payloads ([put_share]'s format). Positions
   must ascend, the writer's order, which rules out repeats. A map payload
   ([~map:true]) must carry every column, so its columns come in position
   order and are placed as read; its rows are rebuilt in order. *)
let get_share r ~map =
  let w = get_u16 r in
  let n = get_rows r "row" in
  let k = get_u16 r in
  if k > w then err "%d live columns for stream width %d" k w;
  if map && k < w then err "map payload carries %d of its %d columns" k w;
  let live = Array.make k 0 and cols = Array.make k (Colbatch.CInt [||]) in
  for i = 0 to k - 1 do
    let c = get_u16 r in
    if c >= w then err "column index %d out of range (stream width %d)" c w;
    if i > 0 && c <= live.(i - 1) then
      err "column index %d after %d: positions must ascend" c live.(i - 1);
    live.(i) <- c;
    let len = get_i32 r in
    if len <> n then err "column %d carries %d cells for %d rows" c len n;
    cols.(i) <- get_col r n
  done;
  let mults =
    match get_u8 r with
    | 0 -> get_floats r n
    | 1 ->
        if n = 0 then err "constant multiplicity for zero rows";
        Array.make n (get_f64 r)
    | l -> err "unknown multiplicity layout %d" l
  in
  if map then Colbatch.of_cols cols ~mults
  else
    Colbatch.of_live_cols ~width:w
      (Array.map2 (fun c col -> (c, col)) live cols)
      ~mults

(* a map takes at least 9 bytes: the empty share *)
let get_maps r = get_array r "map" ~elt:9 (get_share ~map:true)

let get_snapshot r : Obs.snapshot =
  let n = get_count r "snapshot entry" ~elt:13 in
  List.init n (fun _ ->
      let name = get_string r in
      match get_u8 r with
      | 0 -> (name, Obs.VCounter (Int64.to_int (get_i64 r)))
      | 1 -> (name, Obs.VGauge (get_f64 r))
      | 2 ->
          let nb = get_count r "histogram bucket" ~elt:16 in
          let buckets = Array.init nb (fun _ -> get_f64 r) in
          let counts =
            Array.init (nb + 1) (fun _ -> Int64.to_int (get_i64 r))
          in
          let sum = get_f64 r in
          let count = Int64.to_int (get_i64 r) in
          (name, Obs.VHistogram { buckets; counts; sum; count })
      | k -> err "unknown snapshot value kind %d" k)

let get_slots r : Prof.row list =
  let n = get_count r "profiler slot" ~elt:88 in
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
      let r_words = Int64.to_int (get_i64 r) in
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
        r_words;
        r_wall;
      })

let get_spans r : Obs.event list =
  let n = get_count r "span" ~elt:28 in
  List.init n (fun _ ->
      let ev_name = get_string r in
      let ev_start = get_f64 r in
      let ev_dur = get_f64 r in
      let ev_depth = get_i32 r in
      if ev_depth < 0 then err "negative span depth %d" ev_depth;
      let na = get_count r "span attribute" ~elt:8 in
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
  let ss_modeled =
    get_array r "modeled byte entry" ~elt:4 (fun r ->
        get_nonneg32 r "modeled byte count")
  in
  let ss_sent =
    get_array r "sent byte entry" ~elt:4 (fun r ->
        get_nonneg32 r "sent byte count")
  in
  let ss_wall = get_f64 r in
  { Cluster.ss_ser; ss_modeled; ss_sent; ss_wall }

(* Decode the payload at [s]'s bytes [base, base + len). *)
let decode_at s ~base ~len =
  let r = { buf = s; pos = base; base; stop = base + len } in
  let tag = get_u8 r in
  if not (known_tag tag) then err "unknown message tag %d" tag;
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
          Load_batch (rel, Colbatch.to_gmr (get_share r ~map:true))
      | 4 ->
          let rel = get_string r in
          let bi = get_i32 r in
          let names = get_array r "pulled map" ~elt:4 get_string in
          let share =
            if get_bool r "share" then Some (get_share r ~map:false) else None
          in
          Request (Cluster.Run_block (rel, bi, share, names))
      | 5 ->
          let ops = Int64.to_int (get_i64 r) in
          let wall = get_f64 r in
          Reply (Cluster.Block_done (ops, wall, get_maps r))
      | 6 ->
          Request (Cluster.Pull_map (get_array r "pulled map" ~elt:4 get_string))
      | 7 -> Reply (Cluster.Map_contents (get_maps r))
      | 8 ->
          let name = get_string r in
          Request (Cluster.Deliver (name, get_share r ~map:true))
      | 10 -> Reply Cluster.Ack
      | 11 -> Shutdown
      | 12 ->
          let profile = get_bool r "profile" in
          Start_telemetry (profile, get_bool r "trace")
      | 13 -> Pull_telemetry
      | 14 -> Telemetry (get_telem r)
      | 15 -> Peers (get_array r "peer" ~elt:4 get_string)
      | 16 -> Mesh_connect
      | 17 ->
          Request
            (Cluster.Shuffle
               (get_array r "transfer index" ~elt:4 (fun r ->
                    let idx = get_i32 r in
                    if idx < 0 then err "negative transfer index %d" idx;
                    idx)))
      (* a stat takes at least 24 bytes: ser, two counts, wall *)
      | 18 ->
          Reply
            (Cluster.Shuffle_done
               (get_array r "shuffle stat" ~elt:24 get_shuffle_stat))
      | 19 ->
          let src = get_i32 r in
          if src < 0 then err "negative mesh source id %d" src;
          Mesh_data (src, get_maps r)
      | _ -> assert false
    with Error msg ->
      err "bad %s frame (tag %d, %d-byte payload): %s" (tag_name tag) tag len
        msg
  in
  if r.pos <> r.stop then
    err "bad %s frame (tag %d): %d trailing bytes after message"
      (tag_name tag) tag (r.stop - r.pos);
  m

let decode s = decode_at s ~base:0 ~len:(String.length s)

(* -------------------------------------------------------------- *)
(* Framing                                                         *)
(* -------------------------------------------------------------- *)

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
  (decode_at s ~base:4 ~len:n, 4 + n)

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
