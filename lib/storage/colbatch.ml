open Divm_ring
module Obs = Divm_obs.Obs

(* Dictionary interning outcomes while building [CDict] columns: a hit
   reuses an existing code, a miss appends a new dictionary entry. *)
let m_dict_hits = Obs.Counter.make "divm_dict_intern_hits_total"
let m_dict_misses = Obs.Counter.make "divm_dict_intern_misses_total"

(* Per-batch string dictionary backing a [CDict] column. [dvhash] caches
   [Value.hash] per entry (so row hashing over codes stays
   [Vtuple.hash]-compatible) and [dboxed] caches one shared
   [Value.String] box per entry (so [get] never allocates). *)
type dict = {
  mutable dn : int;
  mutable dvals : string array;
  mutable dvhash : int array;
  mutable dboxed : Value.t array;
  dtbl : (string, int) Hashtbl.t;
}

type col =
  | CInt of int array
  | CDate of int array
  | CFloat of float array
  | CDict of dict * int array
  | CBoxed of Value.t array

let dict_create ?(cap = 8) () =
  {
    dn = 0;
    dvals = Array.make (max cap 1) "";
    dvhash = Array.make (max cap 1) 0;
    dboxed = Array.make (max cap 1) (Value.Int 0);
    dtbl = Hashtbl.create 16;
  }

let dict_grow d =
  let cap = 2 * Array.length d.dvals in
  let vals = Array.make cap "" in
  let vh = Array.make cap 0 in
  let bx = Array.make cap (Value.Int 0) in
  Array.blit d.dvals 0 vals 0 d.dn;
  Array.blit d.dvhash 0 vh 0 d.dn;
  Array.blit d.dboxed 0 bx 0 d.dn;
  d.dvals <- vals;
  d.dvhash <- vh;
  d.dboxed <- bx

let dict_append d s =
  let c = d.dn in
  if c = Array.length d.dvals then dict_grow d;
  let v = Value.String s in
  d.dvals.(c) <- s;
  d.dvhash.(c) <- Value.hash v;
  d.dboxed.(c) <- v;
  Hashtbl.add d.dtbl s c;
  d.dn <- c + 1;
  c

let rec phys_scan (vals : string array) s lim i =
  if i >= lim then -1
  else if Array.unsafe_get vals i == s then i
  else phys_scan vals s lim (i + 1)

(* Physical-equality fast path first: low-cardinality categorical
   columns (flags, segments, ship modes) almost always reuse the same
   string blocks, so a pointer scan over the first entries resolves the
   common case without hashing the string. High-cardinality columns fall
   through to the hash table after a bounded scan. Neither path
   allocates on a hit: interning runs once per string cell. *)
let dict_intern d s =
  let phys = phys_scan d.dvals s (if d.dn < 16 then d.dn else 16) 0 in
  if phys >= 0 then begin
    Obs.Counter.incr m_dict_hits;
    phys
  end
  else
    match Hashtbl.find d.dtbl s with
    | c ->
        Obs.Counter.incr m_dict_hits;
        c
    | exception Not_found ->
        Obs.Counter.incr m_dict_misses;
        dict_append d s

let dict_size d = d.dn
let dict_entry d c = d.dvals.(c)

(* Cardinality cutoff for dictionary encoding. Past this many distinct
   entries a per-batch dictionary is paying a hash and an append per
   cell while compressing nothing (think generated names, one fresh
   string per row) — the column is better off boxed. Categorical
   columns (flags, segments, ship modes, brands) stay far below it. *)
let dict_demote = 64

let dict_of_strings vals =
  let d = dict_create ~cap:(max 1 (Array.length vals)) () in
  Array.iter (fun s -> ignore (dict_append d s)) vals;
  d

type t = {
  cols : col array;
  mults : float array;
  n : int;
  tbase : int; (* cachesim arena base; 0 = untraced batch *)
  tstride : int; (* rows per column in the arena layout *)
  live : int array option;
      (* ascending positions of the columns carrying data; [None] = all.
         Absent columns alias one shared all-zero [CInt] array. *)
}

let width t = Array.length t.cols
let length t = t.n
let col t c = t.cols.(c)
let mults t = t.mults

let live_cols t =
  match t.live with Some l -> l | None -> Array.init (width t) Fun.id

(* Fill every position [live] does not name with one shared zero column
   of [n] rows: reads of an absent column stay in bounds. *)
let fill_absent cols n live =
  if Array.length live < Array.length cols then begin
    let present = Array.make (Array.length cols) false in
    Array.iter (fun c -> present.(c) <- true) live;
    let z = CInt (Array.make n 0) in
    Array.iteri (fun c p -> if not p then cols.(c) <- z) present
  end

let get c i =
  match c with
  | CInt a -> Value.Int (Array.unsafe_get a i)
  | CDate a -> Value.Date (Array.unsafe_get a i)
  | CFloat a -> Value.Float (Array.unsafe_get a i)
  | CDict (d, c) -> Array.unsafe_get d.dboxed (Array.unsafe_get c i)
  | CBoxed a -> Array.unsafe_get a i

let float_get c i =
  match c with
  | CFloat a -> Array.unsafe_get a i
  | CInt a | CDate a -> float_of_int (Array.unsafe_get a i)
  | CDict (d, c) -> Value.to_float (Array.unsafe_get d.dboxed (Array.unsafe_get c i))
  | CBoxed a -> Value.to_float (Array.unsafe_get a i)

(* Trace arena for a batch: one region holding [w] columns of [stride]
   rows column-major, multiplicities after the columns. *)
let alloc_arena w stride =
  if Trace.enabled () && stride > 0 then
    Trace.alloc_region (((w + 1) * stride * 8) + 64)
  else 0

let cell_addr t c i = t.tbase + (((c * t.tstride) + i) * 8)

let col_length = function
  | CInt a | CDate a -> Array.length a
  | CFloat a -> Array.length a
  | CDict (_, a) -> Array.length a
  | CBoxed a -> Array.length a

let of_cols cols ~mults =
  let n = Array.length mults in
  Array.iter
    (fun c ->
      if col_length c <> n then
        invalid_arg "Colbatch.of_cols: column length mismatch")
    cols;
  { cols; mults; n; tbase = 0; tstride = 0; live = None }

let of_live_cols ~width (pairs : (int * col) array) ~mults =
  let n = Array.length mults in
  let pairs = Array.copy pairs in
  Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
  Array.iteri
    (fun k (c, col) ->
      if c < 0 || c >= width then
        invalid_arg "Colbatch.of_live_cols: column position out of range";
      if k > 0 && fst pairs.(k - 1) = c then
        invalid_arg "Colbatch.of_live_cols: duplicate column position";
      if col_length col <> n then
        invalid_arg "Colbatch.of_live_cols: column length mismatch")
    pairs;
  let live = Array.map fst pairs in
  let cols = Array.make width (CInt [||]) in
  Array.iter (fun (c, col) -> cols.(c) <- col) pairs;
  fill_absent cols n live;
  {
    cols;
    mults;
    n;
    tbase = 0;
    tstride = 0;
    live = (if Array.length live = width then None else Some live);
  }

let to_gmr t =
  let g = Gmr.create ~size:t.n () in
  let w = width t in
  for i = 0 to t.n - 1 do
    let tup = Array.make w (Value.Int 0) in
    for c = 0 to w - 1 do
      tup.(c) <- get t.cols.(c) i
    done;
    (if t.tbase <> 0 then
       for c = 0 to w - 1 do
         Trace.emit (cell_addr t c i) Trace.Read
       done);
    Gmr.add g tup t.mults.(i)
  done;
  g

let iter_rows t f =
  let w = width t in
  let row = Array.make w (Value.Int 0) in
  for i = 0 to t.n - 1 do
    for c = 0 to w - 1 do
      row.(c) <- get (Array.unsafe_get t.cols c) i;
      if t.tbase <> 0 then Trace.emit (cell_addr t c i) Trace.Read
    done;
    f row t.mults.(i)
  done

let gather_col (keep : int array) c =
  let m = Array.length keep in
  match c with
  | CInt a -> CInt (Array.init m (fun j -> Array.unsafe_get a keep.(j)))
  | CDate a -> CDate (Array.init m (fun j -> Array.unsafe_get a keep.(j)))
  | CFloat a -> CFloat (Array.init m (fun j -> Array.unsafe_get a keep.(j)))
  | CDict (d, a) ->
      CDict (d, Array.init m (fun j -> Array.unsafe_get a keep.(j)))
  | CBoxed a -> CBoxed (Array.init m (fun j -> Array.unsafe_get a keep.(j)))

(* ------------------------------------------------------------------ *)
(* Building a batch: one dealing pass                                  *)
(* ------------------------------------------------------------------ *)

(* Row 0 commits a column for the whole batch, one array per share:
   numbers to their unboxed kind, a string to one dictionary whose codes
   every share stores. *)
let new_cols caps (v : Value.t) =
  match v with
  | Value.Int _ -> Array.map (fun cap -> CInt (Array.make cap 0)) caps
  | Value.Date _ -> Array.map (fun cap -> CDate (Array.make cap 0)) caps
  | Value.Float _ -> Array.map (fun cap -> CFloat (Array.make cap 0.)) caps
  | Value.String _ ->
      let d = dict_create () in
      Array.map (fun cap -> CDict (d, Array.make cap 0)) caps

let box_upto c i cap =
  let out = Array.make cap (Value.Int 0) in
  for j = 0 to i - 1 do
    out.(j) <- get c j
  done;
  out

(* One column of the dealing pass holds one typed array per share; batch
   row [i] is share [i mod parts], position [i / parts]. A cell that does
   not fit the committed representation — a second value kind, or a
   string past [dict_demote] distinct entries — turns the column boxed in
   every share: [box_shares] boxes every share's cells written so far —
   rows [0, r) of each share, plus row [r] of the shares before [q] — and
   puts [v] at share [q], position [r]. *)
let box_shares (sh : col array) q r v =
  for q' = 0 to Array.length sh - 1 do
    let c = sh.(q') in
    let a = box_upto c (if q' < q then r + 1 else r) (col_length c) in
    if q' = q then a.(r) <- v;
    sh.(q') <- CBoxed a
  done

let deal_cell (sh : col array) q r (v : Value.t) =
  match (Array.unsafe_get sh q, v) with
  | CInt a, Value.Int x -> Array.unsafe_set a r x
  | CDate a, Value.Date x -> Array.unsafe_set a r x
  | CFloat a, Value.Float x -> Array.unsafe_set a r x
  | CDict (d, c), Value.String s ->
      Array.unsafe_set c r (dict_intern d s);
      if d.dn > dict_demote then box_shares sh q r v
  | CBoxed a, v -> Array.unsafe_set a r v
  | _, v -> box_shares sh q r v

(* The one writer of built batches: deals the [count] rows [iter] emits
   into [parts] shares, writing the columns at [live]. Arrays are sized
   from [count] and written unchecked, so the row count is checked before
   a row past it is written, and again at the end. *)
let build ~cols:live ~width ~parts ~count:n iter =
  if parts < 1 then invalid_arg "Colbatch: parts < 1";
  (* share [q] holds [caps.(q)] rows; under a cachesim sink it gets an
     arena, where a live cell and a multiplicity are written per row *)
  let caps = Array.make parts 0 and tbases = Array.make parts 0 in
  for q = 0 to parts - 1 do
    let cap = if n > q then ((n - q - 1) / parts) + 1 else 0 in
    caps.(q) <- cap;
    tbases.(q) <- alloc_arena width cap
  done;
  let nl = Array.length live in
  (* [sh.(k).(q)]: share [q]'s array for live column [k], made by row 0 *)
  let sh = Array.make nl [||] in
  let mults = Array.map Array.create_float caps in
  let q = ref 0 and r = ref 0 in
  iter (fun (tup : Vtuple.t) m ->
      let qi = !q and ri = !r in
      if ri >= Array.unsafe_get caps qi then
        invalid_arg "Colbatch: more rows than ~count";
      if qi = 0 && ri = 0 then
        for k = 0 to nl - 1 do
          sh.(k) <- new_cols caps tup.(live.(k))
        done;
      for k = 0 to nl - 1 do
        deal_cell (Array.unsafe_get sh k) qi ri tup.(Array.unsafe_get live k)
      done;
      Array.unsafe_set (Array.unsafe_get mults qi) ri m;
      let tb = Array.unsafe_get tbases qi in
      if tb <> 0 then begin
        let cap = caps.(qi) in
        for k = 0 to nl - 1 do
          Trace.emit (tb + (((live.(k) * cap) + ri) * 8)) Trace.Write
        done;
        Trace.emit (tb + (((width * cap) + ri) * 8)) Trace.Write
      end;
      if qi + 1 = parts then begin
        q := 0;
        r := ri + 1
      end
      else q := qi + 1);
  if (!r * parts) + !q <> n then
    invalid_arg "Colbatch: fewer rows than ~count";
  Array.mapi
    (fun qi cap ->
      let cols = Array.make width (CInt [||]) in
      if n > 0 then
        for k = 0 to nl - 1 do
          cols.(live.(k)) <- sh.(k).(qi)
        done;
      fill_absent cols cap live;
      {
        cols;
        mults = mults.(qi);
        n = cap;
        tbase = tbases.(qi);
        tstride = cap;
        live = (if nl = width then None else Some live);
      })
    caps

let shares_of_gmr ~cols ~width ~parts g =
  build ~cols ~width ~parts ~count:(Gmr.cardinal g) (fun f -> Gmr.iter f g)

let of_iter ~cols ~width ~count iter =
  (build ~cols ~width ~parts:1 ~count iter).(0)

let of_gmr ~width g =
  (shares_of_gmr ~cols:(Array.init width Fun.id) ~width ~parts:1 g).(0)

(* ------------------------------------------------------------------ *)
(* Row hashing (Vtuple/Oaidx-compatible, no boxing)                    *)
(* ------------------------------------------------------------------ *)

(* Replicates [Value.hash] cell by cell, so a hash folded over typed
   columns equals [Vtuple.hash] of the materialized row. The Int/Float
   normalization (integer-valued floats hash like the int) must match
   [Value.equal]'s cross-type equality. *)
let cell_vhash c i =
  match c with
  | CInt a -> Hashtbl.hash (Array.unsafe_get a i)
  | CDate a -> Hashtbl.hash (Array.unsafe_get a i lxor 0x5a5a)
  | CFloat a ->
      let x = Array.unsafe_get a i in
      if Float.is_integer x && Float.abs x < 1e15 then
        Hashtbl.hash (int_of_float x)
      else Hashtbl.hash x
  | CDict (d, c) -> Array.unsafe_get d.dvhash (Array.unsafe_get c i)
  | CBoxed a -> Value.hash (Array.unsafe_get a i)

let row_vhash (cols : col array) (sel : int array) i =
  let h = ref 17 in
  for c = 0 to Array.length sel - 1 do
    h :=
      (!h * 31)
      + cell_vhash (Array.unsafe_get cols (Array.unsafe_get sel c)) i
  done;
  !h land max_int

let row_hash cols sel i = Oaidx.finalize (row_vhash cols sel i)

let cell_veq c i (v : Value.t) =
  match (c, v) with
  | CInt a, Value.Int y -> Array.unsafe_get a i = y
  | CInt a, Value.Float y -> Float.equal (float_of_int (Array.unsafe_get a i)) y
  | CDate a, Value.Date y -> Array.unsafe_get a i = y
  | CFloat a, Value.Float y -> Float.equal (Array.unsafe_get a i) y
  | CFloat a, Value.Int y -> Float.equal (Array.unsafe_get a i) (float_of_int y)
  | CDict (d, c), Value.String y ->
      String.equal (Array.unsafe_get d.dvals (Array.unsafe_get c i)) y
  | CBoxed a, v -> Value.equal (Array.unsafe_get a i) v
  | _ -> false

let row_eq (cols : col array) (sel : int array) i (key : Vtuple.t) =
  Array.length key = Array.length sel
  &&
  let rec go c =
    c < 0
    || cell_veq (Array.unsafe_get cols (Array.unsafe_get sel c)) i key.(c)
       && go (c - 1)
  in
  go (Array.length sel - 1)

let row_tuple (cols : col array) (sel : int array) i =
  Array.init (Array.length sel) (fun c -> get cols.(sel.(c)) i)

(* ------------------------------------------------------------------ *)
(* Key grouping: radix-hash partitioning                               *)
(* ------------------------------------------------------------------ *)

(* Test hook: when set to [Some b], every per-cell grouping hash keeps
   only its low [b] bits, forcing distinct keys to collide so the cell
   comparison that places group boundaries is exercised. *)
let hash_bits_for_tests : int option ref = ref None

let mixmul = 0x2545F4914F6CDD1D

(* Internal fast cell hash for key grouping — consistent with cell
   equality within one column (the only comparisons grouping makes),
   including the Int/Float normalization boxed columns need.
   Unlike [cell_vhash] this never calls [Hashtbl.hash] on immediates. *)
let cell_ih c i =
  match c with
  | CInt a -> Array.unsafe_get a i
  | CDate a -> Array.unsafe_get a i lxor 0x5a5a
  | CFloat a ->
      let x = Array.unsafe_get a i in
      if Float.is_integer x && Float.abs x < 1e15 then int_of_float x
      else Int64.to_int (Int64.bits_of_float x)
  | CDict (_, c) ->
      (* Codes are unique per string within one dict, and grouping only
         compares cells within one column, so the raw code is consistent
         with [cells_eq] — no string hashing in the hot loop. *)
      Array.unsafe_get c i
  | CBoxed a -> (
      match Array.unsafe_get a i with
      | Value.Int x -> x
      | Value.Date x -> x lxor 0x5a5a
      | Value.Float x ->
          if Float.is_integer x && Float.abs x < 1e15 then int_of_float x
          else Int64.to_int (Int64.bits_of_float x)
      | Value.String s -> Hashtbl.hash s)

let fin h =
  let h = h lxor (h lsr 29) in
  let h = h * mixmul in
  h lxor (h lsr 32)

(* Cells of rows [a] and [b] equal in column [c]? Typed compare — no
   boxing, and [Value.equal] only for genuinely mixed columns. *)
let cells_eq c a b =
  match c with
  | CInt x | CDate x -> Array.unsafe_get x a = Array.unsafe_get x b
  | CFloat x -> Float.equal (Array.unsafe_get x a) (Array.unsafe_get x b)
  | CDict (_, x) -> Array.unsafe_get x a = Array.unsafe_get x b
  | CBoxed x -> Value.equal (Array.unsafe_get x a) (Array.unsafe_get x b)

(* Stable counting partition of [perm_in] by [keys land bmask]. *)
let counting_pass (keys : int array) (perm_in : int array)
    (perm_out : int array) (cnt : int array) bmask =
  Array.fill cnt 0 (bmask + 1) 0;
  let n = Array.length perm_in in
  for i = 0 to n - 1 do
    let b = Array.unsafe_get keys (Array.unsafe_get perm_in i) land bmask in
    Array.unsafe_set cnt b (Array.unsafe_get cnt b + 1)
  done;
  let acc = ref 0 in
  for b = 0 to bmask do
    let c = Array.unsafe_get cnt b in
    Array.unsafe_set cnt b !acc;
    acc := !acc + c
  done;
  for i = 0 to n - 1 do
    let r = Array.unsafe_get perm_in i in
    let b = Array.unsafe_get keys r land bmask in
    Array.unsafe_set perm_out (Array.unsafe_get cnt b) r;
    Array.unsafe_set cnt b (Array.unsafe_get cnt b + 1)
  done

(* Gather the selected columns [sel] in [perm] order, and cut the result
   into runs of equal keys: a group boundary falls wherever [key_eq] says
   two neighbouring source rows differ on the key. Every source row is
   one output row. *)
let gather_groups t ~sel ~(perm : int array) ~key_eq =
  let n = Array.length perm in
  let sw = Array.length sel in
  let bounds = Array.make (n + 1) 0 in
  let g = ref 0 in
  for k = 1 to n - 1 do
    if not (key_eq perm.(k - 1) perm.(k)) then begin
      incr g;
      bounds.(!g) <- k
    end
  done;
  if n > 0 then begin
    incr g;
    bounds.(!g) <- n
  end;
  let obase = alloc_arena sw n in
  let cols =
    Array.init sw (fun c ->
        let out = gather_col perm t.cols.(sel.(c)) in
        if obase <> 0 then
          for k = 0 to n - 1 do
            if t.tbase <> 0 then
              Trace.emit (cell_addr t sel.(c) perm.(k)) Trace.Read;
            Trace.emit (obase + (((c * n) + k) * 8)) Trace.Write
          done;
        out)
  in
  let batch =
    {
      cols;
      mults = Array.map (fun r -> t.mults.(r)) perm;
      n;
      tbase = obase;
      tstride = n;
      live = None;
    }
  in
  (batch, Array.sub bounds 0 (!g + 1))

let compact_group t ~key ~rest =
  let n = t.n in
  let nk = Array.length key in
  (* Per-row key hashes; the test hook masks each cell hash to force
     collisions. *)
  let cmask =
    match !hash_bits_for_tests with None -> -1 | Some b -> (1 lsl b) - 1
  in
  let hk = Array.make (max n 1) 0 in
  let traced = t.tbase <> 0 in
  for i = 0 to n - 1 do
    let h = ref 17 in
    for c = 0 to nk - 1 do
      let x = cell_ih (Array.unsafe_get t.cols (Array.unsafe_get key c)) i in
      h := (!h + (x land cmask)) * mixmul;
      if traced then Trace.emit (cell_addr t key.(c) i) Trace.Read
    done;
    Array.unsafe_set hk i (fin !h)
  done;
  (* One stable counting pass on the key hash's low bits: rows of one key
     share the hash, so they land adjacently, in source order. Keys whose
     hashes share a bucket may interleave and split into several runs. *)
  let bbits =
    let rec go b = if 1 lsl b >= n || b >= 16 then b else go (b + 1) in
    go 4
  in
  let bmask = (1 lsl bbits) - 1 in
  let perm0 = Array.init n (fun i -> i) in
  let perm =
    if nk = 0 then perm0
    else begin
      let perm1 = Array.make n 0 in
      counting_pass hk perm0 perm1 (Array.make (bmask + 1) 0) bmask;
      perm1
    end
  in
  let key_eq a b =
    hk.(a) = hk.(b)
    &&
    let rec go c =
      c < 0
      || cells_eq (Array.unsafe_get t.cols (Array.unsafe_get key c)) a b
         && go (c - 1)
    in
    go (nk - 1)
  in
  gather_groups t ~sel:(Array.append key rest) ~perm ~key_eq

(* Sort-based reference: a stable comparison sort by the boxed key
   cells. Kept as the equivalence oracle for the radix path. *)
let compact_group_sorted t ~key ~rest =
  let cmp a b =
    let rec go c =
      if c >= Array.length key then 0
      else
        let col = t.cols.(key.(c)) in
        let r = Value.compare (get col a) (get col b) in
        if r <> 0 then r else go (c + 1)
    in
    go 0
  in
  let perm = Array.init t.n (fun i -> i) in
  Array.stable_sort cmp perm;
  gather_groups t ~sel:(Array.append key rest) ~perm
    ~key_eq:(fun a b -> cmp a b = 0)
