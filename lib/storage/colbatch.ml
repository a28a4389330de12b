open Divm_ring
module Obs = Divm_obs.Obs

(* Rows whose merged multiplicity cancelled to ~0 and were dropped by
   [compact_group ~drop_cancelled:true] (counted in source rows). *)
let m_cancelled = Obs.Counter.make "divm_batch_rows_cancelled_total"

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

(* Physical-equality fast path first: low-cardinality categorical
   columns (flags, segments, ship modes) almost always reuse the same
   string blocks, so a pointer scan over the first entries resolves the
   common case without hashing the string. High-cardinality columns fall
   through to the hash table after a bounded scan. *)
let dict_intern d s =
  let lim = if d.dn < 16 then d.dn else 16 in
  let vals = d.dvals in
  let rec scan i =
    if i >= lim then -1
    else if Array.unsafe_get vals i == s then i
    else scan (i + 1)
  in
  let phys = scan 0 in
  if phys >= 0 then begin
    Obs.Counter.incr m_dict_hits;
    phys
  end
  else
    match Hashtbl.find_opt d.dtbl s with
    | Some c ->
        Obs.Counter.incr m_dict_hits;
        c
    | None ->
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
  mutable bytes : int; (* memoized [byte_size]; -1 = not yet computed *)
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
  let present = Array.make (Array.length cols) false in
  Array.iter (fun c -> present.(c) <- true) live;
  let z = CInt (Array.make n 0) in
  Array.iteri (fun c p -> if not p then cols.(c) <- z) present

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

let column t c = Array.init t.n (get t.cols.(c))

(* ------------------------------------------------------------------ *)
(* Construction: per-column representation commitment                  *)
(* ------------------------------------------------------------------ *)

let new_col cap (v : Value.t) : col =
  match v with
  | Value.Int _ -> CInt (Array.make cap 0)
  | Value.Date _ -> CDate (Array.make cap 0)
  | Value.Float _ -> CFloat (Array.make cap 0.)
  (* Strings commit to [CBoxed]: transposition stays a pointer write
     per cell. Dictionary encoding is an explicit upgrade for the
     columns that profit from it — filter-kernel operands and
     compaction keys ([dictify_cols], driven by the runtime's planner)
     and whole batches headed for the wire ([dictify]). *)
  | Value.String _ -> CBoxed (Array.make cap v)

let box_upto c i cap =
  let out = Array.make cap (Value.Int 0) in
  for j = 0 to i - 1 do
    out.(j) <- get c j
  done;
  out

(* Write cell [i] of column [ci]; the first value whose type does not
   match the committed representation promotes the column to boxed. *)
let set_cell (cols : col array) ci cap i (v : Value.t) =
  match (Array.unsafe_get cols ci, v) with
  | CInt a, Value.Int x -> Array.unsafe_set a i x
  | CDate a, Value.Date x -> Array.unsafe_set a i x
  | CFloat a, Value.Float x -> Array.unsafe_set a i x
  | CDict (d, c), Value.String s ->
      Array.unsafe_set c i (dict_intern d s);
      (* high-cardinality column: demote to boxed for the rest of the
         fill ([box_upto] replays the interned prefix as shared boxes) *)
      if d.dn > dict_demote then
        cols.(ci) <- CBoxed (box_upto (CDict (d, c)) (i + 1) cap)
  | CBoxed a, v -> Array.unsafe_set a i v
  | c, v ->
      let a = box_upto c i cap in
      a.(i) <- v;
      cols.(ci) <- CBoxed a

let trunc_col n c =
  match c with
  | CInt a -> if Array.length a = n then c else CInt (Array.sub a 0 n)
  | CDate a -> if Array.length a = n then c else CDate (Array.sub a 0 n)
  | CFloat a -> if Array.length a = n then c else CFloat (Array.sub a 0 n)
  | CDict (d, a) ->
      if Array.length a = n then c else CDict (d, Array.sub a 0 n)
  | CBoxed a -> if Array.length a = n then c else CBoxed (Array.sub a 0 n)

(* Trace arena for a batch: one region holding [w] columns of [stride]
   rows column-major, multiplicities after the columns. *)
let alloc_arena w stride =
  if Trace.enabled () && stride > 0 then
    Trace.alloc_region (((w + 1) * stride * 8) + 64)
  else 0

let cell_addr t c i = t.tbase + (((c * t.tstride) + i) * 8)

let of_iter ?cols:live ~width ~count iter =
  let cap = count in
  let lc = match live with Some l -> l | None -> Array.init width Fun.id in
  let nl = Array.length lc in
  let cols = Array.make width (CInt [||]) in
  let mults = Array.make cap 0. in
  let tbase = alloc_arena width cap in
  let i = ref 0 in
  iter (fun (tup : Vtuple.t) m ->
      let r = !i in
      if r = 0 then
        for k = 0 to nl - 1 do
          let c = lc.(k) in
          cols.(c) <- new_col cap tup.(c)
        done;
      for k = 0 to nl - 1 do
        let c = Array.unsafe_get lc k in
        set_cell cols c cap r tup.(c);
        if tbase <> 0 then
          Trace.emit (tbase + (((c * cap) + r) * 8)) Trace.Write
      done;
      mults.(r) <- m;
      if tbase <> 0 then
        Trace.emit (tbase + (((width * cap) + r) * 8)) Trace.Write;
      incr i);
  let n = !i in
  Option.iter (fill_absent cols n) live;
  {
    cols = Array.map (trunc_col n) cols;
    mults = (if n = cap then mults else Array.sub mults 0 n);
    n;
    tbase;
    tstride = cap;
    bytes = -1;
    live;
  }

let of_gmr ?cols ~width g =
  of_iter ?cols ~width ~count:(Gmr.cardinal g) (fun f -> Gmr.iter f g)

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
  { cols; mults; n; tbase = 0; tstride = 0; bytes = -1; live = None }

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
    bytes = -1;
    live = (if Array.length live = width then None else Some live);
  }

let to_gmr t =
  let g = Gmr.create ~size:t.n () in
  let w = width t in
  for i = 0 to t.n - 1 do
    let tup = Array.init w (fun c -> get t.cols.(c) i) in
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

let filter t pred =
  let keep = ref [] in
  for i = t.n - 1 downto 0 do
    if pred i then keep := i :: !keep
  done;
  let keep = Array.of_list !keep in
  {
    cols = Array.map (gather_col keep) t.cols;
    mults = Array.map (fun j -> t.mults.(j)) keep;
    n = Array.length keep;
    tbase = 0;
    tstride = 0;
    bytes = -1;
    live = t.live;
  }

let project t keep =
  let live =
    Option.map
      (fun l ->
        let pos = ref [] in
        Array.iteri (fun j c -> if Array.mem c l then pos := j :: !pos) keep;
        Array.of_list (List.rev !pos))
      t.live
  in
  {
    cols = Array.map (fun c -> t.cols.(c)) keep;
    mults = t.mults;
    n = t.n;
    tbase = 0;
    tstride = 0;
    bytes = -1;
    live;
  }

(* Round-robin share [p]: rows p, p + parts, p + 2·parts, … Only live
   columns are gathered; absent ones alias one fresh zero column. *)
let deal t ~parts p =
  if parts < 1 || p < 0 || p >= parts then invalid_arg "Colbatch.deal";
  let m = if t.n > p then ((t.n - p - 1) / parts) + 1 else 0 in
  let keep = Array.init m (fun j -> p + (j * parts)) in
  let cols =
    match t.live with
    | None -> Array.map (gather_col keep) t.cols
    | Some l ->
        let cols = Array.make (width t) (CInt [||]) in
        Array.iter (fun c -> cols.(c) <- gather_col keep t.cols.(c)) l;
        fill_absent cols m l;
        cols
  in
  {
    cols;
    mults = Array.map (fun j -> Array.unsafe_get t.mults j) keep;
    n = m;
    tbase = 0;
    tstride = 0;
    bytes = -1;
    live = t.live;
  }

let aggregate t = to_gmr t

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
(* Batch compaction: radix-hash partitioning                           *)
(* ------------------------------------------------------------------ *)

(* Test hook: when set to [Some b], every per-cell compaction hash keeps
   only its low [b] bits, forcing distinct values to collide so the
   comparison fallback is exercised. *)
let hash_bits_for_tests : int option ref = ref None

let mixmul = 0x2545F4914F6CDD1D

(* Internal fast cell hash for compaction ordering — consistent with
   cell equality within one column (the only comparisons compaction
   makes), including the Int/Float normalization boxed columns need.
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
      (* Codes are unique per string within one dict, and compaction only
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

(* Shared commit walk: given rows in an order that places duplicates
   (rows equal on every selected column) adjacently, merge runs, detect
   key-group boundaries by comparing actual cell values, optionally drop
   runs whose multiplicity cancelled, and gather the survivors into
   fresh typed columns. [dup] and [key_eq] compare two source rows. *)
let commit_walk t ~sel ~nk ~drop_cancelled ~(perm : int array)
    ~(dup : int -> int -> bool) ~(key_eq : int -> int -> bool) =
  let n = Array.length perm in
  let sw = Array.length sel in
  let src = Array.make n 0 in
  let msum = Array.make n 0. in
  let counts = Array.make n 0. in
  let starts = ref [ 0 ] in
  let out = ref 0 in
  let prev_key = ref (-1) in
  let cancelled = ref 0 in
  let i = ref 0 in
  while !i < n do
    let r0 = perm.(!i) in
    let m = ref t.mults.(r0) in
    let c = ref 1 in
    incr i;
    let continue = ref true in
    while !continue && !i < n do
      let r = perm.(!i) in
      if dup r0 r then begin
        m := !m +. t.mults.(r);
        incr c;
        incr i
      end
      else continue := false
    done;
    if drop_cancelled && Float.abs !m < Mult.zero_eps then
      cancelled := !cancelled + !c
    else begin
      if !out > 0 && nk > 0 && not (key_eq !prev_key r0) then
        starts := !out :: !starts;
      src.(!out) <- r0;
      msum.(!out) <- !m;
      counts.(!out) <- float_of_int !c;
      prev_key := r0;
      incr out
    end
  done;
  if !cancelled > 0 then Obs.Counter.add m_cancelled !cancelled;
  let m = !out in
  let src = if m = n then src else Array.sub src 0 m in
  let obase = alloc_arena sw m in
  let cols =
    Array.init sw (fun c ->
        let cin = t.cols.(sel.(c)) in
        let out = gather_col src cin in
        if obase <> 0 then
          for k = 0 to m - 1 do
            if t.tbase <> 0 then
              Trace.emit (cell_addr t sel.(c) src.(k)) Trace.Read;
            Trace.emit (obase + (((c * m) + k) * 8)) Trace.Write
          done;
        out)
  in
  let trunc a = if Array.length a = m then a else Array.sub a 0 m in
  let batch =
    {
      cols;
      mults = trunc msum;
      n = m;
      tbase = obase;
      tstride = m;
      bytes = -1;
      live = None;
    }
  in
  let starts =
    if m = 0 then [| 0 |] else Array.of_list (List.rev (m :: !starts))
  in
  (batch, starts, trunc counts)

let compact_group ?(drop_cancelled = false) t ~key ~rest =
  let n = t.n in
  let sel = Array.append key rest in
  let nk = Array.length key in
  let sw = Array.length sel in
  let nr = Array.length rest in
  (* Per-row hashes: [hk] over the grouping key, [ha] over every selected
     column ([ha] continues the unfinalized key fold). The test hook masks
     each cell hash to force collisions. *)
  let cmask =
    match !hash_bits_for_tests with None -> -1 | Some b -> (1 lsl b) - 1
  in
  let hk = Array.make (max n 1) 0 in
  let ha = Array.make (max n 1) 0 in
  let traced = t.tbase <> 0 in
  for i = 0 to n - 1 do
    let h = ref 17 in
    for c = 0 to nk - 1 do
      let x = cell_ih (Array.unsafe_get t.cols (Array.unsafe_get key c)) i in
      h := (!h + (x land cmask)) * mixmul;
      if traced then Trace.emit (cell_addr t key.(c) i) Trace.Read
    done;
    Array.unsafe_set hk i (fin !h);
    for c = 0 to nr - 1 do
      let x = cell_ih (Array.unsafe_get t.cols (Array.unsafe_get rest c)) i in
      h := (!h + (x land cmask)) * mixmul;
      if traced then Trace.emit (cell_addr t rest.(c) i) Trace.Read
    done;
    Array.unsafe_set ha i (fin !h)
  done;
  (* Order rows by (key hash, full hash) with two stable counting passes:
     minor pass on [ha], major pass on [hk]. Duplicate rows always share
     both hashes, so they land adjacently (up to low-bit collisions, which
     at worst split a run — linearly equivalent downstream). Key groups
     end up contiguous for the same reason. *)
  let bbits =
    let rec go b = if 1 lsl b >= n || b >= 16 then b else go (b + 1) in
    go 4
  in
  let bmask = (1 lsl bbits) - 1 in
  let cnt = Array.make (bmask + 1) 0 in
  let perm0 = Array.init n (fun i -> i) in
  let perm1 = Array.make n 0 in
  let perm =
    if sw = 0 then perm0
    else if nr = 0 then begin
      (* sel = key: one pass on hk *)
      counting_pass hk perm0 perm1 cnt bmask;
      perm1
    end
    else if nk = 0 then begin
      (* no grouping: one pass on ha *)
      counting_pass ha perm0 perm1 cnt bmask;
      perm1
    end
    else begin
      counting_pass ha perm0 perm1 cnt bmask;
      counting_pass hk perm1 perm0 cnt bmask;
      perm0
    end
  in
  let dup a b =
    hk.(a) = hk.(b)
    && ha.(a) = ha.(b)
    &&
    let rec go c =
      c < 0
      || cells_eq (Array.unsafe_get t.cols (Array.unsafe_get sel c)) a b
         && go (c - 1)
    in
    go (sw - 1)
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
  commit_walk t ~sel ~nk ~drop_cancelled ~perm ~dup ~key_eq

(* Sort-based reference (the PR 4 algorithm): comparison sort over boxed
   cell values. Kept as the equivalence oracle for the radix path. *)
let compact_group_sorted ?(drop_cancelled = false) t ~key ~rest =
  let n = t.n in
  let sel = Array.append key rest in
  let nk = Array.length key in
  let sw = Array.length sel in
  let cmp_upto k a b =
    let rec go c =
      if c >= k then 0
      else
        let r = Value.compare (get t.cols.(sel.(c)) a) (get t.cols.(sel.(c)) b) in
        if r <> 0 then r else go (c + 1)
    in
    go 0
  in
  let perm = Array.init n (fun i -> i) in
  Array.sort (cmp_upto sw) perm;
  commit_walk t ~sel ~nk ~drop_cancelled ~perm
    ~dup:(fun a b -> cmp_upto sw a b = 0)
    ~key_eq:(fun a b -> cmp_upto nk a b = 0)

(* ------------------------------------------------------------------ *)
(* Size accounting                                                     *)
(* ------------------------------------------------------------------ *)

let col_bytes n c =
  match c with
  | CInt _ | CDate _ | CFloat _ -> 8 * n
  | CDict (d, _) ->
      (* dictionary payload (count + length-prefixed entries, matching
         [Value.byte_size] per string) + one i32 code per row *)
      let s = ref 4 in
      for e = 0 to d.dn - 1 do
        s := !s + 4 + String.length d.dvals.(e)
      done;
      !s + (4 * n)
  | CBoxed a ->
      let s = ref 0 in
      for i = 0 to n - 1 do
        s := !s + Value.byte_size a.(i)
      done;
      !s

let byte_size t =
  if t.bytes < 0 then
    t.bytes <-
      Array.fold_left
        (fun acc c -> acc + col_bytes t.n t.cols.(c))
        (8 * t.n) (live_cols t);
  t.bytes

(* Representation upgrade: promote one [CBoxed] column holding only
   strings to [CDict] in place. Columns whose dictionary would exceed
   [dict_demote] distinct entries are left boxed — encoding
   near-distinct strings (generated names) pays hash-and-append per
   cell and compresses nothing. Returns whether the column changed. *)
let dictify_col t ci =
  match t.cols.(ci) with
  | CBoxed a
    when Array.length a > 0
         && Array.for_all (function Value.String _ -> true | _ -> false) a
    -> (
      let d = dict_create () in
      try
        let codes =
          Array.map
            (function
              | Value.String s ->
                  let code = dict_intern d s in
                  if d.dn > dict_demote then raise Exit;
                  code
              | _ -> assert false)
            a
        in
        t.cols.(ci) <- CDict (d, codes);
        true
      with Exit -> false)
  | _ -> false

(* Targeted upgrade: the runtime's planner names the columns whose
   dictionary form pays for itself this batch (string filter-kernel
   operands, string compaction keys). Already-[CDict] and non-string
   columns are skipped. Invalidates the [byte_size] memo on change. *)
let dictify_cols t cis =
  let changed =
    List.fold_left (fun acc ci -> dictify_col t ci || acc) false cis
  in
  if changed then t.bytes <- -1

(* Whole-batch upgrade for the wire path: every all-string column below
   the cardinality cutoff ships as dictionary + codes. *)
let dictify t =
  let changed = ref false in
  for ci = 0 to Array.length t.cols - 1 do
    if dictify_col t ci then changed := true
  done;
  if !changed then t.bytes <- -1
