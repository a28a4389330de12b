open Divm_ring
module Obs = Divm_obs.Obs

(* Registry instruments (§5.2 storage layer): pools and secondary indexes
   created, unique/slice index probes and the probes that found nothing. *)
let m_pools = Obs.Counter.make "divm_pools_created_total"
let m_indexes = Obs.Counter.make "divm_indexes_created_total"
let m_probes = Obs.Counter.make "divm_index_probes_total"
let m_probe_misses = Obs.Counter.make "divm_index_probe_misses_total"
let m_slice_scanned = Obs.Counter.make "divm_slice_scanned_total"

(* One non-unique secondary index. Sub-keys get their own slot space
   ("sec slots"): [idx] maps a sub-key to its sec slot, [buckets.(ss)]
   stacks the pool slots sharing that sub-key, and the per-pool-slot
   back-pointers [of_sec]/[pos_in_bucket] make removal a true O(1)
   swap-remove with no bucket scan. *)
type sec = {
  positions : int array;
  idx : Oaidx.t;
  mutable sub_keys : Vtuple.t array; (* per sec slot *)
  mutable sub_hashes : int array; (* per sec slot: cached Oaidx.hash *)
  mutable buckets : Intvec.t array; (* per sec slot *)
  mutable sec_hwm : int;
  sec_free : Intvec.t;
  mutable of_sec : int array; (* pool slot -> sec slot *)
  mutable pos_in_bucket : int array; (* pool slot -> offset in its bucket *)
  sec_base : int;
}

type t = {
  pname : string;
  rec_bytes : int;
  base : int;
  mutable keys : Vtuple.t array;
  mutable values : float array; (* 0. marks a dead slot *)
  mutable hwm : int; (* high-water mark *)
  free : Intvec.t;
  mutable count : int;
  unique : Oaidx.t;
  unique_base : int;
  secs : sec array;
}

let create ?(name = "anon") ~key_width ~slices () =
  Obs.Counter.incr m_pools;
  Obs.Counter.add m_indexes (List.length slices);
  let cap = 16 in
  let rec_bytes = (key_width * 8) + 8 + 16 in
  {
    pname = name;
    rec_bytes;
    base = Trace.alloc_region (1 lsl 28);
    keys = Array.make cap Vtuple.empty;
    values = Array.make cap 0.;
    hwm = 0;
    free = Intvec.create ();
    count = 0;
    unique = Oaidx.create ~size:cap ();
    unique_base = Trace.alloc_region (1 lsl 24);
    secs =
      Array.of_list
        (List.map
           (fun positions ->
             {
               positions;
               idx = Oaidx.create ();
               sub_keys = Array.make cap Vtuple.empty;
               sub_hashes = Array.make cap 0;
               buckets = Array.make cap (Intvec.create ~cap:0 ());
               sec_hwm = 0;
               sec_free = Intvec.create ();
               of_sec = Array.make cap (-1);
               pos_in_bucket = Array.make cap 0;
               sec_base = Trace.alloc_region (1 lsl 24);
             })
           slices);
  }

let cardinal t = t.count

let addr t slot = t.base + (slot * t.rec_bytes)

let grow t =
  let cap = Array.length t.keys in
  let cap' = cap * 2 in
  let keys = Array.make cap' Vtuple.empty in
  Array.blit t.keys 0 keys 0 cap;
  let values = Array.make cap' 0. in
  Array.blit t.values 0 values 0 cap;
  t.keys <- keys;
  t.values <- values;
  (* the per-pool-slot back-pointer arrays track the slot space *)
  Array.iter
    (fun sec ->
      let of_sec = Array.make cap' (-1) in
      Array.blit sec.of_sec 0 of_sec 0 cap;
      sec.of_sec <- of_sec;
      let pos = Array.make cap' 0 in
      Array.blit sec.pos_in_bucket 0 pos 0 cap;
      sec.pos_in_bucket <- pos)
    t.secs

let alloc_slot t =
  if Intvec.is_empty t.free then begin
    if t.hwm >= Array.length t.keys then grow t;
    let s = t.hwm in
    t.hwm <- t.hwm + 1;
    s
  end
  else Intvec.pop t.free

let sec_grow sec =
  let cap = Array.length sec.sub_keys in
  let cap' = cap * 2 in
  let sub_keys = Array.make cap' Vtuple.empty in
  Array.blit sec.sub_keys 0 sub_keys 0 cap;
  sec.sub_keys <- sub_keys;
  let sub_hashes = Array.make cap' 0 in
  Array.blit sec.sub_hashes 0 sub_hashes 0 cap;
  sec.sub_hashes <- sub_hashes;
  let buckets = Array.make cap' (Intvec.create ~cap:0 ()) in
  Array.blit sec.buckets 0 buckets 0 cap;
  sec.buckets <- buckets

let sec_insert t slot key =
  Array.iter
    (fun sec ->
      let sub = Vtuple.project key sec.positions in
      let h = Oaidx.hash sub in
      let ss =
        let ss = Oaidx.find_latched sec.idx sec.sub_keys h sub in
        if ss >= 0 then ss
        else begin
          let ss =
            if Intvec.is_empty sec.sec_free then begin
              if sec.sec_hwm >= Array.length sec.sub_keys then sec_grow sec;
              let ss = sec.sec_hwm in
              sec.sec_hwm <- sec.sec_hwm + 1;
              ss
            end
            else Intvec.pop sec.sec_free
          in
          sec.sub_keys.(ss) <- sub;
          sec.sub_hashes.(ss) <- h;
          sec.buckets.(ss) <- Intvec.create ();
          Oaidx.add_latched sec.idx h ss;
          ss
        end
      in
      let b = sec.buckets.(ss) in
      sec.of_sec.(slot) <- ss;
      sec.pos_in_bucket.(slot) <- Intvec.length b;
      Intvec.push b slot)
    t.secs

let sec_remove t slot =
  Array.iter
    (fun sec ->
      let ss = sec.of_sec.(slot) in
      let b = sec.buckets.(ss) in
      let last = Intvec.pop b in
      if last <> slot then begin
        (* swap-remove: the popped tail fills the vacated position *)
        let pos = sec.pos_in_bucket.(slot) in
        Intvec.set b pos last;
        sec.pos_in_bucket.(last) <- pos
      end;
      sec.of_sec.(slot) <- -1;
      if Intvec.is_empty b then begin
        (* retire the sub-key entry so churn cannot accumulate garbage *)
        let h = sec.sub_hashes.(ss) in
        ignore (Oaidx.find_latched sec.idx sec.sub_keys h sec.sub_keys.(ss));
        Oaidx.remove_latched sec.idx;
        sec.sub_keys.(ss) <- Vtuple.empty;
        Intvec.push sec.sec_free ss
      end)
    t.secs

let get t key =
  let h = Oaidx.hash key in
  if Trace.enabled () then
    Trace.emit (t.unique_base + ((h land 0xffff) * 8)) Trace.Read;
  Obs.Counter.incr m_probes;
  let slot = Oaidx.find t.unique t.keys h key in
  if slot < 0 then begin
    Obs.Counter.incr m_probe_misses;
    0.
  end
  else begin
    if Trace.enabled () then Trace.emit (addr t slot) Trace.Read;
    t.values.(slot)
  end

(* The latched unique-index bucket still points at [slot]'s entry. *)
let remove_slot_latched t slot =
  Oaidx.remove_latched t.unique;
  t.values.(slot) <- 0.;
  t.keys.(slot) <- Vtuple.empty;
  Intvec.push t.free slot;
  t.count <- t.count - 1;
  sec_remove t slot

let insert_latched ~copy t h key m =
  let slot = alloc_slot t in
  let key = if copy then Array.copy key else key in
  t.keys.(slot) <- key;
  t.values.(slot) <- m;
  t.count <- t.count + 1;
  Oaidx.add_latched t.unique h slot;
  sec_insert t slot key;
  if Trace.enabled () then Trace.emit (addr t slot) Trace.Write

(* Single-probe upsert (one hash, one probe sequence); [copy] is the
   scratch-key protocol: borrowed key buffers are duplicated only when the
   record is first inserted. *)
let upsert_h ~copy t h key m =
  if Float.abs m >= Mult.zero_eps then begin
    if Trace.enabled () then
      Trace.emit (t.unique_base + ((h land 0xffff) * 8)) Trace.Read;
    let slot = Oaidx.find_latched t.unique t.keys h key in
    if slot < 0 then insert_latched ~copy t h key m
    else begin
      let v = t.values.(slot) +. m in
      if Trace.enabled () then Trace.emit (addr t slot) Trace.Write;
      if Float.abs v < Mult.zero_eps then remove_slot_latched t slot
      else t.values.(slot) <- v
    end
  end

let upsert ~copy t key m = upsert_h ~copy t (Oaidx.hash key) key m
let add t key m = upsert ~copy:false t key m
let add_borrow t key m = upsert ~copy:true t key m
let add_hashed t h key m = upsert_h ~copy:false t h key m

(* Columnar upsert: probe with a precomputed hash and a cell-level
   equality; the key tuple is materialized by [make] only on first
   insert (secondary indexes need it then). *)
let add_by t ~hash:h ~eq ~make m =
  if Float.abs m >= Mult.zero_eps then begin
    if Trace.enabled () then
      Trace.emit (t.unique_base + ((h land 0xffff) * 8)) Trace.Read;
    let slot = Oaidx.find_pred_latched t.unique t.keys h eq in
    if slot < 0 then insert_latched ~copy:false t h (make ()) m
    else begin
      let v = t.values.(slot) +. m in
      if Trace.enabled () then Trace.emit (addr t slot) Trace.Write;
      if Float.abs v < Mult.zero_eps then remove_slot_latched t slot
      else t.values.(slot) <- v
    end
  end

(* Ring-(+) bulk merge of a GMR buffer: replays the buffer's cached
   index hashes instead of re-hashing every key, in the buffer's slot
   (= insertion) order so destination slots are assigned
   deterministically — serial and domain-parallel execution must leave
   bit-identical stores. Keys are retained by reference — the caller
   transfers ownership (the executor's private per-member buffers are
   cleared right after). *)
let merge_gmr t g = Gmr.iter_hashed (fun key m h -> add_hashed t h key m) g

let set t key m =
  let h = Oaidx.hash key in
  if Trace.enabled () then
    Trace.emit (t.unique_base + ((h land 0xffff) * 8)) Trace.Read;
  let slot = Oaidx.find_latched t.unique t.keys h key in
  if slot < 0 then begin
    if Float.abs m >= Mult.zero_eps then insert_latched ~copy:false t h key m
  end
  else if Float.abs m < Mult.zero_eps then remove_slot_latched t slot
  else begin
    t.values.(slot) <- m;
    if Trace.enabled () then Trace.emit (addr t slot) Trace.Write
  end

let foreach t f =
  for slot = 0 to t.hwm - 1 do
    let v = Array.unsafe_get t.values slot in
    if v <> 0. then begin
      if Trace.enabled () then Trace.emit (addr t slot) Trace.Read;
      f (Array.unsafe_get t.keys slot) v
    end
  done

let slice t ~index sub f =
  let sec = t.secs.(index) in
  let h = Oaidx.hash sub in
  if Trace.enabled () then
    Trace.emit (sec.sec_base + ((h land 0xffff) * 8)) Trace.Read;
  Obs.Counter.incr m_probes;
  let ss = Oaidx.find sec.idx sec.sub_keys h sub in
  if ss < 0 then Obs.Counter.incr m_probe_misses
  else begin
    let b = sec.buckets.(ss) in
    Obs.Counter.add m_slice_scanned (Intvec.length b);
    for i = 0 to Intvec.length b - 1 do
      let slot = Intvec.get b i in
      if Trace.enabled () then Trace.emit (addr t slot) Trace.Read;
      f t.keys.(slot) t.values.(slot)
    done
  end

let find_slice t positions =
  let rec go i =
    if i >= Array.length t.secs then None
    else if t.secs.(i).positions = positions then Some i
    else go (i + 1)
  in
  go 0

let clear t =
  Oaidx.clear t.unique;
  Array.iter
    (fun sec ->
      Oaidx.clear sec.idx;
      for ss = 0 to sec.sec_hwm - 1 do
        sec.sub_keys.(ss) <- Vtuple.empty;
        Intvec.clear sec.buckets.(ss)
      done;
      sec.sec_hwm <- 0;
      Intvec.clear sec.sec_free;
      Array.fill sec.of_sec 0 (Array.length sec.of_sec) (-1))
    t.secs;
  for slot = 0 to t.hwm - 1 do
    t.keys.(slot) <- Vtuple.empty;
    t.values.(slot) <- 0.
  done;
  t.hwm <- 0;
  Intvec.clear t.free;
  t.count <- 0

let to_gmr t =
  let g = Gmr.create ~size:t.count () in
  foreach t (fun key v -> Gmr.add g key v);
  g

let free_slots t = Intvec.length t.free
let name t = t.pname

(* --------------------------------------------------------------- *)
(* Self-metrics                                                     *)
(* --------------------------------------------------------------- *)

type stats = {
  s_name : string;
  s_live : int;
  s_free : int;
  s_hwm : int;
  s_indexes : int;
  s_load : float;
  s_probe_hist : int array;
}

let stats t =
  {
    s_name = t.pname;
    s_live = t.count;
    s_free = Intvec.length t.free;
    s_hwm = t.hwm;
    s_indexes = Array.length t.secs;
    s_load = Oaidx.load t.unique;
    s_probe_hist = Oaidx.probe_hist t.unique;
  }

(* Push the per-pool gauges into the registry under the pool's name.
   Cold path: called by report generators, never by compiled closures. *)
let observe t =
  let g suffix v =
    Obs.Gauge.set
      (Obs.Gauge.make
         (Printf.sprintf "divm_pool_%s{pool=%s}" suffix
            (Obs.json_string t.pname)))
      v
  in
  g "live_slots" (float_of_int t.count);
  g "free_slots" (float_of_int (Intvec.length t.free));
  g "load_factor" (Oaidx.load t.unique)
