open Divm_ring
module Obs = Divm_obs.Obs

(* Registry instruments (§5.2 storage layer): pools and secondary indexes
   created, unique/slice index probes and the probes that found nothing. *)
let m_pools = Obs.Counter.make "divm_pools_created_total"
let m_indexes = Obs.Counter.make "divm_indexes_created_total"
let m_probes = Obs.Counter.make "divm_index_probes_total"
let m_probe_misses = Obs.Counter.make "divm_index_probe_misses_total"
let m_slice_scanned = Obs.Counter.make "divm_slice_scanned_total"

(* One non-unique secondary index. Its sub-keys live in a GMR ([subs])
   whose multiplicity counts the records carrying the sub-key, so a
   sub-key retires with its last record like any cancelling GMR entry.
   [buckets.(ss)] stacks the pool slots of sub-key slot [ss], and the
   per-pool-slot back-pointers [of_sec]/[pos_in_bucket] make removal a
   true O(1) swap-remove with no bucket scan. *)
type sec = {
  positions : int array;
  subs : Gmr.t;
  mutable buckets : Intvec.t array; (* per sub-key slot *)
  mutable of_sec : int array; (* pool slot -> sub-key slot *)
  mutable pos_in_bucket : int array; (* pool slot -> offset in its bucket *)
  sec_base : int;
}

type t = {
  pname : string;
  rec_bytes : int;
  base : int;
  recs : Gmr.t; (* the records; its index is the pool's unique index *)
  unique_base : int;
  secs : sec array;
}

(* Fills bucket slots no sub-key has taken yet; a sub-key gets a fresh
   bucket of its own, so this one is never pushed to. *)
let no_bucket = Intvec.create ~cap:0 ()

let create ?(name = "anon") ~key_width ~slices () =
  Obs.Counter.incr m_pools;
  Obs.Counter.add m_indexes (List.length slices);
  {
    pname = name;
    rec_bytes = (key_width * 8) + 8 + 16;
    base = Trace.alloc_region (1 lsl 28);
    recs = Gmr.create ();
    unique_base = Trace.alloc_region (1 lsl 24);
    secs =
      Array.of_list
        (List.map
           (fun positions ->
             {
               positions;
               subs = Gmr.create ();
               buckets = [||];
               of_sec = [||];
               pos_in_bucket = [||];
               sec_base = Trace.alloc_region (1 lsl 24);
             })
           slices);
  }

let cardinal t = Gmr.cardinal t.recs

let addr t slot = t.base + (slot * t.rec_bytes)

(* [a] with room for index [i], doubling: slots are handed out from a
   high-water mark, so [i] never runs past the current length. *)
let fit a i fill =
  if i < Array.length a then a
  else begin
    let a' = Array.make (max 16 (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let index t slot key =
  Array.iter
    (fun sec ->
      let sub = Vtuple.project key sec.positions in
      let n = Gmr.cardinal sec.subs in
      let ss = Gmr.upsert_slot ~copy:false sec.subs (Oaidx.hash sub) sub 1. in
      if Gmr.cardinal sec.subs > n then begin
        sec.buckets <- fit sec.buckets ss no_bucket;
        sec.buckets.(ss) <- Intvec.create ()
      end;
      let b = sec.buckets.(ss) in
      sec.of_sec <- fit sec.of_sec slot 0;
      sec.pos_in_bucket <- fit sec.pos_in_bucket slot 0;
      sec.of_sec.(slot) <- ss;
      sec.pos_in_bucket.(slot) <- Intvec.length b;
      Intvec.push b slot)
    t.secs

let unindex t slot =
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
      Gmr.add_at sec.subs ss (-1.))
    t.secs

let read_bucket t h =
  if Trace.enabled () then
    Trace.emit (t.unique_base + ((h land 0xffff) * 8)) Trace.Read

let get t key =
  let h = Oaidx.hash key in
  read_bucket t h;
  Obs.Counter.incr m_probes;
  let slot = Gmr.slot_of t.recs h key in
  if slot < 0 then begin
    Obs.Counter.incr m_probe_misses;
    0.
  end
  else begin
    if Trace.enabled () then Trace.emit (addr t slot) Trace.Read;
    t.recs.mults.(slot)
  end

(* Finish a record upsert that left key hash [h] at [slot] ([-1]: a zero
   multiplicity, nothing happened) when the pool held [n] records before:
   index an inserted record, unindex a cancelled one, then trace the
   unique-index bucket read and the record write. Inlined into each
   upsert, like [Gmr.upsert_slot], so an update makes no extra call. *)
let[@inline] upserted t h n slot =
  if slot >= 0 then begin
    let n' = Gmr.cardinal t.recs in
    if n' > n then index t slot t.recs.keys.(slot)
    else if n' < n then unindex t slot;
    read_bucket t h;
    if Trace.enabled () then Trace.emit (addr t slot) Trace.Write
  end

(* Single-probe upsert; [copy] is the scratch-key protocol: borrowed key
   buffers are duplicated only when the record is first inserted. *)
let upsert ~copy t h key m =
  let n = Gmr.cardinal t.recs in
  upserted t h n (Gmr.upsert_slot ~copy t.recs h key m)

let add t key m = upsert ~copy:false t (Oaidx.hash key) key m
let add_borrow t key m = upsert ~copy:true t (Oaidx.hash key) key m

(* Columnar upsert: probe with a precomputed hash and a cell-level
   equality; the key tuple is materialized by [make] only on first
   insert (secondary indexes need it then). *)
let add_by t ~hash ~eq ~make m =
  let n = Gmr.cardinal t.recs in
  upserted t hash n (Gmr.upsert_slot_by t.recs ~hash ~eq ~make m)

(* Ring-(+) bulk merge of a GMR buffer: replays the buffer's cached
   index hashes instead of re-hashing every key, in the buffer's slot
   (= insertion) order so destination slots are assigned
   deterministically — serial and domain-parallel execution must leave
   bit-identical stores. Keys are retained by reference — the caller
   transfers ownership (the executor's private per-member buffers are
   cleared right after). *)
let merge_gmr t g = Gmr.iter_hashed (fun key m h -> upsert ~copy:false t h key m) g

let foreach t f =
  let r = t.recs in
  for slot = 0 to r.hwm - 1 do
    let v = Array.unsafe_get r.mults slot in
    if v <> 0. then begin
      if Trace.enabled () then Trace.emit (addr t slot) Trace.Read;
      f (Array.unsafe_get r.keys slot) v
    end
  done

let slice t ~index sub f =
  let sec = t.secs.(index) in
  let h = Oaidx.hash sub in
  if Trace.enabled () then
    Trace.emit (sec.sec_base + ((h land 0xffff) * 8)) Trace.Read;
  Obs.Counter.incr m_probes;
  let ss = Gmr.slot_of sec.subs h sub in
  if ss < 0 then Obs.Counter.incr m_probe_misses
  else begin
    let b = sec.buckets.(ss) and r = t.recs in
    Obs.Counter.add m_slice_scanned (Intvec.length b);
    for i = 0 to Intvec.length b - 1 do
      let slot = Intvec.get b i in
      if Trace.enabled () then Trace.emit (addr t slot) Trace.Read;
      f r.keys.(slot) r.mults.(slot)
    done
  end

let find_slice t positions =
  let rec go i =
    if i >= Array.length t.secs then None
    else if t.secs.(i).positions = positions then Some i
    else go (i + 1)
  in
  go 0

(* Sub-key slots are refilled with fresh buckets, so the old ones need
   no emptying. *)
let clear t =
  Gmr.clear t.recs;
  Array.iter (fun sec -> Gmr.clear sec.subs) t.secs

let to_gmr t =
  let g = Gmr.create ~size:(cardinal t) () in
  foreach t (fun key v -> Gmr.add g key v);
  g

let free_slots t = Intvec.length t.recs.free

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
    s_live = cardinal t;
    s_free = free_slots t;
    s_hwm = t.recs.hwm;
    s_indexes = Array.length t.secs;
    s_load = Oaidx.load t.recs.idx;
    s_probe_hist = Oaidx.probe_hist t.recs.idx;
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
  g "live_slots" (float_of_int (cardinal t));
  g "free_slots" (float_of_int (free_slots t));
  g "load_factor" (Oaidx.load t.recs.idx)
