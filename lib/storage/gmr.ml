open Divm_ring

type t = {
  mutable keys : Vtuple.t array;
  mutable mults : float array; (* 0. marks a dead slot: live ones are >= eps *)
  mutable hs : int array; (* per-slot cached index hash: merges, [add_at] *)
  mutable hwm : int; (* high-water mark *)
  mutable count : int;
  free : Intvec.t;
  idx : Oaidx.t;
}

let zero_eps = Mult.zero_eps

(* [Mult.is_zero], restated so that it inlines: an opaque cross-module
   call would box its float argument on every upsert. *)
let is_zero m = Float.abs m < zero_eps

let create ?(size = 16) () =
  let cap = max 8 size in
  {
    keys = Array.make cap Vtuple.empty;
    mults = Array.make cap 0.;
    hs = Array.make cap 0;
    hwm = 0;
    count = 0;
    free = Intvec.create ();
    idx = Oaidx.create ~size ();
  }

let cardinal r = r.count
let is_empty r = r.count = 0

let grow r =
  let cap = Array.length r.keys in
  let nk = Array.make (2 * cap) Vtuple.empty in
  Array.blit r.keys 0 nk 0 cap;
  let nm = Array.make (2 * cap) 0. in
  Array.blit r.mults 0 nm 0 cap;
  let nh = Array.make (2 * cap) 0 in
  Array.blit r.hs 0 nh 0 cap;
  r.keys <- nk;
  r.mults <- nm;
  r.hs <- nh

let alloc_slot r =
  if Intvec.is_empty r.free then begin
    if r.hwm >= Array.length r.keys then grow r;
    let s = r.hwm in
    r.hwm <- r.hwm + 1;
    s
  end
  else Intvec.pop r.free

let drop_slot r s =
  Oaidx.remove_latched r.idx;
  r.mults.(s) <- 0.;
  r.keys.(s) <- Vtuple.empty;
  Intvec.push r.free s;
  r.count <- r.count - 1

(* The two halves of a single-probe upsert; both need the index bucket
   latched by the probe that found [s] or missed [key]. *)
let insert_latched r h key m =
  let s = alloc_slot r in
  r.keys.(s) <- key;
  r.mults.(s) <- m;
  r.hs.(s) <- h;
  Oaidx.add_latched r.idx h s;
  r.count <- r.count + 1;
  s

let[@inline] update_latched r s m =
  let m' = r.mults.(s) +. m in
  if is_zero m' then drop_slot r s else r.mults.(s) <- m'

(* Every add to a GMR or a pool runs through the two below; inlined, an
   update makes no call beyond the probe. [copy] implements the
   scratch-key protocol: a borrowed key buffer is only duplicated when it
   must be retained, i.e. on first insert. *)
let[@inline] upsert_slot ~copy r h key m =
  if is_zero m then -1
  else
    let s = Oaidx.find_latched r.idx r.keys h key in
    if s >= 0 then (update_latched r s m; s)
    else insert_latched r h (if copy then Array.copy key else key) m

let[@inline] upsert_slot_by r ~hash ~eq ~make m =
  if is_zero m then -1
  else
    let s = Oaidx.find_pred_latched r.idx r.keys hash eq in
    if s >= 0 then (update_latched r s m; s)
    else insert_latched r hash (make ()) m

(* Only a cancellation needs the bucket, so only it pays the probe. *)
let add_at r s m =
  if is_zero (r.mults.(s) +. m) then
    ignore (Oaidx.find_latched r.idx r.keys r.hs.(s) r.keys.(s));
  update_latched r s m

let slot_of r h key = Oaidx.find r.idx r.keys h key
let add r tup m = ignore (upsert_slot ~copy:false r (Oaidx.hash tup) tup m)
let add_borrow r tup m = ignore (upsert_slot ~copy:true r (Oaidx.hash tup) tup m)
let add_by r ~hash ~eq ~make m = ignore (upsert_slot_by r ~hash ~eq ~make m)

(* Visit entries together with their cached hashes, in slot order — the
   same order as [iter]. Bulk merges into another hash-indexed store skip
   re-hashing, and because slot order is insertion order, replaying a
   merge assigns destination slots deterministically (the serial and
   domain-parallel executors must converge on bit-identical stores). *)
let iter_hashed f r =
  let keys = r.keys and mults = r.mults and hs = r.hs in
  for s = 0 to r.hwm - 1 do
    let m = Array.unsafe_get mults s in
    if m <> 0. then
      f (Array.unsafe_get keys s) m (Array.unsafe_get hs s)
  done

let set r tup m =
  let h = Oaidx.hash tup in
  let s = Oaidx.find_latched r.idx r.keys h tup in
  if s >= 0 then begin
    if is_zero m then drop_slot r s else r.mults.(s) <- m
  end
  else if not (is_zero m) then ignore (insert_latched r h tup m)

let mult r tup =
  let s = slot_of r (Oaidx.hash tup) tup in
  if s >= 0 then r.mults.(s) else 0.

let mem r tup = slot_of r (Oaidx.hash tup) tup >= 0

let iter f r =
  for s = 0 to r.hwm - 1 do
    let m = Array.unsafe_get r.mults s in
    if m <> 0. then f (Array.unsafe_get r.keys s) m
  done

let fold f r acc =
  let acc = ref acc in
  iter (fun tup m -> acc := f tup m !acc) r;
  !acc

let copy r =
  {
    keys = Array.copy r.keys;
    mults = Array.copy r.mults;
    hs = Array.copy r.hs;
    hwm = r.hwm;
    count = r.count;
    free = Intvec.copy r.free;
    idx = Oaidx.copy r.idx;
  }

let clear r =
  for s = 0 to r.hwm - 1 do
    r.keys.(s) <- Vtuple.empty;
    r.mults.(s) <- 0.
  done;
  r.hwm <- 0;
  r.count <- 0;
  Intvec.clear r.free;
  Oaidx.clear r.idx

let union_into dst src = iter (fun tup m -> add dst tup m) src

let scale r c =
  let out = create ~size:(cardinal r) () in
  if not (is_zero c) then iter (fun tup m -> add out tup (m *. c)) r;
  out

let of_list l =
  let r = create ~size:(List.length l) () in
  List.iter (fun (tup, m) -> add r tup m) l;
  r

let to_list r = fold (fun tup m acc -> (tup, m) :: acc) r []

let to_sorted_list r =
  List.sort (fun (a, _) (b, _) -> Vtuple.compare a b) (to_list r)

let equal ?(eps = 1e-6) a b =
  cardinal a = cardinal b
  && fold (fun tup m ok -> ok && Float.abs (mult b tup -. m) <= eps) a true

let pp ppf r =
  Format.fprintf ppf "@[<v>{";
  List.iter
    (fun (tup, m) -> Format.fprintf ppf "@ %a -> %g;" Vtuple.pp tup m)
    (to_sorted_list r);
  Format.fprintf ppf "@ }@]"
