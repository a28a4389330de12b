open Divm_ring

type t = {
  mutable keys : Vtuple.t array;
  mutable mults : float array; (* 0. marks a dead slot: live ones are >= eps *)
  mutable hs : int array; (* per-slot cached index hash, for bulk merges *)
  mutable hwm : int; (* high-water mark *)
  mutable count : int;
  free : Intvec.t;
  idx : Oaidx.t;
}

let zero_eps = Mult.zero_eps
let is_zero = Mult.is_zero

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

(* Single-probe upsert. [copy] implements the scratch-key protocol: a
   borrowed key buffer is only duplicated when it must be retained, i.e.
   on first insert of that key. *)
let upsert_h ~copy r h tup m =
  if not (is_zero m) then begin
    let s = Oaidx.find_latched r.idx r.keys h tup in
    if s >= 0 then begin
      let m' = r.mults.(s) +. m in
      if is_zero m' then drop_slot r s else r.mults.(s) <- m'
    end
    else begin
      let s = alloc_slot r in
      r.keys.(s) <- (if copy then Array.copy tup else tup);
      r.mults.(s) <- m;
      r.hs.(s) <- h;
      Oaidx.add_latched r.idx h s;
      r.count <- r.count + 1
    end
  end

let upsert ~copy r tup m = upsert_h ~copy r (Oaidx.hash tup) tup m
let add r tup m = upsert ~copy:false r tup m
let add_borrow r tup m = upsert ~copy:true r tup m

(* Columnar upsert: the key exists only as typed cells on the producer's
   side. [eq] compares those cells against a stored tuple; [make]
   materializes the tuple, called only when this is the first insert. *)
let add_by r ~hash ~eq ~make m =
  if not (is_zero m) then begin
    let s = Oaidx.find_pred_latched r.idx r.keys hash eq in
    if s >= 0 then begin
      let m' = r.mults.(s) +. m in
      if is_zero m' then drop_slot r s else r.mults.(s) <- m'
    end
    else begin
      let s = alloc_slot r in
      r.keys.(s) <- make ();
      r.mults.(s) <- m;
      r.hs.(s) <- hash;
      Oaidx.add_latched r.idx hash s;
      r.count <- r.count + 1
    end
  end

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
  else if not (is_zero m) then begin
    let s = alloc_slot r in
    r.keys.(s) <- tup;
    r.mults.(s) <- m;
    r.hs.(s) <- h;
    Oaidx.add_latched r.idx h s;
    r.count <- r.count + 1
  end

let mult r tup =
  let s = Oaidx.find r.idx r.keys (Oaidx.hash tup) tup in
  if s >= 0 then r.mults.(s) else 0.

let mem r tup = Oaidx.find r.idx r.keys (Oaidx.hash tup) tup >= 0

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

let byte_size r = fold (fun tup _ acc -> acc + Vtuple.byte_size tup + 8) r 0

let pp ppf r =
  Format.fprintf ppf "@[<v>{";
  List.iter
    (fun (tup, m) -> Format.fprintf ppf "@ %a -> %g;" Vtuple.pp tup m)
    (to_sorted_list r);
  Format.fprintf ppf "@ }@]"
