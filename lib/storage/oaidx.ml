open Divm_ring

type t = {
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable hashes : int array; (* cached key hashes; 0 marks an empty bucket *)
  mutable slots : int array; (* slot id stored alongside each hash *)
  mutable count : int;
  mutable last : int; (* bucket latched by the most recent [find] *)
}

let rec pow2_above c n = if c >= n then c else pow2_above (c * 2) n

let create ?(size = 16) () =
  let cap = pow2_above 16 (2 * size) in
  {
    mask = cap - 1;
    hashes = Array.make cap 0;
    slots = Array.make cap 0;
    count = 0;
    last = 0;
  }

(* Finalize [Vtuple.hash] (a multiplicative fold with little high-bit
   diffusion) so that low bits — the only ones the mask keeps — depend on
   every key field. The multiplier is the xorshift* constant, the largest
   odd mixing constant that fits in a 63-bit OCaml int. Never returns 0,
   which is reserved for empty buckets. *)
let finalize h =
  let h = h lxor (h lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  if h = 0 then 0x2545F491 else h

let hash (k : Vtuple.t) = finalize (Vtuple.hash k)

(* Side-effect-free probe: safe for concurrent readers of a shared table
   (the parallel batch executor probes store pools from many domains).
   Write paths use [find_latched], which additionally records the bucket
   where the probe ended for the follow-up [add_latched]/[remove_latched]. *)
let find t (keys : Vtuple.t array) h (k : Vtuple.t) =
  let mask = t.mask in
  let hashes = t.hashes and slots = t.slots in
  let i = ref (h land mask) in
  let res = ref (-2) in
  while !res = -2 do
    let hb = Array.unsafe_get hashes !i in
    if hb = 0 then res := -1
    else if
      hb = h
      && Vtuple.equal (Array.unsafe_get keys (Array.unsafe_get slots !i)) k
    then res := Array.unsafe_get slots !i
    else i := (!i + 1) land mask
  done;
  !res

let find_latched t (keys : Vtuple.t array) h (k : Vtuple.t) =
  let mask = t.mask in
  let hashes = t.hashes and slots = t.slots in
  let i = ref (h land mask) in
  let res = ref (-2) in
  while !res = -2 do
    let hb = Array.unsafe_get hashes !i in
    if hb = 0 then res := -1
    else if
      hb = h
      && Vtuple.equal (Array.unsafe_get keys (Array.unsafe_get slots !i)) k
    then res := Array.unsafe_get slots !i
    else i := (!i + 1) land mask
  done;
  t.last <- !i;
  !res

(* [find_latched] with a caller-supplied equality on the stored key —
   lets columnar producers compare typed cells against stored tuples
   without materializing the probe key. *)
let find_pred_latched t (keys : Vtuple.t array) h eq =
  let mask = t.mask in
  let hashes = t.hashes and slots = t.slots in
  let i = ref (h land mask) in
  let res = ref (-2) in
  while !res = -2 do
    let hb = Array.unsafe_get hashes !i in
    if hb = 0 then res := -1
    else if
      hb = h && eq (Array.unsafe_get keys (Array.unsafe_get slots !i))
    then res := Array.unsafe_get slots !i
    else i := (!i + 1) land mask
  done;
  t.last <- !i;
  !res

let grow t =
  let cap = (t.mask + 1) * 2 in
  let nmask = cap - 1 in
  let nh = Array.make cap 0 and ns = Array.make cap 0 in
  let oh = t.hashes and os = t.slots in
  for i = 0 to t.mask do
    let h = Array.unsafe_get oh i in
    if h <> 0 then begin
      (* keys are unique, so finding the first empty bucket suffices *)
      let j = ref (h land nmask) in
      while Array.unsafe_get nh !j <> 0 do
        j := (!j + 1) land nmask
      done;
      Array.unsafe_set nh !j h;
      Array.unsafe_set ns !j (Array.unsafe_get os i)
    end
  done;
  t.hashes <- nh;
  t.slots <- ns;
  t.mask <- nmask

let add_latched t h slot =
  (* keep load factor <= 1/2 so probe chains stay short and the find/grow
     loops always terminate *)
  if 2 * (t.count + 1) > t.mask + 1 then begin
    grow t;
    let mask = t.mask in
    let hashes = t.hashes in
    let i = ref (h land mask) in
    while Array.unsafe_get hashes !i <> 0 do
      i := (!i + 1) land mask
    done;
    t.last <- !i
  end;
  t.hashes.(t.last) <- h;
  t.slots.(t.last) <- slot;
  t.count <- t.count + 1

let remove_latched t =
  (* Tombstone-free backward-shift deletion: walk the probe chain after
     the hole and pull back every entry whose home bucket lies at or
     before the hole, until the chain ends. *)
  let mask = t.mask in
  let hashes = t.hashes and slots = t.slots in
  let i = ref t.last in
  let j = ref ((t.last + 1) land mask) in
  let running = ref true in
  while !running do
    let h = Array.unsafe_get hashes !j in
    if h = 0 then begin
      Array.unsafe_set hashes !i 0;
      running := false
    end
    else begin
      let home = h land mask in
      if (!j - home) land mask >= (!j - !i) land mask then begin
        Array.unsafe_set hashes !i h;
        Array.unsafe_set slots !i (Array.unsafe_get slots !j);
        i := !j
      end;
      j := (!j + 1) land mask
    end
  done;
  t.count <- t.count - 1

let clear t =
  let cap = t.mask + 1 in
  (* Reused scratch tables alternate between one large evaluation and many
     tiny ones; a full-width fill would then dominate every tiny reuse, so
     shrink when the table is nearly empty for its footprint. Tables that
     are genuinely full (grow leaves load > 1/4) never shrink. *)
  if cap > 1024 && 8 * t.count < cap then begin
    let cap' = pow2_above 16 (2 * t.count) in
    t.mask <- cap' - 1;
    t.hashes <- Array.make cap' 0;
    t.slots <- Array.make cap' 0
  end
  else Array.fill t.hashes 0 cap 0;
  t.count <- 0

(* On-demand self-metrics: the find/add hot paths carry no instrumentation,
   so the stats walk the table instead. Displacement from the home bucket
   is exactly the probe count a successful lookup of that entry pays. *)
let load t = float_of_int t.count /. float_of_int (t.mask + 1)

let probe_hist ?(max_len = 16) t =
  let h = Array.make (max_len + 1) 0 in
  for i = 0 to t.mask do
    let hb = t.hashes.(i) in
    if hb <> 0 then begin
      let d = (i - (hb land t.mask)) land t.mask in
      let d = if d > max_len then max_len else d in
      h.(d) <- h.(d) + 1
    end
  done;
  h

let copy t =
  {
    mask = t.mask;
    hashes = Array.copy t.hashes;
    slots = Array.copy t.slots;
    count = t.count;
    last = t.last;
  }
