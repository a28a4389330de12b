(* Per-statement attribution slots for the profiler (Divm.Profile).

   This lives below runtime/cluster so their compiled closures can charge
   work to a slot without depending on the report layer. Slots are
   resolved to dense integer ids once, at statement-compile time; the
   firing path does plain array additions — no string hashing, no
   Hashtbl, no allocation. *)

type row = {
  r_trigger : string;
  r_label : string;
  r_firings : int;
  r_ops : int;
  r_probes : int;
  r_misses : int;
  r_scanned : int;
  r_svscan : int;
  r_svsel : int;
  r_bytes : int;
  r_words : int; (* minor-heap words allocated while the slot ran *)
  r_wall : float;
}

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Structure-of-arrays keyed by slot id; grows geometrically. Slot ids
   are stable for the life of the process (compiled closures capture
   them), so [reset] zeroes the tallies but keeps registrations. *)
let cap = ref 0
let n = ref 0
let triggers = ref [||]
let labels = ref [||]
let firings = ref [||]
let ops = ref [||]
let probes = ref [||]
let misses = ref [||]
let scanned = ref [||]
let svscan = ref [||]
let svsel = ref [||]
let bytes = ref [||]
let words = ref [||]
let wall = ref [||]
let ids : (string * string, int) Hashtbl.t = Hashtbl.create 64

let grow () =
  let cap' = if !cap = 0 then 32 else 2 * !cap in
  let gi a = Array.append !a (Array.make (cap' - !cap) 0) in
  let gs a = Array.append !a (Array.make (cap' - !cap) "") in
  triggers := gs triggers;
  labels := gs labels;
  firings := gi firings;
  ops := gi ops;
  probes := gi probes;
  misses := gi misses;
  scanned := gi scanned;
  svscan := gi svscan;
  svsel := gi svsel;
  bytes := gi bytes;
  words := gi words;
  wall := Array.append !wall (Array.make (cap' - !cap) 0.);
  cap := cap'

let slot ~trigger ~label =
  match Hashtbl.find_opt ids (trigger, label) with
  | Some id -> id
  | None ->
      if !n >= !cap then grow ();
      let id = !n in
      incr n;
      !triggers.(id) <- trigger;
      !labels.(id) <- label;
      Hashtbl.replace ids (trigger, label) id;
      id

let add id ~ops:o ~probes:p ~misses:m ~scanned:s ~svscan:v ~svsel:e ~bytes:b
    ~words:mw ~wall:w =
  let fa = !firings and oa = !ops and pa = !probes in
  let ma = !misses and sa = !scanned and ba = !bytes and wa = !wall in
  let va = !svscan and ea = !svsel and wda = !words in
  Array.unsafe_set fa id (Array.unsafe_get fa id + 1);
  Array.unsafe_set oa id (Array.unsafe_get oa id + o);
  Array.unsafe_set pa id (Array.unsafe_get pa id + p);
  Array.unsafe_set ma id (Array.unsafe_get ma id + m);
  Array.unsafe_set sa id (Array.unsafe_get sa id + s);
  Array.unsafe_set va id (Array.unsafe_get va id + v);
  Array.unsafe_set ea id (Array.unsafe_get ea id + e);
  Array.unsafe_set ba id (Array.unsafe_get ba id + b);
  Array.unsafe_set wda id (Array.unsafe_get wda id + mw);
  Array.unsafe_set wa id (Array.unsafe_get wa id +. w)

(* Fold a whole row (e.g. a worker process's slot delta shipped over the
   wire) into the slot registered under (trigger, label) — unlike [add]
   this carries the source's firing count instead of charging one. *)
let merge ~trigger ~label (r : row) =
  let id = slot ~trigger ~label in
  !firings.(id) <- !firings.(id) + r.r_firings;
  !ops.(id) <- !ops.(id) + r.r_ops;
  !probes.(id) <- !probes.(id) + r.r_probes;
  !misses.(id) <- !misses.(id) + r.r_misses;
  !scanned.(id) <- !scanned.(id) + r.r_scanned;
  !svscan.(id) <- !svscan.(id) + r.r_svscan;
  !svsel.(id) <- !svsel.(id) + r.r_svsel;
  !bytes.(id) <- !bytes.(id) + r.r_bytes;
  !words.(id) <- !words.(id) + r.r_words;
  !wall.(id) <- !wall.(id) +. r.r_wall

let rows () =
  List.init !n (fun id ->
      {
        r_trigger = !triggers.(id);
        r_label = !labels.(id);
        r_firings = !firings.(id);
        r_ops = !ops.(id);
        r_probes = !probes.(id);
        r_misses = !misses.(id);
        r_scanned = !scanned.(id);
        r_svscan = !svscan.(id);
        r_svsel = !svsel.(id);
        r_bytes = !bytes.(id);
        r_words = !words.(id);
        r_wall = !wall.(id);
      })

let reset () =
  Array.fill !firings 0 !cap 0;
  Array.fill !ops 0 !cap 0;
  Array.fill !probes 0 !cap 0;
  Array.fill !misses 0 !cap 0;
  Array.fill !scanned 0 !cap 0;
  Array.fill !svscan 0 !cap 0;
  Array.fill !svsel 0 !cap 0;
  Array.fill !bytes 0 !cap 0;
  Array.fill !words 0 !cap 0;
  Array.fill !wall 0 !cap 0.
