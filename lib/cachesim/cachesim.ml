type cache = {
  line_bits : int;
  sets : int;
  ways : int;
  tags : int array; (* sets * ways, -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  mutable clock : int;
  mutable refs : int;
  mutable misses : int;
}

let cache ?(line = 64) ~sets ~ways () =
  let line_bits =
    let rec go b = if 1 lsl b >= line then b else go (b + 1) in
    go 0
  in
  {
    line_bits;
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    clock = 0;
    refs = 0;
    misses = 0;
  }

let access c addr =
  c.refs <- c.refs + 1;
  c.clock <- c.clock + 1;
  let block = addr lsr c.line_bits in
  let set = block mod c.sets in
  let base = set * c.ways in
  let hit = ref false in
  let victim = ref base in
  let oldest = ref max_int in
  for w = 0 to c.ways - 1 do
    let i = base + w in
    if c.tags.(i) = block then begin
      hit := true;
      c.stamps.(i) <- c.clock
    end
    else if c.stamps.(i) < !oldest then begin
      oldest := c.stamps.(i);
      victim := i
    end
  done;
  if not !hit then begin
    c.misses <- c.misses + 1;
    c.tags.(!victim) <- block;
    c.stamps.(!victim) <- c.clock
  end;
  !hit

let refs c = c.refs
let misses c = c.misses

let reset c =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.stamps 0 (Array.length c.stamps) 0;
  c.clock <- 0;
  c.refs <- 0;
  c.misses <- 0

type hierarchy = { l1d : cache; llc : cache }

(* 32 KiB / 8-way / 64 B = 64 sets; 15 MiB / 20-way / 64 B = 12288 sets. *)
let default_hierarchy () =
  { l1d = cache ~sets:64 ~ways:8 (); llc = cache ~sets:12288 ~ways:20 () }

let attach h =
  Divm_storage.Trace.set_sink
    (Some
       (fun addr _kind ->
         if not (access h.l1d addr) then ignore (access h.llc addr)));
  fun () -> Divm_storage.Trace.set_sink None

type counters = {
  l1d_refs : int;
  l1d_misses : int;
  llc_refs : int;
  llc_misses : int;
}

let counters h =
  {
    l1d_refs = refs h.l1d;
    l1d_misses = misses h.l1d;
    llc_refs = refs h.llc;
    llc_misses = misses h.llc;
  }
