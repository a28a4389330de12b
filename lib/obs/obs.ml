(* Global metrics registry + span tracer. Counters and gauges are
   domain-safe (see the contract in obs.mli): counters are striped into
   per-domain shards so the hot increment stays a plain store into a cell
   this domain owns exclusively, and reads sum the shards. Histograms and
   the span tracer remain single-writer. *)

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)
(* ------------------------------------------------------------------ *)

(* Dense stripe ids: the first time a domain touches any counter it draws
   the next id, so shard arrays stay as small as the number of domains
   that ever counted anything. *)
let stripe_next = Atomic.make 0

let stripe_key =
  Domain.DLS.new_key (fun () -> Atomic.fetch_and_add stripe_next 1)

(* One shard is an 8-word int array with only slot 0 used: the padding
   keeps neighbouring domains' cells off each other's cache lines. *)
let shard_pad = 8
let new_shard () = Array.make shard_pad 0

(* Shard-array growth is rare (once per counter per new domain); one
   process-wide lock is plenty. Publication of the grown outer array goes
   through the [Atomic.t] so a domain that observes the new array also
   observes its fully-initialized contents; old shards are carried over by
   reference, never copied by value, so no concurrent increment is lost. *)
let grow_lock = Mutex.create ()

type counter = { c_name : string; c_shards : int array array Atomic.t }
type gauge = { g_name : string; g : float Atomic.t }

type hist = {
  h_name : string;
  h_buckets : float array; (* ascending upper bounds *)
  h_counts : int array; (* length = buckets + 1 (+inf) *)
  mutable h_sum : float;
  mutable h_count : int;
}

type instrument = ICounter of counter | IGauge of gauge | IHist of hist

(* Registration order matters for human-readable dumps. The lock makes
   registration safe from any domain, though in practice instruments are
   created at module-init or program-load time on the main domain. *)
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []
let registry_lock = Mutex.create ()

let register_instrument name i =
  Mutex.lock registry_lock;
  let r =
    match Hashtbl.find_opt registry name with
    | Some existing -> existing
    | None ->
        Hashtbl.replace registry name i;
        order := name :: !order;
        i
  in
  Mutex.unlock registry_lock;
  r

module Counter = struct
  type t = counter

  let fresh name = { c_name = name; c_shards = Atomic.make [| new_shard () |] }

  let make ?(register = true) name =
    if not register then fresh name
    else
      match register_instrument name (ICounter (fresh name)) with
      | ICounter c -> c
      | _ -> invalid_arg ("Obs.Counter.make: " ^ name ^ " is not a counter")

  (* Slow path: extend the outer array with fresh shards so stripe [sid]
     has a cell. Existing shard objects are shared between the old and new
     outer arrays, so domains still holding the old array keep writing to
     live cells. *)
  let grow t sid =
    Mutex.lock grow_lock;
    let a = Atomic.get t.c_shards in
    let n = Array.length a in
    let r =
      if sid < n then a.(sid)
      else begin
        let n' = max (sid + 1) (2 * n) in
        let a' =
          Array.init n' (fun i -> if i < n then a.(i) else new_shard ())
        in
        Atomic.set t.c_shards a';
        a'.(sid)
      end
    in
    Mutex.unlock grow_lock;
    r

  let[@inline] shard t =
    let sid = Domain.DLS.get stripe_key in
    let a = Atomic.get t.c_shards in
    if sid < Array.length a then Array.unsafe_get a sid else grow t sid

  let[@inline] incr t =
    let s = shard t in
    s.(0) <- s.(0) + 1

  let[@inline] add t n =
    let s = shard t in
    s.(0) <- s.(0) + n

  let value t =
    let a = Atomic.get t.c_shards in
    let acc = ref 0 in
    Array.iter (fun s -> acc := !acc + s.(0)) a;
    !acc

  let reset t = Array.iter (fun s -> s.(0) <- 0) (Atomic.get t.c_shards)
  let name t = t.c_name
end

module Gauge = struct
  type t = gauge

  let fresh name = { g_name = name; g = Atomic.make 0. }

  let make ?(register = true) name =
    if not register then fresh name
    else
      match register_instrument name (IGauge (fresh name)) with
      | IGauge g -> g
      | _ -> invalid_arg ("Obs.Gauge.make: " ^ name ^ " is not a gauge")

  let[@inline] set t v = Atomic.set t.g v
  let value t = Atomic.get t.g
end

module Histogram = struct
  type t = hist

  (* 100µs .. 100s, one bucket per decade third. *)
  let default_buckets =
    Array.init 19 (fun i -> 1e-4 *. (10. ** (float_of_int i /. 3.)))

  let make ?(register = true) ?(buckets = default_buckets) name =
    let fresh () =
      {
        h_name = name;
        h_buckets = buckets;
        h_counts = Array.make (Array.length buckets + 1) 0;
        h_sum = 0.;
        h_count = 0;
      }
    in
    if not register then fresh ()
    else
      match register_instrument name (IHist (fresh ())) with
      | IHist h -> h
      | _ -> invalid_arg ("Obs.Histogram.make: " ^ name ^ " is not a histogram")

  let observe t v =
    let n = Array.length t.h_buckets in
    let rec slot i = if i >= n || v <= t.h_buckets.(i) then i else slot (i + 1) in
    let i = slot 0 in
    t.h_counts.(i) <- t.h_counts.(i) + 1;
    t.h_sum <- t.h_sum +. v;
    t.h_count <- t.h_count + 1

  let count t = t.h_count
  let sum t = t.h_sum

  (* Shared with the snapshot exporters, which carry the same arrays. *)
  let percentile_of ~buckets ~counts ~count p =
    if count <= 0 then Float.nan
    else begin
      let n = Array.length buckets in
      let rank = p /. 100. *. float_of_int count in
      let res = ref Float.nan in
      let cum = ref 0 in
      (try
         for i = 0 to n do
           let c = counts.(i) in
           if c > 0 && float_of_int (!cum + c) >= rank then begin
             (if i >= n then
                (* +Inf bucket: no finite upper bound to interpolate
                   towards; report the largest finite bound *)
                res := (if n = 0 then Float.nan else buckets.(n - 1))
              else
                let lo = if i = 0 then 0. else buckets.(i - 1) in
                let hi = buckets.(i) in
                let frac =
                  Float.max 0. (rank -. float_of_int !cum) /. float_of_int c
                in
                res := lo +. (frac *. (hi -. lo)));
             raise Exit
           end;
           cum := !cum + c
         done
       with Exit -> ());
      !res
    end

  let percentile t p =
    percentile_of ~buckets:t.h_buckets ~counts:t.h_counts ~count:t.h_count p
end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type value =
  | VCounter of int
  | VGauge of float
  | VHistogram of {
      buckets : float array;
      counts : int array;
      sum : float;
      count : int;
    }

type snapshot = (string * value) list

let snapshot () =
  List.rev_map
    (fun name ->
      let v =
        match Hashtbl.find registry name with
        | ICounter c -> VCounter (Counter.value c)
        | IGauge g -> VGauge (Gauge.value g)
        | IHist h ->
            VHistogram
              {
                buckets = h.h_buckets;
                counts = Array.copy h.h_counts;
                sum = h.h_sum;
                count = h.h_count;
              }
      in
      (name, v))
    !order

let diff ~later ~earlier =
  List.map
    (fun (name, v) ->
      match (v, List.assoc_opt name earlier) with
      | VCounter a, Some (VCounter b) -> (name, VCounter (a - b))
      | VHistogram a, Some (VHistogram b) ->
          if a.buckets = b.buckets then
            ( name,
              VHistogram
                {
                  a with
                  counts = Array.mapi (fun i c -> c - b.counts.(i)) a.counts;
                  sum = a.sum -. b.sum;
                  count = a.count - b.count;
                } )
          else
            (* Bucket layout changed between the snapshots, so per-bucket
               deltas are meaningless: zero them and subtract only the
               scalar moments, which remain well-defined. *)
            ( name,
              VHistogram
                {
                  a with
                  counts = Array.make (Array.length a.counts) 0;
                  sum = a.sum -. b.sum;
                  count = a.count - b.count;
                } )
      | _ -> (name, v))
    later

let find snap name = List.assoc_opt name snap

let counter_value snap name =
  match find snap name with Some (VCounter c) -> c | _ -> 0

(* ------------------------------------------------------------------ *)
(* Remote collection (multi-process telemetry)                         *)
(* ------------------------------------------------------------------ *)

(* Whether a distributed engine should pull telemetry frames from its
   worker processes. Off by default so the hot path and the wire stay
   untouched unless some consumer (metrics/trace/profile/listen) wants
   the merged view. *)
let collection_flag = ref false
let set_collection b = collection_flag := b
let collection () = !collection_flag

(* "name{a="1"}" + [("worker","2")] -> "name{a="1",worker="2"}". Label
   values are escaped like Prometheus expects (backslash, quote, LF). *)
let with_labels name labels =
  if labels = [] then name
  else begin
    let esc v =
      let buf = Buffer.create (String.length v) in
      String.iter
        (fun c ->
          match c with
          | '\\' -> Buffer.add_string buf "\\\\"
          | '"' -> Buffer.add_string buf "\\\""
          | '\n' -> Buffer.add_string buf "\\n"
          | c -> Buffer.add_char buf c)
        v;
      Buffer.contents buf
    in
    let lbls =
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (esc v)) labels)
    in
    match String.index_opt name '{' with
    | Some i ->
        (* merge into the existing label set, before the closing brace *)
        let n = String.length name in
        if n > 0 && name.[n - 1] = '}' then
          String.sub name 0 (n - 1)
          ^ (if n - 1 > i + 1 then "," else "")
          ^ lbls ^ "}"
        else String.sub name 0 i ^ "{" ^ lbls ^ "}"
    | None -> name ^ "{" ^ lbls ^ "}"
  end

let base_of name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Fold a (delta) snapshot from another process into this registry under
   per-source labels. Counters add, gauges take the incoming value,
   histograms merge bucket-wise when the layouts agree (and always merge
   the scalar moments). Instruments are created on first sight, keyed by
   the labeled name, so successive ingests accumulate. *)
let ingest ~labels snap =
  List.iter
    (fun (name, v) ->
      let lname = with_labels name labels in
      match v with
      | VCounter c -> Counter.add (Counter.make lname) c
      | VGauge g -> Gauge.set (Gauge.make lname) g
      | VHistogram h ->
          let dst = Histogram.make ~buckets:h.buckets lname in
          if dst.h_buckets = h.buckets
             && Array.length dst.h_counts = Array.length h.counts
          then
            Array.iteri
              (fun i c -> dst.h_counts.(i) <- dst.h_counts.(i) + c)
              h.counts;
          dst.h_sum <- dst.h_sum +. h.sum;
          dst.h_count <- dst.h_count + h.count)
    snap

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* Split "name{labels}" so bucket suffixes land before the label set. *)
let base_and_labels name =
  match String.index_opt name '{' with
  | Some i ->
      ( String.sub name 0 i,
        Some (String.sub name i (String.length name - i)) )
  | None -> (name, None)

let to_text snap =
  let buf = Buffer.create 1024 in
  (* one TYPE line per metric family: labeled instruments of the same base
     name share it *)
  let typed = Hashtbl.create 16 in
  let type_line base kind =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.add typed base ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun (name, v) ->
      let base, labels = base_and_labels name in
      let lbl = match labels with Some l -> l | None -> "" in
      match v with
      | VCounter c ->
          type_line base "counter";
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" base lbl c)
      | VGauge g ->
          type_line base "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" base lbl (fmt_float g))
      | VHistogram h ->
          type_line base "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i < Array.length h.buckets then fmt_float h.buckets.(i)
                else "+Inf"
              in
              if c > 0 || i = Array.length h.buckets then
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" base le !cum))
            h.counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n%s_count %d\n" base (fmt_float h.sum)
               base h.count);
          if h.count > 0 then begin
            let q p =
              Histogram.percentile_of ~buckets:h.buckets ~counts:h.counts
                ~count:h.count p
            in
            Buffer.add_string buf
              (Printf.sprintf "# %s%s p50=%s p95=%s p99=%s p999=%s\n" base lbl
                 (fmt_float (q 50.)) (fmt_float (q 95.)) (fmt_float (q 99.))
                 (fmt_float (q 99.9)))
          end)
    snap;
  Buffer.contents buf

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

(* Round-trip-exact float literal: histogram sums (and anything else a
   remote merge must reconcile bit-exactly against) export with the full
   17 significant digits, not a display rounding. *)
let json_float_exact f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_json snap =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (json_string name);
      Buffer.add_string buf ":";
      match v with
      | VCounter c ->
          Buffer.add_string buf
            (Printf.sprintf "{\"type\":\"counter\",\"value\":%d}" c)
      | VGauge g ->
          Buffer.add_string buf
            (Printf.sprintf "{\"type\":\"gauge\",\"value\":%s}" (json_float g))
      | VHistogram h ->
          Buffer.add_string buf "{\"type\":\"histogram\",\"buckets\":[";
          Array.iteri
            (fun j b ->
              if j > 0 then Buffer.add_string buf ",";
              Buffer.add_string buf (json_float b))
            h.buckets;
          Buffer.add_string buf "],\"counts\":[";
          Array.iteri
            (fun j c ->
              if j > 0 then Buffer.add_string buf ",";
              Buffer.add_string buf (string_of_int c))
            h.counts;
          let q p =
            Histogram.percentile_of ~buckets:h.buckets ~counts:h.counts
              ~count:h.count p
          in
          Buffer.add_string buf
            (Printf.sprintf
               "],\"sum\":%s,\"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"p999\":%s}"
               (json_float_exact h.sum) h.count
               (json_float (q 50.))
               (json_float (q 95.))
               (json_float (q 99.))
               (json_float (q 99.9))))
    snap;
  Buffer.add_string buf "}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Span tracing                                                        *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_name : string;
  ev_start : float;
  ev_dur : float;
  ev_depth : int;
  ev_attrs : (string * string) list;
}

type open_span = {
  os_name : string;
  os_start : float;
  os_depth : int;
  mutable os_attrs : (string * string) list; (* reversed *)
}

let tracing_on = ref false
let stack : open_span list ref = ref []
let completed : event list ref = ref []

let tracing () = !tracing_on

let set_tracing b =
  tracing_on := b;
  if not b then stack := []

let events () = List.rev !completed
let open_spans () = List.length !stack

(* Spans collected from other processes, keyed by the Chrome-trace pid
   they will export under. Events keep their source clock; the per-pid
   [offset] (source_clock - local_clock, estimated by whoever merged
   them) is applied uniformly at export time, so re-estimating the offset
   mid-run can never reorder a process's own timeline. *)
type remote_proc = {
  rp_name : string;
  mutable rp_offset : float;
  mutable rp_events : event list; (* reversed (newest first) *)
}

let remote : (int * remote_proc) list ref = ref []

let add_remote_events ~pid ~pname ~offset evs =
  let p =
    match List.assoc_opt pid !remote with
    | Some p -> p
    | None ->
        let p = { rp_name = pname; rp_offset = offset; rp_events = [] } in
        remote := !remote @ [ (pid, p) ];
        p
  in
  p.rp_offset <- offset;
  p.rp_events <- List.rev_append evs p.rp_events

let remote_events () =
  List.map
    (fun (pid, p) -> (pid, p.rp_name, p.rp_offset, List.rev p.rp_events))
    !remote

let clear_events () =
  completed := [];
  stack := [];
  remote := []

let set_attr key v =
  match !stack with
  | s :: _ -> s.os_attrs <- (key, v) :: s.os_attrs
  | [] -> ()

let span ?(attrs = []) name f =
  if not !tracing_on then f ()
  else begin
    let s =
      {
        os_name = name;
        os_start = Unix.gettimeofday ();
        os_depth = List.length !stack;
        os_attrs = List.rev attrs;
      }
    in
    stack := s :: !stack;
    let close () =
      let t1 = Unix.gettimeofday () in
      (match !stack with
      | x :: tl when x == s -> stack := tl
      | _ ->
          (* a nested span leaked (e.g. exception swallowed between
             pushes); drop down to this frame *)
          let rec pop = function
            | x :: tl -> if x == s then tl else pop tl
            | [] -> []
          in
          stack := pop !stack);
      completed :=
        {
          ev_name = s.os_name;
          ev_start = s.os_start;
          ev_dur = t1 -. s.os_start;
          ev_depth = s.os_depth;
          ev_attrs = List.rev s.os_attrs;
        }
        :: !completed
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Merged timeline: local spans under pid 1, each remote process under
   its own pid with its clock offset subtracted, so coordinator and
   worker spans line up on one corrected axis. Process-name metadata
   events are only emitted when the trace actually spans processes. *)
let chrome_trace_json () =
  let evs = events () in
  let rem = remote_events () in
  let t0 =
    let min_of acc off l =
      List.fold_left (fun acc e -> Float.min acc (e.ev_start -. off)) acc l
    in
    let seed =
      match (evs, rem) with
      | e :: _, _ -> e.ev_start
      | [], (_, _, off, e :: _) :: _ -> e.ev_start -. off
      | [], _ -> 0.
    in
    List.fold_left
      (fun acc (_, _, off, l) -> min_of acc off l)
      (min_of seed 0. evs) rem
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string buf "," in
  let emit_meta pid pname =
    sep ();
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}"
         pid (json_string pname))
  in
  let emit_event pid off e =
    sep ();
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":%s,\"cat\":\"divm\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1"
         (json_string e.ev_name)
         ((e.ev_start -. off -. t0) *. 1e6)
         (e.ev_dur *. 1e6)
         pid);
    (match e.ev_attrs with
    | [] -> ()
    | attrs ->
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ",";
            Buffer.add_string buf (json_string k);
            Buffer.add_string buf ":";
            Buffer.add_string buf (json_string v))
          attrs;
        Buffer.add_string buf "}");
    Buffer.add_string buf "}"
  in
  if rem <> [] then emit_meta 1 "coordinator";
  List.iter (emit_event 1 0.) evs;
  List.iter
    (fun (pid, pname, off, l) ->
      emit_meta pid pname;
      List.iter (emit_event pid off) l)
    rem;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write_chrome_trace path =
  let oc = open_out path in
  output_string oc (chrome_trace_json ());
  close_out oc
