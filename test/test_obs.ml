(* Observability layer: metrics registry, span tracer, exporters, and
   their integration with the runtime and the cluster simulator. *)

open Divm_ring
open Divm_storage
open Divm_calc.Calc
open Divm_compiler
open Divm_runtime
module Obs = Divm_obs.Obs
module Workload = Divm_workload.Workload

let i x = Value.Int x
let va = Schema.var "A"
let vb = Schema.var "B"
let vc = Schema.var "C"
let streams_rs = [ ("R", [ va; vb ]); ("S", [ vb; vc ]) ]
let q_join = sum [ vb ] (prod [ rel "R" [ va; vb ]; rel "S" [ vb; vc ] ])
let mk2 l = Gmr.of_list (List.map (fun (a, b, m) -> ([| i a; i b |], m)) l)

let reset_tracer () =
  Obs.set_tracing false;
  Obs.clear_events ()

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go k = k + n <= m && (String.sub s k n = affix || go (k + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Instruments and snapshots                                           *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge_histogram () =
  let c = Obs.Counter.make "test_obs_counter_total" in
  Obs.Counter.reset c;
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "counter" 42 (Obs.Counter.value c);
  let c' = Obs.Counter.make "test_obs_counter_total" in
  Alcotest.(check int) "re-make returns same instrument" 42
    (Obs.Counter.value c');
  let g = Obs.Gauge.make "test_obs_gauge" in
  Obs.Gauge.set g 2.5;
  Alcotest.(check (float 0.)) "gauge" 2.5 (Obs.Gauge.value g);
  let h = Obs.Histogram.make "test_obs_hist" in
  Obs.Histogram.observe h 0.001;
  Obs.Histogram.observe h 0.01;
  Alcotest.(check int) "hist count" 2 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "hist sum" 0.011 (Obs.Histogram.sum h)

let test_snapshot_diff () =
  let c = Obs.Counter.make "test_obs_diff_total" in
  Obs.Counter.reset c;
  Obs.Counter.add c 5;
  let earlier = Obs.snapshot () in
  Obs.Counter.add c 7;
  let later = Obs.snapshot () in
  Alcotest.(check int) "snapshot sees counter" 12
    (Obs.counter_value later "test_obs_diff_total");
  let d = Obs.diff ~later ~earlier in
  Alcotest.(check int) "diff is the delta" 7
    (Obs.counter_value d "test_obs_diff_total")

let test_exporters_parse () =
  let c = Obs.Counter.make "test_obs_export_total" in
  Obs.Counter.reset c;
  Obs.Counter.add c 3;
  let snap = Obs.snapshot () in
  let text = Obs.to_text snap in
  Alcotest.(check bool) "text has TYPE line" true
    (contains ~affix:"# TYPE test_obs_export_total counter" text);
  Alcotest.(check bool) "text has sample line" true
    (contains ~affix:"test_obs_export_total 3" text);
  (* the JSON exporters emit only controlled characters: brace balance is a
     sufficient well-formedness check without a JSON dependency *)
  let balanced s =
    let depth = ref 0 and ok = ref true and in_str = ref false in
    String.iteri
      (fun k ch ->
        if !in_str then begin
          if ch = '"' && s.[k - 1] <> '\\' then in_str := false
        end
        else
          match ch with
          | '"' -> in_str := true
          | '{' | '[' -> incr depth
          | '}' | ']' ->
              decr depth;
              if !depth < 0 then ok := false
          | _ -> ())
      s;
    !ok && !depth = 0 && not !in_str
  in
  let json = Obs.to_json snap in
  Alcotest.(check bool) "metrics JSON balanced" true (balanced json);
  Alcotest.(check bool) "metrics JSON is an object" true
    (String.length json >= 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  reset_tracer ();
  Obs.set_tracing true;
  Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> ()));
  let trace = Obs.chrome_trace_json () in
  reset_tracer ();
  Alcotest.(check bool) "chrome trace balanced" true (balanced trace);
  Alcotest.(check bool) "chrome trace has events key" true
    (contains ~affix:"\"traceEvents\"" trace);
  Alcotest.(check bool) "chrome trace has complete events" true
    (contains ~affix:"\"ph\":\"X\"" trace)

let test_percentiles () =
  (* observations 5,15,15,35 into buckets (0,10],(10,20],(20,40],+inf *)
  let buckets = [| 10.; 20.; 40. |] and counts = [| 1; 2; 1; 0 |] in
  let q p = Obs.Histogram.percentile_of ~buckets ~counts ~count:4 p in
  Alcotest.(check (float 1e-9)) "p25 tops out the first bucket" 10. (q 25.);
  Alcotest.(check (float 1e-9)) "p50 interpolates mid-bucket" 15. (q 50.);
  Alcotest.(check (float 1e-9)) "p100 is the max bound hit" 40. (q 100.);
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan
       (Obs.Histogram.percentile_of ~buckets ~counts:[| 0; 0; 0; 0 |] ~count:0
          50.));
  (* everything in the +inf bucket: report the largest finite bound *)
  Alcotest.(check (float 1e-9)) "+inf bucket clamps to last bound" 40.
    (Obs.Histogram.percentile_of ~buckets ~counts:[| 0; 0; 0; 3 |] ~count:3 99.);
  let h = Obs.Histogram.make ~register:false ~buckets "test_obs_pct" in
  List.iter (Obs.Histogram.observe h) [ 5.; 15.; 15.; 35. ];
  Alcotest.(check (float 1e-9)) "instrument percentile agrees" 15.
    (Obs.Histogram.percentile h 50.);
  (* the JSON exporter reports the same estimates *)
  let h' = Obs.Histogram.make ~buckets "test_obs_pct_reg" in
  List.iter (Obs.Histogram.observe h') [ 5.; 15.; 15.; 35. ];
  let json = Obs.to_json (Obs.snapshot ()) in
  Alcotest.(check bool) "to_json includes p50" true
    (contains ~affix:"\"p50\":" json && contains ~affix:"\"p99\":" json)

let test_diff_bucket_mismatch () =
  let mk buckets counts sum count =
    Obs.VHistogram { buckets; counts; sum; count }
  in
  (* same bounds: per-bucket subtraction *)
  let earlier = [ ("h", mk [| 1.; 2. |] [| 1; 0; 0 |] 0.5 1) ] in
  let later = [ ("h", mk [| 1.; 2. |] [| 2; 1; 0 |] 3.5 3) ] in
  (match Obs.find (Obs.diff ~later ~earlier) "h" with
  | Some (Obs.VHistogram d) ->
      Alcotest.(check (array int)) "bucket deltas" [| 1; 1; 0 |] d.counts;
      Alcotest.(check (float 1e-9)) "sum delta" 3.0 d.sum;
      Alcotest.(check int) "count delta" 2 d.count
  | _ -> Alcotest.fail "histogram missing from diff");
  (* changed bounds: bucket deltas are meaningless — zeroed, sum/count
     still subtracted (the documented fallback, not silent absolutes) *)
  let later' = [ ("h", mk [| 1.; 3. |] [| 2; 1; 0 |] 3.5 3) ] in
  match Obs.find (Obs.diff ~later:later' ~earlier) "h" with
  | Some (Obs.VHistogram d) ->
      Alcotest.(check (array int)) "mismatched buckets zeroed" [| 0; 0; 0 |]
        d.counts;
      Alcotest.(check (float 1e-9)) "sum still subtracted" 3.0 d.sum;
      Alcotest.(check int) "count still subtracted" 2 d.count;
      Alcotest.(check bool) "keeps later's bounds" true
        (d.buckets = [| 1.; 3. |])
  | _ -> Alcotest.fail "histogram missing from mismatched diff"

(* Both exporters carry a p999 estimate, and the JSON sum is printed
   with full 17-digit precision so a remote reconciliation can compare
   it bit-exactly after a parse round-trip. *)
let test_p999_and_sum_precision () =
  let buckets = [| 0.001; 0.01; 0.1; 1.0 |] in
  let h = Obs.Histogram.make ~buckets "test_obs_p999" in
  (* 0.1 + 0.2 is the canonical float whose %.9g rendering is lossy *)
  Obs.Histogram.observe h 0.1;
  Obs.Histogram.observe h 0.2;
  let snap = Obs.snapshot () in
  let text = Obs.to_text snap in
  Alcotest.(check bool) "text exporter reports p999" true
    (contains ~affix:"p999=" text);
  let json = Obs.to_json snap in
  Alcotest.(check bool) "json exporter reports p999" true
    (contains ~affix:"\"p999\":" json)

let test_json_sum_roundtrips_exactly () =
  let h = Obs.Histogram.make ~buckets:[| 1.0 |] "test_obs_sum_exact" in
  Obs.Histogram.observe h 0.1;
  Obs.Histogram.observe h 0.2;
  let want = Obs.Histogram.sum h in
  (* a display rounding would already have collapsed this onto 0.3 *)
  Alcotest.(check bool) "sum is not exactly 0.3" true (want <> 0.3);
  let json = Obs.to_json (Obs.snapshot ()) in
  (* pull the literal back out of the serialized histogram entry *)
  let key = "\"test_obs_sum_exact\":" in
  let at =
    let n = String.length key in
    let rec go k =
      if k + n > String.length json then
        Alcotest.fail "histogram missing from JSON"
      else if String.sub json k n = key then k + n
      else go (k + 1)
    in
    go 0
  in
  let sum_at =
    let tag = "\"sum\":" in
    let n = String.length tag in
    let rec go k =
      if String.sub json k n = tag then k + n else go (k + 1)
    in
    go at
  in
  let fin = ref sum_at in
  while json.[!fin] <> ',' && json.[!fin] <> '}' do
    incr fin
  done;
  let got = float_of_string (String.sub json sum_at (!fin - sum_at)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.17g parses back bit-exactly (got %h, want %h)" want got
       want)
    true
    (Int64.bits_of_float got = Int64.bits_of_float want)

let test_labels_and_ingest () =
  Alcotest.(check string) "labels appended"
    "m{worker=\"2\"}"
    (Obs.with_labels "m" [ ("worker", "2") ]);
  Alcotest.(check string) "labels merged into an existing set"
    "m{a=\"1\",worker=\"2\"}"
    (Obs.with_labels "m{a=\"1\"}" [ ("worker", "2") ]);
  Alcotest.(check string) "label values escaped"
    "m{w=\"x\\\"y\"}"
    (Obs.with_labels "m" [ ("w", "x\"y") ]);
  Alcotest.(check string) "base strips the label set" "m"
    (Obs.base_of "m{worker=\"2\"}");
  (* ingest a worker's delta snapshot twice: counters accumulate, gauges
     overwrite, histograms merge bucket-wise *)
  let delta =
    [
      ("test_obs_ing_total", Obs.VCounter 5);
      ("test_obs_ing_gauge", Obs.VGauge 2.5);
      ( "test_obs_ing_hist",
        Obs.VHistogram
          { buckets = [| 1.0 |]; counts = [| 1; 2 |]; sum = 3.5; count = 3 } );
    ]
  in
  Obs.ingest ~labels:[ ("worker", "0") ] delta;
  Obs.ingest ~labels:[ ("worker", "0") ] delta;
  let snap = Obs.snapshot () in
  (match Obs.find snap "test_obs_ing_total{worker=\"0\"}" with
  | Some (Obs.VCounter c) ->
      Alcotest.(check int) "ingested counters accumulate" 10 c
  | _ -> Alcotest.fail "labeled counter missing after ingest");
  (match Obs.find snap "test_obs_ing_gauge{worker=\"0\"}" with
  | Some (Obs.VGauge g) ->
      Alcotest.(check (float 0.)) "ingested gauge takes last value" 2.5 g
  | _ -> Alcotest.fail "labeled gauge missing after ingest");
  (match Obs.find snap "test_obs_ing_hist{worker=\"0\"}" with
  | Some (Obs.VHistogram h) ->
      Alcotest.(check (array int)) "bucket counts merged" [| 2; 4 |] h.counts;
      Alcotest.(check (float 1e-9)) "sums merged" 7.0 h.sum;
      Alcotest.(check int) "counts merged" 6 h.count
  | _ -> Alcotest.fail "labeled histogram missing after ingest");
  (* the text exporter renders the labeled sample under the family's base
     name, with one shared TYPE line *)
  let text = Obs.to_text snap in
  Alcotest.(check bool) "labeled sample rendered" true
    (contains ~affix:"test_obs_ing_total{worker=\"0\"} 10" text);
  Alcotest.(check bool) "TYPE line uses the base name" true
    (contains ~affix:"# TYPE test_obs_ing_total counter" text)

(* The dependency-free scrape endpoint: bind an ephemeral port, make
   real HTTP requests against it, check routing and content types. *)
let test_http_metrics_endpoint () =
  let c = Obs.Counter.make "test_obs_http_total" in
  Obs.Counter.add c 7;
  let port = Divm_obs_cli.Obs_http.listen 0 in
  Alcotest.(check bool) "kernel picked a real port" true (port > 0);
  let request path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 4096 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ();
        Buffer.contents buf)
  in
  let metrics = request "/metrics" in
  Alcotest.(check bool) "/metrics answers 200" true
    (contains ~affix:"200 OK" metrics);
  Alcotest.(check bool) "/metrics is Prometheus text" true
    (contains ~affix:"# TYPE test_obs_http_total counter" metrics
    && contains ~affix:"test_obs_http_total 7" metrics);
  let json = request "/metrics.json" in
  Alcotest.(check bool) "/metrics.json answers JSON" true
    (contains ~affix:"200 OK" json
    && contains ~affix:"\"test_obs_http_total\":" json);
  Alcotest.(check bool) "unknown path answers 404" true
    (contains ~affix:"404" (request "/nope"));
  (* scrapes are repeatable: the serving thread outlives a request *)
  Obs.Counter.add c 1;
  Alcotest.(check bool) "second scrape sees the update" true
    (contains ~affix:"test_obs_http_total 8" (request "/metrics"))

(* ------------------------------------------------------------------ *)
(* Span tracer                                                         *)
(* ------------------------------------------------------------------ *)

let test_spans_nest_and_balance () =
  reset_tracer ();
  Obs.set_tracing true;
  Obs.span "a" (fun () ->
      Obs.span "b" (fun () -> Obs.set_attr "k" "v");
      Obs.span "c" (fun () -> ()));
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Obs.set_tracing false;
  let evs = Obs.events () in
  Alcotest.(check int) "all spans closed" 0 (Obs.open_spans ());
  Alcotest.(check int) "four events" 4 (List.length evs);
  let find n = List.find (fun (e : Obs.event) -> e.ev_name = n) evs in
  Alcotest.(check int) "root depth" 0 (find "a").ev_depth;
  Alcotest.(check int) "child depth" 1 (find "b").ev_depth;
  Alcotest.(check (list (pair string string))) "attrs recorded"
    [ ("k", "v") ]
    (find "b").ev_attrs;
  Alcotest.(check bool) "parent spans child" true
    ((find "a").ev_dur >= (find "b").ev_dur);
  Alcotest.(check int) "exception span still closed" 0
    (find "boom").ev_depth;
  reset_tracer ()

(* A minimal JSON reader — enough to round-trip the Chrome trace exporter's
   output and prove the escaping is real JSON escaping, not just
   quote-balanced text. *)
type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JArr of json list
  | JObj of (string * json) list

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else failwith (Printf.sprintf "expected %c at %d" c !pos)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> failwith "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' -> (
          incr pos;
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'u' ->
              let h = String.sub s (!pos + 1) 4 in
              pos := !pos + 4;
              Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ h) land 0xff))
          | _ -> failwith "bad escape");
          incr pos;
          go ())
      | Some c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> JStr (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (incr pos; JObj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                JObj (List.rev ((k, v) :: acc))
            | _ -> failwith "bad object"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (incr pos; JArr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                JArr (List.rev (v :: acc))
            | _ -> failwith "bad array"
          in
          elems []
    | Some 't' ->
        pos := !pos + 4;
        JBool true
    | Some 'f' ->
        pos := !pos + 5;
        JBool false
    | Some 'n' ->
        pos := !pos + 4;
        JNull
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        JNum (float_of_string (String.sub s start (!pos - start)))
    | None -> failwith "eof"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then failwith "trailing garbage";
  v

let test_chrome_trace_escaping_roundtrip () =
  reset_tracer ();
  Obs.set_tracing true;
  let nasty = "he said \"hi\"\nthen\\left\ttab" in
  Obs.span nasty (fun () ->
      Obs.set_attr "note" "line1\nline2 \"quoted\" c:\\path";
      Obs.span "plain" (fun () -> ()));
  Obs.set_tracing false;
  let trace = Obs.chrome_trace_json () in
  reset_tracer ();
  let root = parse_json trace in
  let events =
    match root with
    | JObj kvs -> (
        match List.assoc "traceEvents" kvs with
        | JArr evs -> evs
        | _ -> Alcotest.fail "traceEvents is not an array")
    | _ -> Alcotest.fail "trace is not an object"
  in
  Alcotest.(check int) "both spans exported" 2 (List.length events);
  let name_of = function
    | JObj kvs -> ( match List.assoc "name" kvs with JStr s -> s | _ -> "")
    | _ -> ""
  in
  let ev =
    try List.find (fun e -> name_of e = nasty) events
    with Not_found -> Alcotest.fail "escaped span name did not round-trip"
  in
  (match ev with
  | JObj kvs -> (
      (match List.assoc "args" kvs with
      | JObj args -> (
          match List.assoc "note" args with
          | JStr v ->
              Alcotest.(check string) "attr value round-trips"
                "line1\nline2 \"quoted\" c:\\path" v
          | _ -> Alcotest.fail "note is not a string")
      | _ -> Alcotest.fail "args is not an object");
      match List.assoc "ph" kvs with
      | JStr "X" -> ()
      | _ -> Alcotest.fail "not a complete event")
  | _ -> Alcotest.fail "event is not an object");
  (* the metrics JSON exporter survives the same parser *)
  let c = Obs.Counter.make "test_obs_roundtrip_total" in
  Obs.Counter.incr c;
  match parse_json (Obs.to_json (Obs.snapshot ())) with
  | JObj _ -> ()
  | _ -> Alcotest.fail "metrics JSON is not an object"

(* ------------------------------------------------------------------ *)
(* Runtime integration                                                 *)
(* ------------------------------------------------------------------ *)

let test_runtime_reports_match_registry () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let rt = Runtime.create prog in
  let before = Obs.snapshot () in
  let r1 = Runtime.apply_batch rt ~rel:"R" (mk2 [ (1, 10, 1.); (2, 10, 1.) ]) in
  let r2 = Runtime.apply_batch rt ~rel:"S" (mk2 [ (10, 5, 1.) ]) in
  let r3 = Runtime.apply_single rt ~rel:"R" [| i 7; i 10 |] 1. in
  let d = Obs.diff ~later:(Obs.snapshot ()) ~earlier:before in
  (* the per-firing reports are exactly the registry deltas, and both equal
     the runtime's own (deprecated) cumulative counter *)
  Alcotest.(check int) "ops fold into registry"
    (r1.Runtime.ops + r2.Runtime.ops + r3.Runtime.ops)
    (Obs.counter_value d "divm_record_ops_total");
  Alcotest.(check int) "reports equal cumulative Runtime.ops"
    (Runtime.ops rt)
    (r1.Runtime.ops + r2.Runtime.ops + r3.Runtime.ops);
  Alcotest.(check int) "tuples counted" 4
    (Obs.counter_value d "divm_tuples_total");
  Alcotest.(check int) "batches counted" 2
    (Obs.counter_value d "divm_batches_total");
  Alcotest.(check int) "singles counted" 1
    (Obs.counter_value d "divm_single_updates_total");
  Alcotest.(check int) "report tuple counts" 2 r1.Runtime.tuples;
  Alcotest.(check int) "single reports one tuple" 1 r3.Runtime.tuples

let test_runtime_spans () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let rt = Runtime.create prog in
  reset_tracer ();
  Obs.set_tracing true;
  let _ = Runtime.apply_batch rt ~rel:"R" (mk2 [ (1, 10, 1.) ]) in
  Obs.set_tracing false;
  let evs = Obs.events () in
  reset_tracer ();
  Alcotest.(check bool) "trigger span present" true
    (List.exists (fun (e : Obs.event) -> e.ev_name = "trigger:R") evs);
  Alcotest.(check bool) "statement spans nested under trigger" true
    (List.exists
       (fun (e : Obs.event) ->
         e.ev_depth = 1
         && String.length e.ev_name > 5
         && (String.sub e.ev_name 0 5 = "stmt:"
            || String.sub e.ev_name 0 9 = "columnar:"))
       evs)

let test_disabled_tracing_identical_results () =
  let prog = Compile.compile ~streams:streams_rs [ ("Q", q_join) ] in
  let batches =
    [
      ("R", mk2 [ (1, 10, 1.); (2, 20, 3.) ]);
      ("S", mk2 [ (10, 5, 1.); (20, 6, -1.) ]);
      ("R", mk2 [ (1, 10, -1.) ]);
    ]
  in
  let run () =
    let rt = Runtime.create prog in
    List.iter (fun (rel, b) -> ignore (Runtime.apply_batch rt ~rel b)) batches;
    Runtime.result rt "Q"
  in
  reset_tracer ();
  let plain = run () in
  Obs.set_tracing true;
  let traced = run () in
  reset_tracer ();
  Alcotest.(check bool) "tracing does not change results" true
    (Gmr.equal plain traced)

(* ------------------------------------------------------------------ *)
(* Cluster integration                                                 *)
(* ------------------------------------------------------------------ *)

let cluster_q3 () =
  let w = Workload.find "Q3" in
  let prog = Workload.compile w in
  let dp = Workload.distribute w prog in
  let c =
    Divm_cluster.Cluster.create
      ~config:(Divm_cluster.Cluster.config ~workers:4 ())
      dp
  in
  let stream =
    Divm_tpch.Gen.stream { Divm_tpch.Gen.scale = 0.05; seed = 7 }
      ~batch_size:300
  in
  (c, stream)

let test_cluster_metrics_view_of_registry () =
  let c, stream = cluster_q3 () in
  let before = Obs.snapshot () in
  let records =
    List.map (fun (rel, b) -> Divm_cluster.Cluster.apply_batch c ~rel b) stream
  in
  let d = Obs.diff ~later:(Obs.snapshot ()) ~earlier:before in
  let sum f = List.fold_left (fun a r -> a + f r) 0 records in
  Alcotest.(check int) "bytes_shuffled totals match"
    (sum (fun r -> r.Divm_cluster.Cluster.bytes_shuffled))
    (Obs.counter_value d "divm_cluster_bytes_shuffled_total");
  Alcotest.(check int) "stage totals match"
    (sum (fun r -> r.Divm_cluster.Cluster.stages))
    (Obs.counter_value d "divm_cluster_stages_total");
  Alcotest.(check int) "driver op totals match"
    (sum (fun r -> r.Divm_cluster.Cluster.driver_ops))
    (Obs.counter_value d "divm_cluster_driver_ops_total");
  Alcotest.(check int) "max-worker-op totals match"
    (sum (fun r -> r.Divm_cluster.Cluster.max_worker_ops))
    (Obs.counter_value d "divm_cluster_max_worker_ops_total");
  Alcotest.(check int) "batch count matches" (List.length records)
    (Obs.counter_value d "divm_cluster_batches_total");
  Alcotest.(check bool) "something was shuffled" true
    (sum (fun r -> r.Divm_cluster.Cluster.bytes_shuffled) > 0)

let test_cluster_spans_sum_to_latency () =
  let c, stream = cluster_q3 () in
  reset_tracer ();
  Obs.set_tracing true;
  let modeled =
    List.fold_left
      (fun acc (rel, b) ->
        acc +. (Divm_cluster.Cluster.apply_batch c ~rel b).Divm_cluster.Cluster.latency)
      0. stream
  in
  Obs.set_tracing false;
  let evs = Obs.events () in
  reset_tracer ();
  let prefixed p (e : Obs.event) =
    String.length e.ev_name >= String.length p
    && String.sub e.ev_name 0 (String.length p) = p
  in
  let span_sum =
    List.fold_left
      (fun acc (e : Obs.event) ->
        if prefixed "stage:" e || prefixed "transfer:" e then
          match List.assoc_opt "modeled_ms" e.ev_attrs with
          | Some ms -> acc +. (float_of_string ms /. 1e3)
          | None -> acc
        else acc)
      0. evs
  in
  Alcotest.(check bool) "trace produced cluster spans" true
    (List.exists (prefixed "cluster:") evs);
  (* modeled_ms attributes are printed with 1e-6 ms precision; allow that
     rounding times the number of spans *)
  Alcotest.(check bool)
    (Printf.sprintf "stage+transfer spans (%g s) sum to modeled latency (%g s)"
       span_sum modeled)
    true
    (Float.abs (span_sum -. modeled) < 1e-6 *. float_of_int (List.length evs))

(* ------------------------------------------------------------------ *)
(* Command-line flags                                                  *)
(* ------------------------------------------------------------------ *)

(* Inputs no engine can run are usage errors while the flags parse
   (cmdliner exits 124), not exceptions out of an engine (exit 125) or
   values silently replaced. *)
let test_cli_rejects_bad_input () =
  let module Obs_cli = Divm_obs_cli.Obs_cli in
  let open Cmdliner in
  let cmd =
    Cmd.v (Cmd.info "divm")
      Term.(
        const (fun w sql (c : Obs_cli.common) -> (w, sql, c.engine))
        $ Obs_cli.query $ Obs_cli.sql $ Obs_cli.parse_common ())
  in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let eval args =
    Cmd.eval_value ~help:quiet ~err:quiet ~argv:(Array.of_list ("divm" :: args))
      cmd
  in
  List.iter
    (fun args ->
      match eval args with
      | Error `Parse -> ()
      | _ -> Alcotest.failf "accepted: %s" (String.concat " " args))
    [
      [ "--workers"; "0" ];
      [ "--workers"; "0"; "--backend"; "multiprocess" ];
      [ "--domains"; "0" ];
      [ "--batch"; "0" ];
      [ "--batch=-5" ];
      [ "--opt-level"; "9" ];
      [ "--opt-level=-1" ];
      [ "Q99" ];
      [ "--sql"; "SELEC" ];
      [ "--sql"; "SELECT SUM(x) FROM nosuch" ];
    ];
  (match eval [] with
  | Ok (`Ok (w, None, e)) ->
      Alcotest.(check string) "default query" "Q3" w.Workload.wname;
      Alcotest.(check bool) "default config" true
        (e = Divm_engine.Engine.default_config)
  | _ -> Alcotest.fail "defaults do not parse");
  match
    eval
      [ "ds3"; "--workers"; "1"; "--domains"; "1"; "--batch"; "1";
        "--opt-level"; "0"; "--sql"; "SELECT SUM(l_qty) FROM lineitem" ]
  with
  | Ok (`Ok (w, Some _, e)) ->
      Alcotest.(check string) "query name" "DS3" w.Workload.wname;
      Alcotest.(check (list int)) "bounds are inclusive" [ 1; 1; 0 ]
        [ Option.get e.domains; e.batch_size; e.opt_level ]
  | _ -> Alcotest.fail "in-range flags do not parse"

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "instruments" `Quick test_counter_gauge_histogram;
        Alcotest.test_case "snapshot / diff" `Quick test_snapshot_diff;
        Alcotest.test_case "exporters parse" `Quick test_exporters_parse;
        Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "diff: histogram bucket mismatch" `Quick
          test_diff_bucket_mismatch;
        Alcotest.test_case "exporters report p999" `Quick
          test_p999_and_sum_precision;
        Alcotest.test_case "JSON sum round-trips bit-exactly" `Quick
          test_json_sum_roundtrips_exactly;
        Alcotest.test_case "labels and cross-process ingest" `Quick
          test_labels_and_ingest;
        Alcotest.test_case "live /metrics endpoint" `Quick
          test_http_metrics_endpoint;
        Alcotest.test_case "spans nest and balance" `Quick
          test_spans_nest_and_balance;
        Alcotest.test_case "chrome trace escaping round-trips" `Quick
          test_chrome_trace_escaping_roundtrip;
        Alcotest.test_case "runtime reports = registry deltas" `Quick
          test_runtime_reports_match_registry;
        Alcotest.test_case "runtime trigger spans" `Quick test_runtime_spans;
        Alcotest.test_case "disabled tracing, identical results" `Quick
          test_disabled_tracing_identical_results;
        Alcotest.test_case "cluster metrics are registry views" `Quick
          test_cluster_metrics_view_of_registry;
        Alcotest.test_case "cluster spans sum to modeled latency" `Quick
          test_cluster_spans_sum_to_latency;
        Alcotest.test_case "cli rejects bad input" `Quick
          test_cli_rejects_bad_input;
      ] );
  ]
