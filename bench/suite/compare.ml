(* Readers for BENCHMARK.json and the run records [--json] appends, and
   the two checks built on them: [require] (every metric BENCHMARK.json
   names was printed, finite, with no failed operation) and [compare]
   (parent runs against change runs, per workload and metric). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code -> Buffer.add_utf_8_uchar b (Uchar.of_int code)
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; members ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec elements acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; elements (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-.eE0123456789" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> Num x
        | None -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None
let read_file f = In_channel.with_open_text f In_channel.input_all

(* ---- BENCHMARK.json ---- *)

type spec = { name : string; higher : bool; bound : float option }

let specs file =
  let j = parse (read_file file) in
  let section key bounded =
    match member key j with
    | Some (Arr l) ->
        List.map
          (fun m ->
            match (member "name" m, member "better" m, member "bound" m) with
            | Some (Str name), Some (Str better), bound ->
                {
                  name;
                  higher = better = "higher";
                  bound =
                    (match bound with
                    | Some (Num b) when bounded -> Some b
                    | _ -> None);
                }
            | _ -> raise (Bad (file ^ ": metric without name or direction")))
          l
    | _ -> raise (Bad (Printf.sprintf "%s: no %s list" file key))
  in
  section "end_to_end" true @ section "per_layer" false

let require file outcomes =
  let specs = specs file and problems = ref 0 in
  let problem wname msg =
    incr problems;
    Printf.eprintf "require %s: %s\n" wname msg
  in
  List.iter
    (fun (wname, failed, shown) ->
      if failed > 0 then
        problem wname (Printf.sprintf "%d failed operations" failed);
      List.iter
        (fun (s : spec) ->
          match List.find_opt (fun (n, _, _) -> n = s.name) shown with
          | Some (_, v, _) when Float.is_finite v -> ()
          | Some _ -> problem wname (s.name ^ " is not finite")
          | None -> problem wname (s.name ^ " was not printed"))
        specs)
    outcomes;
  !problems = 0

(* ---- run records ---- *)

type run = {
  workload : string;
  failure : float;  (** failed / attempted *)
  values : (string * float) list;
}

let runs file =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let j = parse line in
        let num k = match member k j with Some (Num x) -> x | _ -> 0. in
        let values =
          match member "metrics" j with
          | Some (Obj ms) ->
              List.filter_map
                (fun (n, m) ->
                  match member "value" m with Some (Num v) -> Some (n, v) | _ -> None)
                ms
          | _ -> []
        in
        match member "workload" j with
        | Some (Str workload) ->
            Some
              {
                workload;
                failure = (if num "attempted" > 0. then num "failed" /. num "attempted" else 1.);
                values;
              }
        | _ -> raise (Bad (file ^ ": run record without a workload")))
    (String.split_on_char '\n' (read_file file))

(* Python's statistics.quantiles(xs, n=4) (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (List.sort Stdlib.compare xs) in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Improved: the change wins at least 9 of 10 pairs (ties count for
   neither) and the medians differ by more than the parent's quartile
   spread. Worse: a bounded metric's change median is worse than the
   parent's by more than its bound; an unbounded one loses 9 of 10 pairs
   by more than the spread. Unresolved: the parent's own spread exceeds
   the bound and not every change run beats every parent run. *)
let judge (s : spec) xs ys =
  let dir = if s.higher then 1. else -1. in
  let n = min (List.length xs) (List.length ys) in
  let take l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (take xs) (take ys) in
  let count f = List.length (List.filter f pairs) in
  let wins = count (fun (x, y) -> dir *. (y -. x) > 0.) in
  let losses = count (fun (x, y) -> dir *. (y -. x) < 0.) in
  let q1, mp, q3 = quartiles xs and _, mc, _ = quartiles ys in
  let spread = q3 -. q1 and gain = dir *. (mc -. mp) in
  let decisive k = 10 * k >= 9 * n in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> dir *. (y -. x) > 0.) xs) ys
  in
  let status =
    if decisive wins && gain > spread then "improved"
    else
      match s.bound with
      | Some b when -.gain > b *. Float.abs mp -> "worse"
      | Some b when spread > b *. Float.abs mp && not all_better -> "unresolved"
      | Some _ -> "same"
      | None -> if decisive losses && -.gain > spread then "worse" else "same"
  in
  (status, (q1, mp, q3), mc, wins, n)

let compare ~parent ~change =
  let specs = specs "BENCHMARK.json" in
  let p = runs parent and c = runs change in
  let names =
    List.fold_left
      (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] p
  in
  let failing = ref false in
  List.iter
    (fun wl ->
      let pr = List.filter (fun r -> r.workload = wl) p in
      let cr = List.filter (fun r -> r.workload = wl) c in
      let worst rs = List.fold_left (fun a r -> Float.max a r.failure) 0. rs in
      if cr = [] then Printf.printf "COMPARE %s: no change runs\n" wl
      else begin
        if worst cr > worst pr then begin
          failing := true;
          Printf.printf "COMPARE %s failed_share parent %.6g change %.6g FAIL\n" wl
            (worst pr) (worst cr)
        end;
        List.iter
          (fun (s : spec) ->
            let values rs =
              List.filter_map
                (fun r ->
                  match List.assoc_opt s.name r.values with
                  | Some v when Float.is_finite v -> Some v
                  | _ -> None)
                rs
            in
            match (values pr, values cr) with
            | [], _ | _, [] -> ()
            | xs, ys ->
                let status, (q1, mp, q3), mc, wins, n = judge s xs ys in
                if status = "worse" && s.bound <> None then failing := true;
                Printf.printf
                  "COMPARE %s %s parent %.6g [%.6g, %.6g] change %.6g (%+.2f%%) \
                   wins %d/%d %s\n"
                  wl s.name mp q1 q3 mc
                  (if mp = 0. then 0. else (mc -. mp) /. Float.abs mp *. 100.)
                  wins n status)
          specs
      end)
    names;
  if !failing then 1 else 0
