(* divm_node — worker process of the multi-process engine.

   The coordinator (Node.create, e.g. behind `divm_cluster --backend
   multiprocess`) execs this binary once per worker:

     divm_node --worker --socket /tmp/divm_node_PID_N.sock --id K

   The worker connects to the coordinator's Unix domain socket,
   identifies itself with a Hello frame, receives the marshaled
   distributed program, and then serves Load_share / Run_block /
   Pull_map / Deliver / Clear_map requests until Shutdown (see
   Protocol). Under the default mesh topology the coordinator also
   sends Peers / Mesh_connect (establishing direct worker-to-worker
   sockets) and drives each transfer with a Shuffle request, whose
   payload bytes travel peer-to-peer as Mesh_data frames instead of
   through the coordinator. It never parses queries or opens data
   files itself — everything arrives over the wire. *)

let usage () =
  prerr_endline
    "usage: divm_node --worker --socket PATH --id N\n\n\
     Worker process of the multi-process distributed engine; spawned by \
     the coordinator (divm_cluster --backend multiprocess), not run by \
     hand.";
  exit 2

let () =
  let socket = ref None and id = ref None and worker = ref false in
  let rec parse = function
    | [] -> ()
    | "--worker" :: tl ->
        worker := true;
        parse tl
    | "--socket" :: path :: tl ->
        socket := Some path;
        parse tl
    | "--id" :: n :: tl ->
        (match int_of_string_opt n with
        | Some i when i >= 0 -> id := Some i
        | _ -> usage ());
        parse tl
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!worker, !socket, !id) with
  | true, Some socket, Some id -> Divm.Node.worker_main ~socket ~id
  | _ -> usage ()
