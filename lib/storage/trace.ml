type kind = Read | Write

let sink : (int -> kind -> unit) option ref = ref None
let next_addr = ref 0x1000
let set_sink s = sink := s
let enabled () = !sink <> None

let emit addr kind =
  match !sink with None -> () | Some f -> f addr kind

let alloc_region bytes =
  let base = !next_addr in
  (* 64-byte align regions so distinct pools never share a cache line *)
  next_addr := base + ((bytes + 63) / 64 * 64);
  base
