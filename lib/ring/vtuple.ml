type t = Value.t array

let empty : t = [||]

let equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
  go (Array.length a - 1)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i >= la then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let hash t =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash t.(i)
  done;
  !h land max_int

let hash_at t idxs =
  let h = ref 17 in
  for i = 0 to Array.length idxs - 1 do
    h := (!h * 31) + Value.hash t.(idxs.(i))
  done;
  !h land max_int

let concat = Array.append
let project t idxs = Array.map (fun i -> t.(i)) idxs

let byte_size t =
  Array.fold_left (fun acc v -> acc + Value.byte_size v) 0 t

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    t

let to_string t = Format.asprintf "%a" pp t

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
