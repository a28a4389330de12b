type t = { mutable a : int array; mutable len : int }

let create ?(cap = 8) () = { a = Array.make (max 1 cap) 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0
let get t i = Array.unsafe_get t.a i
let set t i x = Array.unsafe_set t.a i x

let push t x =
  if t.len = Array.length t.a then begin
    let a' = Array.make (max 8 (2 * t.len)) 0 in
    Array.blit t.a 0 a' 0 t.len;
    t.a <- a'
  end;
  Array.unsafe_set t.a t.len x;
  t.len <- t.len + 1

let pop t =
  t.len <- t.len - 1;
  Array.unsafe_get t.a t.len

let clear t = t.len <- 0

let copy t = { a = Array.copy t.a; len = t.len }
