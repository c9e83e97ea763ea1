type t = { read : bool; write : bool; execute : bool }

let none = { read = false; write = false; execute = false }
let read_only = { read = true; write = false; execute = false }
let read_write = { read = true; write = true; execute = false }
let read_execute = { read = true; write = false; execute = true }
let all = { read = true; write = true; execute = true }

let allows t = function
  | `Read -> t.read
  | `Write -> t.write
  | `Execute -> t.execute

let remove_write t = { t with write = false }

let subsumes a b =
  (a.read || not b.read) && (a.write || not b.write)
  && (a.execute || not b.execute)

let intersect a b =
  { read = a.read && b.read;
    write = a.write && b.write;
    execute = a.execute && b.execute }

let equal a b =
  a.read = b.read && a.write = b.write && a.execute = b.execute

let to_string t =
  let c b ch = if b then ch else '-' in
  Printf.sprintf "%c%c%c" (c t.read 'r') (c t.write 'w') (c t.execute 'x')

let pp ppf t = Format.pp_print_string ppf (to_string t)
