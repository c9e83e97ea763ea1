type t = { read : bool; write : bool; execute : bool }

(* The eight protections, built once: every protection this module
   returns is one of them, so deriving one (a page's effective
   protection on each map and re-protect) allocates nothing. *)
let table =
  Array.init 8 (fun b ->
      { read = b land 4 <> 0; write = b land 2 <> 0; execute = b land 1 <> 0 })

let make ~read ~write ~execute =
  table.((if read then 4 else 0) lor (if write then 2 else 0)
         lor if execute then 1 else 0)

let none = make ~read:false ~write:false ~execute:false
let read_only = make ~read:true ~write:false ~execute:false
let read_write = make ~read:true ~write:true ~execute:false
let read_execute = make ~read:true ~write:false ~execute:true
let all = make ~read:true ~write:true ~execute:true

let allows t = function
  | `Read -> t.read
  | `Write -> t.write
  | `Execute -> t.execute

let remove_write t =
  if t.write then make ~read:t.read ~write:false ~execute:t.execute else t

let subsumes a b =
  (a.read || not b.read) && (a.write || not b.write)
  && (a.execute || not b.execute)

let intersect a b =
  make ~read:(a.read && b.read) ~write:(a.write && b.write)
    ~execute:(a.execute && b.execute)

let equal a b =
  a.read = b.read && a.write = b.write && a.execute = b.execute

let to_string t =
  let c b ch = if b then ch else '-' in
  Printf.sprintf "%c%c%c" (c t.read 'r') (c t.write 'w') (c t.execute 'x')

let pp ppf t = Format.pp_print_string ppf (to_string t)
