type t = int
type span = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let to_us_float t = float_of_int t /. 1e3
let to_ms_float t = float_of_int t /. 1e6

let pp ppf t =
  if t >= 1_000_000 then Format.fprintf ppf "%.2fms" (to_ms_float t)
  else if t >= 1_000 then Format.fprintf ppf "%.2fus" (to_us_float t)
  else Format.fprintf ppf "%dns" t
