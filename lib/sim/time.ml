type t = float

let zero = 0.0
let ( + ) = Stdlib.( +. )
let ( - ) = Stdlib.( -. )
let compare = Float.compare
let max = Float.max
let of_s s = s *. 1000.0
let pp ppf t = Format.fprintf ppf "%.3fms" t
