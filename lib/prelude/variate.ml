let exponential rng ~mean =
  if mean <= 0. then invalid_arg "Variate.exponential: mean <= 0";
  let u = Rng.float rng 1.0 in
  (* u is in [0,1); 1-u is in (0,1] so log never sees 0. *)
  -.mean *. log (1.0 -. u)

let uniform rng ~lo ~hi =
  if hi < lo then invalid_arg "Variate.uniform: hi < lo";
  if hi = lo then lo else lo +. Rng.float rng (hi -. lo)

let normal rng ~mean ~stddev =
  let u1 = 1.0 -. Rng.float rng 1.0 in
  let u2 = Rng.float rng 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)
