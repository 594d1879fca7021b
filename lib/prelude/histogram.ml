type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable total : int;
  mutable underflow : int;
  mutable overflow : int;
}

let create ~lo ~hi ~buckets =
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  if buckets <= 0 then invalid_arg "Histogram.create: buckets <= 0";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int buckets;
    counts = Array.make buckets 0;
    total = 0;
    underflow = 0;
    overflow = 0;
  }

let add t x =
  t.total <- t.total + 1;
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width) in
    let i = if i >= Array.length t.counts then Array.length t.counts - 1 else i in
    t.counts.(i) <- t.counts.(i) + 1
  end

let count t = t.total

let bucket t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Histogram.bucket";
  t.counts.(i)

let underflow t = t.underflow
let overflow t = t.overflow

let bucket_bounds t i =
  let lo = t.lo +. (float_of_int i *. t.width) in
  (lo, lo +. t.width)

let pp ppf t =
  let max_count = Array.fold_left max 1 t.counts in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, hi = bucket_bounds t i in
        let bar = String.make (c * 50 / max_count) '#' in
        Format.fprintf ppf "[%8.3f, %8.3f) %6d %s@." lo hi c bar
      end)
    t.counts;
  if t.underflow > 0 then Format.fprintf ppf "underflow: %d@." t.underflow;
  if t.overflow > 0 then Format.fprintf ppf "overflow: %d@." t.overflow
