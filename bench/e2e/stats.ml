(* The statistics hubbench reports: order statistics, the percentile
   support rule, the store cost-model fit and the Zipf sampler. *)

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

(* Python's statistics.median: the mean of the two middle values of an
   even-length sample. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: empty"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Python's statistics.quantiles(data, n=4) with its default
   'exclusive' method, so a spread computed here matches the one any
   reader recomputes from the same values. Returns (q1, q2, q3). *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Stats.quartiles: empty"
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Quartile distance as a share of the median; 0 for a constant
   sample. *)
let rel_spread a =
  let q1, q2, q3 = quartiles a in
  if q3 = q1 then 0. else if q2 = 0. then infinity else (q3 -. q1) /. Float.abs q2

(* Nearest-rank percentile of an ascending int sample: the value at
   rank ceil(q * n). *)
let percentile s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* The same percentile read as a real number: integer nanosecond
   samples are treated as spread evenly over [v - 0.5, v + 0.5), and the
   rank q * n is located within the run of samples equal to the
   nearest-rank value v. A latency measured in whole nanoseconds then
   keeps its fractional digits (a median of 57 ns reads 57.23, not
   57 on every run). *)
let interpolated s q =
  let n = Array.length s in
  let v = percentile s q in
  let bound lt =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if lt s.(mid) then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let below = bound (fun x -> x < v) and upto = bound (fun x -> x <= v) in
  float_of_int v -. 0.5
  +. ((q *. float_of_int n) -. float_of_int below) /. float_of_int (upto - below)

(* Samples strictly beyond the nearest-rank position of [q]. *)
let beyond ~n q = n - int_of_float (Float.ceil (q *. float_of_int n))

(* A percentile is supported when at least ten samples lie beyond it,
   so one outlier cannot set it alone. *)
let supports ~n q = beyond ~n q >= 10

(* Weighted least squares y = a + b x over (x, y, w) points; returns
   (a, b, r2) with r2 the weighted coefficient of determination. *)
let fit_line pts =
  let sw = ref 0. and sx = ref 0. and sy = ref 0. in
  Array.iter
    (fun (x, y, w) ->
      sw := !sw +. w;
      sx := !sx +. (w *. x);
      sy := !sy +. (w *. y))
    pts;
  if !sw <= 0. then (0., 0., 0.)
  else
    let mx = !sx /. !sw and my = !sy /. !sw in
    let sxx = ref 0. and sxy = ref 0. and syy = ref 0. in
    Array.iter
      (fun (x, y, w) ->
        sxx := !sxx +. (w *. (x -. mx) *. (x -. mx));
        sxy := !sxy +. (w *. (x -. mx) *. (y -. my));
        syy := !syy +. (w *. (y -. my) *. (y -. my)))
      pts;
    let b = if !sxx = 0. then 0. else !sxy /. !sxx in
    let a = my -. (b *. mx) in
    let r2 =
      if !syy = 0. then 1.
      else
        let sse = ref 0. in
        Array.iter
          (fun (x, y, w) ->
            let e = y -. (a +. (b *. x)) in
            sse := !sse +. (w *. e *. e))
          pts;
        1. -. (!sse /. !syy)
    in
    (a, b, r2)

(* The store cost model ns ~ a + b * entries: per-query samples sorted
   by entries scanned, cut into [bins] groups of equal count, each
   group summarised by its mean entries and median ns (robust to the
   odd preempted query) and weighted by its size. *)
let cost_fit ?(bins = 32) ~entries ~ns () =
  let n = Array.length entries in
  if n = 0 || Array.length ns <> n then (0., 0., 0.)
  else begin
    let idx = Array.init n (fun i -> i) in
    Array.sort (fun i j -> compare entries.(i) entries.(j)) idx;
    let bins = max 1 (min bins n) in
    let pts =
      Array.init bins (fun b ->
          let lo = b * n / bins and hi = (b + 1) * n / bins in
          let k = hi - lo in
          let ex = ref 0 in
          let ys = Array.make k 0. in
          for r = lo to hi - 1 do
            ex := !ex + entries.(idx.(r));
            ys.(r - lo) <- float_of_int ns.(idx.(r))
          done;
          (float_of_int !ex /. float_of_int k, median ys, float_of_int k))
    in
    fit_line pts
  end

(* Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s. Sampling
   inverts the cumulative weights by binary search, so a seeded
   [Random.State] gives the same rank sequence on every run. *)
module Zipf = struct
  type t = float array

  let create ~s ~n =
    if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for r = 0 to n - 1 do
      acc := !acc +. (1. /. (float_of_int (r + 1) ** s));
      cdf.(r) <- !acc
    done;
    Array.map (fun c -> c /. !acc) cdf

  let sample t rng =
    let u = Random.State.float rng 1. in
    let lo = ref 0 and hi = ref (Array.length t - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end
