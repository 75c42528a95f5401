open Repro_graph

type layout = {
  n : int;
  offsets : int array; (* length n + 1 *)
  data : int array; (* length 2 * offsets.(n); entry i = (data.(2i), data.(2i+1)) *)
}

module Core = Label_store.Make (struct
  type t = layout

  let module_name = "Flat_hub"
  let backend_name = "flat-hub-labeling"
  let kind = "flat"
  let n l = l.n
  let size l v = l.offsets.(v + 1) - l.offsets.(v)

  let fold_label l v f acc =
    let data = l.data in
    let acc = ref acc in
    for e = Array.unsafe_get l.offsets v to Array.unsafe_get l.offsets (v + 1) - 1 do
      acc := f !acc (Array.unsafe_get data (2 * e)) (Array.unsafe_get data ((2 * e) + 1))
    done;
    !acc

  let space_words l = Array.length l.offsets + Array.length l.data

  (* The hot path. Walk the two interleaved runs with raw indices into
     [data]; bounds are established by the CSR invariants, so unsafe
     accesses are sound. *)
  let raw_query l u v =
    let data = l.data in
    let i = ref (2 * Array.unsafe_get l.offsets u)
    and iend = 2 * Array.unsafe_get l.offsets (u + 1)
    and j = ref (2 * Array.unsafe_get l.offsets v)
    and jend = 2 * Array.unsafe_get l.offsets (v + 1) in
    let best = ref Dist.inf in
    while !i < iend && !j < jend do
      let ha = Array.unsafe_get data !i and hb = Array.unsafe_get data !j in
      if ha = hb then begin
        let d =
          Dist.add (Array.unsafe_get data (!i + 1)) (Array.unsafe_get data (!j + 1))
        in
        if d < !best then best := d;
        i := !i + 2;
        j := !j + 2
      end
      else if ha < hb then i := !i + 2
      else j := !j + 2
    done;
    !best
end)

include Core

let of_labels ?(cache_slots = 0) labels =
  let make = Core.make ~cache_slots in
  Repro_obs.Span.run ~name:"flat-hub.pack" (fun () ->
      let n = Hub_label.n labels in
      let offsets = Array.make (n + 1) 0 in
      for v = 0 to n - 1 do
        offsets.(v + 1) <- offsets.(v) + Hub_label.size labels v
      done;
      let data = Array.make (2 * offsets.(n)) 0 in
      for v = 0 to n - 1 do
        let base = ref (2 * offsets.(v)) in
        Array.iter
          (fun (h, d) ->
            data.(!base) <- h;
            data.(!base + 1) <- d;
            base := !base + 2)
          (Hub_label.hubs labels v)
      done;
      Repro_obs.Span.count "vertices" n;
      Repro_obs.Span.count "entries" offsets.(n);
      make { n; offsets; data })

let of_raw ~n ~offsets ~data =
  let fail msg = invalid_arg ("Flat_hub.of_raw: " ^ msg) in
  if n < 0 then fail "negative n";
  if Array.length offsets <> n + 1 then fail "offsets length must be n + 1";
  if Array.length data mod 2 <> 0 then fail "data length must be even";
  if offsets.(0) <> 0 then fail "offsets must start at 0";
  for v = 0 to n - 1 do
    if offsets.(v + 1) < offsets.(v) then fail "offsets must be non-decreasing"
  done;
  if 2 * offsets.(n) <> Array.length data then
    fail "offsets must end at the entry count";
  for v = 0 to n - 1 do
    for e = offsets.(v) to offsets.(v + 1) - 1 do
      let h = data.(2 * e) and d = data.((2 * e) + 1) in
      if h < 0 || h >= n then fail "hub out of range";
      if d < 0 then fail "negative distance";
      if e > offsets.(v) && data.(2 * (e - 1)) >= h then
        fail "hubs must be strictly increasing within a vertex"
    done
  done;
  Core.make ~cache_slots:0 { n; offsets; data }

let raw t =
  let l = format t in
  (l.offsets, l.data)

let total_size t =
  let l = format t in
  l.offsets.(l.n)

let to_labels t = Hub_label.of_arrays ~n:(n t) (Array.init (n t) (hubs t))

let equal a b = format a = format b

let pp ppf t =
  Format.fprintf ppf "flat_hub(n=%d, total=%d, cache=%s)" (n t) (total_size t)
    (cache_label t)
