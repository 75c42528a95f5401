open Repro_graph

type t = { n : int; labels : (int * int) array array }

let compare_pair ((h1 : int), (d1 : int)) (h2, d2) =
  if h1 <> h2 then Int.compare h1 h2 else Int.compare d1 d2

let normalise ~n pairs =
  let sorted = List.sort compare_pair pairs in
  let rec dedup = function
    | (h1, d1) :: (h2, d2) :: _ when h1 = h2 && d1 <> d2 ->
        invalid_arg "Hub_label.make: conflicting distances for a hub"
    | (h1, _) :: ((h2, _) :: _ as rest) when h1 = h2 -> dedup rest
    | p :: rest -> p :: dedup rest
    | [] -> []
  in
  let clean = dedup sorted in
  List.iter
    (fun (h, d) ->
      if h < 0 || h >= n then invalid_arg "Hub_label.make: hub out of range";
      if d < 0 then invalid_arg "Hub_label.make: negative distance")
    clean;
  Array.of_list clean

let make ~n per_vertex =
  if Array.length per_vertex <> n then
    invalid_arg "Hub_label.make: array length mismatch";
  { n; labels = Array.map (normalise ~n) per_vertex }

(* Hubs strictly increasing and in range, distances non-negative: the
   form [normalise] produces. *)
let is_normal ~n pairs =
  let k = Array.length pairs in
  let rec go i prev =
    i = k
    ||
    let h, d = pairs.(i) in
    h > prev && h < n && d >= 0 && go (i + 1) h
  in
  go 0 (-1)

let of_arrays ~n arrays =
  if Array.length arrays <> n then
    invalid_arg "Hub_label.make: array length mismatch";
  {
    n;
    labels =
      Array.map
        (fun pairs ->
          if is_normal ~n pairs then pairs else normalise ~n (Array.to_list pairs))
        arrays;
  }

let n t = t.n

let hubs t v =
  if v < 0 || v >= t.n then invalid_arg "Hub_label.hubs";
  t.labels.(v)

let hub_list t v = Array.to_list (hubs t v)

let find_hub pairs h =
  let lo = ref 0 and hi = ref (Array.length pairs - 1) in
  let res = ref None in
  while !res = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let hub, d = pairs.(mid) in
    if hub = h then res := Some d
    else if hub < h then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let mem t v ~hub = find_hub (hubs t v) hub <> None
let dist_to_hub t v ~hub = find_hub (hubs t v) hub

let query_meet t u v =
  let a = hubs t u and b = hubs t v in
  let best = ref None in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let ha, da = a.(!i) and hb, db = b.(!j) in
    if ha = hb then begin
      let d = Dist.add da db in
      (match !best with
      | Some (_, d0) when d0 <= d -> ()
      | _ -> best := Some (ha, d));
      incr i;
      incr j
    end
    else if ha < hb then incr i
    else incr j
  done;
  !best

(* The point query and the store core's merge loop: two cursors over
   the sorted rows, reading the tuples in place, so nothing is
   allocated. [hubs] checks both endpoints. *)
let query t u v =
  let a = hubs t u and b = hubs t v in
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and best = ref Dist.inf in
  while !i < la && !j < lb do
    let ha, da = Array.unsafe_get a !i and hb, db = Array.unsafe_get b !j in
    if ha = hb then begin
      let d = Dist.add da db in
      if d < !best then best := d;
      incr i;
      incr j
    end
    else if ha < hb then incr i
    else incr j
  done;
  !best

let size t v = Array.length (hubs t v)

let total_size t =
  Array.fold_left (fun acc l -> acc + Array.length l) 0 t.labels

let avg_size t = if t.n = 0 then 0.0 else float_of_int (total_size t) /. float_of_int t.n

let max_size t = Array.fold_left (fun acc l -> max acc (Array.length l)) 0 t.labels

let map_union a b =
  if a.n <> b.n then invalid_arg "Hub_label.map_union: size mismatch";
  make ~n:a.n
    (Array.init a.n (fun v ->
         Array.to_list a.labels.(v) @ Array.to_list b.labels.(v)))

let add_self t =
  make ~n:t.n
    (Array.init t.n (fun v -> (v, 0) :: Array.to_list t.labels.(v)))

let restrict t ~keep =
  make ~n:t.n
    (Array.init t.n (fun v ->
         List.filter (fun (h, _) -> keep v h) (Array.to_list t.labels.(v))))

let pp ppf t =
  Format.fprintf ppf "hub_label(n=%d, total=%d, avg=%.2f, max=%d)" t.n
    (total_size t) (avg_size t) (max_size t)

module Assoc = struct
  type nonrec t = t

  let module_name = "Hub_label"
  let backend_name = "hub-labeling"
  let kind = "assoc"
  let n = n
  let size t v = Array.length (Array.unsafe_get t.labels v)

  let fold_label t v f acc =
    let row = Array.unsafe_get t.labels v in
    let acc = ref acc in
    for e = 0 to Array.length row - 1 do
      let h, d = Array.unsafe_get row e in
      acc := f !acc h d
    done;
    !acc

  let space_words t = 2 * total_size t
  let raw_query = query
end

module Store = Label_store.Make (Assoc)

let pack t = Store.pack (Store.make ~cache_slots:0 t)
