open Repro_graph
module Ops = Repro_obs.Ops
module Scratch = Repro_par.Scratch

type walk = int -> (int -> int -> int -> int) -> int -> int

type t = {
  n : int;
  offsets : int array; (* length n + 1; hub h's entries at offsets.(h) .. *)
  verts : int array; (* entry vertex, ascending within a hub *)
  dists : int array; (* distance from the entry vertex to the hub *)
  rows : int array Scratch.t; (* n-word rows, contents undefined at rest *)
}

let build ~n ~walk vertices =
  Repro_obs.Span.run ~name:"hub-index.build" (fun () ->
      if n < 0 then invalid_arg "Hub_index.build: negative n";
      let offsets = Array.make (n + 1) 0 in
      let check h d =
        if h < 0 || h >= n then invalid_arg "Hub_index.build: hub out of range";
        if d < 0 || d >= Dist.inf then
          invalid_arg "Hub_index.build: distance out of range"
      in
      let each f =
        Array.iter
          (fun v ->
            if v < 0 || v >= n then
              invalid_arg "Hub_index.build: vertex out of range";
            ignore (walk v (fun acc h d -> check h d; f v h d; acc) 0))
          vertices
      in
      each (fun _ h _ -> offsets.(h + 1) <- offsets.(h + 1) + 1);
      for h = 1 to n do
        offsets.(h) <- offsets.(h) + offsets.(h - 1)
      done;
      let total = offsets.(n) in
      let next = Array.sub offsets 0 (max 1 n) in
      let verts = Array.make total 0 and dists = Array.make total 0 in
      (* each hub's run is filled in [vertices] order — ascending for
         every caller — the deterministic scan order of the row kernel *)
      each (fun v h d ->
          let e = next.(h) in
          verts.(e) <- v;
          dists.(e) <- d;
          next.(h) <- e + 1);
      Repro_obs.Span.count "entries" total;
      let rows = Scratch.create (fun () -> Array.make n Dist.inf) in
      { n; offsets; verts; dists; rows })

let n t = t.n
let total_size t = t.offsets.(t.n)

let space_words t =
  Array.length t.offsets + Array.length t.verts + Array.length t.dists

(* A source entry is range-checked before it indexes [offsets]: the
   label comes from the store, which may be a shallow-validated mapped
   file. *)
let entry_ok t h d = h >= 0 && h < t.n && d >= 0 && d < Dist.inf

let row_cost t ~walk s =
  walk s
    (fun acc h d ->
      if not (entry_ok t h d) then invalid_arg "Hub_index.row_cost: bad entry";
      acc + t.offsets.(h + 1) - t.offsets.(h))
    0

(* The row kernel. Every label distance lies in [0, Dist.inf) (checked
   at build, and here for the source), so the plain [+] cannot
   overflow, and a sum at or beyond [Dist.inf] never beats a cell's
   initial [Dist.inf]. *)
let fill t ~walk s row =
  let offsets = t.offsets and verts = t.verts and dists = t.dists in
  Array.fill row 0 t.n Dist.inf;
  ignore
    (walk s
       (fun acc h d_sh ->
         if not (entry_ok t h d_sh) then
           invalid_arg "Hub_index.row: bad entry";
         for e = Array.unsafe_get offsets h to Array.unsafe_get offsets (h + 1) - 1 do
           let w = Array.unsafe_get verts e in
           let d = d_sh + Array.unsafe_get dists e in
           if d < Array.unsafe_get row w then Array.unsafe_set row w d
         done;
         acc)
       0)

let with_row t ~walk s f =
  let row = Scratch.take t.rows in
  fill t ~walk s row;
  let r = f row in
  Scratch.give t.rows row;
  r

let targets t ~walk s ts =
  with_row t ~walk s (fun row -> Array.map (fun w -> row.(w)) ts)

let max_of (row : int array) =
  let m = ref 0 in
  for w = 0 to Array.length row - 1 do
    let d = Array.unsafe_get row w in
    if d > !m then m := d
  done;
  !m

(* Independent per-index work fanned out across the pool; writes are
   per-index only, so results are byte-identical for any job count. *)
let fan pool ~m f =
  Repro_par.Pool.parallel_for pool ~n:m (fun ~slot:_ lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let eval ?pool t ~walk ~targets req =
  (match Ops.validate ~n:t.n req with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Hub_index.eval: " ^ msg));
  let pool_of () =
    match pool with Some p -> p | None -> Repro_par.Pool.default ()
  in
  match req with
  | Ops.Dist _ | Ops.Batch _ ->
      invalid_arg "Hub_index.eval: point requests use the store's merge"
  | Ops.One_to_many { source; targets = ts } -> Ops.R_dists (targets source ts)
  | Ops.Many_to_many { sources; targets = ts } ->
      let out = Array.make (Array.length sources) [||] in
      fan (pool_of ()) ~m:(Array.length sources) (fun i ->
          out.(i) <- targets sources.(i) ts);
      Ops.R_matrix out
  | Ops.Top_k_nearest { source; k } ->
      Ops.R_nearest (with_row t ~walk source (Ops.nearest_in ~k ~vertex:Fun.id))
  | Ops.Eccentricity v -> Ops.R_ecc (with_row t ~walk v max_of)
  | Ops.Farthest v -> (
      match with_row t ~walk v (Ops.farthest_in ~vertex:Fun.id) with
      | Some (vertex, dist) -> Ops.R_farthest { vertex; dist }
      | None -> Ops.R_farthest { vertex = v; dist = 0 })
  | Ops.Diameter_radius ->
      if t.n = 0 then Ops.R_diam_rad { diameter = 0; radius = 0 }
      else begin
        let ecc = Array.make t.n 0 in
        fan (pool_of ()) ~m:t.n (fun v -> ecc.(v) <- with_row t ~walk v max_of);
        let dia = ref 0 and rad = ref max_int in
        Array.iter
          (fun e ->
            if e > !dia then dia := e;
            if e < !rad then rad := e)
          ecc;
        Ops.R_diam_rad { diameter = !dia; radius = !rad }
      end
