open Repro_graph
module Ops = Repro_obs.Ops
module Scratch = Repro_par.Scratch

type walk = int -> (int -> int -> int -> int) -> int -> int

(* The threshold merge's scratch: a binary min-heap of cursors, one
   per hub of the source's label, on [(key, vert)] — the sum
   d(s, h) + d(h, w) and the vertex w of the cursor's entry [pos] —
   and one byte per vertex, [rest] between calls. *)
type merge = {
  key : int array;
  vert : int array;
  pos : int array;
  stop : int array; (* end of the cursor's run *)
  base : int array; (* d(s, h) *)
  mark : Bytes.t;
}

(* The ball kernel's scratch: the hubs of the source's label whose
   runs are not empty, with d(s, h), and two bitsets over the indexed
   vertices: the ball being built and the last one found not full. *)
type ball = { hub : int array; base : int array; bits : int array; low : int array }

type t = {
  n : int;
  vertices : int array; (* the indexed vertices, ascending *)
  offsets : int array; (* length n + 1; hub h's entries at offsets.(h) .. *)
  verts : int array; (* entry vertex, by (dist, vertex) within a hub *)
  dists : int array; (* distance from the entry vertex to the hub *)
  rank : int array; (* a vertex's position in [vertices]: its ball bit *)
  words : int; (* words per bitset over the indexed vertices *)
  lay_start : int array; (* length n + 1; hub h's layers, none if unlayered *)
  lay_dist : int array; (* the distance a layer reaches *)
  layers : int array; (* layer g's bitset at words g * words .. *)
  rows : int array Scratch.t; (* n-word rows, contents undefined at rest *)
  merges : merge Scratch.t;
  balls : ball Scratch.t;
}

(* A bitset over the indexed vertices packs [bits] of them per word,
   the rank-th at bit [rank mod bits] of word [rank / bits]. *)
let bits = Sys.int_size

let rest = '\000'
let candidate = '\001'
let seen = '\002'

(* Sort each hub's run, filled vertex-ascending, stably by distance,
   so it is ordered by (dist, vertex). When the distances are small
   next to the entries ([runs * dmax <= entries], as on an unweighted
   graph of small diameter), each run takes a counting sort over
   [0, dmax] and the pass is O(entries); otherwise (weighted graphs,
   long paths) each run takes a stable comparison sort. *)
let sort_runs ~n ~dmax offsets verts dists =
  let longest = ref 0 and runs = ref 0 in
  for h = 0 to n - 1 do
    let len = offsets.(h + 1) - offsets.(h) in
    if len > !longest then longest := len;
    if len > 1 then incr runs
  done;
  let tv = Array.make !longest 0 and td = Array.make !longest 0 in
  let counting = !runs = 0 || dmax <= offsets.(n) / !runs in
  let cnt = Array.make (if counting then dmax + 2 else 0) 0 in
  for h = 0 to n - 1 do
    let lo = offsets.(h) and hi = offsets.(h + 1) in
    if hi - lo > 1 then begin
      if counting then begin
        (* in bounds: e in a run, d in [0, dmax], i below the run's
           length *)
        for e = lo to hi - 1 do
          let b = Array.unsafe_get dists e + 1 in
          Array.unsafe_set cnt b (Array.unsafe_get cnt b + 1)
        done;
        for b = 1 to dmax do
          Array.unsafe_set cnt b
            (Array.unsafe_get cnt b + Array.unsafe_get cnt (b - 1))
        done;
        for e = lo to hi - 1 do
          let d = Array.unsafe_get dists e in
          let i = Array.unsafe_get cnt d in
          Array.unsafe_set cnt d (i + 1);
          Array.unsafe_set tv i (Array.unsafe_get verts e);
          Array.unsafe_set td i d
        done;
        Array.fill cnt 0 (dmax + 2) 0
      end
      else begin
        let order = Array.init (hi - lo) (fun i -> lo + i) in
        Array.stable_sort (fun a b -> Int.compare dists.(a) dists.(b)) order;
        Array.iteri
          (fun i e ->
            tv.(i) <- verts.(e);
            td.(i) <- dists.(e))
          order
      end;
      Array.blit tv 0 verts lo (hi - lo);
      Array.blit td 0 dists lo (hi - lo)
    end
  done

(* The distance layers. A hub whose run holds [k] distinct distances
   gets [k] cumulative bitsets over the indexed vertices, the j-th
   holding every entry within the j-th smallest distance, when they
   take no more words than the run has entries ([k * words <= len]).
   One counting pass sizes the flat arrays, a second fills them: each
   layer starts as a copy of the one before and adds its distance's
   entries, which the (dist, vertex) order makes consecutive. *)
let build_layers ~n ~words ~rank offsets verts dists =
  let distinct h =
    let k = ref 0 in
    for e = offsets.(h) to offsets.(h + 1) - 1 do
      if e = offsets.(h) || dists.(e) <> dists.(e - 1) then incr k
    done;
    !k
  in
  let lay_start = Array.make (n + 1) 0 in
  for h = 0 to n - 1 do
    let k = distinct h in
    lay_start.(h + 1) <-
      (lay_start.(h) + if k * words <= offsets.(h + 1) - offsets.(h) then k else 0)
  done;
  let lay_dist = Array.make lay_start.(n) 0 in
  let layers = Array.make (lay_start.(n) * words) 0 in
  for h = 0 to n - 1 do
    let g = ref (lay_start.(h) - 1) in
    if lay_start.(h) < lay_start.(h + 1) then
      for e = offsets.(h) to offsets.(h + 1) - 1 do
        let d = dists.(e) in
        if e = offsets.(h) || d <> dists.(e - 1) then begin
          incr g;
          lay_dist.(!g) <- d;
          if !g > lay_start.(h) then
            Array.blit layers ((!g - 1) * words) layers (!g * words) words
        end;
        let r = rank.(verts.(e)) in
        let i = (!g * words) + (r / bits) in
        layers.(i) <- layers.(i) lor (1 lsl (r mod bits))
      done
  done;
  (lay_start, lay_dist, layers)

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
      let dmax = ref 0 in
      each (fun _ h d ->
          offsets.(h + 1) <- offsets.(h + 1) + 1;
          if d > !dmax then dmax := d);
      for h = 1 to n do
        offsets.(h) <- offsets.(h) + offsets.(h - 1)
      done;
      let total = offsets.(n) in
      let next = Array.sub offsets 0 (max 1 n) in
      let verts = Array.make total 0 and dists = Array.make total 0 in
      (* each hub's run is filled in [vertices] order, ascending *)
      each (fun v h d ->
          let e = next.(h) in
          verts.(e) <- v;
          dists.(e) <- d;
          next.(h) <- e + 1);
      sort_runs ~n ~dmax:!dmax offsets verts dists;
      Repro_obs.Span.count "entries" total;
      let rank = Array.make n 0 in
      Array.iteri (fun i v -> rank.(v) <- i) vertices;
      let words = (Array.length vertices + bits - 1) / bits in
      let lay_start, lay_dist, layers =
        build_layers ~n ~words ~rank offsets verts dists
      in
      let rows = Scratch.create (fun () -> Array.make n Dist.inf) in
      let merges =
        Scratch.create (fun () ->
            let a () = Array.make n 0 in
            { key = a (); vert = a (); pos = a (); stop = a (); base = a ();
              mark = Bytes.make n rest })
      in
      let balls =
        Scratch.create (fun () ->
            { hub = Array.make n 0; base = Array.make n 0;
              bits = Array.make words 0; low = Array.make words 0 })
      in
      { n; vertices; offsets; verts; dists; rank; words; lay_start; lay_dist;
        layers; rows; merges; balls })

let n t = t.n
let indexed t = Array.length t.vertices
let total_size t = t.offsets.(t.n)
let layer_words t = Array.length t.layers

let space_words t =
  Array.length t.offsets + Array.length t.verts + Array.length t.dists
  + Array.length t.rank + Array.length t.lay_start + Array.length t.lay_dist
  + Array.length t.layers

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

let row_nearest t ~walk s ~k among =
  with_row t ~walk s (fun row ->
      if Array.length among = t.n then Ops.nearest_in ~k ~vertex:Fun.id row
      else
        Ops.nearest_in ~k ~vertex:(Array.get among)
          (Array.map (Array.get row) among))

(* The heap of the threshold merge, on (key, vert): does slot [i] pop
   before the key (k, v)? *)
let before h i k v =
  let ki = Array.unsafe_get h.key i in
  ki < k || (ki = k && Array.unsafe_get h.vert i < v)

(* Sift the cursor (k0, v0, p0, s0, b0) down from the hole at slot [i]
   of a heap of [size] cursors. *)
let rec down h size i k0 v0 p0 s0 b0 =
  let l = (2 * i) + 1 in
  let c =
    if
      l + 1 < size
      && before h (l + 1) (Array.unsafe_get h.key l)
           (Array.unsafe_get h.vert l)
    then l + 1
    else l
  in
  if c < size && before h c k0 v0 then begin
    Array.unsafe_set h.key i (Array.unsafe_get h.key c);
    Array.unsafe_set h.vert i (Array.unsafe_get h.vert c);
    Array.unsafe_set h.pos i (Array.unsafe_get h.pos c);
    Array.unsafe_set h.stop i (Array.unsafe_get h.stop c);
    Array.unsafe_set h.base i (Array.unsafe_get h.base c);
    down h size c k0 v0 p0 s0 b0
  end
  else begin
    Array.unsafe_set h.key i k0;
    Array.unsafe_set h.vert i v0;
    Array.unsafe_set h.pos i p0;
    Array.unsafe_set h.stop i s0;
    Array.unsafe_set h.base i b0
  end

(* The threshold merge. Each cursor walks one hub's run in
   (dist, vertex) order, so its keys (d(s, h) + d(h, w), w) ascend and
   the heap pops every entry of the touched runs in ascending key
   order. The first pop of a vertex is therefore its smallest sum over
   the shared hubs, the label distance, and first pops come out by
   (dist, vertex): the answer is the first [m] candidates popped, then
   the unpopped candidates at [Dist.inf] in ascending id. *)
let nearest t ~walk s ~k among =
  let m = min k (Array.length among) in
  if m <= 0 then [||]
  else begin
    let offsets = t.offsets and verts = t.verts and dists = t.dists in
    let h = Scratch.take t.merges in
    (* one cursor per hub of L(s) whose run is not empty; a label of
       more than n entries repeats a hub *)
    let size =
      walk s
        (fun size hub d_sh ->
          if not (entry_ok t hub d_sh) then
            invalid_arg "Hub_index.nearest: bad entry";
          let lo = offsets.(hub) and hi = offsets.(hub + 1) in
          if lo = hi then size
          else if size = t.n then invalid_arg "Hub_index.nearest: bad label"
          else begin
            h.key.(size) <- d_sh + dists.(lo);
            h.vert.(size) <- verts.(lo);
            h.pos.(size) <- lo;
            h.stop.(size) <- hi;
            h.base.(size) <- d_sh;
            size + 1
          end)
        0
    in
    for i = (size / 2) - 1 downto 0 do
      down h size i h.key.(i) h.vert.(i) h.pos.(i) h.stop.(i) h.base.(i)
    done;
    (* a candidate is [want] until popped; [among] is all of the
       indexed vertices (then every mark is [rest]) or fewer. Its ids
       come from the caller, so they index [mark] bounds-checked;
       popped ids come from the index, built in range. *)
    let mark = h.mark in
    let filtered = Array.length among < Array.length t.vertices in
    if filtered then Array.iter (fun w -> Bytes.set mark w candidate) among;
    let want = if filtered then candidate else rest in
    let out = Array.make m (0, Dist.inf) in
    let found = ref 0 and size = ref size and pops = ref 0 in
    (* a sum at or beyond [Dist.inf] is no distance, as in [fill] *)
    while !found < m && !size > 0 && h.key.(0) < Dist.inf do
      incr pops;
      let w = h.vert.(0) in
      if Bytes.unsafe_get mark w = want then begin
        Bytes.unsafe_set mark w seen;
        out.(!found) <- (w, h.key.(0));
        incr found
      end;
      let e = h.pos.(0) + 1 and b = h.base.(0) in
      if e < h.stop.(0) then
        down h !size 0 (b + Array.unsafe_get dists e)
          (Array.unsafe_get verts e) e h.stop.(0) b
      else begin
        decr size;
        let l = !size in
        down h l 0 h.key.(l) h.vert.(l) h.pos.(l) h.stop.(l) h.base.(l)
      end
    done;
    Repro_obs.Span.count "merge_pops" !pops;
    let i = ref 0 in
    while !found < m do
      let w = among.(!i) in
      if Bytes.get mark w <> seen then begin
        out.(!found) <- (w, Dist.inf);
        incr found
      end;
      incr i
    done;
    if filtered then Array.iter (fun w -> Bytes.set mark w rest) among
    else Array.iter (fun (w, _) -> Bytes.set mark w rest) out;
    Scratch.give t.merges h;
    out
  end

(* ----- eccentricity by ball bitsets --------------------------------- *)

(* The ball of radius tau around s over the indexed vertices is the OR,
   over the hubs h of L(s), of h's entries within tau - d(s, h): by the
   2-hop cover property, d(s, w) <= tau iff some shared hub has
   d(s, h) + d(h, w) <= tau. A layered hub contributes its largest
   layer within that reach, [words] words; any other scans the prefix
   of its distance-sorted run. *)

(* The least number of probes a binary search over the radii
   [-1, top] needs once [top] is known full: ceil (log2 (top + 1)). *)
let probes top =
  let rec go p span = if span <= 1 then p else go (p + 1) ((span + 1) / 2) in
  go 0 (top + 1)

(* The largest finite label distance from [s] reachable through hub
   [h] at [d_sh]: its run's last (largest) distance, capped below
   [Dist.inf] as the row caps its sums. *)
let reach t h d_sh = min (Dist.inf - 1) (d_sh + t.dists.(t.offsets.(h + 1) - 1))

let ball_cost t ~walk s =
  let top = ref (-1) in
  let per =
    walk s
      (fun acc h d ->
        if not (entry_ok t h d) then invalid_arg "Hub_index.ball_cost: bad entry";
        let len = t.offsets.(h + 1) - t.offsets.(h) in
        if len = 0 then acc
        else begin
          top := max !top (reach t h d);
          acc
          + if t.lay_start.(h) < t.lay_start.(h + 1) then t.words else len
        end)
      0
  in
  (1 + probes !top) * (per + t.words)

(* Fill [b.bits] with the ball of radius [tau] over the [size] hubs
   collected in [b]; true when it holds every indexed vertex. The pad
   bits past the last indexed vertex are set, so a full ball is all
   ones. *)
let fill_ball t b size tau =
  let words = t.words and bs = b.bits in
  let lay_start = t.lay_start and lay_dist = t.lay_dist
  and layers = t.layers in
  Array.fill bs 0 words 0;
  let tail = Array.length t.vertices mod bits in
  if tail > 0 then bs.(words - 1) <- -1 lsl tail;
  for i = 0 to size - 1 do
    let h = Array.unsafe_get b.hub i in
    let r = tau - Array.unsafe_get b.base i in
    if r >= 0 then begin
      (* in bounds: [h] was range-checked when collected, every layer
         index lies in its hub's [lay_start] range, every entry in its
         run, and every rank below the indexed count *)
      let g0 = Array.unsafe_get lay_start h
      and g1 = Array.unsafe_get lay_start (h + 1) in
      if g0 < g1 then begin
        let g = ref g0 in
        while !g < g1 && Array.unsafe_get lay_dist !g <= r do
          incr g
        done;
        if !g > g0 then begin
          let o = (!g - 1) * words in
          for j = 0 to words - 1 do
            Array.unsafe_set bs j
              (Array.unsafe_get bs j lor Array.unsafe_get layers (o + j))
          done
        end
      end
      else begin
        let e = ref (Array.unsafe_get t.offsets h)
        and hi = Array.unsafe_get t.offsets (h + 1) in
        while !e < hi && Array.unsafe_get t.dists !e <= r do
          let x = Array.unsafe_get t.rank (Array.unsafe_get t.verts !e) in
          let j = x / bits in
          Array.unsafe_set bs j
            (Array.unsafe_get bs j lor (1 lsl (x mod bits)));
          incr e
        done
      end
    end
  done;
  let rec full j = j = words || (Array.unsafe_get bs j = -1 && full (j + 1)) in
  full 0

(* The indexed vertex of the lowest clear bit of [bs], which the
   caller knows is not full. *)
let lowest_clear t bs =
  let j = ref 0 in
  while bs.(!j) = -1 do
    incr j
  done;
  let x = lnot bs.(!j) in
  let i = ref 0 in
  while (x lsr !i) land 1 = 0 do
    incr i
  done;
  t.vertices.((!j * bits) + !i)

let farthest t ~walk s =
  if Array.length t.vertices = 0 then None
  else begin
    let b = Scratch.take t.balls in
    let top = ref (-1) in
    (* one slot per hub of L(s) whose run is not empty; a label of more
       than n entries repeats a hub *)
    let size =
      walk s
        (fun size h d_sh ->
          if not (entry_ok t h d_sh) then
            invalid_arg "Hub_index.farthest: bad entry";
          if t.offsets.(h) = t.offsets.(h + 1) then size
          else if size = t.n then invalid_arg "Hub_index.farthest: bad label"
          else begin
            b.hub.(size) <- h;
            b.base.(size) <- d_sh;
            top := max !top (reach t h d_sh);
            size + 1
          end)
        0
    in
    let answer =
      if not (fill_ball t b size !top) then
        (* beyond the largest finite label distance: unreachable *)
        (lowest_clear t b.bits, Dist.inf)
      else begin
        (* the least full radius in (lo, hi]: full at hi, not at lo,
           whose ball [b.low] keeps once probed *)
        let lo = ref (-1) and hi = ref !top in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if fill_ball t b size mid then hi := mid
          else begin
            lo := mid;
            Array.blit b.bits 0 b.low 0 t.words
          end
        done;
        (* ball (-1) is empty: every vertex lies at distance 0 *)
        ((if !lo < 0 then t.vertices.(0) else lowest_clear t b.low), !hi)
      end
    in
    Repro_obs.Span.count "ball_hubs" size;
    Scratch.give t.balls b;
    Some answer
  end

let row_farthest t ~walk s among =
  with_row t ~walk s (fun row ->
      if Array.length among = t.n then Ops.farthest_in ~vertex:Fun.id row
      else
        Ops.farthest_in ~vertex:(Array.get among)
          (Array.map (Array.get row) among))

(* Independent per-index work fanned out across the pool; writes are
   per-index only, so results are byte-identical for any job count. *)
let fan pool ~m f =
  Repro_par.Pool.parallel_for pool ~n:m (fun ~slot:_ lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let eval ?pool t ~targets ~nearest ~farthest (req : Ops.valid) =
  let pool_of () =
    match pool with Some p -> p | None -> Repro_par.Pool.default ()
  in
  let ecc v = match farthest v t.vertices with Some (_, d) -> d | None -> 0 in
  match (req :> Ops.request) with
  | Ops.Dist _ | Ops.Batch _ ->
      invalid_arg "Hub_index.eval: point requests use the store's merge"
  | Ops.One_to_many { source; targets = ts } -> Ops.R_dists (targets source ts)
  | Ops.Many_to_many { sources; targets = ts } ->
      let out = Array.make (Array.length sources) [||] in
      fan (pool_of ()) ~m:(Array.length sources) (fun i ->
          out.(i) <- targets sources.(i) ts);
      Ops.R_matrix out
  | Ops.Top_k_nearest { source; k } ->
      Ops.R_nearest (nearest source ~k t.vertices)
  | Ops.Top_k_among { source; k; among } ->
      Ops.R_nearest (nearest source ~k among)
  | Ops.Eccentricity v -> Ops.R_ecc (ecc v)
  | Ops.Farthest v -> Ops.farthest_response (farthest v t.vertices)
  | Ops.Farthest_among { source; among } ->
      Ops.farthest_response (farthest source among)
  | Ops.Diameter_radius ->
      if t.n = 0 then Ops.R_diam_rad { diameter = 0; radius = 0 }
      else begin
        let eccs = Array.make t.n 0 in
        fan (pool_of ()) ~m:t.n (fun v -> eccs.(v) <- ecc v);
        let dia = ref 0 and rad = ref max_int in
        Array.iter
          (fun e ->
            if e > !dia then dia := e;
            if e < !rad then rad := e)
          eccs;
        Ops.R_diam_rad { diameter = !dia; radius = !rad }
      end
