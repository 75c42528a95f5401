open Repro_graph

(* One flat driver serves [build] and [build_w]. The graph is relabelled
   once into rank space (rank [r] is vertex [order.(r)]), so a hub is an
   index into the dense [root_dist] row, and each label is one int
   buffer of packed [(dist lsl shift) lor hub rank] entries appended in
   increasing hub rank. [finalise] maps ranks back to vertex ids. *)

type t = {
  off : int array;  (** rank-space CSR: arcs of [r] are [off.(r) .. off.(r+1)-1] *)
  adj : int array;  (** arc heads, as ranks *)
  wt : int array;  (** arc weights (all 1 in the unweighted build) *)
  shift : int;  (** bits of a hub rank in a packed entry *)
  mask : int;  (** [(1 lsl shift) - 1]: the hub rank of an entry *)
  lab : int array array;  (** [lab.(r)]: packed entries, first [len.(r)] used *)
  len : int array;
  root_dist : int array;  (** the sweep root's label as a dense row *)
  dist : int array;  (** tentative search distances *)
  seen : int array;  (** the search queue, also the list of vertices to reset *)
  mutable added : int;  (** labels appended so far *)
}

let create ~order ~degree ~arcs =
  let n = Array.length order in
  let rank = Order.rank_of order in
  let off = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    off.(r + 1) <- off.(r) + degree order.(r)
  done;
  let adj = Array.make off.(n) 0 in
  let wt = Array.make off.(n) 0 in
  for r = 0 to n - 1 do
    let i = ref off.(r) in
    arcs order.(r) (fun v w ->
        adj.(!i) <- rank.(v);
        wt.(!i) <- w;
        incr i)
  done;
  let rec bits b = if 1 lsl b >= n then b else bits (b + 1) in
  let shift = bits 0 in
  {
    off;
    adj;
    wt;
    shift;
    mask = (1 lsl shift) - 1;
    lab = Array.make n [||];
    len = Array.make n 0;
    root_dist = Array.make n Dist.inf;
    dist = Array.make n Dist.inf;
    seen = Array.make n 0;
    added = 0;
  }

(* Whether the hubs common to the root and [u] already give a distance
   [<= du]. Hubs missing from the root's label hold [Dist.inf] in
   [root_dist], and [Dist.inf + d] exceeds any finite [du], so no
   finiteness test is needed. *)
let covered t u du =
  let l = t.lab.(u) and k = t.len.(u) and rd = t.root_dist in
  let shift = t.shift and mask = t.mask in
  let rec go i =
    i < k
    &&
    let e = l.(i) in
    rd.(e land mask) + (e lsr shift) <= du || go (i + 1)
  in
  go 0

let append t u hub d =
  (* a BFS distance is below [n], so only a weighted one can overflow *)
  if d > max_int lsr t.shift then
    invalid_arg "Pll.build_w: distance too large for a packed label";
  let k = t.len.(u) in
  if k = Array.length t.lab.(u) then begin
    let grown = Array.make (max 4 (2 * k)) 0 in
    Array.blit t.lab.(u) 0 grown 0 k;
    t.lab.(u) <- grown
  end;
  t.lab.(u).(k) <- (d lsl t.shift) lor hub;
  t.len.(u) <- k + 1;
  t.added <- t.added + 1

(* Labels [u] with the root unless it is covered; true when [u] joins
   the search frontier. The root itself is never pruned. *)
let settle t root u du =
  if u <> root && covered t u du then false
  else begin
    append t u root du;
    true
  end

(* Pruned BFS from [root]; returns the number of vertices settled. *)
let bfs t root =
  let { off; adj; dist; seen; _ } = t in
  dist.(root) <- 0;
  seen.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = seen.(!head) in
    incr head;
    let du = dist.(u) in
    if settle t root u du then
      for i = off.(u) to off.(u + 1) - 1 do
        let v = adj.(i) in
        if dist.(v) = Dist.inf then begin
          dist.(v) <- du + 1;
          seen.(!tail) <- v;
          incr tail
        end
      done
  done;
  for i = 0 to !tail - 1 do
    dist.(seen.(i)) <- Dist.inf
  done;
  !tail

(* Pruned Dijkstra from [root]; [pq] and [settled] are drained and
   cleared by every sweep. *)
let dijkstra pq settled t root =
  let { off; adj; wt; dist; seen; _ } = t in
  dist.(root) <- 0;
  seen.(0) <- root;
  let touched = ref 1 and popped = ref 0 in
  Pqueue.insert pq root 0;
  while not (Pqueue.is_empty pq) do
    let u, du = Pqueue.pop_min pq in
    settled.(u) <- true;
    incr popped;
    if settle t root u du then
      for i = off.(u) to off.(u + 1) - 1 do
        let v = adj.(i) in
        if not settled.(v) then begin
          let d = du + wt.(i) in
          if d < dist.(v) then begin
            if dist.(v) = Dist.inf then begin
              seen.(!touched) <- v;
              incr touched
            end;
            dist.(v) <- d;
            Pqueue.insert_or_decrease pq v d
          end
        end
      done
  done;
  for i = 0 to !touched - 1 do
    let v = seen.(i) in
    dist.(v) <- Dist.inf;
    settled.(v) <- false
  done;
  !popped

(* In-place heapsort of [a.(0 .. k-1)]. *)
let sort_prefix (a : int array) k =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let rec sift i len =
    let c = (2 * i) + 1 in
    if c < len then begin
      let c = if c + 1 < len && a.(c + 1) > a.(c) then c + 1 else c in
      if a.(c) > a.(i) then begin
        swap i c;
        sift c len
      end
    end
  in
  for i = (k / 2) - 1 downto 0 do
    sift i k
  done;
  for e = k - 1 downto 1 do
    swap 0 e;
    sift 0 e
  done

(* Rank-ordered buffers to hubs in vertex-id order. The [i]-th entry of
   a [k]-entry buffer is keyed [hub id * k + i], so sorting one vertex's
   keys in place orders its hubs by id without a global transpose. Each
   buffer is dropped once converted. *)
let finalise ~order t =
  let n = Array.length order in
  let keys = Array.make (Array.fold_left max 0 t.len) 0 in
  let out = Array.make n [||] in
  for r = 0 to n - 1 do
    let l = t.lab.(r) and k = t.len.(r) in
    for i = 0 to k - 1 do
      keys.(i) <- (order.(l.(i) land t.mask) * k) + i
    done;
    sort_prefix keys k;
    out.(order.(r)) <-
      Array.init k (fun j ->
          let e = l.(keys.(j) mod k) in
          (order.(e land t.mask), e lsr t.shift));
    t.lab.(r) <- [||]
  done;
  Hub_label.of_arrays ~n out

let run ~span ~fn ~n ~default_order ?order ~degree ~arcs sweep =
  Repro_obs.Span.run ~name:span (fun () ->
      let order, t =
        Repro_obs.Span.run ~name:"order" (fun () ->
            let order =
              match order with Some o -> o | None -> default_order ()
            in
            if Array.length order <> n then
              invalid_arg (fn ^ ": bad order length");
            if not (Order.is_permutation order) then
              invalid_arg (fn ^ ": order is not a permutation");
            (order, create ~order ~degree ~arcs))
      in
      Repro_obs.Span.run ~name:"pruned-sweep" (fun () ->
          for root = 0 to n - 1 do
            (* the root's label holds only strictly earlier roots *)
            let l = t.lab.(root) and k = t.len.(root) in
            for i = 0 to k - 1 do
              t.root_dist.(l.(i) land t.mask) <- l.(i) lsr t.shift
            done;
            let before = t.added in
            let visited = sweep t root in
            for i = 0 to k - 1 do
              t.root_dist.(l.(i) land t.mask) <- Dist.inf
            done;
            let added = t.added - before in
            if visited > added then
              Repro_obs.Span.count "pruned" (visited - added);
            if added > 0 then Repro_obs.Span.count "labels_added" added
          done);
      Repro_obs.Events.emit_ambient (span ^ ".done")
        [ ("n", Repro_obs.Events.Int n) ];
      finalise ~order t)

let build ?order g =
  run ~span:"pll.build" ~fn:"Pll.build" ~n:(Graph.n g)
    ~default_order:(fun () -> Order.by_degree g)
    ?order ~degree:(Graph.degree g)
    ~arcs:(fun u f -> Graph.iter_neighbors g u (fun v -> f v 1))
    bfs

let build_w ?order g =
  let n = Wgraph.n g in
  let pq = Pqueue.create n and settled = Array.make n false in
  run ~span:"pll.build_w" ~fn:"Pll.build_w" ~n
    ~default_order:(fun () -> Order.by_wdegree g)
    ?order ~degree:(Wgraph.degree g) ~arcs:(Wgraph.iter_neighbors g)
    (dijkstra pq settled)
