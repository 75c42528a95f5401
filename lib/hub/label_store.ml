open Repro_graph

type error =
  | Io of string
  | Not_regular of string
  | Too_short of { bytes : int }
  | Misaligned of { bytes : int }
  | Bad_magic
  | Bad_header of { word : int; msg : string }
  | Length_mismatch of { expected_words : int; actual_words : int }
  | Bad_offsets of { vertex : int; msg : string }
  | Bad_entry of { vertex : int; entry : int; msg : string }

let error_to_string ~prefix e =
  let body =
    match e with
    | Io msg -> msg
    | Not_regular path -> "not a regular file: " ^ path
    | Too_short { bytes } ->
        Printf.sprintf "%d bytes is too short for magic + header" bytes
    | Misaligned { bytes } ->
        Printf.sprintf "%d bytes is not a whole number of words" bytes
    | Bad_magic -> "bad magic"
    | Bad_header { word; msg } ->
        Printf.sprintf "header word at byte %d: %s" word msg
    | Length_mismatch { expected_words; actual_words } ->
        Printf.sprintf
          "length disagrees with header (expected %d words, file has %d)"
          expected_words actual_words
    | Bad_offsets { vertex; msg } ->
        Printf.sprintf "offset of vertex %d: %s" vertex msg
    | Bad_entry { vertex; entry; msg } ->
        Printf.sprintf "entry %d of vertex %d: %s" entry vertex msg
  in
  prefix ^ ": " ^ body

let header_int ~index x =
  let word = 8 * index in
  if Int64.of_int (Int64.to_int x) <> x then
    Error (Bad_header { word; msg = "overflows native int" })
  else if Int64.compare x 0L < 0 then Error (Bad_header { word; msg = "negative" })
  else Ok (Int64.to_int x)

let map_file kind ~min_bytes path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Io (path ^ ": " ^ Unix.error_message err))
  | fd -> (
      let finish r =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        r
      in
      match Unix.fstat fd with
      | exception Unix.Unix_error (err, _, _) ->
          finish (Error (Io (path ^ ": fstat: " ^ Unix.error_message err)))
      | st -> (
          let bytes = st.Unix.st_size in
          if st.Unix.st_kind <> Unix.S_REG then finish (Error (Not_regular path))
          else if bytes < min_bytes then finish (Error (Too_short { bytes }))
          else if bytes mod 8 <> 0 then finish (Error (Misaligned { bytes }))
          else
            let dim = bytes / Bigarray.kind_size_in_bytes kind in
            match Unix.map_file fd kind Bigarray.c_layout false [| dim |] with
            | m -> finish (Ok (Bigarray.array1_of_genarray m, bytes))
            | exception Unix.Unix_error (err, _, _) ->
                finish (Error (Io (path ^ ": map: " ^ Unix.error_message err)))
            | exception Sys_error msg -> finish (Error (Io msg))))

module type FORMAT = sig
  type t

  val module_name : string
  val backend_name : string
  val kind : string
  val n : t -> int
  val size : t -> int -> int
  val fold_label : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a
  val space_words : t -> int
  val raw_query : t -> int -> int -> int
end

type packed = {
  kind : string;
  n : int;
  size : int -> int;
  with_cache : cache_slots:int -> packed;
  cache_stats : unit -> (int * int) option;
  backend : Repro_obs.Backend.t;
  ops : ?owned:int array -> ?budget:int -> unit -> Repro_obs.Backend.ops;
}

type cache = {
  slots : int;
  keys : int array; (* packed unordered pair, or -1 for an empty slot *)
  values : int array;
  mutable hits : int;
  mutable misses : int;
}

(* Scatter wins when its entries, weighted by this factor, are no more
   than the row kernel's: the ratio of the two kernels' ns per entry,
   measured on the n = 2000 bench fixture (docs/PERFORMANCE.md). *)
let scatter_factor = 5
let scatter_wins ~probed ~row_cost = scatter_factor * probed <= row_cost

(* The threshold merge wins while k is at most 3/4 of the candidates,
   as measured on the n = 2000 bench fixture (docs/PERFORMANCE.md,
   "Top-k by threshold merge"): toward k = candidates it pops nearly
   every entry of the source's runs, each at a heap step, where the
   row scans each once. *)
let merge_wins ~k ~candidates = 4 * min k candidates <= 3 * candidates

(* The ball kernel predicts its work in the row's own units (words
   and entries written), so the cheaper prediction wins outright. *)
let ball_wins ~ball_cost ~row_cost = ball_cost <= row_cost

module Make (F : FORMAT) = struct
  (* [n] and the cache live here, not in the format, so the bounds
     check and a cache hit never call into [F]. *)
  type t = { fmt : F.t; n : int; cache : cache option }

  let fail what = invalid_arg (F.module_name ^ "." ^ what)

  let check_slots s =
    if s < 0 then
      invalid_arg (F.module_name ^ ": cache_slots must be non-negative")

  let make_cache s =
    check_slots s;
    if s = 0 then None
    else
      Some
        { slots = s; keys = Array.make s (-1); values = Array.make s 0;
          hits = 0; misses = 0 }

  let make ~cache_slots =
    check_slots cache_slots;
    fun fmt -> { fmt; n = F.n fmt; cache = make_cache cache_slots }

  let format t = t.fmt
  let with_cache ~cache_slots t = { t with cache = make_cache cache_slots }

  let cache_label t =
    match t.cache with
    | None -> "none"
    | Some c -> string_of_int c.slots ^ " slots"

  let n t = t.n
  let in_range t v = v >= 0 && v < t.n

  let size t v =
    if not (in_range t v) then fail "size";
    F.size t.fmt v

  let hubs t v =
    if not (in_range t v) then fail "hubs";
    let out = Array.make (F.size t.fmt v) (0, 0) in
    ignore (F.fold_label t.fmt v (fun i h d -> out.(i) <- (h, d); i + 1) 0);
    out

  let key t u v = if u <= v then (u * t.n) + v else (v * t.n) + u

  (* a miss: run the merge and claim the slot *)
  let fill t c slot key u v =
    let d = F.raw_query t.fmt u v in
    Array.unsafe_set c.keys slot key;
    Array.unsafe_set c.values slot d;
    d

  let cached_query t c u v =
    let key = key t u v in
    let slot = key mod c.slots in
    if Array.unsafe_get c.keys slot = key then begin
      c.hits <- c.hits + 1;
      Array.unsafe_get c.values slot
    end
    else begin
      c.misses <- c.misses + 1;
      fill t c slot key u v
    end

  let query t u v =
    if not (in_range t u && in_range t v) then fail "query";
    match t.cache with
    | None -> F.raw_query t.fmt u v
    | Some c -> cached_query t c u v

  let query_many ?pool t pairs =
    Array.iter
      (fun (u, v) -> if not (in_range t u && in_range t v) then fail "query_many")
      pairs;
    let m = Array.length pairs in
    let out = Array.make m 0 in
    (match t.cache with
    | Some c ->
        (* The cache is not domain-safe — concurrent writes could tear a
           key/value pair — so cached batches stay on the calling
           domain. Hits count in a local and merge once at the end: the
           stats counters see a batch as one update even if another
           domain reads them mid-batch. *)
        let hits = ref 0 in
        for k = 0 to m - 1 do
          let u, v = Array.unsafe_get pairs k in
          let key = key t u v in
          let slot = key mod c.slots in
          Array.unsafe_set out k
            (if Array.unsafe_get c.keys slot = key then begin
               incr hits;
               Array.unsafe_get c.values slot
             end
             else fill t c slot key u v)
        done;
        c.hits <- c.hits + !hits;
        c.misses <- c.misses + (m - !hits)
    | None ->
        (* a cache-free store is immutable: fan the batch out *)
        let pool =
          match pool with Some p -> p | None -> Repro_par.Pool.default ()
        in
        Repro_par.Pool.parallel_for pool ~n:m (fun ~slot:_ lo hi ->
            for k = lo to hi - 1 do
              let u, v = Array.unsafe_get pairs k in
              Array.unsafe_set out k (F.raw_query t.fmt u v)
            done));
    out

  let cache_stats t =
    match t.cache with None -> None | Some c -> Some (c.hits, c.misses)

  let space_words t = F.space_words t.fmt

  let detailed t u v =
    if not (in_range t u && in_range t v) then fail "query";
    let source = F.backend_name in
    match t.cache with
    | None ->
        let d = F.raw_query t.fmt u v in
        ( d,
          Repro_obs.Trace.make
            ~entries_scanned:(F.size t.fmt u + F.size t.fmt v)
            ~source ~u ~v ~dist:d () )
    | Some c ->
        let hits0 = c.hits in
        let d = cached_query t c u v in
        let hit = c.hits > hits0 in
        ( d,
          Repro_obs.Trace.make
            ~entries_scanned:(if hit then 0 else F.size t.fmt u + F.size t.fmt v)
            ~cache:(if hit then Repro_obs.Trace.Hit else Repro_obs.Trace.Miss)
            ~source ~u ~v ~dist:d () )

  let backend t =
    Repro_obs.Backend.make ~name:F.backend_name ~space_words:(space_words t)
      ~detailed:(detailed t) (query t)

  (* The scatter kernel: d(s, w) for every target w at the cost of
     |L(s)| + sum |L(w)| entries. L(s) goes into a table indexed by hub
     (all [Dist.inf] at rest), each target's label probes it, and the
     table is reset. Hub ids come from the format, which may be a
     shallow-validated file, so they are range-checked before they
     index the table; sums saturate as in [raw_query]. *)
  let scatter t tables s targets =
    let fmt = t.fmt and n = t.n in
    let tbl = Repro_par.Scratch.take tables in
    let put () h d =
      if h >= 0 && h < n && d < Array.unsafe_get tbl h then
        Array.unsafe_set tbl h d
    in
    F.fold_label fmt s put ();
    let probe best h d =
      if h >= 0 && h < n then
        let x = Dist.add (Array.unsafe_get tbl h) d in
        if x < best then x else best
      else best
    in
    let out = Array.map (fun w -> F.fold_label fmt w probe Dist.inf) targets in
    F.fold_label fmt s
      (fun () h _ -> if h >= 0 && h < n then Array.unsafe_set tbl h Dist.inf)
      ();
    Repro_par.Scratch.give tables tbl;
    out

  let ops ?pool ?owned ?budget t =
    let q = query t and n = t.n and fmt = t.fmt in
    let walk : Hub_index.walk = F.fold_label fmt in
    let full = lazy (Hub_index.build ~n ~walk (Array.init n Fun.id)) in
    (* a row read only at owned targets is exact over the owned index;
       the owned array itself, as a shard's worker passes it, needs no
       membership scan *)
    let index_for =
      match owned with
      | None -> fun _ -> full
      | Some vs ->
          let mine = Bytes.make n '\000' in
          Array.iter
            (fun v ->
              if not (in_range t v) then fail "ops: owned vertex";
              Bytes.unsafe_set mine v '\001')
            vs;
          let part = lazy (Hub_index.build ~n ~walk vs) in
          let is_mine w = in_range t w && Bytes.unsafe_get mine w = '\001' in
          fun ts -> if ts == vs || Array.for_all is_mine ts then part else full
    in
    let tables = Repro_par.Scratch.create (fun () -> Array.make n Dist.inf) in
    (* Each kernel choice as (predicted work, cheaper kernel): the
       budget reads the first, the kernel the second. *)
    let targets_plan idx s ts =
      let probed =
        Array.fold_left (fun acc w -> acc + F.size fmt w) (F.size fmt s) ts
      in
      let row_cost = Hub_index.row_cost idx ~walk s in
      if scatter_wins ~probed ~row_cost then (probed, true) else (row_cost, false)
    in
    let farthest_plan idx s ~candidates =
      let row_cost = Hub_index.row_cost idx ~walk s in
      if candidates < Hub_index.indexed idx then (row_cost, false)
      else
        let ball_cost = Hub_index.ball_cost idx ~walk s in
        if ball_wins ~ball_cost ~row_cost then (ball_cost, true)
        else (row_cost, false)
    in
    let targets idx s ts =
      if snd (targets_plan idx s ts) then scatter t tables s ts
      else Hub_index.targets idx ~walk s ts
    in
    let nearest idx s ~k among =
      if merge_wins ~k ~candidates:(Array.length among) then
        Hub_index.nearest idx ~walk s ~k among
      else Hub_index.row_nearest idx ~walk s ~k among
    in
    let farthest idx s among =
      if snd (farthest_plan idx s ~candidates:(Array.length among)) then
        Hub_index.farthest idx ~walk s
      else Hub_index.row_farthest idx ~walk s among
    in
    (* the predicted work of a whole request; top-k's is the row's
       either way, as the merge pops at most the entries the row
       scans *)
    let work idx (req : Repro_obs.Ops.valid) =
      let ecc v = fst (farthest_plan idx v ~candidates:n) in
      match (req :> Repro_obs.Ops.request) with
      | Dist _ | Batch _ -> 0
      | One_to_many { source; targets = ts } -> fst (targets_plan idx source ts)
      | Many_to_many { sources; targets = ts } ->
          Array.fold_left
            (fun acc s -> acc + fst (targets_plan idx s ts))
            0 sources
      | Top_k_nearest { source; _ } | Top_k_among { source; _ } ->
          Hub_index.row_cost idx ~walk source
      | Eccentricity v | Farthest v -> ecc v
      | Farthest_among { source; among } ->
          fst (farthest_plan idx source ~candidates:(Array.length among))
      | Diameter_radius ->
          let acc = ref 0 in
          for v = 0 to n - 1 do
            acc := !acc + ecc v
          done;
          !acc
    in
    let eval idx req =
      let idx = Lazy.force idx in
      Option.iter
        (fun b -> if work idx req > b then raise Repro_obs.Backend.Over_budget)
        budget;
      Hub_index.eval ?pool idx ~targets:(targets idx) ~nearest:(nearest idx)
        ~farthest:(farthest idx) req
    in
    let op (req : Repro_obs.Ops.valid) =
      match (req :> Repro_obs.Ops.request) with
      | Dist _ | Batch _ ->
          (* point queries run the format's merge and never force the
             inverted index *)
          Repro_obs.Ops.brute ~n ~query:q (req :> Repro_obs.Ops.request)
      | One_to_many { targets = ts; _ }
      | Many_to_many { targets = ts; _ }
      | Top_k_among { among = ts; _ }
      | Farthest_among { among = ts; _ } ->
          eval (index_for ts) req
      | _ -> eval full req
    in
    Repro_obs.Backend.make_ops ~name:F.backend_name
      ~space_words:(space_words t) ~detailed:(detailed t) ~n ~op q

  let rec pack t =
    {
      kind = F.kind;
      n = t.n;
      size = size t;
      with_cache = (fun ~cache_slots -> pack (with_cache ~cache_slots t));
      cache_stats = (fun () -> cache_stats t);
      backend = backend t;
      ops = (fun ?owned ?budget () -> ops ?owned ?budget t);
    }
end
