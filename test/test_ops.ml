(* The ops algebra, differentially: every implementation of the
   request/response surface — the row and scatter kernels behind every
   store kind's ops (assoc, flat, mmap, compact), the resilient
   oracle's per-op degradation, and the BFS/Dijkstra ground truth —
   must produce equal responses, on random graphs (connected and
   disconnected, so the inf conventions are exercised), weighted
   graphs, and the paper's G_{2,1} gadget. The string codec, the
   validation layer and the eight new Wire opcodes are pinned
   alongside. *)

open Repro_graph
open Repro_hub
open Repro_core
open Repro_serve
module Backend = Repro_obs.Backend
module Ops = Repro_obs.Ops
module Wire = Repro_shard.Wire
module Pool = Repro_par.Pool

(* ----- ground truth -------------------------------------------------- *)

(* All-rows BFS truth, memoised per graph: [query] closes over the
   rows so Ops.brute over it is the reference implementation. *)
let truth_of g =
  let n = Graph.n g in
  let rows = Array.init n (fun s -> Traversal.bfs g s) in
  fun req -> Ops.brute ~n ~query:(fun u v -> rows.(u).(v)) req

let check_resp name ~expect got =
  if not (Ops.equal_response expect got) then
    Alcotest.failf "%s: expected %s, got %s" name
      (Ops.response_to_string expect)
      (Ops.response_to_string got)

(* A request battery covering all eight shapes, vertices drawn from
   the seed. One-to-many and many-to-many come with 4 targets and with
   all n, one list on each side of the stores' kernel rule wherever the
   labels are large enough to put 4 targets on the scatter side
   (test_both_kernels makes sure they are). *)
let requests_of ~seed n =
  let rng = Random.State.make [| seed |] in
  let v () = Random.State.int rng n in
  let all = Array.init n Fun.id in
  [
    Ops.Dist { u = v (); v = v () };
    Ops.Batch (Array.init 3 (fun _ -> (v (), v ())));
    Ops.One_to_many { source = v (); targets = Array.init 4 (fun _ -> v ()) };
    Ops.One_to_many { source = v (); targets = all };
    Ops.Many_to_many
      {
        sources = Array.init 2 (fun _ -> v ());
        targets = Array.init 3 (fun _ -> v ());
      };
    Ops.Many_to_many { sources = Array.init 2 (fun _ -> v ()); targets = all };
    Ops.Top_k_nearest { source = v (); k = Random.State.int rng (n + 2) };
    Ops.Top_k_among
      {
        source = v ();
        k = Random.State.int rng (n + 2);
        among =
          Array.of_list
            (List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id));
      };
    Ops.Eccentricity (v ());
    Ops.Farthest (v ());
    Ops.Farthest_among
      {
        source = v ();
        among =
          Array.of_list
            (List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id));
      };
    Ops.Diameter_radius;
  ]

(* ----- unweighted differential (connected + disconnected) ------------ *)

(* Every store kind over the same labels: the assoc labeling, flat,
   mmap, and compact both decoded from bytes (block 2, so labels span
   several blocks) and mapped. *)
let packed_stores flat =
  [
    ("assoc-ops", Hub_label.pack (Flat_hub.to_labels flat));
    ("flat-ops", Flat_hub.pack flat);
    ("mmap-ops", Mmap_hub.pack (Test_util.mmap_of_flat ~deep:true flat));
    ( "compact-ops",
      Compact_hub.pack (Test_util.compact_of_flat ~deep:true ~block:2 flat) );
    ( "compact-map-ops",
      Compact_hub.pack (Test_util.compact_map_of_flat ~deep:true flat) );
  ]

let packed_ops flat =
  List.map
    (fun (name, (p : Label_store.packed)) -> (name, p.ops ()))
    (packed_stores flat)

let diff_unweighted =
  Test_util.qcheck
    "ops: assoc = flat = mmap = compact = oracle = BFS brute (inf included)"
    ~count:50 Gen.small_graph_gen
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_graph params in
      let n = Graph.n g in
      let truth = truth_of g in
      let flat = Flat_hub.of_labels (Pll.build g) in
      let backends = packed_ops flat in
      let primary_oracle =
        Resilient_oracle.create
          ~primary:(Resilient_oracle.flat_primary flat)
          ~primary_ops:(Flat_hub.ops flat) g
      in
      let search_oracle = Resilient_oracle.create g in
      List.for_all
        (fun req ->
          let expect = truth req in
          List.iter
            (fun (name, b) -> check_resp name ~expect (Backend.op b req))
            backends;
          check_resp "oracle-primary" ~expect
            (fst (Resilient_oracle.op primary_oracle req));
          check_resp "oracle-search-only" ~expect
            (fst (Resilient_oracle.op search_oracle req));
          true)
        (requests_of ~seed n))

(* ----- weighted differential ----------------------------------------- *)

let diff_weighted =
  Test_util.qcheck "ops (weighted): flat = mmap = compact = Dijkstra brute"
    ~count:30
    (Gen.weighted_gen ~max_n:20 ~max_deg:3 ())
    (fun (((_, _, seed) as params), wseed) ->
      let w = Gen.build_weighted (params, wseed) in
      let n = Wgraph.n w in
      let rows = Array.init n (fun s -> Dijkstra.distances w s) in
      let truth = Ops.brute ~n ~query:(fun u v -> rows.(u).(v)) in
      let labels = Pll.build_w w in
      let backends = packed_ops (Flat_hub.of_labels labels) in
      List.for_all
        (fun req ->
          let expect = truth req in
          List.iter
            (fun (name, b) -> check_resp (name ^ "-w") ~expect (Backend.op b req))
            backends;
          true)
        (requests_of ~seed n))

(* ----- a shard's owned index = the full index ------------------------ *)

(* Every owned set a fleet of 1-4 shards can give a worker, plus the
   empty set and all of [0, n). *)
let owned_sets n =
  ([||] :: Array.init n Fun.id
  :: List.concat_map
       (fun spec ->
         List.concat_map
           (fun shards ->
             List.init shards (Partition.owned spec ~shards ~n))
           [ 1; 2; 3; 4 ])
       [ Partition.Hash; Partition.Range ])

(* Each aggregate kind, the target lists all owned (the worker's share
   and a prefix of it), mixed, and none owned. *)
let owned_requests ~seed ~n owned =
  let rng = Random.State.make [| seed |] in
  let v () = Random.State.int rng n in
  let mine = Array.make n false in
  Array.iter (fun w -> mine.(w) <- true) owned;
  let others = List.filter (fun w -> not mine.(w)) (List.init n Fun.id) in
  let prefix = Array.sub owned 0 (Array.length owned / 2) in
  let mixed = Array.of_list (Array.to_list prefix @ others) in
  let others = Array.of_list others in
  List.concat_map
    (fun ts ->
      let among = Array.of_list (List.sort compare (Array.to_list ts)) in
      [
        Ops.One_to_many { source = v (); targets = ts };
        Ops.Many_to_many { sources = [| v (); v () |]; targets = ts };
        Ops.Top_k_among
          {
            source = v ();
            k = Random.State.int rng (Array.length ts + 8);
            among;
          };
        Ops.Farthest_among { source = v (); among };
      ])
    [ owned; prefix; mixed; others ]
  @ [
      Ops.Top_k_nearest { source = v (); k = Random.State.int rng (n + 2) };
      Ops.Eccentricity (v ());
      Ops.Farthest (v ());
      Ops.Diameter_radius;
    ]

let diff_owned =
  Test_util.qcheck
    "ops ~owned = ops, byte for byte (assoc, flat, mmap, compact, \
     compact-map; hash and range owned sets at 1-4 shards, empty, all)"
    ~count:25 Gen.small_graph_gen
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_graph params in
      let n = Graph.n g in
      let stores = packed_stores (Flat_hub.of_labels (Pll.build g)) in
      List.iter
        (fun (name, (p : Label_store.packed)) ->
          let full = p.ops () in
          List.iter
            (fun owned ->
              let part = p.ops ~owned () in
              List.iter
                (fun req ->
                  Alcotest.(check string)
                    (name ^ " " ^ Ops.request_to_string req)
                    (Ops.response_to_string (Backend.op full req))
                    (Ops.response_to_string (Backend.op part req)))
                (owned_requests ~seed ~n owned))
            (owned_sets n))
        stores;
      true)

(* The [counter] of every span named [span] in [root]'s tree, in
   order; 0 where the span never counted it. *)
let counters ~span ~counter root =
  let rec collect acc (node : Repro_obs.Span.node) =
    let acc =
      if node.name = span then
        Option.value ~default:0 (List.assoc_opt counter node.counters) :: acc
      else acc
    in
    List.fold_left collect acc node.children
  in
  List.rev (collect [] root)

(* Spans named [hub-index.build] in a profiled run of [f], with their
   [entries] counts, in order. *)
let index_builds f =
  let r, root = Repro_obs.Span.profile ~name:"test" f in
  (r, counters ~span:"hub-index.build" ~counter:"entries" root)

(* A worker's shares force only the owned index; the first global
   aggregate forces the full one, and nothing is built twice. *)
let test_owned_index_only () =
  let g =
    Generators.random_connected (Random.State.make [| 11 |]) ~n:300 ~m:600
  in
  let n = Graph.n g in
  let truth = truth_of g in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let owned = Partition.owned Partition.Hash ~shards:2 ~n 0 in
  let entries vs = Array.fold_left (fun a v -> a + Flat_hub.size flat v) 0 vs in
  let all = entries (Array.init n Fun.id) in
  List.iter
    (fun (name, (p : Label_store.packed)) ->
      let b = p.ops ~owned () in
      let served reqs =
        index_builds (fun () ->
            List.iter
              (fun req -> check_resp name ~expect:(truth req) (Backend.op b req))
              reqs)
        |> snd
      in
      Alcotest.(check (list int))
        (name ^ ": shares build the owned index only")
        [ entries owned ]
        (served
           (List.map
              (fun source -> Ops.One_to_many { source; targets = owned })
              [ 0; 1; 150; 299 ]
           @ [ Ops.One_to_many { source = 7; targets = Array.sub owned 0 5 } ]));
      Alcotest.(check (list int))
        (name ^ ": eccentricity then builds the full index")
        [ all ]
        (served [ Ops.Eccentricity 5; Ops.One_to_many { source = 3; targets = owned } ]);
      Alcotest.(check (list int))
        (name ^ ": nothing is built twice")
        []
        (served [ Ops.Diameter_radius; Ops.Farthest 9 ]);
      Alcotest.(check (list int))
        (name ^ ": diameter first builds the full index only")
        [ all ]
        (snd (index_builds (fun () -> Backend.op (p.ops ~owned ()) Ops.Diameter_radius))))
    (packed_stores flat)

(* ----- top-k by threshold merge -------------------------------------- *)

(* Top_k_nearest, and Top_k_among over every owned set, against the BFS
   brute on every store kind — through the owned index (a worker's
   share) and the full one — with k on both sides of the merge/row
   rule: 0, 1, 32, and |among| - 1, |among|, |among| + 7. The graphs are
   often disconnected, so the [inf] tail and its id order are hit. *)
let diff_topk =
  Test_util.qcheck
    "top-k merge = row = BFS brute (every store; owned sets; k around the \
     merge/row rule; inf tail)"
    ~count:25 Gen.small_graph_gen
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_graph params in
      let n = Graph.n g in
      let truth = truth_of g in
      let source = seed mod n in
      let merged = ref 0 and rowed = ref 0 in
      List.iter
        (fun (name, (p : Label_store.packed)) ->
          let full = p.ops () in
          List.iter
            (fun among ->
              let m = Array.length among in
              let share = p.ops ~owned:among () in
              List.iter
                (fun k ->
                  if Label_store.merge_wins ~k ~candidates:m then incr merged
                  else incr rowed;
                  List.iter
                    (fun (kind, b) ->
                      List.iter
                        (fun req ->
                          check_resp
                            (Printf.sprintf "%s %s %s" name kind
                               (Ops.request_to_string req))
                            ~expect:(truth req) (Backend.op b req))
                        [
                          Ops.Top_k_among { source; k; among };
                          Ops.Top_k_nearest { source; k };
                        ])
                    [ ("share", share); ("full", full) ])
                (List.sort_uniq compare
                   (List.filter (fun k -> k >= 0)
                      [ 0; 1; 32; m - 1; m; m + 7 ])))
            (owned_sets n))
        (packed_stores (Flat_hub.of_labels (Pll.build g)));
      !merged > 0 && !rowed > 0)

(* A worker's top-k(32) share pops a few dozen entries, far fewer than
   the row it no longer builds would scan, and forces only the owned
   index. *)
let test_topk_share_merges () =
  let g =
    Generators.random_connected (Random.State.make [| 11 |]) ~n:300 ~m:600
  in
  let n = Graph.n g in
  let truth = truth_of g in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let owned = Partition.owned Partition.Hash ~shards:2 ~n 0 in
  (* the owned index's row_cost for [s], recounted from the labels *)
  let inv = Array.make n 0 in
  Array.iter
    (fun w ->
      Array.iter (fun (h, _) -> inv.(h) <- inv.(h) + 1) (Flat_hub.hubs flat w))
    owned;
  let row_cost s =
    Array.fold_left (fun acc (h, _) -> acc + inv.(h)) 0 (Flat_hub.hubs flat s)
  in
  let entries = Array.fold_left (fun a v -> a + Flat_hub.size flat v) 0 owned in
  let sources = [ 0; 1; 150; 299 ] in
  List.iter
    (fun (name, (p : Label_store.packed)) ->
      let b = p.ops ~owned () in
      let (), root =
        Repro_obs.Span.profile ~name:"test" (fun () ->
            List.iter
              (fun source ->
                Repro_obs.Span.run ~name:"share" (fun () ->
                    let req =
                      Ops.Top_k_among { source; k = 32; among = owned }
                    in
                    check_resp name ~expect:(truth req) (Backend.op b req)))
              sources)
      in
      Alcotest.(check (list int))
        (name ^ ": the top-k shares build the owned index only")
        [ entries ]
        (counters ~span:"hub-index.build" ~counter:"entries" root);
      List.iter2
        (fun source pops ->
          if pops = 0 || 10 * pops > row_cost source then
            Alcotest.failf "%s: source %d popped %d entries, row_cost %d" name
              source pops (row_cost source))
        sources
        (counters ~span:"share" ~counter:"merge_pops" root))
    (packed_stores flat)

(* ----- eccentricity by ball bitsets --------------------------------- *)

(* The ball kernel and the row, directly over every owned index from
   every source, then every eccentricity-type request through every
   store kind's share and full ops, against the brute truth; and
   Diameter_radius byte-identical at jobs 1 and 2 on every kind. *)
let farthest_agree ~n ~truth ~labels ~seed =
  let flat = Flat_hub.of_labels labels in
  let walk v f acc =
    Array.fold_left (fun acc (h, d) -> f acc h d) acc (Flat_hub.hubs flat v)
  in
  let source = seed mod n in
  let stores = packed_stores flat in
  List.iter
    (fun among ->
      let idx = Hub_index.build ~n ~walk among in
      if Hub_index.layer_words idx > Hub_index.total_size idx then
        Alcotest.failf "%d layer words over %d entries"
          (Hub_index.layer_words idx) (Hub_index.total_size idx);
      for s = 0 to n - 1 do
        let expect = truth (Ops.Farthest_among { source = s; among }) in
        check_resp "ball kernel" ~expect
          (Ops.farthest_response (Hub_index.farthest idx ~walk s));
        check_resp "row kernel" ~expect
          (Ops.farthest_response (Hub_index.row_farthest idx ~walk s among))
      done;
      List.iter
        (fun (name, (p : Label_store.packed)) ->
          List.iter
            (fun (kind, b) ->
              List.iter
                (fun req ->
                  check_resp
                    (Printf.sprintf "%s %s %s" name kind
                       (Ops.request_to_string req))
                    ~expect:(truth req) (Backend.op b req))
                [
                  Ops.Farthest_among { source; among };
                  Ops.Eccentricity source;
                  Ops.Farthest source;
                ])
            [ ("share", p.ops ~owned:among ()); ("full", p.ops ()) ])
        stores)
    (owned_sets n);
  let mm = Test_util.mmap_of_flat ~deep:true flat in
  let compact = Test_util.compact_of_flat ~deep:true ~block:2 flat in
  let assoc = Hub_label.Store.make ~cache_slots:0 labels in
  let kinds pool =
    [
      ("assoc", Hub_label.Store.ops ~pool assoc);
      ("flat", Flat_hub.ops ~pool flat);
      ("mmap", Mmap_hub.ops ~pool mm);
      ("compact", Compact_hub.ops ~pool compact);
    ]
  in
  let expect = truth Ops.Diameter_radius in
  Pool.with_pool ~jobs:1 (fun p1 ->
      Pool.with_pool ~jobs:2 (fun p2 ->
          List.iter2
            (fun (name, b1) (_, b2) ->
              let r1 = Backend.op b1 Ops.Diameter_radius in
              check_resp (name ^ " diameter, jobs 1") ~expect r1;
              Alcotest.(check string)
                (name ^ " diameter, jobs 1 = jobs 2")
                (Ops.response_to_string r1)
                (Ops.response_to_string (Backend.op b2 Ops.Diameter_radius)))
            (kinds p1) (kinds p2)));
  true

let diff_farthest =
  Test_util.qcheck
    "ball = row = BFS brute for ecc, farthest, farthest-among, diameter \
     (every store; owned sets; connected and disconnected)"
    ~count:20 Gen.small_graph_gen
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_graph params in
      farthest_agree ~n:(Graph.n g) ~truth:(truth_of g) ~labels:(Pll.build g)
        ~seed)

let diff_farthest_weighted =
  Test_util.qcheck
    "ball = row = Dijkstra brute for ecc, farthest, farthest-among, \
     diameter (weighted; every store; owned sets)"
    ~count:15
    (Gen.weighted_gen ~max_n:20 ~max_deg:3 ())
    (fun (((_, _, seed) as params), wseed) ->
      let w = Gen.build_weighted (params, wseed) in
      let n = Wgraph.n w in
      let rows = Array.init n (fun s -> Dijkstra.distances w s) in
      farthest_agree ~n
        ~truth:(Ops.brute ~n ~query:(fun u v -> rows.(u).(v)))
        ~labels:(Pll.build_w w) ~seed)

(* On the bench fixture's unweighted labels (n = 2000, random_connected
   m = 2n) and on labels weighted in [1, 1000), both kernels agree from
   every source, over a worker's share and the full index. The stores
   pick the ball on the fixture and the row on the weighted labels,
   whose many distinct distances leave few hubs layered and many radii
   to search. The [ball_hubs] counter shows which kernel ran. *)
let test_ball_or_row () =
  let picks ~name ~flat ~truth ~ball =
    let n = Flat_hub.n flat in
    let walk v f acc =
      Array.fold_left (fun acc (h, d) -> f acc h d) acc (Flat_hub.hubs flat v)
    in
    let owned = Partition.owned Partition.Hash ~shards:2 ~n 0 in
    let sources = [ 0; 17; n / 2; n - 1 ] in
    List.iter
      (fun (kind, among, req) ->
        let idx = Hub_index.build ~n ~walk among in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: layer words within the entries" name kind)
          true
          (Hub_index.layer_words idx <= Hub_index.total_size idx);
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: space counts the layers" name kind)
          true
          (Hub_index.space_words idx
          >= (2 * Hub_index.total_size idx) + Hub_index.layer_words idx);
        (* both kernels from every source: with more than 63 indexed
           vertices a bitset spans several words and some hubs stay
           unlayered, so the run-prefix scan runs too *)
        for s = 0 to n - 1 do
          if
            Hub_index.farthest idx ~walk s
            <> Hub_index.row_farthest idx ~walk s among
          then Alcotest.failf "%s %s: ball <> row from %d" name kind s
        done;
        List.iter
          (fun s ->
            let ball_cost = Hub_index.ball_cost idx ~walk s
            and row_cost = Hub_index.row_cost idx ~walk s in
            Alcotest.(check bool)
              (Printf.sprintf "%s %s %d: ball (%d) against row (%d)" name kind
                 s ball_cost row_cost)
              ball
              (Label_store.ball_wins ~ball_cost ~row_cost))
          sources;
        let b = Flat_hub.ops ~owned flat in
        let (), root =
          Repro_obs.Span.profile ~name:"test" (fun () ->
              List.iter
                (fun s ->
                  Repro_obs.Span.run ~name:"op" (fun () ->
                      let r = req s in
                      check_resp name ~expect:(truth r) (Backend.op b r)))
                sources)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: the ball kernel ran" name kind)
          ball
          (List.for_all (fun c -> c > 0)
             (counters ~span:"op" ~counter:"ball_hubs" root)))
      [
        ( "share",
          owned,
          fun source -> Ops.Farthest_among { source; among = owned } );
        ("full", Array.init n Fun.id, fun v -> Ops.Eccentricity v);
      ]
  in
  let g =
    Generators.random_connected (Random.State.make [| 20190721 |]) ~n:2000
      ~m:4000
  in
  let rows = Hashtbl.create 8 in
  let row s =
    match Hashtbl.find_opt rows s with
    | Some r -> r
    | None ->
        let r = Traversal.bfs g s in
        Hashtbl.add rows s r;
        r
  in
  picks ~name:"fixture" ~ball:true
    ~flat:(Flat_hub.of_labels (Pll.build g))
    ~truth:(Ops.brute ~n:2000 ~query:(fun u v -> (row u).(v)));
  let w = Gen.build_weighted ~min_w:1 ~max_w:1000 ((400, 800, 7), 11) in
  let rows = Array.init (Wgraph.n w) (fun s -> Dijkstra.distances w s) in
  picks ~name:"weighted" ~ball:false
    ~flat:(Flat_hub.of_labels (Pll.build_w w))
    ~truth:(Ops.brute ~n:(Wgraph.n w) ~query:(fun u v -> rows.(u).(v)))

(* An empty [among] has no farthest vertex: one answer, defined in
   [Ops], from the brute, every store's share, the resilient oracle's
   primary and its BFS fallback alike. *)
let test_farthest_among_empty () =
  let g = Gen.build_connected (12, 20, 3) in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let req = Ops.Farthest_among { source = 4; among = [||] } in
  let expect = Ops.farthest_response None in
  Alcotest.(check string) "the empty answer" "farthest -1:0"
    (Ops.response_to_string expect);
  check_resp "brute" ~expect (truth_of g req);
  List.iter
    (fun (name, (p : Label_store.packed)) ->
      check_resp name ~expect (Backend.op (p.ops ~owned:[||] ()) req);
      check_resp name ~expect (Backend.op (p.ops ()) req))
    (packed_stores flat);
  let primary =
    Resilient_oracle.create ~primary_ops:(Flat_hub.ops flat)
      ~primary:(Resilient_oracle.flat_primary flat) g
  in
  Alcotest.(check bool) "oracle, primary" true
    (Resilient_oracle.op primary req = (expect, Resilient_oracle.Primary));
  Alcotest.(check bool) "oracle, search only" true
    (Resilient_oracle.op (Resilient_oracle.create g) req
    = (expect, Resilient_oracle.Bfs))

(* ----- both one-to-many kernels, on labels large enough for both ----- *)

(* The stores' rule, {!Label_store.scatter_wins}, applied to entry
   counts recomputed from the labels. *)
let scatter_side flat ~source ~targets =
  let n = Flat_hub.n flat in
  let inv = Array.make n 0 in
  for v = 0 to n - 1 do
    Array.iter (fun (h, _) -> inv.(h) <- inv.(h) + 1) (Flat_hub.hubs flat v)
  done;
  let row_cost =
    Array.fold_left
      (fun acc (h, _) -> acc + inv.(h))
      0 (Flat_hub.hubs flat source)
  in
  let probed =
    Array.fold_left
      (fun acc w -> acc + Flat_hub.size flat w)
      (Flat_hub.size flat source) targets
  in
  Label_store.scatter_wins ~probed ~row_cost

let kernels_agree ~name ~n ~flat ~query =
  let truth = Ops.brute ~n ~query in
  let rng = Random.State.make [| n |] in
  let v () = Random.State.int rng n in
  let all = Array.init n Fun.id in
  let scattered = ref 0 and rowed = ref 0 in
  let reqs =
    List.concat_map
      (fun _ ->
        let s = v () in
        let four = Array.init 4 (fun _ -> v ()) in
        if scatter_side flat ~source:s ~targets:four then incr scattered;
        if not (scatter_side flat ~source:s ~targets:all) then incr rowed;
        [
          Ops.One_to_many { source = s; targets = four };
          Ops.One_to_many { source = s; targets = all };
          Ops.Many_to_many { sources = [| s; v () |]; targets = four };
        ])
      (List.init 8 Fun.id)
  in
  Alcotest.(check bool)
    (name ^ ": 4 targets reach the scatter kernel")
    true (!scattered > 0);
  Alcotest.(check bool)
    (name ^ ": all n targets take the row kernel")
    true (!rowed = 8);
  List.iter
    (fun (store, b) ->
      List.iter
        (fun req ->
          check_resp (name ^ " " ^ store) ~expect:(truth req) (Backend.op b req))
        reqs)
    (packed_ops flat)

let test_both_kernels () =
  let g = Generators.random_connected (Random.State.make [| 7 |]) ~n:400 ~m:800 in
  let rows = Array.init (Graph.n g) (fun s -> Traversal.bfs g s) in
  kernels_agree ~name:"unweighted" ~n:(Graph.n g)
    ~flat:(Flat_hub.of_labels (Pll.build g))
    ~query:(fun u v -> rows.(u).(v));
  let w = Gen.build_weighted ~min_w:1 ((400, 800, 7), 11) in
  let rows = Array.init (Wgraph.n w) (fun s -> Dijkstra.distances w s) in
  kernels_agree ~name:"weighted" ~n:(Wgraph.n w)
    ~flat:(Flat_hub.of_labels (Pll.build_w w))
    ~query:(fun u v -> rows.(u).(v))

(* ----- a shallow-opened file with a hostile entry -------------------- *)

(* Shallow validation checks offsets only, so an entry's hub id or
   distance may be anything. An aggregate that reads the entry must
   refuse it with a typed error, and the resilient oracle must turn
   that into a degraded, still exact answer — never an out-of-bounds
   access. Over a shard's owned index a request whose targets are all
   owned reads only the owned labels and the source's, so an entry
   outside them leaves it exact and served by the primary. *)
let test_hostile_entry () =
  let g = Gen.build_connected (40, 70, 5) in
  let n = Graph.n g in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let truth = truth_of g in
  (* HUBFLAT1 words: magic, n, total, n + 1 offsets, then (hub, dist)
     pairs; entry 0 is vertex 0's first *)
  let hub_word = 4 + n in
  (* range halves: [low] owns vertex 0, and with it the bad entry *)
  let low = Partition.owned Partition.Range ~shards:2 ~n 0
  and high = Partition.owned Partition.Range ~shards:2 ~n 1 in
  List.iter
    (fun (word, value) ->
      let bytes = Bytes.of_string (Hub_io.flat_to_bytes flat) in
      Bytes.set_int64_le bytes (8 * word) (Int64.of_int value);
      let path = Filename.temp_file "hubhard_hostile" ".bin" in
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc;
      let mm =
        match Mmap_hub.load_res ~deep:false path with
        | Ok m -> m
        | Error e -> Alcotest.failf "shallow load: %s" (Mmap_hub.error_to_string e)
      in
      Sys.remove path;
      let oracle ?owned () =
        Resilient_oracle.create ~spot_check_every:0
          ~primary:(Resilient_oracle.store_primary (Mmap_hub.pack mm))
          ~primary_ops:(Mmap_hub.ops ?owned mm) g
      in
      let refused ?owned reqs =
        let oracle = oracle ?owned () in
        List.iter
          (fun req ->
            (match Backend.op (Mmap_hub.ops ?owned mm) req with
            | exception Invalid_argument msg ->
                Alcotest.(check bool)
                  ("typed error, not a bounds fault: " ^ msg)
                  true (msg <> "index out of bounds")
            | _ -> Alcotest.fail "a hostile entry was served as primary");
            let resp, src = Resilient_oracle.op oracle req in
            check_resp "oracle over the hostile file" ~expect:(truth req) resp;
            Alcotest.(check bool) "flagged degraded" true
              (src <> Resilient_oracle.Primary))
          reqs
      in
      let global =
        [
          Ops.Top_k_nearest { source = 0; k = 5 };
          Ops.Eccentricity 0;
          Ops.Eccentricity 25;
          Ops.Farthest 7;
          Ops.Diameter_radius;
        ]
      in
      refused
        ([
           Ops.One_to_many { source = 0; targets = [| 1; 2; 3; 4 |] };
           Ops.One_to_many { source = 3; targets = Array.init n Fun.id };
           Ops.Many_to_many { sources = [| 0; 9 |]; targets = [| 5; 6 |] };
         ]
        @ global);
      (* the bad entry in an owned label, or in the source's *)
      refused ~owned:low
        [
          Ops.One_to_many { source = 25; targets = [| 1; 2; 3 |] };
          Ops.One_to_many { source = 30; targets = low };
          Ops.Top_k_among { source = 30; k = 5; among = low };
          Ops.Farthest_among { source = 30; among = low };
        ];
      refused ~owned:high
        ([
           Ops.One_to_many { source = 0; targets = high };
           Ops.Many_to_many { sources = [| 25; 0 |]; targets = [| 21; 22 |] };
           (* a target outside [high]: the full index *)
           Ops.One_to_many { source = 25; targets = [| 1; 25 |] };
           Ops.Farthest_among { source = 0; among = high };
         ]
        @ global);
      (* the bad entry in none of the labels a covered request reads *)
      let oracle = oracle ~owned:high () in
      List.iter
        (fun req ->
          check_resp "covered request over the owned index" ~expect:(truth req)
            (Backend.op (Mmap_hub.ops ~owned:high mm) req);
          let resp, src = Resilient_oracle.op oracle req in
          check_resp "oracle, covered request" ~expect:(truth req) resp;
          Alcotest.(check bool) "served by the primary" true
            (src = Resilient_oracle.Primary))
        [
          Ops.One_to_many { source = 25; targets = high };
          Ops.One_to_many { source = 3; targets = [| 21; 39 |] };
          Ops.Many_to_many { sources = [| 3; 25 |]; targets = high };
          Ops.Top_k_among { source = 3; k = 5; among = high };
          Ops.Farthest_among { source = 3; among = high };
        ])
    [ (hub_word, n + 5); (hub_word, -1); (hub_word + 1, -1); (hub_word + 1, Dist.inf) ]

(* ----- warmed aggregates allocate no row ----------------------------- *)

(* One op on a warmed n = 2000 store. An n-word row would be 2000 major
   words (arrays past 256 words skip the minor heap), so staying under
   256 shows the op reused its scratch row. The minor heap is emptied
   first, so no minor collection promotes anything mid-op. *)
let test_aggregates_allocate_no_row () =
  let g =
    Generators.random_connected (Random.State.make [| 20190721 |]) ~n:2000
      ~m:4000
  in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let reqs =
    [
      Ops.Eccentricity 17;
      Ops.Farthest 17;
      Ops.Top_k_nearest { source = 17; k = 32 };
      Ops.Top_k_among
        {
          source = 17;
          k = 32;
          among = Partition.owned Partition.Hash ~shards:2 ~n:2000 0;
        };
    ]
  in
  List.iter
    (fun (store, b) ->
      List.iter (fun req -> ignore (Backend.op b req)) reqs;
      List.iter
        (fun req ->
          Gc.minor ();
          let _, _, w0 = Gc.counters () in
          ignore (Backend.op b req);
          let _, _, w1 = Gc.counters () in
          let words = w1 -. w0 in
          if words >= 256. then
            Alcotest.failf "%s %s: %.0f major words" store (Ops.name req) words)
        reqs)
    (packed_ops flat)

(* ----- pinned inf conventions on a disconnected graph ---------------- *)

let test_disconnected_pinned () =
  (* two components: 0-1 and 2-3 *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let b = Flat_hub.ops flat in
  let render req = Ops.response_to_string (Backend.op b req) in
  Alcotest.(check string) "ecc inf" "ecc inf" (render (Ops.Eccentricity 0));
  Alcotest.(check string) "diam/rad inf" "diam inf rad inf"
    (render Ops.Diameter_radius);
  Alcotest.(check string) "farthest smallest inf vertex" "farthest 2:inf"
    (render (Ops.Farthest 0));
  Alcotest.(check string) "top-k crosses components as inf"
    "nearest 0:0,1:1,2:inf,3:inf"
    (render (Ops.Top_k_nearest { source = 0; k = 4 }));
  Alcotest.(check string) "top-k among: inf tail in id order"
    "nearest 1:1,2:inf,3:inf"
    (render (Ops.Top_k_among { source = 0; k = 5; among = [| 1; 2; 3 |] }));
  Alcotest.(check string) "one-to-many renders inf" "dists 0,inf"
    (render (Ops.One_to_many { source = 0; targets = [| 0; 2 |] }))

(* ----- the G_{2,1} degree-3 gadget ----------------------------------- *)

let test_gadget () =
  let grid = Grid_graph.create ~b:2 ~l:1 () in
  let g = (Degree_gadget.build grid).Degree_gadget.graph in
  let n = Graph.n g in
  let truth = truth_of g in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let mm = Test_util.mmap_of_flat ~deep:true flat in
  let fo = Flat_hub.ops flat and mo = Mmap_hub.ops mm in
  let reqs =
    Ops.Diameter_radius
    :: List.concat_map
         (fun v ->
           [
             Ops.Eccentricity v;
             Ops.Farthest v;
             Ops.Top_k_nearest { source = v; k = 5 };
           ])
         [ 0; n / 2; n - 1 ]
  in
  List.iter
    (fun req ->
      let expect = truth req in
      check_resp "gadget-flat" ~expect (Backend.op fo req);
      check_resp "gadget-mmap" ~expect (Backend.op mo req))
    reqs

(* ----- top-k = sorted full row (the qcheck property) ----------------- *)

let topk_is_sorted_row =
  Test_util.qcheck "top-k = k_nearest of the full BFS row" ~count:80
    Gen.small_graph_gen
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_graph params in
      let n = Graph.n g in
      let rng = Random.State.make [| seed |] in
      let source = Random.State.int rng n in
      let k = Random.State.int rng (n + 2) in
      let flat = Flat_hub.of_labels (Pll.build g) in
      let got = Backend.op (Flat_hub.ops flat) (Ops.Top_k_nearest { source; k }) in
      let expect =
        Ops.R_nearest
          (Ops.k_nearest ~k (Array.mapi (fun v d -> (v, d)) (Traversal.bfs g source)))
      in
      check_resp "topk-row" ~expect got;
      true)

(* ----- k_nearest = a plain sort, for every k -------------------------- *)

(* Independent of the stores: random candidate sets with repeated
   distances and repeated pairs, k from 0 past the set's size. *)
let k_nearest_is_sort =
  Test_util.qcheck "k_nearest = prefix of the (dist, vertex) sort" ~count:300
    QCheck2.Gen.(
      pair (int_range 0 200)
        (list_size (int_range 0 150) (pair (int_range 0 40) (int_range 0 9))))
    (fun (k, l) ->
      let pairs = Array.of_list l in
      let sorted =
        List.sort (fun (v1, d1) (v2, d2) -> compare (d1, v1) (d2, v2)) l
      in
      let expect = List.filteri (fun i _ -> i < k) sorted in
      Array.to_list (Ops.k_nearest ~k pairs) = expect)

(* ----- pooled fan-out is jobs-invariant ------------------------------ *)

let test_jobs_invariant () =
  let g = Gen.build_connected (24, 40, 2026) in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let reqs =
    [
      Ops.Many_to_many
        { sources = [| 0; 5; 11 |]; targets = [| 1; 2; 20; 23 |] };
      Ops.Diameter_radius;
    ]
  in
  Pool.with_pool ~jobs:1 (fun p1 ->
      Pool.with_pool ~jobs:2 (fun p2 ->
          let b1 = Flat_hub.ops ~pool:p1 flat
          and b2 = Flat_hub.ops ~pool:p2 flat in
          List.iter
            (fun req ->
              check_resp "jobs 1 = jobs 2" ~expect:(Backend.op b1 req)
                (Backend.op b2 req))
            reqs))

(* ----- string codec and validation ----------------------------------- *)

let test_request_string_roundtrip () =
  List.iter
    (fun req ->
      match Ops.request_of_string (Ops.request_to_string req) with
      | Ok r ->
          Alcotest.(check bool)
            (Ops.request_to_string req)
            true (r = req)
      | Error msg ->
          Alcotest.failf "%s failed to re-parse: %s"
            (Ops.request_to_string req) msg)
    (requests_of ~seed:99 30);
  List.iter
    (fun s ->
      match Ops.request_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" s)
    [ ""; "bogus"; "dist:1"; "ecc:x"; "top-k:"; "top-k:1"; "one-to-many:3" ]

let test_validate () =
  let ok r = Alcotest.(check bool) "valid" true (Ops.validate ~n:5 r = Ok ()) in
  let bad r =
    Alcotest.(check bool)
      "invalid" true
      (match Ops.validate ~n:5 r with Error _ -> true | Ok () -> false)
  in
  ok (Ops.Eccentricity 4);
  ok (Ops.Top_k_nearest { source = 0; k = 0 });
  ok (Ops.Top_k_among { source = 0; k = 9; among = [| 0; 2; 4 |] });
  ok (Ops.Top_k_among { source = 4; k = 0; among = [||] });
  ok Ops.Diameter_radius;
  bad (Ops.Top_k_among { source = 0; k = 1; among = [| 2; 1 |] });
  bad (Ops.Top_k_among { source = 0; k = 1; among = [| 1; 1 |] });
  bad (Ops.Top_k_among { source = 0; k = 1; among = [| 1; 5 |] });
  bad (Ops.Top_k_among { source = 0; k = -1; among = [| 1 |] });
  bad (Ops.Eccentricity 5);
  bad (Ops.Dist { u = -1; v = 0 });
  bad (Ops.Top_k_nearest { source = 0; k = -1 });
  bad (Ops.One_to_many { source = 0; targets = [| 1; 7 |] })

(* ----- the eight new Wire opcodes ------------------------------------ *)

let payload_of_frame frame =
  match Wire.decode_frame frame ~pos:0 with
  | Ok (payload, _) -> payload
  | Error e -> Alcotest.failf "decode_frame: %s" (Wire.error_to_string e)

let test_wire_op_roundtrips () =
  let reqs =
    [
      Wire.Op_row { id = 7; source = 3; targets = [| 0; 5; 2 |] };
      Wire.Op_row { id = 8; source = 0; targets = [||] };
      Wire.Op_ecc { id = 9; v = 4 };
      Wire.Op_topk { id = 10; source = 1; k = 3 };
      Wire.Op_diam { id = 11 };
    ]
  in
  List.iter
    (fun r ->
      match Wire.request_of_payload (payload_of_frame (Wire.encode_request r))
      with
      | Ok r' -> Alcotest.(check bool) "request round-trip" true (r = r')
      | Error e -> Alcotest.failf "request: %s" (Wire.error_to_string e))
    reqs;
  let resps =
    [
      Wire.Row_payload
        { id = 1; dists = [| 0; 3; Dist.inf |]; source = 0; degraded = false };
      Wire.Ecc_payload
        { id = 2; vertex = 5; dist = 9; source = 2; degraded = true };
      Wire.Ecc_payload
        { id = 3; vertex = -1; dist = 0; source = 0; degraded = false };
      Wire.Topk_payload
        { id = 4; pairs = [| (0, 0); (3, 1) |]; source = 1; degraded = false };
      Wire.Topk_payload { id = 5; pairs = [||]; source = 0; degraded = false };
      Wire.Diam_payload
        {
          id = 6;
          diameter = Dist.inf;
          radius = 4;
          vertices = 17;
          source = 3;
          degraded = true;
        };
    ]
  in
  List.iter
    (fun r ->
      match
        Wire.response_of_payload (payload_of_frame (Wire.encode_response r))
      with
      | Ok r' -> Alcotest.(check bool) "response round-trip" true (r = r')
      | Error e -> Alcotest.failf "response: %s" (Wire.error_to_string e))
    resps

let test_wire_op_adversarial () =
  (* ragged arrays surface as Bad_payload (arity checks), short fixed
     bodies as Truncated — either way a typed error, never an
     exception and never a garbage value *)
  let is_bad = function
    | Error (Wire.Bad_payload _ | Wire.Truncated _) -> true
    | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
    | Ok _ -> false
  in
  let truncated_req r cut =
    let p = payload_of_frame (Wire.encode_request r) in
    Wire.request_of_payload (String.sub p 0 (String.length p - cut))
  in
  let truncated_resp r cut =
    let p = payload_of_frame (Wire.encode_response r) in
    Wire.response_of_payload (String.sub p 0 (String.length p - cut))
  in
  (* chopping one byte breaks both the minimum-length and the
     arity (mod 8 / mod 16) checks; never an exception, never junk *)
  Alcotest.(check bool) "Op_row ragged tail" true
    (is_bad
       (truncated_req (Wire.Op_row { id = 1; source = 0; targets = [| 2 |] }) 1));
  Alcotest.(check bool) "Op_ecc short" true
    (is_bad (truncated_req (Wire.Op_ecc { id = 1; v = 0 }) 8));
  Alcotest.(check bool) "Op_topk short" true
    (is_bad (truncated_req (Wire.Op_topk { id = 1; source = 0; k = 1 }) 1));
  Alcotest.(check bool) "Row_payload ragged tail" true
    (is_bad
       (truncated_resp
          (Wire.Row_payload
             { id = 1; dists = [| 4 |]; source = 0; degraded = false })
          3));
  Alcotest.(check bool) "Topk_payload ragged pair" true
    (is_bad
       (truncated_resp
          (Wire.Topk_payload
             { id = 1; pairs = [| (0, 1) |]; source = 0; degraded = false })
          8));
  Alcotest.(check bool) "Diam_payload short" true
    (is_bad
       (truncated_resp
          (Wire.Diam_payload
             {
               id = 1;
               diameter = 0;
               radius = 0;
               vertices = 1;
               source = 0;
               degraded = false;
             })
          1))

let suite =
  [
    diff_unweighted;
    diff_weighted;
    diff_owned;
    Alcotest.test_case "owned shares build only the owned index" `Quick
      test_owned_index_only;
    diff_topk;
    Alcotest.test_case "a top-k share merges, popping far below its row"
      `Quick test_topk_share_merges;
    diff_farthest;
    diff_farthest_weighted;
    Alcotest.test_case "the fixture picks the ball, weighted labels the row"
      `Quick test_ball_or_row;
    Alcotest.test_case "farthest among no candidate" `Quick
      test_farthest_among_empty;
    Alcotest.test_case "disconnected conventions pinned" `Quick
      test_disconnected_pinned;
    Alcotest.test_case "G_{2,1} gadget ops" `Slow test_gadget;
    topk_is_sorted_row;
    k_nearest_is_sort;
    Alcotest.test_case "one-to-many: scatter and row kernels = truth" `Quick
      test_both_kernels;
    Alcotest.test_case "shallow file with an out-of-range hub id or distance"
      `Quick test_hostile_entry;
    Alcotest.test_case "warmed aggregates allocate no row" `Quick
      test_aggregates_allocate_no_row;
    Alcotest.test_case "pooled ops are jobs-invariant" `Quick
      test_jobs_invariant;
    Alcotest.test_case "request string codec" `Quick
      test_request_string_roundtrip;
    Alcotest.test_case "request validation" `Quick test_validate;
    Alcotest.test_case "wire op frames round-trip" `Quick
      test_wire_op_roundtrips;
    Alcotest.test_case "wire op frames: adversarial decodes" `Quick
      test_wire_op_adversarial;
  ]
