(* Contract suite for Label_store.packed, the one value the serving
   layers take. Every store kind — the assoc labeling, flat heap, mmap,
   compact heap (block 2, so the skip-table leap runs) and compact
   mapped — each cached and cache-free, must honour the same contract:

   - Resilient_oracle.store_primary ~step_budget raises Over_budget
     exactly when size u + size v exceeds the budget;
   - a repeated query on a cached backend traces Hit and scans nothing;
   - query_many equals the query loop at jobs 1, 2 and 4;
   - out-of-range endpoints keep each module's Invalid_argument texts.

   The per-store suites (test_flat_hub, test_mmap_hub, test_compact_hub)
   still pin each format's own behaviour. *)

open Repro_hub
module RO = Repro_serve.Resilient_oracle
module Backend = Repro_obs.Backend
module Trace = Repro_obs.Trace

let fixture =
  lazy (Flat_hub.of_labels (Pll.build (Gen.build_connected (40, 80, 77))))

type case = {
  name : string;
  prefix : string;  (* the module name the Invalid_argument texts carry *)
  cached : bool;
  store : Label_store.packed;
  query : int -> int -> int;
  query_many : ?pool:Repro_par.Pool.t -> (int * int) array -> int array;
}

(* Fresh stores (and fresh caches) on every call. *)
let cases () =
  let flat = Lazy.force fixture in
  let case ~name ~prefix ~kind ~with_cache ~pack ~query ~query_many s slots =
    let s = with_cache ~cache_slots:slots s in
    {
      name =
        Printf.sprintf "%s (%s)" name
          (if slots = 0 then "cache-free" else "cached");
      prefix;
      cached = slots > 0;
      store =
        (let p = pack s in
         Test_util.check_bool (name ^ ": kind") true
           (p.Label_store.kind = kind);
         p);
      query = query s;
      query_many = (fun ?pool ps -> query_many ?pool s ps);
    }
  in
  List.concat_map
    (fun slots ->
      [
        case ~name:"assoc" ~prefix:"Hub_label" ~kind:"assoc"
          ~with_cache:Hub_label.Store.with_cache ~pack:Hub_label.Store.pack
          ~query:Hub_label.Store.query ~query_many:Hub_label.Store.query_many
          (Hub_label.Store.make ~cache_slots:0 (Flat_hub.to_labels flat))
          slots;
        case ~name:"flat heap" ~prefix:"Flat_hub" ~kind:"flat"
          ~with_cache:Flat_hub.with_cache ~pack:Flat_hub.pack
          ~query:Flat_hub.query ~query_many:Flat_hub.query_many flat slots;
        case ~name:"mmap" ~prefix:"Mmap_hub" ~kind:"mmap"
          ~with_cache:Mmap_hub.with_cache ~pack:Mmap_hub.pack
          ~query:Mmap_hub.query ~query_many:Mmap_hub.query_many
          (Test_util.mmap_of_flat flat) slots;
        case ~name:"compact heap (block 2)" ~prefix:"Compact_hub"
          ~kind:"compact" ~with_cache:Compact_hub.with_cache
          ~pack:Compact_hub.pack ~query:Compact_hub.query
          ~query_many:Compact_hub.query_many
          (Test_util.compact_of_flat ~block:2 flat)
          slots;
        case ~name:"compact mapped" ~prefix:"Compact_hub" ~kind:"compact"
          ~with_cache:Compact_hub.with_cache ~pack:Compact_hub.pack
          ~query:Compact_hub.query ~query_many:Compact_hub.query_many
          (Test_util.compact_map_of_flat flat)
          slots;
      ])
    [ 0; 16 ]

let pairs n = Gen.query_pairs ~seed:31 ~n 48

let test_budget () =
  let flat = Lazy.force fixture in
  List.iter
    (fun c ->
      let size = c.store.Label_store.size in
      Array.iter
        (fun (u, v) ->
          let cost = size u + size v in
          List.iter
            (fun budget ->
              let b = RO.store_primary ~step_budget:budget c.store in
              match Backend.query b u v with
              | exception RO.Over_budget ->
                  if cost <= budget then
                    Alcotest.failf "%s: Over_budget at cost %d <= budget %d"
                      c.name cost budget
              | d ->
                  if cost > budget then
                    Alcotest.failf "%s: answered at cost %d > budget %d"
                      c.name cost budget;
                  Test_util.check_int (c.name ^ ": budgeted answer")
                    (Flat_hub.query flat u v) d)
            [ cost - 1; cost; cost + 1 ])
        (pairs c.store.Label_store.n))
    (cases ())

let test_cache_trace () =
  List.iter
    (fun c ->
      let size = c.store.Label_store.size in
      Array.iter
        (fun (u, v) ->
          let b = c.store.Label_store.backend in
          let d1, _ = Backend.query_detailed b u v in
          let d2, tr = Backend.query_detailed b u v in
          Test_util.check_int (c.name ^ ": repeat answer") d1 d2;
          if c.cached then begin
            Test_util.check_bool (c.name ^ ": repeat is a hit") true
              (tr.Trace.cache = Trace.Hit);
            Test_util.check_int (c.name ^ ": a hit scans nothing") 0
              tr.Trace.entries_scanned
          end
          else begin
            Test_util.check_bool (c.name ^ ": uncached") true
              (tr.Trace.cache = Trace.Uncached);
            Test_util.check_int (c.name ^ ": scans both hubsets")
              (size u + size v) tr.Trace.entries_scanned
          end)
        (pairs c.store.Label_store.n);
      match c.store.Label_store.cache_stats () with
      | Some (hits, _) when c.cached ->
          Test_util.check_bool (c.name ^ ": hits counted") true (hits > 0)
      | None when not c.cached -> ()
      | _ -> Alcotest.failf "%s: cache_stats disagrees with the cache" c.name)
    (cases ())

let test_query_many_jobs () =
  List.iter
    (fun c ->
      let ps = pairs c.store.Label_store.n in
      let want = Array.map (fun (u, v) -> c.query u v) ps in
      List.iter
        (fun jobs ->
          Repro_par.Pool.with_pool ~jobs (fun pool ->
              Test_util.check_bool
                (Printf.sprintf "%s: batch = loop at jobs %d" c.name jobs)
                true
                (c.query_many ~pool ps = want)))
        [ 1; 2; 4 ])
    (cases ())

let test_error_texts () =
  List.iter
    (fun c ->
      let n = c.store.Label_store.n in
      let raises what f =
        Alcotest.check_raises
          (Printf.sprintf "%s: %s" c.name what)
          (Invalid_argument (c.prefix ^ "." ^ what))
          (fun () -> ignore (f ()))
      in
      raises "query" (fun () -> c.query 0 n);
      raises "query" (fun () -> c.query (-1) 0);
      raises "query" (fun () ->
          Backend.query_detailed c.store.Label_store.backend n 0);
      raises "query_many" (fun () -> c.query_many [| (0, 1); (0, n) |]);
      raises "size" (fun () -> c.store.Label_store.size n);
      Alcotest.check_raises
        (c.name ^ ": negative slots")
        (Invalid_argument (c.prefix ^ ": cache_slots must be non-negative"))
        (fun () -> ignore (c.store.Label_store.with_cache ~cache_slots:(-1))))
    (cases ())

let suite =
  [
    Alcotest.test_case "step budget: Over_budget iff size u + size v > budget"
      `Quick test_budget;
    Alcotest.test_case "cached repeat traces Hit, scans 0" `Quick
      test_cache_trace;
    Alcotest.test_case "query_many = loop at jobs 1, 2, 4" `Quick
      test_query_many_jobs;
    Alcotest.test_case "out-of-range Invalid_argument texts" `Quick
      test_error_texts;
  ]
