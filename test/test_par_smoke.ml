(* Multicore determinism smoke, run by `dune build @par-smoke` with
   HUBHARD_JOBS=2 in the environment: the resolved default pool must
   pick the env var up, and the three pinned artifacts — labeling,
   stats line, span JSON — must hash identically across jobs 1, 2 and
   4 plus a repeated same-seed run; batched point queries and pooled
   aggregates (many-to-many, diameter/radius) on packed stores must
   equal their jobs = 1 answers. Exits nonzero on any mismatch. *)

open Repro_graph
open Repro_hub
open Repro_core
module Pool = Repro_par.Pool
module Checksum = Repro_par.Checksum
module Span = Repro_obs.Span
module Clock = Repro_obs.Clock

let failures = ref 0

let check name ok =
  if ok then Printf.printf "par-smoke ok: %s\n%!" name
  else (
    incr failures;
    Printf.printf "par-smoke FAIL: %s\n%!" name)

let rng seed = Random.State.make [| seed |]

let digest jobs =
  Pool.with_pool ~jobs (fun pool ->
      let g = Generators.random_bounded_degree (rng 17) ~n:27 ~d:3 in
      let clock = Clock.read (Clock.manual ~auto_step:1L ()) in
      let (labels, stats), span =
        Span.profile ~clock ~name:"par-smoke" (fun () ->
            Rs_hub.build ~rng:(rng 18) ~d:3 ~pool g)
      in
      let stats_repr =
        Printf.sprintf "%d %d %d %d %d %d %d %d %d" stats.Rs_hub.d
          stats.Rs_hub.n stats.Rs_hub.global_size stats.Rs_hub.q_total
          stats.Rs_hub.r_total stats.Rs_hub.f_total stats.Rs_hub.bucket_count
          stats.Rs_hub.matching_edge_total stats.Rs_hub.total_hubs
      in
      ( Checksum.sha256_hex (Hub_io.to_string labels),
        Checksum.sha256_hex stats_repr,
        Checksum.sha256_hex (Span.to_json span) ))

let () =
  (match Sys.getenv_opt "HUBHARD_JOBS" with
  | Some s ->
      check
        (Printf.sprintf "HUBHARD_JOBS=%s resolves default_jobs" s)
        (Pool.default_jobs () = int_of_string s)
  | None -> check "no HUBHARD_JOBS: default is recommended count" true);
  let reference = digest 1 in
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "rs_hub artifacts identical at jobs=%d" jobs)
        (digest jobs = reference))
    [ 2; 4 ];
  check "repeated same-seed run identical" (digest 2 = digest 2);
  (* batch fan-out over the resolved default pool *)
  let g = Generators.random_connected (rng 4) ~n:48 ~m:100 in
  let flat = Flat_hub.of_labels (Pll.build g) in
  let pairs =
    let r = rng 5 in
    Array.init 64 (fun _ -> (Random.State.int r 48, Random.State.int r 48))
  in
  let point = Array.map (fun (u, v) -> Flat_hub.query flat u v) pairs in
  check "query_many over default pool = point queries"
    (Flat_hub.query_many ~pool:(Pool.default ()) flat pairs = point);
  (* pooled aggregates over the default pool = jobs 1: each task takes
     its own scratch row or scatter table, whatever domain runs it *)
  let compact =
    match Compact_hub.of_bytes_res (Compact_hub.to_bytes ~block:4 flat) with
    | Ok c -> c
    | Error e -> failwith (Compact_hub.error_to_string e)
  in
  let stores =
    [
      ("flat", fun pool -> Flat_hub.ops ?pool flat);
      ("compact", fun pool -> Compact_hub.ops ?pool compact);
    ]
  in
  let aggregates =
    [
      Repro_obs.Ops.Many_to_many
        { sources = Array.init 24 (fun i -> 2 * i); targets = [| 1; 7; 30 |] };
      Repro_obs.Ops.Many_to_many
        { sources = [| 3; 11; 40 |]; targets = Array.init 48 Fun.id };
      Repro_obs.Ops.Diameter_radius;
    ]
  in
  List.iter
    (fun (store, ops) ->
      let pooled = ops None in
      Pool.with_pool ~jobs:1 (fun p1 ->
          let serial = ops (Some p1) in
          List.iter
            (fun req ->
              check
                (Printf.sprintf "%s %s over default pool = jobs 1" store
                   (Repro_obs.Ops.name req))
                (Repro_obs.Backend.op pooled req
                = Repro_obs.Backend.op serial req))
            aggregates))
    stores;
  if !failures > 0 then exit 1
