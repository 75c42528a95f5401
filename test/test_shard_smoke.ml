(* Process-level smoke for the supervised sharded serving tier
   (`dune build @shard-smoke`, part of @ci).

   Runs as its own executable, not under alcotest: the router forks,
   and OCaml 5 only permits forking while no domain has ever been
   spawned — so this binary stays strictly domain-free. Scenarios:

   1. clean fan-out across 2 forked shards — every answer exact and
      primary-served;
   2. the ISSUE chaos scenario: 3 shards, shard 1 killed mid-batch —
      every answer still exact (differential against the full
      labeling), degraded frames confined to the dead shard's
      partition, the worker restarted within its backoff budget, and
      the merged metrics snapshot byte-identical across two same-seed
      runs under the manual clock, and its sha256 pinned;
   2b. chaos across a window boundary: in one 3-shard batch large
      enough for two 256-request windows per shard, shard 1 is killed
      and shard 2 corrupts a frame, both at frame 300 (inside the
      second window) — every answer exact, degraded answers only from
      the faulted shards' partitions, snapshot byte-identical across
      same-seed runs and pinned;
   3. restart budget 0 — the shard quarantines and its partition
      degrades (exactly) forever;
   4. exec-mode workers: the real `hubhard serve worker` subprocess
      speaking the same wire protocol;
   4b. `hubhard serve router --worker-exe` end to end, over the assoc
      labels file and a mapped HUBFLAT1 file — the CLI's own worker argv
      must start workers that answer every query exactly as primary;
   5. `hubhard serve loop` draining on SIGTERM with a complete final
      snapshot (never a truncated or dangling .tmp file).

   The CLI path arrives as argv.(1). *)

open Repro_graph
open Repro_hub
open Repro_shard
module Metrics = Repro_obs.Metrics
module Fault_injector = Repro_serve.Fault_injector

let passed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("shard-smoke FAIL: " ^ s);
      exit 1)
    fmt

let check name b =
  if b then incr passed else fail "%s" name

(* Pinned, not just repeatable: a change to the router's clock reads or
   counters changes these bytes even when two runs of the changed code
   still agree with each other. *)
let check_pin name json pinned =
  let h = Repro_par.Checksum.sha256_hex json in
  if h <> pinned then fail "%s sha256 %s <> pinned %s" name h pinned;
  incr passed

let pinned_chaos_sha256 =
  "16dc319d85d5fa9f7dac7f3d6ca073689f94a61fbac9f342a9f19dc9138b9cbb"
let pinned_window_chaos_sha256 =
  "29729d5401491f7a68f90bf61606868ebde906ce633f5ee0835b6b1639e86211"

(* ----- fixture ------------------------------------------------------- *)

let graph =
  let rng = Random.State.make [| 20190721 |] in
  Generators.random_connected rng ~n:240 ~m:480

let labels = Pll.build graph
let n = Graph.n graph

let queries =
  let rng = Random.State.make [| 77 |] in
  Array.init 60 (fun _ -> (Random.State.int rng n, Random.State.int rng n))

let truth = Array.map (fun (u, v) -> Hub_label.query labels u v) queries

let base_cfg =
  {
    (Router.default_config graph) with
    Router.labels = Some labels;
    clock_step = Some 1000L;
    seed = 7;
  }

(* ----- 1. clean fan-out ---------------------------------------------- *)

let () =
  let router =
    Router.create { base_cfg with Router.shards = 2; partition = Partition.Hash }
  in
  let answers = Router.query_batch router queries in
  Array.iteri
    (fun i (a : Router.answer) ->
      check "clean: exact" (a.Router.dist = truth.(i));
      check "clean: primary" (a.Router.source = Wire.source_primary);
      check "clean: not degraded" (not a.Router.degraded))
    answers;
  let sup = Router.supervisor router in
  check "clean: both shards healthy"
    (Supervisor.state sup 0 = Supervisor.Healthy
    && Supervisor.state sup 1 = Supervisor.Healthy);
  let snap = Router.merged_snapshot router in
  let shard_queries s =
    Option.value ~default:0
      (Metrics.find_counter snap (Printf.sprintf "shard%d.worker.queries" s))
  in
  check "clean: workers served the batch between them"
    (shard_queries 0 + shard_queries 1 = Array.length queries);
  check "clean: router counted the batch"
    (Metrics.find_counter snap "router.queries" = Some (Array.length queries));
  Router.shutdown router;
  Printf.printf "scenario 1 (clean 2-shard fan-out): ok\n%!"

(* ----- 2. kill one of three workers mid-batch ------------------------ *)

let chaos_run () =
  let cfg =
    {
      base_cfg with
      Router.shards = 3;
      partition = Partition.Hash;
      chaos = [ (1, Fault_injector.chaos ~after_frames:8 Fault_injector.Kill) ];
    }
  in
  let router = Router.create cfg in
  let answers = Router.query_batch router queries in
  (* merged_snapshot heals first, so the restarted worker is counted *)
  let snap = Router.merged_snapshot router in
  let sup = Router.supervisor router in
  let states = Array.init 3 (fun s -> Supervisor.state sup s) in
  let restarts = Array.init 3 (fun s -> Supervisor.restarts_used sup s) in
  (* after the restart the revived shard serves its partition again *)
  let after = Router.query_batch router (Array.sub queries 0 12) in
  Router.shutdown router;
  (answers, Metrics.to_json snap, states, restarts, after)

let () =
  let answers, json1, states, restarts, after = chaos_run () in
  let _, json2, _, _, _ = chaos_run () in
  check "chaos: merged snapshot byte-identical across same-seed runs"
    (json1 = json2);
  check_pin "chaos: merged snapshot" json1 pinned_chaos_sha256;
  let degraded_total = ref 0 in
  Array.iteri
    (fun i (a : Router.answer) ->
      check "chaos: every answer exact despite the kill"
        (a.Router.dist = truth.(i));
      if a.Router.degraded then begin
        incr degraded_total;
        let u, v = queries.(i) in
        check "chaos: degraded answers only for the dead shard's partition"
          (Partition.owner_of_pair Partition.Hash ~shards:3 ~n u v = 1);
        check "chaos: degraded answers say so in the source"
          (a.Router.source = Wire.source_router)
      end)
    answers;
  check "chaos: the outage was visible" (!degraded_total > 0);
  check "chaos: but did not take out other partitions"
    (!degraded_total < Array.length queries / 2);
  check "chaos: exactly one restart, on shard 1"
    (restarts.(0) = 0 && restarts.(1) = 1 && restarts.(2) = 0);
  check "chaos: all shards healthy after healing"
    (Array.for_all (fun s -> s = Supervisor.Healthy) states);
  Array.iteri
    (fun i (a : Router.answer) ->
      check "chaos: restarted shard serves its partition again"
        ((not a.Router.degraded) && a.Router.dist = truth.(i)))
    after;
  Printf.printf
    "scenario 2 (kill 1/3 mid-batch): ok — %d/%d degraded-but-exact, \
     snapshot stable\n%!"
    !degraded_total (Array.length queries)

(* ----- 2b. kill and corrupt inside the second window of a batch ----- *)

(* about 400 pairs per shard: every shard's share spans two windows *)
let big_queries =
  let rng = Random.State.make [| 78 |] in
  Array.init 1200 (fun _ -> (Random.State.int rng n, Random.State.int rng n))

let big_truth = Array.map (fun (u, v) -> Hub_label.query labels u v) big_queries

let window_chaos_run () =
  let cfg =
    {
      base_cfg with
      Router.shards = 3;
      partition = Partition.Hash;
      chaos =
        [
          (1, Fault_injector.chaos ~after_frames:300 Fault_injector.Kill);
          (2, Fault_injector.chaos ~after_frames:300 Fault_injector.Corrupt_frame);
        ];
    }
  in
  let router = Router.create cfg in
  let answers = Router.query_batch router big_queries in
  let snap = Router.merged_snapshot router in
  Router.shutdown router;
  (answers, snap, Metrics.to_json snap)

let () =
  let answers, snap, json1 = window_chaos_run () in
  let _, _, json2 = window_chaos_run () in
  check "window chaos: merged snapshot byte-identical across same-seed runs"
    (json1 = json2);
  check_pin "window chaos: merged snapshot" json1 pinned_window_chaos_sha256;
  let per_shard = Array.make 3 0 and degraded = Array.make 3 0 in
  Array.iteri
    (fun i (a : Router.answer) ->
      let u, v = big_queries.(i) in
      let owner = Partition.owner_of_pair Partition.Hash ~shards:3 ~n u v in
      per_shard.(owner) <- per_shard.(owner) + 1;
      check "window chaos: every answer exact" (a.Router.dist = big_truth.(i));
      if a.Router.degraded then begin
        degraded.(owner) <- degraded.(owner) + 1;
        check "window chaos: degraded answers only from faulted shards"
          (owner = 1 || owner = 2);
        check "window chaos: degraded answers say so in the source"
          (a.Router.source = Wire.source_router)
      end)
    answers;
  check "window chaos: every shard's share spans two windows"
    (Array.for_all (fun c -> c > 300) per_shard);
  (* the kill lands on the 299th query answer (frame 1 was the ping's
     Pong): the first 298 pairs were served, the rest of the share
     degrades *)
  check "window chaos: the killed shard degrades from the fault on"
    (degraded.(1) = per_shard.(1) - 298);
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  check "window chaos: the corrupted frame was retried"
    (counter "router.retries" >= 1 && counter "router.bad_frames" >= 1);
  check "window chaos: one restart, on the killed shard"
    (counter "router.restarts" = 1);
  Printf.printf
    "scenario 2b (kill and corrupt at frame 300, second window): ok — \
     %d/%d degraded-but-exact, snapshot stable\n%!"
    (Array.fold_left ( + ) 0 degraded) (Array.length big_queries)

(* ----- 3. zero restart budget => quarantine -------------------------- *)

let () =
  let cfg =
    {
      base_cfg with
      Router.shards = 2;
      supervisor = { Supervisor.default_config with Supervisor.max_restarts = 0 };
      chaos = [ (0, Fault_injector.chaos ~after_frames:1 Fault_injector.Kill) ];
    }
  in
  let router = Router.create cfg in
  let sup = Router.supervisor router in
  check "quarantine: budget 0 means no second chance"
    (Supervisor.state sup 0 = Supervisor.Quarantined);
  let answers = Router.query_batch router queries in
  Array.iteri
    (fun i (a : Router.answer) ->
      let u, v = queries.(i) in
      let owner = Partition.owner_of_pair Partition.Range ~shards:2 ~n u v in
      check "quarantine: still exact everywhere" (a.Router.dist = truth.(i));
      check "quarantine: degradation tracks ownership"
        (a.Router.degraded = (owner = 0)))
    answers;
  let snap = Router.merged_snapshot router in
  check "quarantine: gauge exported"
    (Metrics.find_counter snap "router.queries" <> None
    && Metrics.find_counter snap "shard0.worker.queries" = None);
  Router.shutdown router;
  Printf.printf "scenario 3 (quarantine at budget 0): ok\n%!"

(* ----- 4. exec-mode workers through the real CLI --------------------- *)

let cli =
  if Array.length Sys.argv < 2 then
    fail "usage: %s <path-to-hubhard-cli>" Sys.argv.(0)
  else Sys.argv.(1)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let graph_file, labels_file =
  let gf = Filename.temp_file "shard_smoke" ".graph"
  and lf = Filename.temp_file "shard_smoke" ".labels" in
  write_file gf (Graph_io.to_string graph);
  write_file lf (Hub_io.to_string labels);
  (gf, lf)

let () =
  let spawn =
    Router.Exec
      (fun ~shard ->
        [|
          cli; "serve"; "worker"; "--graph-file"; graph_file; "--labels-file";
          labels_file; "--shards"; "2"; "--shard"; string_of_int shard;
          "--partition"; "hash"; "--clock-step"; "1000";
        |])
  in
  let router =
    Router.create
      { base_cfg with Router.shards = 2; partition = Partition.Hash; spawn }
  in
  let some = Array.sub queries 0 16 in
  let answers = Router.query_batch router some in
  Array.iteri
    (fun i (a : Router.answer) ->
      check "exec: exact"
        (a.Router.dist = truth.(i) && a.Router.source = Wire.source_primary))
    answers;
  Router.shutdown router;
  Printf.printf "scenario 4 (exec-mode CLI workers): ok\n%!"

(* ----- 4b. the CLI's own exec argv builder --------------------------- *)

(* `serve router --worker-exe` builds each worker's argv itself. An
   argument the worker does not accept kills it at argv parsing, and
   its shard then serves degraded answers; over the assoc labels file
   and over a mapped HUBFLAT1 file every answer must stay primary. *)
let () =
  let packed_file = Filename.temp_file "shard_smoke" ".bin" in
  write_file packed_file (Hub_io.flat_to_bytes (Flat_hub.of_labels labels));
  let queries_file = Filename.temp_file "shard_smoke" ".queries" in
  write_file queries_file
    (String.concat ""
       (Array.to_list
          (Array.map (fun (u, v) -> Printf.sprintf "%d %d\n" u v) queries)));
  let rows = Array.init n (fun s -> Traversal.bfs graph s) in
  let run mode store_args =
    let ic =
      Unix.open_process_args_in cli
        (Array.of_list
           ([ cli; "serve"; "router"; "--graph-file"; graph_file ]
           @ store_args
           @ [
               "--worker-exe"; cli; "--shards"; "2"; "--partition"; "hash";
               "--queries"; queries_file; "--echo";
             ]))
    in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    let status = Unix.close_process_in ic in
    check (mode ^ ": exit 0") (status = Unix.WEXITED 0);
    let echoed =
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ u; v; d; src ] -> Some (int_of_string u, int_of_string v, d, src)
          | _ -> None)
        lines
    in
    check (mode ^ ": every query echoed")
      (List.length echoed = Array.length queries);
    List.iter
      (fun (u, v, d, src) ->
        check (mode ^ ": BFS-exact") (d = string_of_int rows.(u).(v));
        check (mode ^ ": primary") (src = "primary"))
      echoed
  in
  run "assoc" [ "--labels-file"; labels_file ];
  run "mmap" [ "--labels-file"; packed_file; "--mmap" ];
  Sys.remove packed_file;
  Sys.remove queries_file;
  Printf.printf "scenario 4b (serve router --worker-exe, assoc and mmap): ok\n%!"

(* ----- 5. serve loop drains on SIGTERM ------------------------------- *)

let () =
  let snap_path = Filename.temp_file "shard_smoke" ".snap.json" in
  Sys.remove snap_path;
  let q_r, q_w = Unix.pipe ~cloexec:false () in
  let echo_r, echo_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "loop"; "--graph-file"; graph_file; "--labels-file";
        labels_file; "--echo"; "--flush-every"; "0"; "--metrics-out"; snap_path;
      |]
      q_r echo_w Unix.stderr
  in
  Unix.close q_r;
  Unix.close echo_w;
  let qc = Unix.out_channel_of_descr q_w in
  let ec = Unix.in_channel_of_descr echo_r in
  output_string qc "0 1\n";
  flush qc;
  (* the echoed answer proves the loop (and its handlers) are live *)
  let echo1 = input_line ec in
  check "sigterm: echo before the signal" (String.length echo1 > 0);
  Unix.kill pid Sys.sigterm;
  (* the handler only sets a flag; one more line unblocks the read so
     the loop can notice it and drain *)
  output_string qc "1 2\n";
  flush qc;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> incr passed
  | Unix.WEXITED c -> fail "sigterm: serve loop exited %d" c
  | Unix.WSIGNALED s -> fail "sigterm: killed by signal %d (no graceful drain)" s
  | Unix.WSTOPPED _ -> fail "sigterm: stopped");
  close_out qc;
  close_in ec;
  check "sigterm: final snapshot written" (Sys.file_exists snap_path);
  check "sigterm: no dangling .tmp — atomic rename completed"
    (not (Sys.file_exists (snap_path ^ ".tmp")));
  let ic = open_in_bin snap_path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let contains sub =
    let sn = String.length sub and bn = String.length body in
    let rec go i = i + sn <= bn && (String.sub body i sn = sub || go (i + 1)) in
    go 0
  in
  check "sigterm: snapshot is complete JSON"
    (String.length body > 2
    && body.[0] = '{'
    && String.sub body (String.length body - 2) 2 = "}\n");
  check "sigterm: marked final" (contains "\"final\": true");
  check "sigterm: drain reason recorded" (contains "serve_loop.drain");
  Printf.printf "scenario 5 (serve loop SIGTERM drain): ok\n%!";
  Sys.remove graph_file;
  Sys.remove labels_file;
  Sys.remove snap_path;
  Printf.printf "shard-smoke: all scenarios passed (%d checks)\n%!" !passed
