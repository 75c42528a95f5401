(* End-to-end smoke for the zero-copy mmap label store
   (`dune build @mmap-smoke`, part of @ci).

   Exercises the whole pack → map → serve path through the real CLI:

   1. `hubhard label --pack` writes a HUBFLAT1 file + sidecar graph;
   2. the packed bytes mmap-load in-process (deep-validated) and agree
      with a heap Flat_hub parse of the same file on every pair;
   3. `hubhard serve query --mmap` answers byte-for-byte what
      `--flat` answers on the same seeded pairs, also with
      `--cache-slots 64`; `serve stats --mmap --cache-slots` reports
      cache hits;
   4. a shard router drives real `hubhard serve worker --mmap`
      subprocesses (exec spawn) — every answer exact and
      primary-served, so N workers share one on-disk store through the
      page cache instead of N heap parses;
   5. malformed inputs die with the documented exit codes: a truncated
      packed file exits 10 (parse failure), `--mmap --flat` exits 124
      (bad arguments).

   Runs as its own executable: the router may fork, so this binary
   stays strictly domain-free. The CLI path arrives as argv.(1). *)

open Repro_graph
open Repro_hub
open Repro_shard

let passed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("mmap-smoke FAIL: " ^ s);
      exit 1)
    fmt

let check name b = if b then incr passed else fail "%s" name

let cli =
  if Array.length Sys.argv < 2 then
    fail "usage: %s <path-to-hubhard-cli>" Sys.argv.(0)
  else Sys.argv.(1)

(* Run the CLI with [args], return (exit code, stdout lines). stderr
   passes through so failures are diagnosable in the build log. *)
let run_cli args =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> fail "CLI killed by signal %d" s
    | Unix.WSTOPPED _ -> fail "CLI stopped"
  in
  (code, List.rev !lines)

(* ----- 1. pack a labeling through the CLI ---------------------------- *)

let packed_file = Filename.temp_file "mmap_smoke" ".bin"
let graph_file = packed_file ^ ".graph"

let () =
  let code, _ =
    run_cli
      [
        "label"; "--graph"; "sparse"; "-n"; "220"; "--seed"; "11"; "--pack";
        packed_file;
      ]
  in
  check "pack: label --pack exits 0" (code = 0);
  check "pack: packed file exists" (Sys.file_exists packed_file);
  check "pack: sidecar graph exists" (Sys.file_exists graph_file);
  let ic = open_in_bin packed_file in
  let magic = really_input_string ic 8 in
  close_in ic;
  check "pack: HUBFLAT1 magic" (String.equal magic Hub_io.packed_magic);
  Printf.printf "scenario 1 (CLI pack): ok\n%!"

(* ----- 2. mmap load agrees with the heap parse ----------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let graph =
  match Graph_io.of_string_res (read_file graph_file) with
  | Ok g -> g
  | Error e -> fail "graph sidecar line %d: %s" e.Graph_io.line e.Graph_io.msg

let flat =
  match Hub_io.flat_of_bytes_res (read_file packed_file) with
  | Ok f -> f
  | Error e -> fail "heap parse at byte %d: %s" e.Hub_io.line e.Hub_io.msg

let store =
  match Mmap_hub.load_res ~deep:true packed_file with
  | Ok s -> s
  | Error e -> fail "mmap load: %s" (Mmap_hub.error_to_string e)

let () =
  let n = Graph.n graph in
  check "mmap: n matches graph" (Mmap_hub.n store = n);
  check "mmap: totals match heap parse"
    (Mmap_hub.total_size store = Flat_hub.total_size flat);
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 500 do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if Mmap_hub.query store u v <> Flat_hub.query flat u v then
      fail "mmap vs heap parse differ on d(%d,%d)" u v
  done;
  incr passed;
  Printf.printf "scenario 2 (mmap = heap parse on packed file): ok\n%!"

(* ----- 3. serve query --mmap = --flat through the CLI ---------------- *)

(* Answer lines are "u v dist source"; the store kinds differ only in
   the source column, so compare the distance triples. *)
let answer_triples lines =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | u :: v :: d :: _ when int_of_string_opt u <> None ->
          Some (u, v, d)
      | _ -> None)
    lines

let serve_query extra =
  let code, lines =
    run_cli
      ([
         "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
         packed_file; "--num"; "40"; "--seed"; "5";
       ]
      @ extra)
  in
  (code, lines)

let () =
  let code_f, lines_f = serve_query [ "--flat" ] in
  let code_m, lines_m = serve_query [ "--mmap" ] in
  check "serve: --flat exits 0" (code_f = 0);
  check "serve: --mmap exits 0" (code_m = 0);
  let tf = answer_triples lines_f and tm = answer_triples lines_m in
  check "serve: 40 answers each" (List.length tf = 40 && List.length tm = 40);
  check "serve: identical distances across stores" (tf = tm);
  (* the loop's metrics snapshot must name the store kind it served *)
  let contains sub s =
    let sn = String.length sub and n = String.length s in
    let rec go i = i + sn <= n && (String.sub s i sn = sub || go (i + 1)) in
    go 0
  in
  (* --cache-slots puts the direct-mapped cache in front of the mmap
     store: the whole output stays byte-identical to --flat, and
     'serve stats' reports cache hits *)
  let code_k, lines_k = serve_query [ "--mmap"; "--cache-slots"; "64" ] in
  check "serve: --mmap --cache-slots 64 exits 0" (code_k = 0);
  check "serve: --mmap --cache-slots 64 output = --flat output"
    (lines_k = lines_f);
  let code_s, lines_s =
    run_cli
      [
        "serve"; "stats"; "--graph-file"; graph_file; "--labels-file";
        packed_file; "--mmap"; "--cache-slots"; "4096"; "--num"; "2000";
        "--seed"; "5";
      ]
  in
  check "serve stats: --mmap --cache-slots exits 0" (code_s = 0);
  check "serve stats: store cache reports hits"
    (List.exists
       (fun line ->
         match
           Scanf.sscanf line "store cache: %d hits, %d misses%!" (fun h _ -> h)
         with
         | h -> h > 0
         | exception _ -> false)
       lines_s);
  let q_file = Filename.temp_file "mmap_smoke" ".queries" in
  let snap_file = Filename.temp_file "mmap_smoke" ".snap.json" in
  let oc = open_out q_file in
  output_string oc "0 1\n2 3\n";
  close_out oc;
  let code, _ =
    run_cli
      [
        "serve"; "loop"; "--graph-file"; graph_file; "--labels-file";
        packed_file; "--mmap"; "--queries"; q_file; "--metrics-out"; snap_file;
      ]
  in
  check "serve loop: --mmap exits 0" (code = 0);
  check "serve loop: snapshot records the store kind"
    (contains "\"store\": \"mmap\"" (read_file snap_file));
  Sys.remove q_file;
  Sys.remove snap_file;
  Printf.printf "scenario 3 (serve query --mmap = --flat, store in snapshot): ok\n%!"

(* ----- 4. exec-mode shard workers in --mmap mode --------------------- *)

let () =
  let spawn =
    Router.Exec
      (fun ~shard ->
        [|
          cli; "serve"; "worker"; "--graph-file"; graph_file; "--labels-file";
          packed_file; "--mmap"; "--shards"; "2"; "--shard";
          string_of_int shard; "--partition"; "hash"; "--clock-step"; "1000";
        |])
  in
  let router =
    Router.create
      {
        (Router.default_config graph) with
        Router.shards = 2;
        partition = Partition.Hash;
        spawn;
        clock_step = Some 1000L;
        seed = 7;
      }
  in
  let n = Graph.n graph in
  let rng = Random.State.make [| 7 |] in
  let queries =
    Array.init 24 (fun _ -> (Random.State.int rng n, Random.State.int rng n))
  in
  let answers = Router.query_batch router queries in
  Array.iteri
    (fun i (a : Router.answer) ->
      let u, v = queries.(i) in
      check "exec: exact" (a.Router.dist = Mmap_hub.query store u v);
      check "exec: primary-served"
        (a.Router.source = Wire.source_primary && not a.Router.degraded))
    answers;
  Router.shutdown router;
  Printf.printf "scenario 4 (exec workers serve --mmap): ok\n%!"

(* ----- 5. malformed inputs die with typed exit codes ----------------- *)

let () =
  let bytes = read_file packed_file in
  let trunc = Filename.temp_file "mmap_smoke_trunc" ".bin" in
  let oc = open_out_bin trunc in
  output_string oc (String.sub bytes 0 (String.length bytes - 9));
  close_out oc;
  let code, _ =
    run_cli
      [
        "serve"; "query"; "--graph-file"; graph_file; "--labels-file"; trunc;
        "--mmap"; "--num"; "2";
      ]
  in
  check "hostile: truncated packed file exits 10 (parse failure)" (code = 10);
  Sys.remove trunc;
  let code, _ =
    run_cli
      [
        "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
        packed_file; "--mmap"; "--flat"; "--num"; "2";
      ]
  in
  check "hostile: --mmap --flat exits 124 (bad arguments)" (code = 124);
  Printf.printf "scenario 5 (typed failure exits): ok\n%!";
  Sys.remove packed_file;
  Sys.remove graph_file;
  Printf.printf "mmap-smoke: all scenarios passed (%d checks)\n%!" !passed
