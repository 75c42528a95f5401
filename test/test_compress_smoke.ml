(* End-to-end smoke for the compressed HUBFLAT2 label store
   (`dune build @compress-smoke`, part of @ci).

   Exercises the whole compress → load → serve path through the real
   CLI:

   1. `hubhard label --pack --compress` writes a HUBFLAT2 file +
      sidecar graph and prints a packed-size summary; the compressed
      file is strictly smaller than the HUBFLAT1 pack of the same
      labeling;
   2. the compressed bytes load in-process (deep-validated, heap and
      mmap paths) and agree with a heap Flat_hub parse of the
      uncompressed pack on every sampled pair;
   3. `hubhard serve query --compact` answers byte-for-byte what
      `--flat` answers on the same seeded pairs, also with
      `--cache-slots 64`; `serve stats --compact --cache-slots`
      reports cache hits; a `serve loop --compact` snapshot records
      store kind "compact";
   4. a shard router drives real `hubhard serve worker --compact`
      subprocesses (exec spawn) — every answer exact and
      primary-served, so N workers share one compressed on-disk store;
   5. malformed inputs die with the documented exit codes: a truncated
      compressed file exits 10 (parse failure), `--compact --mmap`
      exits 124 (bad arguments), `label --compress` without `--pack`
      exits 124.

   Runs as its own executable: the router may fork, so this binary
   stays strictly domain-free. The CLI path arrives as argv.(1). *)

open Repro_graph
open Repro_hub
open Repro_shard

let passed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("compress-smoke FAIL: " ^ s);
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

let contains sub s =
  let sn = String.length sub and n = String.length s in
  let rec go i = i + sn <= n && (String.sub s i sn = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ----- 1. compress a labeling through the CLI ------------------------ *)

let flat_file = Filename.temp_file "compress_smoke_flat" ".bin"
let packed_file = Filename.temp_file "compress_smoke" ".bin"
let graph_file = packed_file ^ ".graph"

let label_args pack =
  [ "label"; "--graph"; "sparse"; "-n"; "220"; "--seed"; "11"; "--pack"; pack ]

let () =
  let code, _ = run_cli (label_args flat_file) in
  check "pack: HUBFLAT1 reference pack exits 0" (code = 0);
  let code, lines = run_cli (label_args packed_file @ [ "--compress" ]) in
  check "pack: label --pack --compress exits 0" (code = 0);
  check "pack: summary line printed"
    (List.exists (fun l -> contains "packed" l && contains "HUBFLAT2" l) lines);
  check "pack: compressed file exists" (Sys.file_exists packed_file);
  check "pack: sidecar graph exists" (Sys.file_exists graph_file);
  let ic = open_in_bin packed_file in
  let magic = really_input_string ic 8 in
  close_in ic;
  check "pack: HUBFLAT2 magic" (String.equal magic Hub_io.compact_magic);
  let z2 = (Unix.stat packed_file).Unix.st_size in
  let z1 = (Unix.stat flat_file).Unix.st_size in
  check "pack: compressed is strictly smaller than HUBFLAT1" (z2 < z1);
  Printf.printf "scenario 1 (CLI pack --compress, %d -> %d bytes): ok\n%!" z1 z2

(* ----- 2. compact load agrees with the heap parse -------------------- *)

let graph =
  match Graph_io.of_string_res (read_file graph_file) with
  | Ok g -> g
  | Error e -> fail "graph sidecar line %d: %s" e.Graph_io.line e.Graph_io.msg

let flat =
  match Hub_io.flat_of_bytes_res (read_file flat_file) with
  | Ok f -> f
  | Error e -> fail "heap parse at byte %d: %s" e.Hub_io.line e.Hub_io.msg

let store =
  match Compact_hub.load_res ~deep:true packed_file with
  | Ok s -> s
  | Error e -> fail "compact load: %s" (Compact_hub.error_to_string e)

let () =
  let n = Graph.n graph in
  check "compact: n matches graph" (Compact_hub.n store = n);
  check "compact: totals match heap parse"
    (Compact_hub.total_size store = Flat_hub.total_size flat);
  let heap =
    match Compact_hub.of_bytes_res ~deep:true (read_file packed_file) with
    | Ok s -> s
    | Error e -> fail "compact heap load: %s" (Compact_hub.error_to_string e)
  in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 500 do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    let truth = Flat_hub.query flat u v in
    if Compact_hub.query store u v <> truth then
      fail "compact(map) vs heap parse differ on d(%d,%d)" u v;
    if Compact_hub.query heap u v <> truth then
      fail "compact(heap) vs heap parse differ on d(%d,%d)" u v
  done;
  incr passed;
  Printf.printf "scenario 2 (compact = heap parse on packed file): ok\n%!"

(* ----- 3. serve query --compact = --flat through the CLI ------------- *)

(* Answer lines are "u v dist source"; the store kinds differ only in
   the source column, so compare the distance triples. *)
let answer_triples lines =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | u :: v :: d :: _ when int_of_string_opt u <> None -> Some (u, v, d)
      | _ -> None)
    lines

let serve_query ~labels extra =
  run_cli
    ([
       "serve"; "query"; "--graph-file"; graph_file; "--labels-file"; labels;
       "--num"; "40"; "--seed"; "5";
     ]
    @ extra)

let () =
  let code_f, lines_f = serve_query ~labels:flat_file [ "--flat" ] in
  let code_c, lines_c = serve_query ~labels:packed_file [ "--compact" ] in
  check "serve: --flat exits 0" (code_f = 0);
  check "serve: --compact exits 0" (code_c = 0);
  let tf = answer_triples lines_f and tc = answer_triples lines_c in
  check "serve: 40 answers each" (List.length tf = 40 && List.length tc = 40);
  check "serve: identical distances across stores" (tf = tc);
  (* --cache-slots puts the direct-mapped cache in front of the compact
     store: the whole output stays byte-identical to --flat, and
     'serve stats' reports cache hits *)
  let code_k, lines_k = serve_query ~labels:packed_file [ "--compact"; "--cache-slots"; "64" ] in
  check "serve: --compact --cache-slots 64 exits 0" (code_k = 0);
  check "serve: --compact --cache-slots 64 output = --flat output"
    (lines_k = lines_f);
  let code_s, lines_s =
    run_cli
      [
        "serve"; "stats"; "--graph-file"; graph_file; "--labels-file";
        packed_file; "--compact"; "--cache-slots"; "4096"; "--num"; "2000";
        "--seed"; "5";
      ]
  in
  check "serve stats: --compact --cache-slots exits 0" (code_s = 0);
  check "serve stats: store cache reports hits"
    (List.exists
       (fun line ->
         match
           Scanf.sscanf line "store cache: %d hits, %d misses%!" (fun h _ -> h)
         with
         | h -> h > 0
         | exception _ -> false)
       lines_s);
  let q_file = Filename.temp_file "compress_smoke" ".queries" in
  let snap_file = Filename.temp_file "compress_smoke" ".snap.json" in
  let oc = open_out q_file in
  output_string oc "0 1\n2 3\n";
  close_out oc;
  let code, _ =
    run_cli
      [
        "serve"; "loop"; "--graph-file"; graph_file; "--labels-file";
        packed_file; "--compact"; "--queries"; q_file; "--metrics-out";
        snap_file;
      ]
  in
  check "serve loop: --compact exits 0" (code = 0);
  check "serve loop: snapshot records the store kind"
    (contains "\"store\": \"compact\"" (read_file snap_file));
  Sys.remove q_file;
  Sys.remove snap_file;
  Printf.printf
    "scenario 3 (serve query --compact = --flat, store in snapshot): ok\n%!"

(* ----- 4. exec-mode shard workers in --compact mode ------------------ *)

let () =
  let spawn =
    Router.Exec
      (fun ~shard ->
        [|
          cli; "serve"; "worker"; "--graph-file"; graph_file; "--labels-file";
          packed_file; "--compact"; "--shards"; "3"; "--shard";
          string_of_int shard; "--partition"; "hash"; "--clock-step"; "1000";
        |])
  in
  let router =
    Router.create
      {
        (Router.default_config graph) with
        Router.shards = 3;
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
      check "exec: exact" (a.Router.dist = Compact_hub.query store u v);
      check "exec: primary-served"
        (a.Router.source = Wire.source_primary && not a.Router.degraded))
    answers;
  Router.shutdown router;
  Printf.printf "scenario 4 (exec workers serve --compact): ok\n%!"

(* ----- 5. malformed inputs die with typed exit codes ----------------- *)

let () =
  let bytes = read_file packed_file in
  let trunc = Filename.temp_file "compress_smoke_trunc" ".bin" in
  let oc = open_out_bin trunc in
  output_string oc (String.sub bytes 0 (String.length bytes - 9));
  close_out oc;
  let code, _ =
    run_cli
      [
        "serve"; "query"; "--graph-file"; graph_file; "--labels-file"; trunc;
        "--compact"; "--num"; "2";
      ]
  in
  check "hostile: truncated compressed file exits 10 (parse failure)"
    (code = 10);
  Sys.remove trunc;
  let code, _ =
    run_cli
      [
        "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
        packed_file; "--compact"; "--mmap"; "--num"; "2";
      ]
  in
  check "hostile: --compact --mmap exits 124 (bad arguments)" (code = 124);
  let code, _ =
    run_cli [ "label"; "--graph"; "sparse"; "-n"; "20"; "--compress" ]
  in
  check "hostile: --compress without --pack exits 124 (bad arguments)"
    (code = 124);
  Printf.printf "scenario 5 (typed failure exits): ok\n%!";
  Sys.remove packed_file;
  Sys.remove flat_file;
  Sys.remove (flat_file ^ ".graph");
  Sys.remove graph_file;
  Printf.printf "compress-smoke: all scenarios passed (%d checks)\n%!" !passed
