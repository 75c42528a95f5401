(* End-to-end smoke for the ops query surface
   (`dune build @ops-smoke`, part of @ci).

   Drives every aggregate operation through the real CLI, end to end:

   1. `hubhard label --pack` writes a HUBFLAT1 file + sidecar graph;
   2. `serve query --op` answers every operation in assoc, flat and
      mmap modes — the answer lines are byte-identical across all
      three stores and across --jobs values, pinned by sha256;
   3. a 3-shard `serve router --op` run (fork spawn, hash partition)
      produces the same answer bytes as the in-process stores, and two
      same-seed runs are byte-identical to each other; with faults
      injected into the ops evaluator the answers stay exact and are
      flagged bfs; a top-k, eccentricity, farthest or farthest-among
      past the reachable set of a disconnected graph ends at inf (at
      the smallest unreachable id), in process and through the router;
      --budget refuses an aggregate whose predicted work exceeds it,
      falling back to bfs;
   4. the shared store-kind resolver rejects the documented bad
      combinations with exit 124 on every subcommand that takes them,
      and bad --op spellings exit 124 / out-of-range operands exit 11.

   Runs as its own executable: the router forks, so this binary stays
   strictly domain-free. The CLI path arrives as argv.(1). *)

let passed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ops-smoke FAIL: " ^ s);
      exit 1)
    fmt

let check name b = if b then incr passed else fail "%s" name

let cli =
  if Array.length Sys.argv < 2 then
    fail "usage: %s <path-to-hubhard-cli>" Sys.argv.(0)
  else Sys.argv.(1)

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

let packed_file = Filename.temp_file "ops_smoke" ".bin"
let graph_file = packed_file ^ ".graph"

let () =
  let code, _ =
    run_cli
      [
        "label"; "--graph"; "sparse"; "-n"; "180"; "--seed"; "23"; "--pack";
        packed_file;
      ]
  in
  check "pack: label --pack exits 0" (code = 0);
  check "pack: packed file exists" (Sys.file_exists packed_file);
  check "pack: sidecar graph exists" (Sys.file_exists graph_file);
  Printf.printf "scenario 1 (CLI pack): ok\n%!"

(* ----- 2. every op, every store, identical bytes --------------------- *)

(* Answer lines are "req -> resp source"; stores differ only in the
   source column, so strip it before comparing. *)
let op_answers lines =
  List.filter_map
    (fun line ->
      match String.index_opt line '>' with
      | Some _ ->
          let parts = String.split_on_char ' ' line in
          (match List.rev parts with
          | _source :: rest -> Some (String.concat " " (List.rev rest))
          | [] -> None)
      | None -> None)
    lines

let ops_args =
  [
    "--op"; "dist:0,5";
    "--op"; "batch:0,1;2,3;7,7";
    "--op"; "one-to-many:2:0,7,11,2";
    "--op"; "many-to-many:1,2:3,4,5";
    "--op"; "top-k:5,6";
    "--op"; "ecc:3";
    "--op"; "farthest:9";
    "--op"; "diam";
  ]

let serve_query extra =
  run_cli
    ([
       "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
       packed_file;
     ]
    @ ops_args @ extra)

let sha256 answers =
  Repro_par.Checksum.sha256_hex (String.concat "\n" answers)

let assoc_answers =
  let code, lines = serve_query [] in
  check "assoc: exits 0" (code = 0);
  op_answers lines

let () =
  check "assoc: 8 answers" (List.length assoc_answers = 8);
  let runs =
    [
      ("flat", [ "--flat" ]);
      ("mmap", [ "--mmap" ]);
      ("flat --jobs 1", [ "--flat"; "--jobs"; "1" ]);
      ("mmap --jobs 3", [ "--mmap"; "--jobs"; "3" ]);
    ]
  in
  let h0 = sha256 assoc_answers in
  List.iter
    (fun (name, extra) ->
      let code, lines = serve_query extra in
      check (name ^ ": exits 0") (code = 0);
      let h = sha256 (op_answers lines) in
      if h <> h0 then fail "%s: answer sha256 %s <> assoc %s" name h h0;
      incr passed)
    runs;
  Printf.printf "scenario 2 (every op, assoc = flat = mmap, any --jobs, sha256 %s): ok\n%!"
    (String.sub h0 0 12)

(* ----- 3. 3-shard router merge, byte-identical and repeatable -------- *)

let () =
  let router_run () =
    run_cli
      ([
         "serve"; "router"; "--graph-file"; graph_file; "--labels-file";
         packed_file; "--shards"; "3"; "--partition"; "hash"; "--seed"; "23";
         "--clock-step"; "1000";
       ]
      @ ops_args)
  in
  let code_a, lines_a = router_run () in
  let code_b, lines_b = router_run () in
  check "router: exits 0" (code_a = 0 && code_b = 0);
  let ha = sha256 (op_answers lines_a) and hb = sha256 (op_answers lines_b) in
  check "router: same-seed runs byte-identical" (ha = hb);
  check "router: merge = in-process stores" (ha = sha256 assoc_answers);
  Printf.printf "scenario 3 (3-shard router merge byte-identical): ok\n%!"

(* ----- 3b. faults injected into the ops evaluator ------------------- *)

(* Half the calls of the store's ops evaluator fail. Only aggregates
   are asked for, so no point query draws a fault: those answers come
   from the BFS fallback, every answer stays exact, the faults are
   counted and the run exits degraded (12). *)
let () =
  let aggregates =
    [
      "top-k:1,5"; "top-k:5,6"; "one-to-many:2:0,7,11,2";
      "many-to-many:1,2:3,4,5"; "ecc:3"; "farthest:9"; "top-k:0,3"; "ecc:8";
    ]
  in
  let run extra =
    run_cli
      ([
         "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
         packed_file;
       ]
      @ List.concat_map (fun op -> [ "--op"; op ]) aggregates
      @ extra)
  in
  let clean_code, clean = run [] in
  let code, lines =
    run [ "--inject-fraction"; "0.5"; "--inject-mode"; "fail" ]
  in
  check "faulty ops: the clean run exits 0" (clean_code = 0);
  check "faulty ops: exits 12" (code = 12);
  check "faulty ops: answers exact" (op_answers lines = op_answers clean);
  let stats = List.find (String.starts_with ~prefix:"stats:") lines in
  check "faulty ops: faults counted"
    (not (List.mem "faults=0" (String.split_on_char ' ' stats)));
  check "faulty ops: fallback answers flagged bfs"
    (List.exists
       (fun l -> String.contains l '>' && String.ends_with ~suffix:" bfs" l)
       lines);
  Printf.printf "scenario 3b (faulty ops evaluator: exact, bfs-flagged): ok\n%!"

(* ----- 3c. top-k past the reachable set, through the router --------- *)

(* A graph of many components — the path 0-1-2-3, the edge 4-5 and the
   isolated vertices 6..23 — and its full labeling (every vertex is a
   hub of its whole component). From vertex 1 only four vertices are
   reachable, so k = 6 makes each shard's threshold merge (12 owned
   candidates) run out of lists and fill its tail with its unreachable
   owned vertices at inf, and the router's merge must keep them in id
   order. *)
let () =
  let g = Filename.temp_file "ops_smoke_cc" ".graph" in
  let l = Filename.temp_file "ops_smoke_cc" ".labels" in
  let write path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let n = 24 in
  write g (Printf.sprintf "%d 4\n0 1\n1 2\n2 3\n4 5\n" n);
  let comp v =
    if v < 4 then [ 0; 1; 2; 3 ] else if v < 6 then [ 4; 5 ] else [ v ]
  in
  let label v =
    let c = comp v in
    String.concat " "
      (string_of_int v
      :: string_of_int (List.length c)
      :: List.concat_map
           (fun h -> [ string_of_int h; string_of_int (abs (h - v)) ])
           c)
  in
  let total = 16 + 4 + (n - 6) in
  write l
    (String.concat "\n"
       (Printf.sprintf "%d %d" n total :: List.init n label)
    ^ "\n");
  let expect =
    [
      "top-k:1,6 -> nearest 1:0,0:1,2:1,3:2,4:inf,5:inf";
      "top-k-among:1,6:0,2,4,5,6 -> nearest 0:1,2:1,4:inf,5:inf,6:inf";
      "ecc:1 -> ecc inf";
      "farthest:1 -> farthest 4:inf";
      "farthest-among:1:0,2,5,6 -> farthest 5:inf";
    ]
  in
  let ops =
    List.concat_map
      (fun op -> [ "--op"; op ])
      [
        "top-k:1,6"; "top-k-among:1,6:0,2,4,5,6"; "ecc:1"; "farthest:1";
        "farthest-among:1:0,2,5,6";
      ]
  in
  List.iter
    (fun (name, sub, extra) ->
      let code, lines =
        run_cli
          ([ "serve"; sub; "--graph-file"; g; "--labels-file"; l ]
          @ extra @ ops)
      in
      check (name ^ ": exits 0") (code = 0);
      if op_answers lines <> expect then
        fail "%s: got [%s]" name (String.concat "; " (op_answers lines)))
    [
      ("query", "query", []);
      ( "router hash",
        "router",
        [ "--shards"; "2"; "--partition"; "hash"; "--clock-step"; "1000" ] );
      ( "router range",
        "router",
        [ "--shards"; "2"; "--partition"; "range"; "--clock-step"; "1000" ] );
    ];
  Sys.remove g;
  Sys.remove l;
  Printf.printf
    "scenario 3c (top-k and farthest past the reachable set, inf): ok\n%!"

(* ----- 3d. --budget bounds aggregates -------------------------------- *)

(* An eccentricity predicts far more than 3 units of work, so the
   store refuses it before any kernel runs: a clean skip to the BFS
   fallback, counted once as budget_exhausted, and a degraded exit. A
   generous budget leaves the primary answering. *)
let () =
  let run budget =
    run_cli
      [
        "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
        packed_file; "--op"; "ecc:3"; "--budget"; budget;
      ]
  in
  let field name lines =
    let stats = List.find (String.starts_with ~prefix:"stats:") lines in
    List.mem name (String.split_on_char ' ' stats)
  in
  let tight_code, tight = run "3" and wide_code, wide = run "1000000" in
  check "budget 3: exits 12" (tight_code = 12);
  check "budget 3: one budget skip" (field "budget_exhausted=1" tight);
  check "budget 3: no fault" (field "faults=0" tight);
  let served_by source =
    List.exists (fun l ->
        String.starts_with ~prefix:"ecc:3 -> " l
        && String.ends_with ~suffix:(" " ^ source) l)
  in
  check "budget 3: answered by bfs" (served_by "bfs" tight);
  check "generous budget: exits 0" (wide_code = 0);
  check "generous budget: no budget skip" (field "budget_exhausted=0" wide);
  check "generous budget: answered by the primary" (served_by "primary" wide);
  check "budget: same answer either way" (op_answers tight = op_answers wide);
  Printf.printf "scenario 3d (--budget bounds aggregates): ok\n%!"

(* ----- 4. the shared resolver and typed failure exits ---------------- *)

let () =
  let expect name code args =
    let got, _ = run_cli args in
    check
      (Printf.sprintf "%s exits %d (got %d)" name code got)
      (got = code)
  in
  (* the one store-kind resolver guards every serve subcommand *)
  List.iter
    (fun sub ->
      expect
        (sub ^ ": --mmap without --labels-file")
        124
        [ "serve"; sub; "--graph-file"; graph_file; "--mmap" ])
    [ "query"; "stats"; "loop"; "worker"; "router" ];
  List.iter
    (fun sub ->
      expect
        (sub ^ ": --mmap --flat")
        124
        [
          "serve"; sub; "--graph-file"; graph_file; "--labels-file";
          packed_file; "--mmap"; "--flat";
        ])
    [ "query"; "stats"; "loop" ];
  expect "bad --op spelling" 124
    [
      "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
      packed_file; "--op"; "top-k:wat";
    ];
  expect "out-of-range --op operand" 11
    [
      "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
      packed_file; "--op"; "ecc:100000";
    ];
  expect "router rejects bad --op too" 124
    [
      "serve"; "router"; "--graph-file"; graph_file; "--labels-file";
      packed_file; "--op"; "nonsense";
    ];
  Printf.printf "scenario 4 (typed failure exits): ok\n%!";
  Sys.remove packed_file;
  Sys.remove graph_file;
  Printf.printf "ops-smoke: all scenarios passed (%d checks)\n%!" !passed
