(* End-to-end smoke for distributed tracing
   (`dune build @trace-smoke`, part of @ci).

   Drives the full cross-process path through the real CLI:

   1. `hubhard label --pack` writes a HUBFLAT1 file + sidecar graph;
   2. `serve trace` over a 3-shard router with chaos injected mid-batch
      (a corrupted frame on shard 1, a kill on shard 2) reassembles
      complete end-to-end trace trees — router span, per-shard rpc
      spans, the workers' own spans arriving over the wire, and the
      retry / backoff / degraded-recompute spans of the unlucky paths —
      and exits 12 (degraded answers); the trace bytes' sha256 is
      pinned, so a change to the router's clock reads or span order
      fails here even when two runs of it agree;
   3. two same-seed runs, each its own process, produce sha256-identical
      trace bytes under --clock-step (determinism across process
      boundaries, not just within one);
   4. every histogram exemplar in the merged metrics snapshot resolves
      to a trace id present in the trace output — the metrics-to-traces
      link never dangles;
   5. a worker whose start-up ping fails is restarted and counted under
      router.crashes, so the snapshot shows the restart's cause.

   Runs as its own executable: the router forks, so this binary stays
   strictly domain-free. The CLI path arrives as argv.(1). *)

let passed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("trace-smoke FAIL: " ^ s);
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

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let sha256 s = Repro_par.Checksum.sha256_hex s

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ----- 1. pack a labeling through the CLI ---------------------------- *)

let packed_file = Filename.temp_file "trace_smoke" ".bin"
let graph_file = packed_file ^ ".graph"
let queries_file = Filename.temp_file "trace_smoke" ".q"

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
  let oc = open_out queries_file in
  for i = 0 to 59 do
    Printf.fprintf oc "%d %d\n" i ((i * 7 + 3) mod 180)
  done;
  close_out oc;
  Printf.printf "scenario 1 (CLI pack): ok\n%!"

(* ----- 2. chaos run: complete trace trees, exit 12 ------------------- *)

let trace_run out_file metrics_file =
  run_cli
    [
      "serve"; "trace"; "--graph-file"; graph_file; "--labels-file";
      packed_file; "--shards"; "3"; "--partition"; "hash"; "--seed"; "23";
      "--clock-step"; "1000"; "--queries"; queries_file; "--batch"; "16";
      "--backoff-ms"; "1"; "--chaos"; "1:corrupt@8"; "--chaos"; "2:kill@12";
      "--format"; "jsonl"; "--trace-out"; out_file; "--metrics-out";
      metrics_file;
    ]

let pinned_trace_sha256 =
  "000d01e5dac442d4e7a4de93a177d93e80c40c740bd821a2aad290ce6c8a063c"

let trace_a = Filename.temp_file "trace_smoke" ".jsonl"
let trace_b = Filename.temp_file "trace_smoke" ".jsonl"
let metrics_a = Filename.temp_file "trace_smoke" ".json"
let metrics_b = Filename.temp_file "trace_smoke" ".json"

let () =
  let code, _ = trace_run trace_a metrics_a in
  check "chaos run exits 12 (degraded answers)" (code = 12);
  let traces = read_file trace_a in
  check "trace output is non-empty" (String.length traces > 0);
  (* the full unlucky path is visible in one reassembled output:
     router roots, shard rpcs, the workers' own wire-shipped spans,
     the retry on the corrupted frame, the backoff and the degraded
     recomputes for the killed shard *)
  List.iter
    (fun name ->
      check
        (Printf.sprintf "trace tree covers %s" name)
        (contains (Printf.sprintf "\"name\": \"%s\"" name) traces))
    [
      "router.batch"; "rpc.shard0.w0"; "rpc.shard1.w0"; "rpc.shard2.w0";
      "shard0.dist"; "shard1.dist"; "shard2.dist"; "retry.shard1";
      "backoff.shard2"; "recompute.shard2.batch";
    ];
  (* Pinned, not just repeatable: a change to the router's clock reads,
     span order or span names changes these bytes even when two runs of
     the changed code still agree with each other. *)
  let h = sha256 traces in
  if h <> pinned_trace_sha256 then
    fail "trace bytes sha256 %s <> pinned %s" h pinned_trace_sha256;
  incr passed;
  Printf.printf "scenario 2 (chaos trace trees complete, pinned): ok\n%!"

(* ----- 3. same-seed runs are byte-identical across processes --------- *)

let () =
  let code, _ = trace_run trace_b metrics_b in
  check "second run exits 12 too" (code = 12);
  let ha = sha256 (read_file trace_a) and hb = sha256 (read_file trace_b) in
  if ha <> hb then fail "trace bytes differ across runs: %s <> %s" ha hb;
  incr passed;
  Printf.printf
    "scenario 3 (same-seed runs byte-identical, sha256 %s): ok\n%!"
    (String.sub ha 0 12)

(* ----- 4. metrics exemplars resolve into the trace output ------------ *)

(* Pull every "<32 lowercase hex>" string out of a JSON blob. Exemplar
   values and trace_id values are exactly these. *)
let hex_ids s =
  let ids = ref [] in
  let is_hex c = match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  let n = String.length s in
  for i = 0 to n - 34 do
    if
      s.[i] = '"'
      && s.[i + 33] = '"'
      && (let ok = ref true in
          for j = i + 1 to i + 32 do
            if not (is_hex s.[j]) then ok := false
          done;
          !ok)
    then ids := String.sub s (i + 1) 32 :: !ids
  done;
  List.sort_uniq compare !ids

let () =
  let metrics = read_file metrics_a in
  check "metrics snapshot has exemplars" (contains "\"exemplars\"" metrics);
  let trace_ids = hex_ids (read_file trace_a) in
  let exemplar_ids = hex_ids metrics in
  check "metrics carry at least one trace id" (exemplar_ids <> []);
  List.iter
    (fun id ->
      check
        (Printf.sprintf "exemplar %s resolves to a recorded trace" id)
        (List.mem id trace_ids))
    exemplar_ids;
  Printf.printf
    "scenario 4 (%d exemplar(s) resolve into the trace output): ok\n%!"
    (List.length exemplar_ids)

(* ----- 5. a worker that fails its first ping counts as a crash ------- *)

(* The corrupt fault on shard 1's first frame garbles its start-up pong:
   the router restarts it, and the snapshot names the cause. *)
let () =
  let code, _ =
    run_cli
      [
        "serve"; "trace"; "--graph-file"; graph_file; "--labels-file";
        packed_file; "--shards"; "3"; "--partition"; "hash"; "--seed"; "23";
        "--clock-step"; "1000"; "--queries"; queries_file; "--batch"; "16";
        "--backoff-ms"; "1"; "--chaos"; "1:corrupt@1"; "--format"; "jsonl";
        "--trace-out"; trace_b; "--metrics-out"; metrics_b;
      ]
  in
  check "start-up fault run exits 0 (the restarted worker serves)" (code = 0);
  let metrics = read_file metrics_b in
  check "start-up fault: router.restarts 1"
    (contains "\"router.restarts\": 1," metrics);
  check "start-up fault: router.crashes 1"
    (contains "\"router.crashes\": 1," metrics);
  Printf.printf "scenario 5 (start-up ping failure counted as a crash): ok\n%!";
  List.iter Sys.remove
    [ packed_file; graph_file; queries_file; trace_a; trace_b; metrics_a;
      metrics_b ];
  Printf.printf "trace-smoke: all scenarios passed (%d checks)\n%!" !passed
