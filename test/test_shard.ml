(* Unit tests for the sharded serving tier: Wire codec round-trips,
   partition slicing exactness, the supervisor state machine and
   backoff schedule, the metrics wire format, the worker frame loop
   driven in-process over plain pipes and Frame_io over a socketpair.
   Nothing here forks: the router's allocation per query on a forked
   1-shard fleet is in test_shard_main.ml, and the chaos scenarios —
   kill, restart, quarantine — live in test_shard_smoke.ml, both of
   which run in a fresh domain-free process. *)

open Repro_hub
open Repro_shard
module Metrics = Repro_obs.Metrics
module Fault_injector = Repro_serve.Fault_injector

(* ----- Wire codec ---------------------------------------------------- *)

let decode_request_frame s =
  match Wire.decode_frame s ~pos:0 with
  | Error e -> Alcotest.failf "decode_frame: %s" (Wire.error_to_string e)
  | Ok (payload, next) ->
      Test_util.check_int "frame consumed" (String.length s) next;
      (match Wire.request_of_payload payload with
      | Ok r -> r
      | Error e ->
          Alcotest.failf "request_of_payload: %s" (Wire.error_to_string e))

let decode_response_frame s =
  match Wire.decode_frame s ~pos:0 with
  | Error e -> Alcotest.failf "decode_frame: %s" (Wire.error_to_string e)
  | Ok (payload, _) -> (
      match Wire.response_of_payload payload with
      | Ok r -> r
      | Error e ->
          Alcotest.failf "response_of_payload: %s" (Wire.error_to_string e))

let test_wire_request_roundtrip () =
  let reqs =
    [
      Wire.Query { id = 1; u = 0; v = 999_999_999 };
      Wire.Ping { id = max_int };
      Wire.Stats { id = 0 };
      Wire.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      Test_util.check_bool "request roundtrips" true
        (decode_request_frame (Wire.encode_request r) = r))
    reqs

let test_wire_response_roundtrip () =
  let resps =
    [
      Wire.Answer
        { id = 7; dist = Repro_graph.Dist.inf; source = Wire.source_bfs;
          degraded = true };
      Wire.Answer { id = 8; dist = 0; source = Wire.source_primary;
                    degraded = false };
      Wire.Pong { id = 42 };
      Wire.Stats_payload { id = 3; data = "c a 1\ng b 2\n" };
      Wire.Stats_payload { id = 4; data = "" };
      Wire.Error_frame { id = 5; code = Wire.err_unavailable; msg = "down" };
    ]
  in
  List.iter
    (fun r ->
      Test_util.check_bool "response roundtrips" true
        (decode_response_frame (Wire.encode_response r) = r))
    resps

let test_wire_stream_of_frames () =
  let frames =
    [
      Wire.encode_request (Wire.Query { id = 1; u = 2; v = 3 });
      Wire.encode_request (Wire.Ping { id = 2 });
      Wire.encode_request Wire.Shutdown;
    ]
  in
  let s = String.concat "" frames in
  let rec go pos acc =
    match Wire.decode_frame s ~pos with
    | Error Wire.Eof -> List.rev acc
    | Error e -> Alcotest.failf "stream decode: %s" (Wire.error_to_string e)
    | Ok (payload, next) -> (
        match Wire.request_of_payload payload with
        | Ok r -> go next (r :: acc)
        | Error e -> Alcotest.failf "payload: %s" (Wire.error_to_string e))
  in
  Test_util.check_int "three frames" 3 (List.length (go 0 []))

let test_wire_source_codes () =
  List.iter
    (fun name ->
      Test_util.check_bool ("source code of " ^ name) true
        (Wire.name_of_source_code (Wire.source_code_of_name name) = name))
    [ "primary"; "bidirectional"; "bfs"; "router" ];
  Test_util.check_bool "unknown source maps to other" true
    (Wire.name_of_source_code (Wire.source_code_of_name "no-such") = "other")

let prop_wire_query_roundtrip =
  Test_util.qcheck "Wire query roundtrip" ~count:200
    QCheck2.Gen.(
      triple (int_range 0 max_int) (int_range 0 1_000_000)
        (int_range 0 1_000_000))
    (fun (id, u, v) ->
      decode_request_frame (Wire.encode_request (Wire.Query { id; u; v }))
      = Wire.Query { id; u; v })

(* ----- Partition ----------------------------------------------------- *)

let test_partition_owner () =
  List.iter
    (fun spec ->
      let n = 100 and shards = 3 in
      for v = 0 to n - 1 do
        let o = Partition.owner spec ~shards ~n v in
        Test_util.check_bool "owner in range" true (o >= 0 && o < shards)
      done;
      Test_util.check_int "pair routes to min's owner"
        (Partition.owner spec ~shards ~n 4)
        (Partition.owner_of_pair spec ~shards ~n 90 4);
      (* owned: each shard's owner-filtered vertices, ascending *)
      Test_util.check_bool "owned = owner filter" true
        (Array.init shards (Partition.owned spec ~shards ~n)
        = Array.init shards (fun s ->
              Array.of_list
                (List.filter
                   (fun v -> Partition.owner spec ~shards ~n v = s)
                   (List.init n Fun.id)))))
    [ Partition.Range; Partition.Hash ];
  Alcotest.check_raises "owned: shard out of range"
    (Invalid_argument "Partition.owned: shard out of range") (fun () ->
      ignore (Partition.owned Partition.Hash ~shards:2 ~n:10 2));
  (* range blocks are contiguous and non-decreasing *)
  let prev = ref 0 in
  for v = 0 to 99 do
    let o = Partition.owner Partition.Range ~shards:4 ~n:100 v in
    Test_util.check_bool "range monotone" true (o >= !prev);
    prev := o
  done;
  Test_util.check_bool "spec strings" true
    (Partition.spec_of_string "hash" = Ok Partition.Hash
    && Partition.string_of_spec Partition.Range = "range")

let prop_slice_exact_on_owned =
  Test_util.qcheck "partition slice exact on owned queries" ~count:30
    QCheck2.Gen.(
      pair Gen.small_connected_gen
        (pair (int_range 2 4) (int_range 0 1_000_000)))
    (fun (param, (shards, qseed)) ->
      let g = Gen.build_connected param in
      let labels = Pll.build g in
      let n = Hub_label.n labels in
      let rng = Random.State.make [| qseed |] in
      List.for_all
        (fun spec ->
          let slices =
            Array.init shards (fun shard ->
                Partition.slice spec ~shards ~shard labels)
          in
          (* slices genuinely drop entries unless the graph is tiny *)
          Array.for_all
            (fun sl -> Hub_label.total_size sl <= Hub_label.total_size labels)
            slices
          && List.for_all
               (fun _ ->
                 let u = Random.State.int rng n
                 and v = Random.State.int rng n in
                 let s = Partition.owner_of_pair spec ~shards ~n u v in
                 Hub_label.query slices.(s) u v = Hub_label.query labels u v)
               (List.init 20 Fun.id))
        [ Partition.Range; Partition.Hash ])

(* ----- Supervisor ---------------------------------------------------- *)

let no_jitter =
  {
    Supervisor.default_config with
    jitter_frac = 0.0;
    base_backoff_ns = 100L;
    max_backoff_ns = 350L;
  }

let test_supervisor_soft_escalation () =
  let sup = Supervisor.create ~seed:1 ~shards:2 no_jitter in
  Test_util.check_bool "starts healthy" true
    (Supervisor.state sup 0 = Supervisor.Healthy);
  (match Supervisor.on_soft_failure sup 0 with
  | Supervisor.Keep -> ()
  | _ -> Alcotest.fail "first soft failure keeps the shard");
  Test_util.check_bool "now suspect" true
    (Supervisor.state sup 0 = Supervisor.Suspect);
  (* a success heals the streak *)
  Supervisor.on_success sup 0;
  Test_util.check_bool "healed" true
    (Supervisor.state sup 0 = Supervisor.Healthy);
  (match Supervisor.on_soft_failure sup 0 with
  | Supervisor.Keep -> ()
  | _ -> Alcotest.fail "streak was reset");
  (* second consecutive soft failure escalates (suspect_after = 2) *)
  (match Supervisor.on_soft_failure sup 0 with
  | Supervisor.Restart_after ns -> Test_util.check_bool "backoff" true (ns = 100L)
  | _ -> Alcotest.fail "expected Restart_after");
  Test_util.check_bool "restarting" true
    (Supervisor.state sup 0 = Supervisor.Restarting);
  Supervisor.on_restarted sup 0;
  Test_util.check_bool "healthy after restart" true
    (Supervisor.state sup 0 = Supervisor.Healthy);
  (* the other shard was never touched *)
  Test_util.check_bool "shard 1 isolated" true
    (Supervisor.state sup 1 = Supervisor.Healthy)

let test_supervisor_backoff_and_quarantine () =
  let sup = Supervisor.create ~seed:1 ~shards:1 no_jitter in
  let backoffs = ref [] in
  let rec crash_until_quarantined k =
    if k > 10 then Alcotest.fail "never quarantined"
    else
      match Supervisor.on_crash sup 0 with
      | Supervisor.Restart_after ns ->
          backoffs := ns :: !backoffs;
          Supervisor.on_restarted sup 0;
          crash_until_quarantined (k + 1)
      | Supervisor.Quarantined_now -> ()
      | Supervisor.Keep -> Alcotest.fail "crash never keeps"
  in
  crash_until_quarantined 0;
  (* base 100, doubling, capped at 350: 100, 200, 350; budget 3 *)
  Test_util.check_bool "exponential then capped" true
    (List.rev !backoffs = [ 100L; 200L; 350L ]);
  Test_util.check_int "restart budget spent" 3 (Supervisor.restarts_used sup 0);
  Test_util.check_bool "terminal" true
    (Supervisor.state sup 0 = Supervisor.Quarantined);
  (* quarantine is absorbing *)
  (match Supervisor.on_crash sup 0 with
  | Supervisor.Quarantined_now -> ()
  | _ -> Alcotest.fail "quarantine is terminal");
  Supervisor.on_success sup 0;
  Test_util.check_bool "success does not resurrect" true
    (Supervisor.state sup 0 = Supervisor.Quarantined)

let test_supervisor_jitter_deterministic () =
  let run seed =
    let sup =
      Supervisor.create ~seed ~shards:1
        { Supervisor.default_config with jitter_frac = 0.5 }
    in
    match Supervisor.on_crash sup 0 with
    | Supervisor.Restart_after ns -> ns
    | _ -> Alcotest.fail "expected Restart_after"
  in
  Test_util.check_bool "same seed, same jitter" true (run 11 = run 11);
  let base = Supervisor.default_config.Supervisor.base_backoff_ns in
  let ns = run 11 in
  Test_util.check_bool "jitter within [base, 1.5*base]" true
    (ns >= base && Int64.to_float ns <= Int64.to_float base *. 1.5)

let test_supervisor_zero_budget () =
  let sup =
    Supervisor.create ~seed:0 ~shards:1
      { no_jitter with Supervisor.max_restarts = 0 }
  in
  match Supervisor.on_crash sup 0 with
  | Supervisor.Quarantined_now ->
      Test_util.check_bool "quarantined immediately" true
        (Supervisor.state sup 0 = Supervisor.Quarantined)
  | _ -> Alcotest.fail "zero budget quarantines on first crash"

(* ----- Metrics wire format ------------------------------------------- *)

let sample_registry () =
  let reg = Metrics.create () in
  Metrics.incr ~by:5 (Metrics.counter reg "a.queries");
  Metrics.incr (Metrics.counter reg "b.errors");
  Metrics.set_gauge (Metrics.gauge reg "depth") 3;
  let h = Metrics.histogram reg "lat" in
  List.iter (Metrics.observe h) [ 10; 20; 30; 1000 ];
  reg

let test_metrics_wire_roundtrip () =
  let snap = Metrics.snapshot (sample_registry ()) in
  match Metrics.snapshot_of_wire (Metrics.snapshot_to_wire snap) with
  | Error e -> Alcotest.failf "snapshot_of_wire: %s" e
  | Ok snap' ->
      Test_util.check_bool "wire roundtrip preserves snapshot" true
        (snap = snap');
      Test_util.check_bool "json agrees too" true
        (Metrics.to_json snap = Metrics.to_json snap')

let test_metrics_prefix_union () =
  let s0 = Metrics.prefix_snapshot "shard0." (Metrics.snapshot (sample_registry ()))
  and s1 = Metrics.prefix_snapshot "shard1." (Metrics.snapshot (sample_registry ())) in
  let merged = Metrics.union_snapshots [ s1; s0 ] in
  Test_util.check_bool "prefixed counters present" true
    (Metrics.find_counter merged "shard0.a.queries" = Some 5
    && Metrics.find_counter merged "shard1.a.queries" = Some 5);
  (* union sorts by name, so merge order does not matter *)
  Test_util.check_bool "order independent" true
    (Metrics.union_snapshots [ s0; s1 ] = merged)

let test_metrics_wire_rejects_garbage () =
  List.iter
    (fun s ->
      match Metrics.snapshot_of_wire s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "x nope 1\n"; "c onlyname\n"; "c n notanint\n"; "h short 1 2\n" ]

(* ----- Worker loop over pipes (single process, no fork) -------------- *)

let with_worker_io cfg requests k =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  List.iter
    (fun r ->
      match Wire.write_frame req_w r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Wire.error_to_string e))
    requests;
  Unix.close req_w;
  Worker.run ~input:req_r ~output:resp_w cfg;
  Unix.close resp_w;
  let out = k resp_r in
  Unix.close req_r;
  Unix.close resp_r;
  out

let read_response_exn fd =
  match Wire.read_response fd with
  | Ok r -> r
  | Error e -> Alcotest.failf "read_response: %s" (Wire.error_to_string e)

let worker_fixture () =
  let rng = Random.State.make [| 5 |] in
  let g = Repro_graph.Generators.random_connected rng ~n:60 ~m:120 in
  let labels = Pll.build g in
  (g, labels)

let test_worker_serves_frames () =
  let g, labels = worker_fixture () in
  let cfg =
    { (Worker.default_config g) with Worker.primary = Worker.Labels labels;
      clock_step = Some 1000L }
  in
  let truth = Hub_label.query labels 0 41 in
  with_worker_io cfg
    [
      Wire.encode_request (Wire.Ping { id = 1 });
      Wire.encode_request (Wire.Query { id = 2; u = 0; v = 41 });
      Wire.encode_request (Wire.Query { id = 3; u = 9; v = 9 });
      Wire.encode_request (Wire.Stats { id = 4 });
      "\x01\x00\x00\x00\x7f" (* unknown opcode: in-band error, keep going *);
      Wire.encode_request (Wire.Query { id = 5; u = 0; v = 7000 });
      Wire.encode_request Wire.Shutdown;
    ]
    (fun fd ->
      (match read_response_exn fd with
      | Wire.Pong { id = 1 } -> ()
      | _ -> Alcotest.fail "expected Pong 1");
      (match read_response_exn fd with
      | Wire.Answer { id = 2; dist; source; degraded } ->
          Test_util.check_int "exact distance" truth dist;
          Test_util.check_int "primary source" Wire.source_primary source;
          Test_util.check_bool "not degraded" false degraded
      | _ -> Alcotest.fail "expected Answer 2");
      (match read_response_exn fd with
      | Wire.Answer { id = 3; dist = 0; _ } -> ()
      | _ -> Alcotest.fail "expected Answer 3 with dist 0");
      (match read_response_exn fd with
      | Wire.Stats_payload { id = 4; data } -> (
          match Metrics.snapshot_of_wire data with
          | Ok snap ->
              Test_util.check_bool "worker counted queries" true
                (Metrics.find_counter snap "worker.queries" = Some 2)
          | Error e -> Alcotest.failf "stats payload: %s" e)
      | _ -> Alcotest.fail "expected Stats_payload 4");
      (match read_response_exn fd with
      | Wire.Error_frame { code; _ } ->
          Test_util.check_int "bad request code" Wire.err_bad_request code
      | _ -> Alcotest.fail "expected Error_frame for bad opcode");
      match read_response_exn fd with
      | Wire.Error_frame { id = 5; code; _ } ->
          Test_util.check_int "out of range rejected" Wire.err_bad_request code
      | _ -> Alcotest.fail "expected Error_frame 5")

let test_worker_chaos_corrupt_frame () =
  let g, labels = worker_fixture () in
  let cfg =
    {
      (Worker.default_config g) with
      Worker.primary = Worker.Labels labels;
      chaos = Some (Fault_injector.chaos ~after_frames:1 Fault_injector.Corrupt_frame);
    }
  in
  with_worker_io cfg
    [
      Wire.encode_request (Wire.Query { id = 1; u = 0; v = 1 });
      Wire.encode_request (Wire.Query { id = 2; u = 0; v = 1 });
      Wire.encode_request Wire.Shutdown;
    ]
    (fun fd ->
      (* first frame arrives but is flipped: framing survives, payload
         does not parse *)
      (match Wire.read_response fd with
      | Error (Wire.Bad_opcode _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected a corrupted first frame");
      (* the fault is one-shot: the stream recovers on the next frame *)
      match read_response_exn fd with
      | Wire.Answer { id = 2; degraded = false; _ } -> ()
      | _ -> Alcotest.fail "expected a clean Answer 2")

let test_worker_rejects_n_mismatch () =
  (* labels built on a 4-vertex path, served over a 6-vertex path: every
     primary kind must be refused before the loop starts *)
  let g = Repro_graph.Generators.path 6 in
  let labels = Pll.build (Repro_graph.Generators.path 4) in
  List.iter
    (fun (what, primary) ->
      Alcotest.check_raises what
        (Invalid_argument "Worker.run: primary and graph disagree on n")
        (fun () ->
          with_worker_io
            { (Worker.default_config g) with Worker.primary }
            [ Wire.encode_request Wire.Shutdown ]
            ignore))
    [
      ("sliced labels", Worker.Labels labels);
      ("packed store", Worker.Store (Flat_hub.pack (Flat_hub.of_labels labels)));
    ]

let test_worker_shutdown_on_eof () =
  (* no Shutdown frame: closing the request pipe must end the loop *)
  let g, _ = worker_fixture () in
  with_worker_io (Worker.default_config g)
    [ Wire.encode_request (Wire.Ping { id = 1 }) ]
    (fun fd ->
      match read_response_exn fd with
      | Wire.Pong { id = 1 } -> ()
      | _ -> Alcotest.fail "expected Pong before EOF exit")

(* ----- Frame_io over a socketpair ------------------------------------ *)

let gen_frame =
  QCheck2.Gen.(
    let id = int_range 0 1_000_000 in
    oneof
      [
        map3 (fun id u v -> Wire.encode_request (Wire.Query { id; u; v })) id id id;
        map (fun id -> Wire.encode_request (Wire.Ping { id })) id;
        map2
          (fun id ts ->
            Wire.encode_request
              (Wire.Op_row { id; source = 3; targets = Array.of_list ts }))
          id (list_size (int_range 0 8) id);
        map2
          (fun id dist ->
            Wire.encode_response
              (Wire.Answer
                 { id; dist; source = Wire.source_primary; degraded = false }))
          id id;
        map2
          (fun id data -> Wire.encode_response (Wire.Stats_payload { id; data }))
          id (string_size (int_range 0 64));
        map2
          (fun id msg ->
            Wire.encode_response
              (Wire.Error_frame { id; code = Wire.err_unavailable; msg }))
          id (string_size (int_range 0 32));
      ])

(* larger than the initial 16 KiB input buffer *)
let big_frame =
  Wire.encode_response
    (Wire.Stats_payload { id = 9; data = String.make (200 * 1024) 'x' })

let payload_of frame = String.sub frame 4 (String.length frame - 4)

(* Stream [s] into a fresh socketpair, writing [chunks] bytes at a time
   (then the rest) and letting the reader take whatever has arrived
   after each chunk and whenever the socket is full; close the writer
   and read to the end. Returns the payloads in order, the final error
   and the reader's capacity. *)
let stream_through ?(chunks = []) s =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock w;
  let io = Frame_io.create r in
  let got = ref [] in
  let rec drain () =
    match Frame_io.recv ~until:(Frame_io.deadline 0L) io with
    | Ok p ->
        got := p :: !got;
        drain ()
    | Error Frame_io.Timeout -> ()
    | Error (Frame_io.Wire_err e) ->
        Alcotest.failf "mid-stream: %s" (Wire.error_to_string e)
  in
  let rec write off len =
    if len > 0 then
      match Unix.single_write_substring w s off len with
      | k -> write (off + k) (len - k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          drain ();
          write off len
  in
  let off = ref 0 in
  List.iter
    (fun c ->
      let c = min c (String.length s - !off) in
      write !off c;
      off := !off + c;
      drain ())
    chunks;
  write !off (String.length s - !off);
  Unix.close w;
  let rec rest () =
    match Frame_io.recv io with
    | Ok p ->
        got := p :: !got;
        rest ()
    | Error (Frame_io.Wire_err e) -> e
    | Error Frame_io.Timeout -> Alcotest.fail "timeout without a deadline"
  in
  let final = rest () in
  let cap = Frame_io.capacity io in
  Frame_io.close io;
  (List.rev !got, final, cap)

let gen_stream =
  QCheck2.Gen.(
    quad
      (list_size (int_range 1 10) gen_frame)
      (opt (int_range 0 9))
      (list_size (int_range 0 12)
         (oneof [ int_range 1 8; int_range 1 512; int_range 1 300_000 ]))
      unit)

let prop_frame_io_stream =
  Test_util.qcheck "Frame_io: chunked stream gives every payload, then Eof"
    ~count:40 gen_stream (fun (frames, big, chunks, ()) ->
      (* the big frame, when present, goes anywhere but last *)
      let frames =
        match big with
        | None -> frames
        | Some k ->
            let k = k mod List.length frames in
            List.concat
              (List.mapi
                 (fun i f -> if i = k then [ big_frame; f ] else [ f ])
                 frames)
      in
      let s = String.concat "" frames in
      let largest =
        List.fold_left (fun a f -> max a (String.length f)) 0 frames
      in
      let payloads, final, cap = stream_through ~chunks s in
      let whole_ok =
        payloads = List.map payload_of frames
        && final = Wire.Eof
        && cap <= max 16384 (2 * (largest + 4))
      in
      (* cut the stream at every byte of its last frame *)
      let last = List.nth frames (List.length frames - 1) in
      let start = String.length s - String.length last in
      let before =
        List.map payload_of
          (List.filteri (fun i _ -> i < List.length frames - 1) frames)
      in
      let cuts_ok =
        List.for_all
          (fun c ->
            let payloads, final, _ = stream_through (String.sub s 0 c) in
            let k = c - start in
            payloads = before
            &&
            if k = 0 then final = Wire.Eof
            else if k < 4 then final = Wire.Truncated { wanted = 4; got = k }
            else
              final
              = Wire.Truncated { wanted = String.length last - 4; got = k - 4 })
          (List.init (String.length last) (fun k -> start + k))
      in
      whole_ok && cuts_ok)

let test_frame_io_capacity_bound () =
  (* 20k small frames around one large one: the buffer grows only for
     the frame that needs it, and stays within 2x of it, also when that
     frame is just larger than the initial 16 KiB *)
  let rng = Random.State.make [| 19 |] in
  let small =
    List.init 10_000 (fun i ->
        Wire.encode_request
          (Wire.Query { id = i; u = Random.State.int rng 1000; v = i }))
  in
  let mid_frame =
    Wire.encode_response
      (Wire.Stats_payload { id = 8; data = String.make 20_000 'y' })
  in
  List.iter
    (fun one ->
      let frames = List.concat [ small; [ one ]; small ] in
      let s = String.concat "" frames in
      let largest = String.length one in
      let payloads, final, cap =
        stream_through ~chunks:(List.init 40 (fun _ -> 16_384)) s
      in
      Test_util.check_int "every frame read" (List.length frames)
        (List.length payloads);
      Test_util.check_bool "payloads in order" true
        (payloads = List.map payload_of frames);
      Test_util.check_bool "then Eof" true (final = Wire.Eof);
      Test_util.check_bool
        (Printf.sprintf "capacity %d <= 2 x (largest frame + 4)" cap)
        true
        (cap <= 2 * (largest + 4)))
    [ big_frame; mid_frame ]

let test_frame_io_bad_header () =
  (* a hostile length is refused once its four bytes are in, before any
     allocation sized by it *)
  List.iter
    (fun (bytes, expect) ->
      let _, final, cap = stream_through bytes in
      Test_util.check_bool "header error" true (final = expect);
      Test_util.check_int "no growth" 16_384 cap)
    [
      ("\xff\xff\xff\xff\x01", Wire.Negative_length (-1));
      ("\x00\x00\x20\x00\x01", Wire.Oversized 0x200000);
      ("\x00\x00\x00\x00", Wire.Bad_payload "empty frame: no opcode");
    ]

let suite =
  [
    Alcotest.test_case "wire request roundtrip" `Quick test_wire_request_roundtrip;
    Alcotest.test_case "wire response roundtrip" `Quick
      test_wire_response_roundtrip;
    Alcotest.test_case "wire frame stream" `Quick test_wire_stream_of_frames;
    Alcotest.test_case "wire source codes" `Quick test_wire_source_codes;
    prop_wire_query_roundtrip;
    Alcotest.test_case "partition owner" `Quick test_partition_owner;
    prop_slice_exact_on_owned;
    Alcotest.test_case "supervisor soft escalation" `Quick
      test_supervisor_soft_escalation;
    Alcotest.test_case "supervisor backoff and quarantine" `Quick
      test_supervisor_backoff_and_quarantine;
    Alcotest.test_case "supervisor jitter deterministic" `Quick
      test_supervisor_jitter_deterministic;
    Alcotest.test_case "supervisor zero budget" `Quick
      test_supervisor_zero_budget;
    Alcotest.test_case "metrics wire roundtrip" `Quick
      test_metrics_wire_roundtrip;
    Alcotest.test_case "metrics prefix and union" `Quick
      test_metrics_prefix_union;
    Alcotest.test_case "metrics wire rejects garbage" `Quick
      test_metrics_wire_rejects_garbage;
    Alcotest.test_case "worker serves frames" `Quick test_worker_serves_frames;
    Alcotest.test_case "worker chaos corrupt frame" `Quick
      test_worker_chaos_corrupt_frame;
    Alcotest.test_case "worker exits on EOF" `Quick test_worker_shutdown_on_eof;
    Alcotest.test_case "worker rejects a primary/graph n mismatch" `Quick
      test_worker_rejects_n_mismatch;
    prop_frame_io_stream;
    Alcotest.test_case "frame_io capacity bound" `Quick
      test_frame_io_capacity_bound;
    Alcotest.test_case "frame_io bad header" `Quick test_frame_io_bad_header;
  ]
