open Repro_graph
open Repro_hub
open Repro_serve
module Obs = Repro_obs

type primary = Search | Labels of Hub_label.t | Store of Label_store.packed

type config = {
  graph : Graph.t;
  primary : primary;
  shards : int;
  shard : int;
  partition : Partition.spec;
  spot_check_every : int;
  quarantine_after : int;
  step_budget : int option;
  chaos : Fault_injector.chaos option;
  clock_step : int64 option;
  seed : int;
}

let primary_n = function
  | Search -> None
  | Labels l -> Some (Hub_label.n l)
  | Store (s : Label_store.packed) -> Some s.n

let default_config graph =
  {
    graph;
    primary = Search;
    shards = 1;
    shard = 0;
    partition = Partition.Range;
    spot_check_every = 1;
    quarantine_after = 3;
    step_budget = None;
    chaos = None;
    clock_step = None;
    seed = 0;
  }

(* Applying a chaos plan is the only non-obvious part of the loop: the
   fault fires exactly once, in place of (or around) the write of the
   [after_frames]-th response frame. Responses are otherwise only
   queued; every one queued before the fault is flushed first, so a
   plan delivers the same bytes however the loop batches its writes.
   Kill-class faults use [Unix._exit] so no at_exit machinery (channel
   flushing in the forked parent image) runs in the doomed child. *)
let write_response ~chaos ~frames_written io resp =
  let frame = Wire.encode_response resp in
  incr frames_written;
  match chaos with
  | Some (c : Fault_injector.chaos) when !frames_written = c.after_frames -> (
      match Frame_io.flush io with
      | Error _ as e -> e
      | Ok () -> (
          match c.fault with
          | Fault_injector.Kill -> Unix._exit 137
          | Fault_injector.Hang ->
              while true do
                Unix.sleep 3600
              done;
              assert false
          | Fault_injector.Truncate_frame ->
              let half = max 1 (String.length frame / 2) in
              ignore (Frame_io.send io (String.sub frame 0 half));
              Unix._exit 137
          | Fault_injector.Corrupt_frame ->
              let b = Bytes.of_string frame in
              for i = 4 to Bytes.length b - 1 do
                Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 0xff)
              done;
              Frame_io.send io (Bytes.unsafe_to_string b)
          | Fault_injector.Slow_write ->
              let rec dribble i =
                if i >= String.length frame then Ok ()
                else begin
                  Unix.sleepf 0.05;
                  match Frame_io.send io (String.sub frame i 1) with
                  | Ok () -> dribble (i + 1)
                  | Error _ as e -> e
                end
              in
              dribble 0))
  | _ ->
      Frame_io.queue io frame;
      Ok ()

let build_backend cfg ~owned metrics clock =
  let store =
    match cfg.primary with
    | Search -> None
    | Labels labels ->
        let slice =
          Partition.slice cfg.partition ~shards:cfg.shards ~shard:cfg.shard
            labels
        in
        Some (Flat_hub.pack (Flat_hub.of_labels slice))
    | Store store ->
        (* Every worker serves the same whole store (for a mapped file,
           one page-cache copy fleet-wide): partition routing at the
           router already confines which pairs reach this shard, so a
           point query has no heap slice to cut. An aggregate share
           reads rows only at owned vertices, so [ops ~owned] inverts
           only the owned labels for it. *)
        Some store
  in
  let primary =
    Option.map
      (Resilient_oracle.store_primary ?step_budget:cfg.step_budget)
      store
  in
  let primary_ops =
    Option.map
      (fun (s : Label_store.packed) -> s.ops ~owned ?budget:cfg.step_budget ())
      store
  in
  let oracle =
    Resilient_oracle.create ?step_budget:cfg.step_budget
      ~spot_check_every:cfg.spot_check_every
      ~quarantine_after:cfg.quarantine_after ~metrics ?primary ?primary_ops
      cfg.graph
  in
  ( oracle,
    Obs.Obs.instrument ?clock ~prefix:"worker" metrics
      (Resilient_oracle.backend oracle) )

let run ~input ~output cfg =
  if cfg.shard < 0 || cfg.shard >= cfg.shards then
    invalid_arg "Worker.run: shard out of range";
  (match primary_n cfg.primary with
  | Some n when n <> Graph.n cfg.graph ->
      invalid_arg "Worker.run: primary and graph disagree on n"
  | _ -> ());
  let metrics = Obs.Metrics.create () in
  let clock =
    Option.map
      (fun step -> Obs.Clock.read (Obs.Clock.manual ~auto_step:step ()))
      cfg.clock_step
  in
  (* the shard's owned vertices, ascending — every aggregate op reads
     label rows only at these entries, which Partition.slice and the
     owned index keep exact for any source *)
  let owned =
    Partition.owned cfg.partition ~shards:cfg.shards ~n:(Graph.n cfg.graph)
      cfg.shard
  in
  let oracle, backend = build_backend cfg ~owned metrics clock in
  (* Trace recording: spans are timed on the worker's own clock domain
     and kept in a bounded store the router drains via Trace_fetch. The
     current request's trace id doubles as the exemplar for the
     worker.ops.* latency histograms. *)
  let wclk =
    match clock with Some c -> c | None -> Obs.Clock.monotonic
  in
  let tstore = Obs.Trace_ctx.store ~capacity:1024 in
  let tseq = ref 0 in
  let cur_exemplar = ref None in
  let serve_op =
    Obs.Obs.instrument_op ?clock
      ~exemplar:(fun () -> !cur_exemplar)
      ~prefix:"worker.ops" metrics
      (Resilient_oracle.op oracle)
  in
  let resp_degraded = function
    | Wire.Answer { degraded; _ }
    | Wire.Row_payload { degraded; _ }
    | Wire.Ecc_payload { degraded; _ }
    | Wire.Topk_payload { degraded; _ }
    | Wire.Diam_payload { degraded; _ } ->
        degraded
    | Wire.Error_frame _ -> true
    | Wire.Pong _ | Wire.Stats_payload _ | Wire.Trace_payload _ -> false
  in
  (* One request's reply, in a child span of [ctx]. [f] builds it; a
     bad request ([Invalid_argument]) becomes an [err_bad_request] frame,
     and an op result of an unexpected shape ([None]) an
     [err_unavailable] one. The span is recorded when the context was
     (force-)sampled upstream, or when this worker itself served a
     degraded/failed answer — the local evidence for a trace the router
     will force-sample on its side. *)
  let reply ctx opname id f =
    let compute () =
      match f () with
      | Some resp -> resp
      | None ->
          let msg = "unexpected response shape" in
          Wire.Error_frame { id; code = Wire.err_unavailable; msg }
      | exception Invalid_argument msg ->
          Wire.Error_frame { id; code = Wire.err_bad_request; msg }
    in
    match ctx with
    | None ->
        cur_exemplar := None;
        compute ()
    | Some (c : Obs.Trace_ctx.t) ->
        cur_exemplar :=
          (if Obs.Trace_ctx.recorded c then Some (Obs.Trace_ctx.id_string c)
           else None);
        let t0 = wclk () in
        let resp = compute () in
        if Obs.Trace_ctx.recorded c || resp_degraded resp then begin
          let seq = !tseq in
          incr tseq;
          let child = Obs.Trace_ctx.child c ~seq in
          Obs.Trace_ctx.record tstore
            {
              Obs.Trace_ctx.trace_hi = c.hi;
              trace_lo = c.lo;
              span_id = child.span_id;
              parent_id = c.span_id;
              name = Printf.sprintf "shard%d.%s" cfg.shard opname;
              start_ns = t0;
              elapsed_ns = Int64.sub (wclk ()) t0;
            }
        end;
        resp
  in
  let source_code src =
    Wire.source_code_of_name (Resilient_oracle.source_name src)
  in
  let shard_gauge = Obs.Metrics.gauge metrics "worker.shard" in
  Obs.Metrics.set_gauge shard_gauge cfg.shard;
  let seed_gauge = Obs.Metrics.gauge metrics "worker.seed" in
  Obs.Metrics.set_gauge seed_gauge cfg.seed;
  let bad_frames = Obs.Metrics.counter metrics "worker.bad_frames" in
  let frames_written = ref 0 in
  let io = Frame_io.create ~output input in
  let send resp =
    match write_response ~chaos:cfg.chaos ~frames_written io resp with
    | Ok () -> true
    | Error _ -> false (* router hung up; stop serving *)
  in
  (* One read may bring many requests. Their responses are queued and
     written together just before the loop would block for input, and
     at Shutdown or the end of the stream. *)
  let next_request () =
    match if Frame_io.ready io then Ok () else Frame_io.flush io with
    | Error _ as e -> e
    | Ok () -> (
        match Frame_io.recv io with
        | Ok payload -> Wire.request_of_payload_ctx payload
        | Error (Frame_io.Wire_err e) -> Error e
        | Error Frame_io.Timeout -> Error Wire.Eof (* no deadline: unreachable *))
  in
  let degraded source = source <> Wire.source_primary in
  let respond ctx = function
    | Wire.Query { id; u; v } ->
        reply ctx "dist" id (fun () ->
            let dist, trace = Obs.Backend.query_detailed backend u v in
            let source = Wire.source_code_of_name trace.Obs.Trace.source in
            Some (Wire.Answer { id; dist; source; degraded = degraded source }))
    | Wire.Op_row { id; source; targets } ->
        reply ctx "one_to_many" id (fun () ->
            match serve_op (Obs.Ops.One_to_many { source; targets }) with
            | Obs.Ops.R_dists dists, src ->
                let source = source_code src in
                Some
                  (Wire.Row_payload
                     { id; dists; source; degraded = degraded source })
            | _ -> None)
    | Wire.Op_ecc { id; v } ->
        (* an empty share answers vertex -1, which the router skips *)
        reply ctx "eccentricity" id (fun () ->
            match serve_op (Obs.Ops.Farthest_among { source = v; among = owned })
            with
            | Obs.Ops.R_farthest { vertex; dist }, src ->
                let source = source_code src in
                Some
                  (Wire.Ecc_payload
                     { id; vertex; dist; source; degraded = degraded source })
            | _ -> None)
    | Wire.Op_topk { id; source = s; k } ->
        reply ctx "top_k_nearest" id (fun () ->
            if k < 0 then invalid_arg "top-k: k must be non-negative";
            if Array.length owned = 0 then
              Some
                (Wire.Topk_payload
                   {
                     id;
                     pairs = [||];
                     source = Wire.source_primary;
                     degraded = false;
                   })
            else
              match
                serve_op (Obs.Ops.Top_k_among { source = s; k; among = owned })
              with
              | Obs.Ops.R_nearest pairs, src ->
                  let source = source_code src in
                  Some
                    (Wire.Topk_payload
                       { id; pairs; source; degraded = degraded source })
              | _ -> None)
    | Wire.Op_diam { id } ->
        (* one global eccentricity per owned vertex — exact on a slice
           because the source is owned *)
        reply ctx "diameter_radius" id (fun () ->
            let rec go i dia rad code =
              if i = Array.length owned then
                Some
                  (Wire.Diam_payload
                     {
                       id;
                       diameter = dia;
                       radius = (if i = 0 then 0 else rad) (* owns none *);
                       vertices = i;
                       source = code;
                       degraded = degraded code;
                     })
              else
                match serve_op (Obs.Ops.Eccentricity owned.(i)) with
                | Obs.Ops.R_ecc e, src ->
                    let code = max code (source_code src) in
                    go (i + 1) (max dia e) (min rad e) code
                | _ -> None
            in
            go 0 0 max_int Wire.source_primary)
    | Wire.Ping { id } -> Wire.Pong { id }
    | Wire.Stats { id } ->
        (* no runtime-gauge sampling here: GC counters depend on the
           process's whole allocation history, and a forked worker's
           differs run to run — the merged snapshot must stay
           byte-identical across same-seed chaos runs *)
        Wire.Stats_payload
          { id; data = Obs.Metrics.(snapshot_to_wire (snapshot metrics)) }
    | Wire.Trace_fetch { id } ->
        let data = Obs.Trace_ctx.spans_to_wire (Obs.Trace_ctx.spans tstore) in
        Wire.Trace_payload { id; data }
    | Wire.Shutdown -> assert false (* the loop stops on Shutdown *)
  in
  let rec loop () =
    match next_request () with
    | Ok (Wire.Shutdown, _) -> ignore (Frame_io.flush io)
    | Ok (req, ctx) -> if send (respond ctx req) then loop ()
    | Error ((Wire.Bad_opcode _ | Wire.Bad_payload _) as e) ->
        (* the frame was read in full; the stream is still in sync *)
        Obs.Metrics.incr bad_frames;
        let msg = Wire.error_to_string e in
        if send (Wire.Error_frame { id = 0; code = Wire.err_bad_request; msg })
        then loop ()
    | Error (Wire.Eof | Wire.Truncated _ | Wire.Negative_length _
            | Wire.Oversized _ | Wire.Io _) ->
        (* EOF or a desynchronised stream: nothing sane can follow *)
        ignore (Frame_io.flush io)
  in
  loop ()
