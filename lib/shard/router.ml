open Repro_graph
open Repro_hub
open Repro_serve
module Obs = Repro_obs

type spawn = Fork | Exec of (shard:int -> string array)

type trace_config = {
  sample_every : int;  (* head-sample 1 in N traces; 1 = everything *)
  slow_ns : int64;  (* force-record traces at least this slow; 0 = off *)
  capacity : int;  (* bound on the router-side span store *)
}

let default_trace_config = { sample_every = 1; slow_ns = 0L; capacity = 4096 }

type config = {
  graph : Graph.t;
  labels : Hub_label.t option;
  mmap : Mmap_hub.t option;
  compact : Compact_hub.t option;
  shards : int;
  partition : Partition.spec;
  supervisor : Supervisor.config;
  spot_check_every : int;
  quarantine_after : int;
  step_budget : int option;
  chaos : (int * Fault_injector.chaos) list;
  clock_step : int64 option;
  seed : int;
  spawn : spawn;
  trace : trace_config option;
}

let default_config graph =
  {
    graph;
    labels = None;
    mmap = None;
    compact = None;
    shards = 2;
    partition = Partition.Range;
    supervisor = Supervisor.default_config;
    spot_check_every = 1;
    quarantine_after = 3;
    step_budget = None;
    chaos = [];
    clock_step = None;
    seed = 0;
    spawn = Fork;
    trace = None;
  }

type answer = { dist : int; source : int; degraded : bool }

type conn = {
  c_pid : int;
  c_io : Frame_io.t;
  c_stash : (int, Wire.response) Hashtbl.t;  (* out-of-order responses *)
}

type counters = {
  m_queries : Obs.Metrics.counter;
  m_degraded : Obs.Metrics.counter;
  m_restarts : Obs.Metrics.counter;
  m_timeouts : Obs.Metrics.counter;
  m_retries : Obs.Metrics.counter;
  m_bad_frames : Obs.Metrics.counter;
  m_crashes : Obs.Metrics.counter;
  m_quarantined : Obs.Metrics.gauge;
  m_latency : Obs.Metrics.histogram;
}

(* The one trace in flight. The router serves queries one at a time, so
   a single mutable slot suffices; completed child spans accumulate in
   [a_spans] (reversed) and are committed to the store only when the
   trace turns out to be sampled, forced, or slow. *)
type active = {
  mutable a_ctx : Obs.Trace_ctx.t;  (* flags updated by force *)
  mutable a_spans : Obs.Trace_ctx.span list;
  mutable a_next : int;  (* child-span sequence counter *)
  a_start : int64;
  a_name : string;
  mutable a_parent : int64;  (* parent id for newly minted child spans *)
}

type t = {
  cfg : config;
  sup : Supervisor.t;
  reg : Obs.Metrics.t;
  ctr : counters;
  clock : Obs.Clock.t;
  manual : Obs.Clock.manual option;  (* backoff waits advance this *)
  conns : conn option array;
  owned : int array array;  (* each shard's vertices, ascending *)
  pending : int64 option array;  (* backoff still owed before respawn *)
  fallback : Resilient_oracle.t Lazy.t;
  next_id : int ref;
  tstore : Obs.Trace_ctx.store option;
  tseq : int ref;
  mutable cur : active option;
  mutable down : bool;
}

(* router-side failure taxonomy; the supervisor decides what it costs *)
type rerr = Frame_io.error = Timeout | Wire_err of Wire.error

let is_soft = function
  | Timeout -> true
  | Wire_err (Wire.Bad_opcode _ | Wire.Bad_payload _) -> true
  | Wire_err _ -> false  (* EOF / truncation / transport: the peer is gone *)

let event name fields = Obs.Events.emit_ambient ~level:Obs.Events.Warn name fields

(* ----- frame transport with deadlines ------------------------------- *)

(* Every wait for a response is bounded by the supervisor deadline, on
   the monotonic clock. *)
let until t = Frame_io.deadline t.cfg.supervisor.Supervisor.deadline_ns

let response_id = function
  | Wire.Answer { id; _ }
  | Wire.Pong { id }
  | Wire.Stats_payload { id; _ }
  | Wire.Error_frame { id; _ }
  | Wire.Row_payload { id; _ }
  | Wire.Ecc_payload { id; _ }
  | Wire.Topk_payload { id; _ }
  | Wire.Diam_payload { id; _ }
  | Wire.Trace_payload { id; _ } ->
      id

(* Wait for the response with this [id]; responses to other requests
   (late answers after a timeout, pipelined batch items) are stashed,
   never dropped. *)
let rec recv_matching conn ~id ~until =
  match Hashtbl.find_opt conn.c_stash id with
  | Some resp ->
      Hashtbl.remove conn.c_stash id;
      Ok resp
  | None -> (
      match Frame_io.recv conn.c_io ~until with
      | Error _ as e -> e
      | Ok payload -> (
          match Wire.response_of_payload payload with
          | Error e -> Error (Wire_err e)
          | Ok resp ->
              let rid = response_id resp in
              if rid = id then Ok resp
              else begin
                Hashtbl.replace conn.c_stash rid resp;
                recv_matching conn ~id ~until
              end))

let send_frame conn frame = Frame_io.send conn.c_io frame

let fresh_id t =
  incr t.next_id;
  !(t.next_id)

(* ----- trace lifecycle ----------------------------------------------- *)

let ctx_span_id (c : Obs.Trace_ctx.t) = c.span_id

(* Open a trace for this query if none is active. Nested entry points
   (op Dist -> query_batch) leave the outer trace in place; the caller
   that began the trace ends it. *)
let trace_begin t name =
  match (t.tstore, t.cur, t.cfg.trace) with
  | Some _, None, Some tc ->
      let seq = !(t.tseq) in
      incr t.tseq;
      let ctx =
        Obs.Trace_ctx.head_sample ~every:tc.sample_every
          (Obs.Trace_ctx.root ~seed:t.cfg.seed ~seq)
      in
      t.cur <-
        Some
          {
            a_ctx = ctx;
            a_spans = [];
            a_next = 0;
            a_start = t.clock ();
            a_name = name;
            a_parent = ctx_span_id ctx;
          };
      true
  | _ -> false

let force_cur t =
  match t.cur with
  | Some a -> a.a_ctx <- Obs.Trace_ctx.force a.a_ctx
  | None -> ()

(* Mint a child context under the current parent span: sent on the wire
   so worker spans nest in the right place, and used as the span id of
   router-side child spans. *)
let mint_child t =
  match t.cur with
  | None -> None
  | Some a ->
      let c =
        Obs.Trace_ctx.child
          { a.a_ctx with span_id = a.a_parent }
          ~seq:a.a_next
      in
      a.a_next <- a.a_next + 1;
      Some c

let span_of a ~span_id ~parent_id name ~start ~elapsed =
  {
    Obs.Trace_ctx.trace_hi = a.a_ctx.hi;
    trace_lo = a.a_ctx.lo;
    span_id;
    parent_id;
    name;
    start_ns = start;
    elapsed_ns = elapsed;
  }

let add_span a (c : Obs.Trace_ctx.t) name ~start ~elapsed =
  a.a_spans <-
    span_of a ~span_id:c.span_id ~parent_id:a.a_parent name ~start ~elapsed
    :: a.a_spans

(* A child span under the current parent, ending now; [ctx] was minted
   when the work began (an rpc that carried it) or at its end. *)
let trace_span t name ~start ctx =
  match (t.cur, ctx) with
  | Some a, Some c ->
      add_span a c name ~start ~elapsed:(Int64.sub (t.clock ()) start)
  | _ -> ()

(* Close the active trace; commit its spans iff it was head-sampled,
   force-sampled along the way, or slower than the configured
   threshold. *)
let trace_end t =
  match (t.cur, t.tstore, t.cfg.trace) with
  | Some a, Some store, Some tc ->
      t.cur <- None;
      let elapsed = Int64.sub (t.clock ()) a.a_start in
      let slow =
        Int64.compare tc.slow_ns 0L > 0 && Int64.compare elapsed tc.slow_ns >= 0
      in
      if Obs.Trace_ctx.recorded a.a_ctx || slow then begin
        Obs.Trace_ctx.record store
          (span_of a ~span_id:(ctx_span_id a.a_ctx) ~parent_id:0L a.a_name
             ~start:a.a_start ~elapsed);
        List.iter (Obs.Trace_ctx.record store) (List.rev a.a_spans)
      end
  | _ -> t.cur <- None

(* Run [f] as the query [name]'s trace, unless one is already open. *)
let traced t name f =
  let began = trace_begin t name in
  Fun.protect ~finally:(fun () -> if began then trace_end t) f

(* Exemplar thunk for the router's histograms: the current trace id,
   when its spans will be recorded. Evaluated after the timed work, so
   forcing during the work is visible. *)
let trace_exemplar t () =
  match t.cur with
  | Some a when Obs.Trace_ctx.recorded a.a_ctx ->
      Some (Obs.Trace_ctx.id_string a.a_ctx)
  | _ -> None

(* One rpc span around a call to [shard] ([window] >= 0 numbers a batch
   window). Its context rides the request frames, so the worker's own
   span nests under it, and retries and recomputes inside [f] nest under
   it too. *)
let with_rpc_span t ~shard ~window f =
  let ctx = mint_child t in
  let t0 = t.clock () in
  match (t.cur, ctx) with
  | Some a, Some c ->
      let saved = a.a_parent in
      a.a_parent <- ctx_span_id c;
      let res = f ctx in
      a.a_parent <- saved;
      let name =
        if window < 0 then Printf.sprintf "rpc.shard%d" shard
        else Printf.sprintf "rpc.shard%d.w%d" shard window
      in
      trace_span t name ~start:t0 ctx;
      res
  | _ -> f ctx

(* ----- worker lifecycle --------------------------------------------- *)

let worker_primary cfg =
  match (cfg.labels, cfg.mmap, cfg.compact) with
  | None, None, None -> Worker.Search
  | Some l, None, None -> Worker.Labels l
  | None, Some m, None -> Worker.Store (Mmap_hub.pack m)
  | None, None, Some c -> Worker.Store (Compact_hub.pack c)
  | _ -> invalid_arg "Router.create: pass at most one of ~labels/~mmap/~compact"

let worker_config cfg ~shard ~with_chaos =
  {
    Worker.graph = cfg.graph;
    primary = worker_primary cfg;
    shards = cfg.shards;
    shard;
    partition = cfg.partition;
    spot_check_every = cfg.spot_check_every;
    quarantine_after = cfg.quarantine_after;
    step_budget = cfg.step_budget;
    chaos = (if with_chaos then List.assoc_opt shard cfg.chaos else None);
    clock_step = cfg.clock_step;
    seed = cfg.seed;
  }

let spawn_conn t shard ~with_chaos =
  let parent_fd, child_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let started pid =
    Unix.close child_fd;
    let c_io = Frame_io.create parent_fd in
    Some { c_pid = pid; c_io; c_stash = Hashtbl.create 16 }
  in
  let failed () =
    Unix.close parent_fd;
    Unix.close child_fd;
    None
  in
  match t.cfg.spawn with
  | Fork -> (
      match Unix.fork () with
      | 0 ->
          Unix.close parent_fd;
          Array.iter
            (function Some c -> Frame_io.close c.c_io | None -> ())
            t.conns;
          (try
             Worker.run ~input:child_fd ~output:child_fd
               (worker_config t.cfg ~shard ~with_chaos)
           with _ -> ());
          Unix._exit 0
      | pid -> started pid
      | exception Unix.Unix_error _ -> failed ())
  | Exec argv_of -> (
      let argv = argv_of ~shard in
      Unix.set_close_on_exec parent_fd;
      match Unix.create_process argv.(0) argv child_fd child_fd Unix.stderr with
      | pid -> started pid
      | exception Unix.Unix_error _ -> failed ())

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let demote t shard =
  match t.conns.(shard) with
  | None -> ()
  | Some c ->
      Frame_io.close c.c_io;
      (try Unix.kill c.c_pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap c.c_pid;
      t.conns.(shard) <- None

let update_quarantine_gauge t =
  let q = ref 0 in
  for s = 0 to t.cfg.shards - 1 do
    if Supervisor.state t.sup s = Supervisor.Quarantined then incr q
  done;
  Obs.Metrics.set_gauge t.ctr.m_quarantined !q

(* Honour a Restart_after backoff. Under a manual clock the wait is a
   clock advance — no wall time passes, the nanoseconds are still
   accounted — which is what keeps the chaos suite fast AND
   byte-reproducible. *)
let wait_backoff t ns =
  match t.manual with
  | Some m -> Obs.Clock.advance m ns
  | None -> Unix.sleepf (Int64.to_float ns /. 1e9)

let apply_verdict t shard = function
  | Supervisor.Keep -> ()
  | Supervisor.Restart_after ns ->
      demote t shard;
      t.pending.(shard) <- Some ns;
      event "router.restart_scheduled"
        [ ("shard", Obs.Events.Int shard);
          ("backoff_ns", Obs.Events.Int (Int64.to_int ns)) ]
  | Supervisor.Quarantined_now ->
      demote t shard;
      t.pending.(shard) <- None;
      update_quarantine_gauge t;
      event "router.quarantine" [ ("shard", Obs.Events.Int shard) ]

let crash t shard =
  Obs.Metrics.incr t.ctr.m_crashes;
  event "router.crash" [ ("shard", Obs.Events.Int shard) ];
  apply_verdict t shard (Supervisor.on_crash t.sup shard)

(* A worker that could not be spawned or never answered its ping. *)
let spawn_failed t shard =
  demote t shard;
  crash t shard

(* ----- the exchange: the one failure policy ------------------------- *)

(* How much of the policy one request gets. Batch items and aggregate
   shares are retried once; stats and trace fetches are judged but not
   retried; a ping is only reported, its caller judges a lost one. *)
type policy = Retry | No_retry | Probe

(* Send [encode id] under a fresh id and [await] the answer; a failed
   send is a crash. Every verdict but [Keep] demotes the shard, so after
   one the caller sees [t.conns.(shard) = None]. A failed request
   returns [lost ()], run where the failure is decided, so a fallback
   nests inside any retry span. *)
let rec exchange t shard conn ~policy ~lost ~extract encode =
  let id = fresh_id t in
  match send_frame conn (encode id) with
  | Error _ ->
      if policy <> Probe then crash t shard;
      lost ()
  | Ok () -> await t shard conn ~policy ~lost ~extract encode id

(* Wait under the deadline for the response to [id] and classify it: a
   response [extract] accepts is a success; a timeout, an unparseable
   frame or a response of the wrong shape is soft; anything else (EOF,
   truncation, a transport error) is a crash. *)
and await t shard conn ~policy ~lost ~extract encode id =
  match (policy, recv_matching conn ~id ~until:(until t)) with
  | Probe, Ok resp -> ( match extract resp with Some x -> x | None -> lost ())
  | Probe, Error _ -> lost ()
  | _, Ok resp -> (
      match extract resp with
      | Some x ->
          Supervisor.on_success t.sup shard;
          x
      | None ->
          (* an Error_frame or a mismatched kind: soft, not retried *)
          soft t shard conn ~policy:No_retry ~lost ~extract encode
            t.ctr.m_bad_frames)
  | _, Error Timeout ->
      soft t shard conn ~policy ~lost ~extract encode t.ctr.m_timeouts
  | _, Error e when is_soft e ->
      soft t shard conn ~policy ~lost ~extract encode t.ctr.m_bad_frames
  | _, Error _ ->
      crash t shard;
      lost ()

(* Count a soft failure and take the supervisor's verdict; while it
   keeps the shard, a [Retry] request goes once more under a fresh id. *)
and soft t shard conn ~policy ~lost ~extract encode counter =
  Obs.Metrics.incr counter;
  match Supervisor.on_soft_failure t.sup shard with
  | Supervisor.Keep when policy = Retry ->
      Obs.Metrics.incr t.ctr.m_retries;
      (* a retry is exactly the unlucky path tracing exists for: force
         the trace and nest a retry span *)
      force_cur t;
      let rt0 = t.clock () in
      let res = exchange t shard conn ~policy:No_retry ~lost ~extract encode in
      trace_span t (Printf.sprintf "retry.shard%d" shard) ~start:rt0
        (mint_child t);
      res
  | verdict ->
      apply_verdict t shard verdict;
      lost ()

(* [exchange] for a caller that serves a lost request itself: [None]. *)
let call t shard conn ~policy ?ctx ~extract req =
  exchange t shard conn ~policy
    ~lost:(fun () -> None)
    ~extract:(fun resp -> Option.map Option.some (extract resp))
    (fun id -> Wire.encode_request_ctx ?ctx (req id))

let ping t shard conn =
  call t shard conn ~policy:Probe
    ~extract:(function Wire.Pong _ -> Some () | _ -> None)
    (fun id -> Wire.Ping { id })
  <> None

let rec heal_shard t shard =
  match t.pending.(shard) with
  | None -> ()
  | Some ns -> (
      let b0 = t.clock () in
      wait_backoff t ns;
      trace_span t (Printf.sprintf "backoff.shard%d" shard) ~start:b0
        (mint_child t);
      t.pending.(shard) <- None;
      Obs.Metrics.incr t.ctr.m_restarts;
      let conn = spawn_conn t shard ~with_chaos:false in
      t.conns.(shard) <- conn;
      match conn with
      | Some c when ping t shard c ->
          Supervisor.on_restarted t.sup shard;
          event "router.restarted"
            [ ("shard", Obs.Events.Int shard); ("pid", Obs.Events.Int c.c_pid) ]
      | Some _ | None ->
          spawn_failed t shard;
          heal_shard t shard)

let heal t =
  for s = 0 to t.cfg.shards - 1 do
    heal_shard t s
  done

(* ----- construction -------------------------------------------------- *)

let create cfg =
  if cfg.shards < 1 then invalid_arg "Router.create: shards must be >= 1";
  (match Worker.primary_n (worker_primary cfg) with
  | Some n when n <> Graph.n cfg.graph ->
      invalid_arg "Router.create: primary and graph disagree on n"
  | _ -> ());
  (match cfg.trace with
  | Some tc ->
      if tc.sample_every < 1 then
        invalid_arg "Router.create: trace sample_every must be >= 1";
      if Int64.compare tc.slow_ns 0L < 0 then
        invalid_arg "Router.create: trace slow_ns must be >= 0";
      if tc.capacity < 1 then
        invalid_arg "Router.create: trace capacity must be >= 1"
  | None -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let reg = Obs.Metrics.create () in
  let manual =
    Option.map (fun step -> Obs.Clock.manual ~auto_step:step ()) cfg.clock_step
  in
  let clock =
    match manual with Some m -> Obs.Clock.read m | None -> Obs.Clock.monotonic
  in
  let ctr =
    {
      m_queries = Obs.Metrics.counter reg "router.queries";
      m_degraded = Obs.Metrics.counter reg "router.degraded";
      m_restarts = Obs.Metrics.counter reg "router.restarts";
      m_timeouts = Obs.Metrics.counter reg "router.timeouts";
      m_retries = Obs.Metrics.counter reg "router.retries";
      m_bad_frames = Obs.Metrics.counter reg "router.bad_frames";
      m_crashes = Obs.Metrics.counter reg "router.crashes";
      m_quarantined = Obs.Metrics.gauge reg "router.quarantined";
      m_latency = Obs.Metrics.histogram reg "router.latency_ns";
    }
  in
  let t =
    {
      cfg;
      sup = Supervisor.create ~seed:cfg.seed ~shards:cfg.shards cfg.supervisor;
      reg;
      ctr;
      clock;
      manual;
      conns = Array.make cfg.shards None;
      owned =
        Array.init cfg.shards
          (Partition.owned cfg.partition ~shards:cfg.shards
             ~n:(Graph.n cfg.graph));
      pending = Array.make cfg.shards None;
      fallback = lazy (Resilient_oracle.create ~metrics:reg cfg.graph);
      next_id = ref 0;
      tstore =
        Option.map
          (fun tc -> Obs.Trace_ctx.store ~capacity:tc.capacity)
          cfg.trace;
      tseq = ref 0;
      cur = None;
      down = false;
    }
  in
  (* forked workers inherit this heap copy-on-write, and their first
     major cycle writes to every block it sweeps, dead or alive: collect
     once before the first fork, so workers do not copy pages of
     garbage (a collection between forks would unshare the pages the
     router still shares with the workers already forked) *)
  (match cfg.spawn with Fork -> Gc.full_major () | Exec _ -> ());
  for s = 0 to cfg.shards - 1 do
    let conn = spawn_conn t s ~with_chaos:true in
    t.conns.(s) <- conn;
    match conn with
    | Some c ->
        event "router.spawn"
          [ ("shard", Obs.Events.Int s); ("pid", Obs.Events.Int c.c_pid) ];
        if ping t s c then Supervisor.on_success t.sup s
        else spawn_failed t s
    | None -> spawn_failed t s
  done;
  heal t;
  t

(* ----- serving ------------------------------------------------------- *)

(* A router-local degraded recompute is real serving work, not just an
   incident counter: time it and count it under
   [router.ops.<op>.degraded_local.*], force-sample the active trace,
   and nest a [recompute.shard<i>.<op>] span in the tree. *)
let degraded_local t ~opname ~shard f =
  Obs.Metrics.incr t.ctr.m_degraded;
  force_cur t;
  let base = "router.ops." ^ opname ^ ".degraded_local" in
  let h = Obs.Metrics.histogram t.reg (base ^ ".latency_ns") in
  let c = Obs.Metrics.counter t.reg (base ^ ".count") in
  let t0 = t.clock () in
  let res = f () in
  let elapsed = Int64.sub (t.clock ()) t0 in
  Obs.Metrics.observe ?exemplar:(trace_exemplar t ()) h (Int64.to_int elapsed);
  Obs.Metrics.incr c;
  (match (t.cur, mint_child t) with
  | Some a, Some cc ->
      add_span a cc
        (Printf.sprintf "recompute.shard%d.%s" shard opname)
        ~start:t0 ~elapsed
  | _ -> ());
  res

let fallback_answer t ~opname ~shard u v =
  degraded_local t ~opname ~shard (fun () ->
      let dist, _ =
        Resilient_oracle.query_detailed (Lazy.force t.fallback) u v
      in
      { dist; source = Wire.source_router; degraded = true })

let answer_of_response = function
  | Wire.Answer { dist; source; degraded; _ } -> Some { dist; source; degraded }
  | _ -> None

(* One batch window on one shard: send every request in one write,
   then collect in order, each item through [await]. Once the
   supervisor escalates (restart or quarantine) the shard is gone and
   the remaining items of the window degrade to the local fallback —
   restarts wait for the batch boundary. *)
let window_size = 256

let run_window t shard conn ~opname ~wctx items out =
  let encode u v id =
    Wire.encode_request_ctx ?ctx:wctx (Wire.Query { id; u; v })
  in
  let ids =
    Array.map
      (fun (_, u, v) ->
        let id = fresh_id t in
        Frame_io.queue conn.c_io (encode u v id);
        id)
      items
  in
  (* a window that never went out is a crash *)
  if Result.is_error (Frame_io.flush conn.c_io) then crash t shard;
  Array.iteri
    (fun i (idx, u, v) ->
      let lost () = fallback_answer t ~opname ~shard u v in
      out.(idx) <-
        (match t.conns.(shard) with
        | None -> lost ()
        | Some _ ->
            await t shard conn ~policy:Retry ~lost ~extract:answer_of_response
              (encode u v) ids.(i)))
    items

let query_batch_named t ~opname pairs =
  if t.down then invalid_arg "Router.query_batch: router is shut down";
  let n = Graph.n t.cfg.graph in
  (* a bad pair is the caller's fault: refuse it before any frame goes
     out, so no worker is charged a failure for it *)
  let owners =
    Array.map
      (fun (u, v) ->
        if u < 0 || v < 0 || u >= n || v >= n then
          invalid_arg "Router.query_batch: vertex out of range";
        Partition.owner_of_pair t.cfg.partition ~shards:t.cfg.shards ~n u v)
      pairs
  in
  traced t ("router." ^ opname) (fun () ->
      heal t;
      let out =
        Array.make (Array.length pairs)
          { dist = 0; source = 0; degraded = false }
      in
      let per_shard = Array.make t.cfg.shards [] in
      Array.iteri
        (fun idx (u, v) ->
          per_shard.(owners.(idx)) <- (idx, u, v) :: per_shard.(owners.(idx)))
        pairs;
      for s = 0 to t.cfg.shards - 1 do
        let items = Array.of_list (List.rev per_shard.(s)) in
        let len = Array.length items in
        if len > 0 then begin
          Obs.Metrics.incr ~by:len t.ctr.m_queries;
          Obs.Metrics.observe_span ~clock:t.clock
            ~exemplar:(fun () -> trace_exemplar t ())
            t.ctr.m_latency
            (fun () ->
              Option.iter (fun c -> Hashtbl.reset c.c_stash) t.conns.(s);
              (* windows go out while the shard lives; one rpc span
                 each, under which retries and recomputes nest *)
              let rec send_windows k =
                match t.conns.(s) with
                | Some conn when k < len ->
                    let stop = min len (k + window_size) in
                    with_rpc_span t ~shard:s ~window:(k / window_size)
                      (fun wctx ->
                        run_window t s conn ~opname ~wctx
                          (Array.sub items k (stop - k))
                          out);
                    send_windows stop
                | _ -> k
              in
              (* degrade the unsent remainder of this shard's batch *)
              for j = send_windows 0 to len - 1 do
                let idx, u, v = items.(j) in
                out.(idx) <- fallback_answer t ~opname ~shard:s u v
              done)
        end
      done;
      out)

let query_batch t pairs = query_batch_named t ~opname:"batch" pairs
let query t u v = (query_batch_named t ~opname:"dist" [| (u, v) |]).(0)

(* ----- aggregate operations ------------------------------------------ *)

type op_result = { response : Obs.Ops.response; source : int; degraded : bool }

(* Local fallback for one shard's share of an aggregate: the search-only
   oracle answers the same restricted request exactly. *)
let fb_op t ~opname ~shard req =
  degraded_local t ~opname ~shard (fun () ->
      fst (Resilient_oracle.op (Lazy.force t.fallback) req))

let fb_row t ~opname ~shard ~source ~targets =
  match fb_op t ~opname ~shard (Obs.Ops.One_to_many { source; targets }) with
  | Obs.Ops.R_dists ds -> ds
  | _ -> assert false (* One_to_many always yields R_dists *)

type merge_acc = { mutable code : int; mutable dg : bool }

let bump acc ~code ~degraded =
  if code > acc.code then acc.code <- code;
  if degraded then acc.dg <- true

(* The one per-shard loop of the aggregates. Shard [s] is asked for its
   share [parts.(s)] (skipped when empty) under one rpc span, through
   the exchange's [Retry] policy; [extract] takes the payload, its
   source code and degraded flag from the reply. When the shard is down
   or the call is lost, the router computes the share locally and
   exactly with [local]. [f] folds each share's result in call order,
   the last shard first when [descending]. *)
let fold_shares t acc ~descending parts ~extract ~local req f init =
  let k = Array.length parts in
  let r = ref init in
  for i = 0 to k - 1 do
    let s = if descending then k - 1 - i else i in
    let part = parts.(s) in
    if Array.length part > 0 then begin
      let result =
        match t.conns.(s) with
        | None -> None
        | Some conn ->
            with_rpc_span t ~shard:s ~window:(-1) (fun ctx ->
                call t s conn ~policy:Retry ?ctx ~extract:(extract part)
                  (req part))
      in
      let x =
        match result with
        | Some (x, code, degraded) ->
            bump acc ~code ~degraded;
            x
        | None ->
            let x = local ~shard:s part in
            bump acc ~code:Wire.source_router ~degraded:true;
            x
      in
      r := f !r s x
    end
  done;
  !r

(* Distances from [source] to every target, each target served by its
   owning shard (slice rows are exact at owned entries). *)
let row_op t acc ~opname ~source ~targets =
  let n = Graph.n t.cfg.graph in
  let out = Array.make (Array.length targets) 0 in
  let per_shard = Array.make t.cfg.shards [] in
  Array.iteri
    (fun i w ->
      let s = Partition.owner t.cfg.partition ~shards:t.cfg.shards ~n w in
      per_shard.(s) <- i :: per_shard.(s))
    targets;
  let idxs = Array.map (fun l -> Array.of_list (List.rev l)) per_shard in
  fold_shares t acc ~descending:false
    (Array.map (Array.map (fun i -> targets.(i))) idxs)
    ~extract:(fun ts -> function
      | Wire.Row_payload { dists; source; degraded; _ }
        when Array.length dists = Array.length ts ->
          Some (dists, source, degraded)
      | _ -> None)
    ~local:(fun ~shard ts -> fb_row t ~opname ~shard ~source ~targets:ts)
    (fun ts id -> Wire.Op_row { id; source; targets = ts })
    (fun () s ds -> Array.iteri (fun j i -> out.(i) <- ds.(j)) idxs.(s))
    ();
  out

(* The farthest vertex from [v]: farthest_of over each shard's
   farthest owned (vertex, dist) witness (each already the smallest-id
   in its shard, so the shared reducer reconstructs the global
   tie-break). *)
let farthest t acc ~opname v =
  fold_shares t acc ~descending:true t.owned
    ~extract:(fun _ -> function
      | Wire.Ecc_payload { vertex; dist; source; degraded; _ } when vertex >= 0
        ->
          Some (Some (vertex, dist), source, degraded)
      | _ -> None)
    ~local:(fun ~shard ow ->
      Obs.Ops.farthest_in ~vertex:(Array.get ow)
        (fb_row t ~opname ~shard ~source:v ~targets:ow))
    (fun _ id -> Wire.Op_ecc { id; v })
    (fun cands _ c -> match c with Some c -> c :: cands | None -> cands)
    []
  |> Array.of_list |> Obs.Ops.farthest_of

let op_uninstrumented t req =
  let opname = Obs.Ops.name req in
  let acc = { code = Wire.source_primary; dg = false } in
  let finish response = { response; source = acc.code; degraded = acc.dg } in
  match req with
  | Obs.Ops.Dist { u; v } ->
      let (a : answer) = (query_batch_named t ~opname [| (u, v) |]).(0) in
      { response = Obs.Ops.R_dist a.dist; source = a.source;
        degraded = a.degraded }
  | Obs.Ops.Batch pairs ->
      let answers = query_batch_named t ~opname pairs in
      Array.iter
        (fun (a : answer) -> bump acc ~code:a.source ~degraded:a.degraded)
        answers;
      finish (Obs.Ops.R_dists (Array.map (fun (a : answer) -> a.dist) answers))
  | Obs.Ops.One_to_many { source; targets } ->
      finish (Obs.Ops.R_dists (row_op t acc ~opname ~source ~targets))
  | Obs.Ops.Many_to_many { sources; targets } ->
      let row source = row_op t acc ~opname ~source ~targets in
      finish (Obs.Ops.R_matrix (Array.map row sources))
  | Obs.Ops.Top_k_nearest { source; k } ->
      let cands =
        fold_shares t acc ~descending:true t.owned
          ~extract:(fun _ -> function
            | Wire.Topk_payload { pairs; source; degraded; _ } ->
                Some (pairs, source, degraded)
            | _ -> None)
          ~local:(fun ~shard ow ->
            Obs.Ops.nearest_in ~k ~vertex:(Array.get ow)
              (fb_row t ~opname ~shard ~source ~targets:ow))
          (fun _ id -> Wire.Op_topk { id; source; k })
          (fun cands _ c -> c :: cands)
          []
      in
      (* the global k smallest live in the union of per-shard k
         smallest *)
      finish (Obs.Ops.R_nearest (Obs.Ops.k_nearest ~k (Array.concat cands)))
  | Obs.Ops.Top_k_among { source; among; _ }
  | Obs.Ops.Farthest_among { source; among } ->
      let ds = row_op t acc ~opname ~source ~targets:among in
      let vertex = Array.get among in
      finish
        (match req with
        | Obs.Ops.Top_k_among { k; _ } ->
            Obs.Ops.R_nearest (Obs.Ops.nearest_in ~k ~vertex ds)
        | _ -> Obs.Ops.farthest_response (Obs.Ops.farthest_in ~vertex ds))
  | Obs.Ops.Eccentricity v ->
      let far = farthest t acc ~opname v in
      finish (Obs.Ops.R_ecc (Option.fold ~none:0 ~some:snd far))
  | Obs.Ops.Farthest v ->
      finish (Obs.Ops.farthest_response (farthest t acc ~opname v))
  | Obs.Ops.Diameter_radius when Graph.n t.cfg.graph = 0 ->
      finish (Obs.Ops.R_diam_rad { diameter = 0; radius = 0 })
  | Obs.Ops.Diameter_radius ->
      let extremes (d, r) e = (max d e, min r e) in
      let diameter, radius =
        fold_shares t acc ~descending:false t.owned
          ~extract:(fun _ -> function
            | Wire.Diam_payload
                { diameter; radius; vertices; source; degraded; _ }
              when vertices > 0 ->
                Some ((diameter, radius), source, degraded)
            | _ -> None)
          ~local:(fun ~shard ow ->
            Array.fold_left
              (fun dr w ->
                match fb_op t ~opname ~shard (Obs.Ops.Eccentricity w) with
                | Obs.Ops.R_ecc e -> extremes dr e
                | _ -> assert false (* Eccentricity always yields R_ecc *))
              (0, max_int) ow)
          (fun _ id -> Wire.Op_diam { id })
          (fun (d, r) _ (d', r') -> (max d d', min r r'))
          (0, max_int)
      in
      finish (Obs.Ops.R_diam_rad { diameter; radius })

let op t req =
  if t.down then invalid_arg "Router.op: router is shut down";
  (match Obs.Ops.validate ~n:(Graph.n t.cfg.graph) req with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Router.op: " ^ msg));
  (* trace first, then heal: backoff waits spent healing show up as
     spans under this query's root, while the instrumented window below
     keeps its historical meaning (serve time only) *)
  traced t ("router." ^ Obs.Ops.name req) (fun () ->
      heal t;
      Obs.Obs.instrument_op ~clock:t.clock
        ~exemplar:(fun () -> trace_exemplar t ())
        ~prefix:"router.ops" t.reg (op_uninstrumented t) req)

(* ----- introspection ------------------------------------------------- *)

let supervisor t = t.sup
let metrics t = t.reg
let pid t shard = Option.map (fun c -> c.c_pid) t.conns.(shard)

(* Ask every live worker, last shard first, for a report. A shard that
   cannot give one is judged but not retried, and contributes nothing:
   a failed fetch degrades the report, never the caller. Returns
   [(shard, report)] in ascending shard order. *)
let reports t ~extract req =
  heal t;
  let got = ref [] in
  for s = t.cfg.shards - 1 downto 0 do
    match t.conns.(s) with
    | None -> ()
    | Some conn -> (
        match call t s conn ~policy:No_retry ~extract req with
        | Some x -> got := (s, x) :: !got
        | None -> ())
  done;
  !got

let merged_snapshot t =
  let snaps =
    reports t
      ~extract:(function
        | Wire.Stats_payload { data; _ } ->
            Result.to_option (Obs.Metrics.snapshot_of_wire data)
        | _ -> None)
      (fun id -> Wire.Stats { id })
  in
  Obs.Metrics.union_snapshots
    (Obs.Metrics.snapshot t.reg
    :: List.map
         (fun (s, snap) ->
           Obs.Metrics.prefix_snapshot (Printf.sprintf "shard%d." s) snap)
         snaps)

(* Pull every live worker's span store, merge with the router's own,
   and reassemble into one tree per trace. *)
let trace_trees t =
  match t.tstore with
  | None -> []
  | Some store ->
      let fetched =
        reports t
          ~extract:(function
            | Wire.Trace_payload { data; _ } ->
                Result.to_option (Obs.Trace_ctx.spans_of_wire data)
            | _ -> None)
          (fun id -> Wire.Trace_fetch { id })
      in
      Obs.Trace_ctx.tree
        (Obs.Trace_ctx.spans store @ List.concat (List.rev_map snd fetched))

let shutdown t =
  if not t.down then begin
    t.down <- true;
    Array.iteri
      (fun s conn ->
        match conn with
        | None -> ()
        | Some c ->
            (try ignore (send_frame c (Wire.encode_request Wire.Shutdown))
             with _ -> ());
            demote t s)
      t.conns
  end
