open Repro_graph
open Repro_hub
module Backend = Repro_obs.Backend
module Metrics = Repro_obs.Metrics
module Trace = Repro_obs.Trace
module Ops = Repro_obs.Ops

type source = Primary | Bidirectional | Bfs

let source_name = function
  | Primary -> "primary"
  | Bidirectional -> "bidirectional"
  | Bfs -> "bfs"

type stats = {
  queries : int;
  primary_answers : int;
  fallback_answers : int;
  spot_checks : int;
  disagreements : int;
  faults : int;
  budget_exhausted : int;
  validation_failures : int;
  quarantines : int;
}

exception Over_budget = Backend.Over_budget

(* One incident counter: the [stats] field and its live
   [resilient.<name>] metric, moved together by [bump] only. *)
type counter = { mutable count : int; metric : Metrics.counter option }

let bump c =
  c.count <- c.count + 1;
  match c.metric with Some m -> Metrics.incr m | None -> ()

type t = {
  graph : Graph.t;
  primary : Backend.t option;
  primary_ops : Backend.ops option;
  step_budget : int;
  spot_check_every : int;
  quarantine_after : int;
  mutable strikes : int;
  mutable is_quarantined : bool;
  mutable primary_attempts : int;
  queries : counter;
  primary_answers : counter;
  fallback_answers : counter;
  spot_checks : counter;
  disagreements : counter;
  faults : counter;
  budget_exhausted : counter;
  validation_failures : counter;
  quarantines : counter;
}

(* Budget-capped primaries over the label stores. The scan budget
   caps |S(u)| + |S(v)|; exceeding it raises [Over_budget], which the
   serving loop treats as a clean skip (no strike). *)

let budget_capped base scan_cost = function
  | None -> base
  | Some budget ->
      let guard u v = if scan_cost u v > budget then raise Over_budget in
      Backend.make ~name:(Backend.name base)
        ~space_words:(Backend.space_words base)
        ~detailed:(fun u v -> guard u v; Backend.query_detailed base u v)
        (fun u v -> guard u v; Backend.query base u v)

let store_primary ?step_budget (store : Label_store.packed) =
  budget_capped store.backend (fun u v -> store.size u + store.size v)
    step_budget

let flat_primary ?step_budget s = store_primary ?step_budget (Flat_hub.pack s)

let compact_primary ?step_budget s =
  store_primary ?step_budget (Compact_hub.pack s)

let create ?(step_budget = max_int) ?(spot_check_every = 1)
    ?(quarantine_after = 3) ?metrics ?primary ?primary_ops graph =
  if step_budget <= 0 then
    invalid_arg "Resilient_oracle: step_budget must be positive";
  if quarantine_after <= 0 then
    invalid_arg "Resilient_oracle: quarantine_after must be positive";
  let primary_ops =
    match primary_ops with
    | Some _ -> primary_ops
    | None -> Option.map (Backend.lift ~n:(Graph.n graph)) primary
  in
  let counter name =
    {
      count = 0;
      metric =
        Option.map (fun r -> Metrics.counter r ("resilient." ^ name)) metrics;
    }
  in
  {
    graph;
    primary;
    primary_ops;
    step_budget;
    spot_check_every;
    quarantine_after;
    strikes = 0;
    is_quarantined = false;
    primary_attempts = 0;
    queries = counter "queries";
    primary_answers = counter "primary_answers";
    fallback_answers = counter "fallback_answers";
    spot_checks = counter "spot_checks";
    disagreements = counter "disagreements";
    faults = counter "faults";
    budget_exhausted = counter "budget_exhausted";
    validation_failures = counter "validation_failures";
    quarantines = counter "quarantines";
  }

(* The serving policy, written once for points, the pooled replay and
   aggregates. A query the primary may take counts an [attempt]; then
   exactly one of [failed] (it raised) and [answered] (it returned)
   reports the outcome, and a due spot check ends in one [verdict]. *)

let attempt t =
  if t.is_quarantined then false
  else begin
    t.primary_attempts <- t.primary_attempts + 1;
    true
  end

let strike t =
  t.strikes <- t.strikes + 1;
  if (not t.is_quarantined) && t.strikes >= t.quarantine_after then begin
    t.is_quarantined <- true;
    bump t.quarantines
  end

(* [Over_budget] is a clean skip; any other exception is a fault and
   a strike. The caller serves the fallback. *)
let failed t = function
  | Over_budget -> bump t.budget_exhausted
  | _ ->
      bump t.faults;
      strike t

(* True when the answer must be spot-checked first; otherwise it is
   served and counted as a primary answer. *)
let answered t =
  let due =
    t.spot_check_every > 0 && t.primary_attempts mod t.spot_check_every = 0
  in
  bump (if due then t.spot_checks else t.primary_answers);
  due

(* True serves the primary's answer; a disagreement strikes and serves
   the fallback's. *)
let verdict t agree =
  if agree then bump t.primary_answers
  else begin
    bump t.disagreements;
    strike t;
    bump t.fallback_answers
  end;
  agree

(* The chain below the primary. Plain BFS is the unbudgeted final
   authority: it always terminates with the exact answer. *)
let compute_fallback t u v =
  match Budget_search.bidirectional t.graph ~budget:t.step_budget u v with
  | Some d -> (d, Bidirectional)
  | None ->
      bump t.budget_exhausted;
      ((Traversal.bfs t.graph u).(v), Bfs)

let serve_fallback t u v =
  bump t.fallback_answers;
  compute_fallback t u v

(* Validate and count one point query. *)
let admit t u v =
  let n = Graph.n t.graph in
  if u < 0 || u >= n || v < 0 || v >= n then begin
    bump t.validation_failures;
    invalid_arg "Resilient_oracle.query: vertex out of range"
  end;
  bump t.queries

let serve_answer t u v d =
  if not (answered t) then (d, Primary)
  else
    let ((truth, _) as fallback) = compute_fallback t u v in
    if verdict t (truth = d) then (d, Primary) else fallback

let query_detailed t u v =
  admit t u v;
  match t.primary with
  | Some p when attempt t -> (
      match Backend.query p u v with
      | d -> serve_answer t u v d
      | exception e ->
          failed t e;
          serve_fallback t u v)
  | _ -> serve_fallback t u v

let query t u v = fst (query_detailed t u v)

(* Batched queries. The primary's answers are pure given an honest
   backend, so they can be precomputed in parallel; every piece of
   accounting — counters, strikes, quarantine flips, fallback and
   spot-check work — then replays sequentially in pair order through
   the same policy, making the stats trajectory indistinguishable from
   a [query_detailed] loop. *)

let query_many_detailed ?pool t pairs =
  match (pool, t.primary) with
  | Some pool, Some p when not t.is_quarantined ->
      (* quarantine is permanent, so the primary is live for the whole
         batch iff it is live now; mid-batch strikes are honoured by
         the replay below *)
      let n = Graph.n t.graph in
      (* an out-of-range pair keeps the placeholder: [admit] rejects it *)
      let out = Array.make (Array.length pairs) (Error Exit) in
      Repro_par.Pool.parallel_for pool ~n:(Array.length pairs)
        (fun ~slot:_ lo hi ->
          for k = lo to hi - 1 do
            let u, v = pairs.(k) in
            if u >= 0 && u < n && v >= 0 && v < n then
              out.(k) <-
                (match Backend.query p u v with
                | d -> Ok d
                | exception e -> Error e)
          done);
      Array.mapi
        (fun k (u, v) ->
          admit t u v;
          if not (attempt t) then serve_fallback t u v
          else
            match out.(k) with
            | Ok d -> serve_answer t u v d
            | Error e ->
                failed t e;
                serve_fallback t u v)
        pairs
  | _ -> Array.map (fun (u, v) -> query_detailed t u v) pairs

let query_many ?pool t pairs =
  Array.map fst (query_many_detailed ?pool t pairs)

let fallback_hops = function Primary -> 0 | Bidirectional -> 1 | Bfs -> 2

(* The aggregate-ops fallback: exact BFS rows reduced with the shared
   Ops helpers, so its tie-breaking matches every fast path. Aggregates
   skip the bidirectional stage — they need whole rows, which is
   exactly what one BFS per source yields. *)
let fallback_response t req =
  let row s = Traversal.bfs t.graph s in
  let farthest s = Ops.farthest_in ~vertex:Fun.id (row s) in
  let ecc_of s = match farthest s with Some (_, d) -> d | None -> 0 in
  (* [among]'s cells of [source]'s row, for a reducer over [among] *)
  let among_row source among =
    let r = row source in
    Array.map (Array.get r) among
  in
  match req with
  | Ops.Dist { u; v } -> Ops.R_dist (row u).(v)
  | Ops.Batch ps ->
      Ops.R_dists (Array.map (fun (u, v) -> (row u).(v)) ps)
  | Ops.One_to_many { source; targets } ->
      let r = row source in
      Ops.R_dists (Array.map (fun w -> r.(w)) targets)
  | Ops.Many_to_many { sources; targets } ->
      Ops.R_matrix
        (Array.map
           (fun s ->
             let r = row s in
             Array.map (fun w -> r.(w)) targets)
           sources)
  | Ops.Top_k_nearest { source; k } ->
      Ops.R_nearest (Ops.nearest_in ~k ~vertex:Fun.id (row source))
  | Ops.Top_k_among { source; k; among } ->
      Ops.R_nearest
        (Ops.nearest_in ~k ~vertex:(Array.get among) (among_row source among))
  | Ops.Eccentricity v -> Ops.R_ecc (ecc_of v)
  | Ops.Farthest v -> Ops.farthest_response (farthest v)
  | Ops.Farthest_among { source; among } ->
      Ops.farthest_response
        (Ops.farthest_in ~vertex:(Array.get among) (among_row source among))
  | Ops.Diameter_radius ->
      let n = Graph.n t.graph in
      if n = 0 then Ops.R_diam_rad { diameter = 0; radius = 0 }
      else begin
        let dia = ref 0 and rad = ref max_int in
        for v = 0 to n - 1 do
          let e = ecc_of v in
          if e > !dia then dia := e;
          if e < !rad then rad := e
        done;
        Ops.R_diam_rad { diameter = !dia; radius = !rad }
      end

let serve_fallback_op t req =
  bump t.fallback_answers;
  (fallback_response t req, Bfs)

let op t req =
  (* the one validation of the request: the primary evaluates it as
     checked *)
  let valid =
    match Ops.check ~n:(Graph.n t.graph) req with
    | Ok v -> v
    | Error msg ->
        bump t.validation_failures;
        invalid_arg ("Resilient_oracle.op: " ^ msg)
  in
  match req with
  | Ops.Dist { u; v } ->
      let d, src = query_detailed t u v in
      (Ops.R_dist d, src)
  | Ops.Batch pairs ->
      (* point queries keep their per-pair accounting (budgets, spot
         checks, strikes); the reported source is the deepest stage
         any pair degraded to *)
      let served = query_many_detailed t pairs in
      let deeper s (_, s') =
        if fallback_hops s' > fallback_hops s then s' else s
      in
      ( Ops.R_dists (Array.map fst served),
        Array.fold_left deeper Primary served )
  | _ -> (
      (* an aggregate counts as one accepted query; degradation is
         all-or-nothing per request *)
      bump t.queries;
      match t.primary_ops with
      | Some o when attempt t -> (
          match Backend.op_valid o valid with
          | resp ->
              if not (answered t) then (resp, Primary)
              else
                let truth = fallback_response t req in
                if verdict t (Ops.equal_response truth resp) then
                  (resp, Primary)
                else (truth, Bfs)
          | exception e ->
              failed t e;
              serve_fallback_op t req)
      | _ -> serve_fallback_op t req)

let stats t =
  {
    queries = t.queries.count;
    primary_answers = t.primary_answers.count;
    fallback_answers = t.fallback_answers.count;
    spot_checks = t.spot_checks.count;
    disagreements = t.disagreements.count;
    faults = t.faults.count;
    budget_exhausted = t.budget_exhausted.count;
    validation_failures = t.validation_failures.count;
    quarantines = t.quarantines.count;
  }

let quarantined t = t.is_quarantined
let primary_name t = Option.map Backend.name t.primary

let backend t =
  let name =
    "resilient(" ^ Option.value ~default:"search" (primary_name t) ^ ")"
  in
  let space =
    (2 * Graph.m t.graph) + Graph.n t.graph
    + (match t.primary with Some p -> Backend.space_words p | None -> 0)
  in
  let detailed u v =
    let d, src = query_detailed t u v in
    ( d,
      Trace.make ~fallback_hops:(fallback_hops src) ~source:(source_name src)
        ~u ~v ~dist:d () )
  in
  Backend.make ~name ~space_words:space ~detailed (query t)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "queries=%d primary=%d fallback=%d spot_checks=%d disagreements=%d \
     faults=%d budget_exhausted=%d validation_failures=%d quarantines=%d"
    s.queries s.primary_answers s.fallback_answers s.spot_checks
    s.disagreements s.faults s.budget_exhausted s.validation_failures
    s.quarantines
