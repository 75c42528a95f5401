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

exception Over_budget

(* Live counter handles into a caller-supplied registry, mirroring the
   mutable stats fields one for one (see [stats] / the differential
   test in test_obs.ml). *)
type emitters = {
  e_queries : Metrics.counter;
  e_primary_answers : Metrics.counter;
  e_fallback_answers : Metrics.counter;
  e_spot_checks : Metrics.counter;
  e_disagreements : Metrics.counter;
  e_faults : Metrics.counter;
  e_budget_exhausted : Metrics.counter;
  e_validation_failures : Metrics.counter;
  e_quarantines : Metrics.counter;
}

let emitters_of registry =
  let c name = Metrics.counter registry ("resilient." ^ name) in
  {
    e_queries = c "queries";
    e_primary_answers = c "primary_answers";
    e_fallback_answers = c "fallback_answers";
    e_spot_checks = c "spot_checks";
    e_disagreements = c "disagreements";
    e_faults = c "faults";
    e_budget_exhausted = c "budget_exhausted";
    e_validation_failures = c "validation_failures";
    e_quarantines = c "quarantines";
  }

type t = {
  graph : Graph.t;
  primary : Backend.t option;
  primary_ops : Backend.ops option;
  emit : emitters option;
  step_budget : int;
  spot_check_every : int;
  quarantine_after : int;
  mutable strikes : int;
  mutable is_quarantined : bool;
  mutable queries : int;
  mutable primary_attempts : int;
  mutable primary_answers : int;
  mutable fallback_answers : int;
  mutable spot_checks : int;
  mutable disagreements : int;
  mutable faults : int;
  mutable budget_exhausted : int;
  mutable validation_failures : int;
  mutable quarantines : int;
}

let note t sel = match t.emit with Some e -> Metrics.incr (sel e) | None -> ()

let make ?(step_budget = max_int) ?(spot_check_every = 1)
    ?(quarantine_after = 3) ?metrics ?primary_ops ~primary graph =
  if step_budget <= 0 then
    invalid_arg "Resilient_oracle: step_budget must be positive";
  if quarantine_after <= 0 then
    invalid_arg "Resilient_oracle: quarantine_after must be positive";
  let primary_ops =
    match (primary_ops, primary) with
    | (Some _ as o), _ -> o
    | None, Some p -> Some (Backend.lift ~n:(Graph.n graph) p)
    | None, None -> None
  in
  {
    graph;
    primary;
    primary_ops;
    emit = Option.map emitters_of metrics;
    step_budget;
    spot_check_every;
    quarantine_after;
    strikes = 0;
    is_quarantined = false;
    queries = 0;
    primary_attempts = 0;
    primary_answers = 0;
    fallback_answers = 0;
    spot_checks = 0;
    disagreements = 0;
    faults = 0;
    budget_exhausted = 0;
    validation_failures = 0;
    quarantines = 0;
  }

(* Budget-capped primaries over the label stores. The scan budget
   caps |S(u)| + |S(v)|; exceeding it raises [Over_budget], which the
   serving loop treats as a clean skip (no strike). *)

let budget_capped base scan_cost = function
  | None -> base
  | Some budget ->
      let guard u v = if scan_cost u v > budget then raise Over_budget in
      let detailed u v =
        guard u v;
        Backend.query_detailed base u v
      in
      Backend.make ~name:(Backend.name base)
        ~space_words:(Backend.space_words base) ~detailed
        (fun u v ->
          guard u v;
          Backend.query base u v)

let hub_primary ?step_budget labels =
  budget_capped (Hub_label.backend labels)
    (fun u v -> Hub_label.size labels u + Hub_label.size labels v)
    step_budget

let store_primary ?step_budget (store : Label_store.packed) =
  budget_capped store.backend (fun u v -> store.size u + store.size v)
    step_budget

let flat_primary ?step_budget s = store_primary ?step_budget (Flat_hub.pack s)

let compact_primary ?step_budget s =
  store_primary ?step_budget (Compact_hub.pack s)

let create ?step_budget ?spot_check_every ?quarantine_after ?metrics ?labels
    ?primary ?primary_ops g =
  let primary =
    match (primary, labels) with
    | Some _, Some _ ->
        invalid_arg "Resilient_oracle.create: pass ~labels or ~primary, not both"
    | Some b, None -> Some b
    | None, Some l ->
        if Hub_label.n l <> Graph.n g then
          invalid_arg
            "Resilient_oracle.create: labeling and graph disagree on n";
        Some (hub_primary ?step_budget l)
    | None, None -> None
  in
  make ?step_budget ?spot_check_every ?quarantine_after ?metrics ?primary_ops
    ~primary g

let strike t =
  t.strikes <- t.strikes + 1;
  if (not t.is_quarantined) && t.strikes >= t.quarantine_after then begin
    t.is_quarantined <- true;
    t.quarantines <- t.quarantines + 1;
    note t (fun e -> e.e_quarantines)
  end

(* The chain below the primary. Plain BFS is the unbudgeted final
   authority: it always terminates with the exact answer. *)
let compute_fallback t u v =
  match Budget_search.bidirectional t.graph ~budget:t.step_budget u v with
  | Some d -> (d, Bidirectional)
  | None ->
      t.budget_exhausted <- t.budget_exhausted + 1;
      note t (fun e -> e.e_budget_exhausted);
      ((Traversal.bfs t.graph u).(v), Bfs)

let serve_fallback t u v =
  let d, src = compute_fallback t u v in
  t.fallback_answers <- t.fallback_answers + 1;
  note t (fun e -> e.e_fallback_answers);
  (d, src)

let query_detailed t u v =
  let n = Graph.n t.graph in
  if u < 0 || u >= n || v < 0 || v >= n then begin
    t.validation_failures <- t.validation_failures + 1;
    note t (fun e -> e.e_validation_failures);
    invalid_arg "Resilient_oracle.query: vertex out of range"
  end;
  t.queries <- t.queries + 1;
  note t (fun e -> e.e_queries);
  match t.primary with
  | Some p when not t.is_quarantined -> (
      t.primary_attempts <- t.primary_attempts + 1;
      match Backend.query p u v with
      | exception Over_budget ->
          t.budget_exhausted <- t.budget_exhausted + 1;
          note t (fun e -> e.e_budget_exhausted);
          serve_fallback t u v
      | exception _ ->
          t.faults <- t.faults + 1;
          note t (fun e -> e.e_faults);
          strike t;
          serve_fallback t u v
      | d ->
          let checked =
            t.spot_check_every > 0
            && t.primary_attempts mod t.spot_check_every = 0
          in
          if not checked then begin
            t.primary_answers <- t.primary_answers + 1;
            note t (fun e -> e.e_primary_answers);
            (d, Primary)
          end
          else begin
            t.spot_checks <- t.spot_checks + 1;
            note t (fun e -> e.e_spot_checks);
            let truth, src = compute_fallback t u v in
            if truth = d then begin
              t.primary_answers <- t.primary_answers + 1;
              note t (fun e -> e.e_primary_answers);
              (d, Primary)
            end
            else begin
              t.disagreements <- t.disagreements + 1;
              note t (fun e -> e.e_disagreements);
              strike t;
              t.fallback_answers <- t.fallback_answers + 1;
              note t (fun e -> e.e_fallback_answers);
              (truth, src)
            end
          end)
  | _ -> serve_fallback t u v

let query t u v = fst (query_detailed t u v)

(* Batched queries. The primary's answers are pure given an honest
   backend, so they can be precomputed in parallel; every piece of
   accounting — counters, strikes, quarantine flips, fallback and
   spot-check work — then replays sequentially in pair order, making
   the stats trajectory indistinguishable from a [query_detailed]
   loop. *)

type primary_outcome = P_ans of int | P_over | P_exn

let query_many_detailed ?pool t pairs =
  match pool with
  | None -> Array.map (fun (u, v) -> query_detailed t u v) pairs
  | Some pool ->
      let m = Array.length pairs in
      let n = Graph.n t.graph in
      (* quarantine is permanent, so the primary is live for the whole
         batch iff it is live now; mid-batch strikes are honoured by
         the replay below *)
      let pre =
        match t.primary with
        | Some p when not t.is_quarantined ->
            let out = Array.make m P_exn in
            Repro_par.Pool.parallel_for pool ~n:m (fun ~slot:_ lo hi ->
                for k = lo to hi - 1 do
                  let u, v = pairs.(k) in
                  if u >= 0 && u < n && v >= 0 && v < n then
                    out.(k) <-
                      (match Backend.query p u v with
                      | d -> P_ans d
                      | exception Over_budget -> P_over
                      | exception _ -> P_exn)
                done);
            Some out
        | _ -> None
      in
      Array.mapi
        (fun k (u, v) ->
          if u < 0 || u >= n || v < 0 || v >= n then begin
            t.validation_failures <- t.validation_failures + 1;
            note t (fun e -> e.e_validation_failures);
            invalid_arg "Resilient_oracle.query: vertex out of range"
          end;
          t.queries <- t.queries + 1;
          note t (fun e -> e.e_queries);
          match pre with
          | Some out when not t.is_quarantined -> (
              t.primary_attempts <- t.primary_attempts + 1;
              match out.(k) with
              | P_over ->
                  t.budget_exhausted <- t.budget_exhausted + 1;
                  note t (fun e -> e.e_budget_exhausted);
                  serve_fallback t u v
              | P_exn ->
                  t.faults <- t.faults + 1;
                  note t (fun e -> e.e_faults);
                  strike t;
                  serve_fallback t u v
              | P_ans d ->
                  let checked =
                    t.spot_check_every > 0
                    && t.primary_attempts mod t.spot_check_every = 0
                  in
                  if not checked then begin
                    t.primary_answers <- t.primary_answers + 1;
                    note t (fun e -> e.e_primary_answers);
                    (d, Primary)
                  end
                  else begin
                    t.spot_checks <- t.spot_checks + 1;
                    note t (fun e -> e.e_spot_checks);
                    let truth, src = compute_fallback t u v in
                    if truth = d then begin
                      t.primary_answers <- t.primary_answers + 1;
                      note t (fun e -> e.e_primary_answers);
                      (d, Primary)
                    end
                    else begin
                      t.disagreements <- t.disagreements + 1;
                      note t (fun e -> e.e_disagreements);
                      strike t;
                      t.fallback_answers <- t.fallback_answers + 1;
                      note t (fun e -> e.e_fallback_answers);
                      (truth, src)
                    end
                  end)
          | _ -> serve_fallback t u v)
        pairs

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
  | Ops.Eccentricity v -> Ops.R_ecc (ecc_of v)
  | Ops.Farthest v -> (
      match farthest v with
      | Some (vertex, dist) -> Ops.R_farthest { vertex; dist }
      | None -> Ops.R_farthest { vertex = v; dist = 0 })
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
  let resp = fallback_response t req in
  t.fallback_answers <- t.fallback_answers + 1;
  note t (fun e -> e.e_fallback_answers);
  (resp, Bfs)

let op t req =
  (match Ops.validate ~n:(Graph.n t.graph) req with
  | Ok () -> ()
  | Error msg ->
      t.validation_failures <- t.validation_failures + 1;
      note t (fun e -> e.e_validation_failures);
      invalid_arg ("Resilient_oracle.op: " ^ msg));
  match req with
  | Ops.Dist { u; v } ->
      let d, src = query_detailed t u v in
      (Ops.R_dist d, src)
  | Ops.Batch pairs ->
      (* point queries keep their per-pair accounting (budgets, spot
         checks, strikes); the reported source is the deepest stage
         any pair degraded to *)
      let src = ref Primary in
      let ds =
        Array.map
          (fun (u, v) ->
            let d, s = query_detailed t u v in
            if fallback_hops s > fallback_hops !src then src := s;
            d)
          pairs
      in
      (Ops.R_dists ds, !src)
  | _ -> (
      (* an aggregate counts as one accepted query; degradation is
         all-or-nothing per request *)
      t.queries <- t.queries + 1;
      note t (fun e -> e.e_queries);
      match t.primary_ops with
      | Some o when not t.is_quarantined -> (
          t.primary_attempts <- t.primary_attempts + 1;
          match Backend.op o req with
          | exception Over_budget ->
              t.budget_exhausted <- t.budget_exhausted + 1;
              note t (fun e -> e.e_budget_exhausted);
              serve_fallback_op t req
          | exception _ ->
              t.faults <- t.faults + 1;
              note t (fun e -> e.e_faults);
              strike t;
              serve_fallback_op t req
          | resp ->
              let checked =
                t.spot_check_every > 0
                && t.primary_attempts mod t.spot_check_every = 0
              in
              if not checked then begin
                t.primary_answers <- t.primary_answers + 1;
                note t (fun e -> e.e_primary_answers);
                (resp, Primary)
              end
              else begin
                t.spot_checks <- t.spot_checks + 1;
                note t (fun e -> e.e_spot_checks);
                let truth = fallback_response t req in
                if Ops.equal_response truth resp then begin
                  t.primary_answers <- t.primary_answers + 1;
                  note t (fun e -> e.e_primary_answers);
                  (resp, Primary)
                end
                else begin
                  t.disagreements <- t.disagreements + 1;
                  note t (fun e -> e.e_disagreements);
                  strike t;
                  t.fallback_answers <- t.fallback_answers + 1;
                  note t (fun e -> e.e_fallback_answers);
                  (truth, Bfs)
                end
              end)
      | _ -> serve_fallback_op t req)

let stats t =
  {
    queries = t.queries;
    primary_answers = t.primary_answers;
    fallback_answers = t.fallback_answers;
    spot_checks = t.spot_checks;
    disagreements = t.disagreements;
    faults = t.faults;
    budget_exhausted = t.budget_exhausted;
    validation_failures = t.validation_failures;
    quarantines = t.quarantines;
  }

let quarantined t = t.is_quarantined
let primary_name t = Option.map Backend.name t.primary

let backend t =
  let name =
    match primary_name t with
    | Some p -> "resilient(" ^ p ^ ")"
    | None -> "resilient(search)"
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
