(* Run results: their JSON form, the one-line JSON summary that ends a
   run's output, and the [compare] verdicts between two sets of runs. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;  (** median or best of [samples] *)
  lo : float;
  hi : float;  (** min and max of [samples] *)
  samples : float list;  (** the per-round (or per-set-up) values *)
}

type run = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  answers_sha256 : string;
  params : (string * float) list;  (** sizes and query counts *)
  metrics : metric list;
}

(* [value] is the median of [samples], or with [best] the best of them
   in that direction. *)
let metric ?best ~name ~unit_ samples =
  match samples with
  | [] -> invalid_arg ("Report.metric: no samples for " ^ name)
  | _ ->
      let a = Array.of_list samples in
      let lo = Array.fold_left Float.min infinity a
      and hi = Array.fold_left Float.max neg_infinity a in
      let value =
        match best with
        | None -> Stats.median a
        | Some Spec.Lower -> lo
        | Some Spec.Higher -> hi
      in
      { name; unit_; value; lo; hi; samples }

let find_metric run name = List.find_opt (fun m -> m.name = name) run.metrics

(* ------------------------------------------------------------------ *)
(* JSON *)

let metric_to_json m =
  ( m.name,
    Json.Obj
      [
        ("value", Json.Num m.value);
        ("unit", Json.Str m.unit_);
        ("min", Json.Num m.lo);
        ("max", Json.Num m.hi);
        ("samples", Json.Arr (List.map (fun x -> Json.Num x) m.samples));
      ] )

let run_to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("answers_sha256", Json.Str r.answers_sha256);
      ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.params));
      ("metrics", Json.Obj (List.map metric_to_json r.metrics));
    ]

let run_of_json j =
  let open Json in
  let metrics =
    match member "metrics" j with
    | Obj l ->
        List.map
          (fun (name, m) ->
            {
              name;
              unit_ = to_str (member "unit" m);
              value = to_float (member "value" m);
              lo = to_float (member "min" m);
              hi = to_float (member "max" m);
              samples = List.map to_float (to_list (member "samples" m));
            })
          l
    | _ -> failwith "metrics is not an object"
  in
  let params =
    match member "params" j with
    | Obj l -> List.map (fun (k, v) -> (k, to_float v)) l
    | _ -> failwith "params is not an object"
  in
  {
    workload = to_str (member "workload" j);
    seed = to_int (member "seed" j);
    traced = to_bool (member "traced" j);
    correct = to_bool (member "correct" j);
    attempted = to_int (member "attempted" j);
    failed = to_int (member "failed" j);
    answers_sha256 = to_str (member "answers_sha256" j);
    params;
    metrics;
  }

let file_to_json runs =
  Json.Obj
    [ ("hubbench", Json.Num 1.); ("runs", Json.Arr (List.map run_to_json runs)) ]

let file_of_string s =
  match Json.of_string s with
  | Error e -> Error e
  | Ok j -> (
      match List.map run_of_json (Json.to_list (Json.member "runs" j)) with
      | runs -> Ok runs
      | exception Failure msg -> Error msg)

(* The last line of a run's standard output: every metric of the chosen
   set by name, unit and value. A metric the run did not measure — a
   layer its workload never calls — reads 0. *)
let summary_line ~(set : Spec.metric list) runs =
  let value name =
    List.find_map
      (fun r -> Option.map (fun m -> m.value) (find_metric r name))
      runs
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun r -> r.correct) runs));
         ( "attempted",
           Json.Num (float_of_int (List.fold_left (fun a r -> a + r.attempted) 0 runs)) );
         ( "failed",
           Json.Num (float_of_int (List.fold_left (fun a r -> a + r.failed) 0 runs)) );
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Spec.metric) ->
                  ( m.name,
                    Json.Obj
                      [
                        ("value", Json.Num (Option.value (value m.name) ~default:0.));
                        ("unit", Json.Str m.unit_);
                      ] ))
                set) );
       ])

(* ------------------------------------------------------------------ *)
(* compare *)

type verdict = Pass | Regressed | Unresolved | Info

let verdict_name = function
  | Pass -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Info -> "-"

(* Relative change from [a] to [b] in the direction that makes the
   metric worse (positive = worse). *)
let rel_worse better a b =
  let delta =
    if a = b then 0.
    else if a = 0. then (if b > a then infinity else neg_infinity)
    else (b -. a) /. Float.abs a
  in
  match better with Spec.Lower -> delta | Spec.Higher -> -.delta

(* Regressed when B's median is worse than A's by more than the bound;
   unresolved when either side's quartile spread is wider than the
   bound, unless every B value beats every A value. A zero bound means
   any increase: B's worst run may not be worse than A's worst. *)
let verdict (m : Spec.metric) a b =
  let beats x y = match m.better with Spec.Lower -> x < y | Spec.Higher -> x > y in
  let worst s = Array.fold_left (fun w x -> if beats w x then x else w) s.(0) s in
  match m.bound with
  | None -> Info
  | Some 0. -> if beats (worst a) (worst b) then Regressed else Pass
  | Some bound ->
      let all_better = Array.for_all (fun x -> Array.for_all (beats x) a) b in
      let spread = Float.max (Stats.rel_spread a) (Stats.rel_spread b) in
      if spread > bound then if all_better then Pass else Unresolved
      else if rel_worse m.better (Stats.median a) (Stats.median b) > bound then
        Regressed
      else Pass

type row = {
  r_workload : string;
  r_metric : Spec.metric;
  a : float array;
  b : float array;
  r_verdict : verdict;
}

(* One row per (workload, metric) measured on either side, pooling each
   side's per-run values. A pair measured on one side only is
   unresolved. *)
let compare_runs runs_a runs_b =
  let keys =
    List.concat_map
      (fun r -> List.map (fun m -> (r.workload, m.name)) r.metrics)
      (runs_a @ runs_b)
    |> List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) []
    |> List.rev
  in
  let values runs (w, name) =
    Array.of_list
      (List.filter_map
         (fun r -> if r.workload = w then Option.map (fun m -> m.value) (find_metric r name) else None)
         runs)
  in
  List.filter_map
    (fun ((w, name) as k) ->
      match Spec.find name with
      | None -> None
      | Some spec ->
          let a = values runs_a k and b = values runs_b k in
          let v =
            if Array.length a = 0 || Array.length b = 0 then
              if spec.bound = None then Info else Unresolved
            else verdict spec a b
          in
          Some { r_workload = w; r_metric = spec; a; b; r_verdict = v })
    keys

let pp_row ppf r =
  let side a =
    if Array.length a = 0 then "absent"
    else
      let q1, q2, q3 = Stats.quartiles a in
      Printf.sprintf "%.6g [%.6g, %.6g] n=%d" q2 q1 q3 (Array.length a)
  in
  let delta =
    if Array.length r.a = 0 || Array.length r.b = 0 then "-"
    else
      let ma = Stats.median r.a and mb = Stats.median r.b in
      if ma = 0. then (if mb = 0. then "+0.0%" else "n/a")
      else Printf.sprintf "%+.1f%%" ((mb -. ma) /. Float.abs ma *. 100.)
  in
  Format.fprintf ppf "%-13s %-34s %-9s A %s | B %s | %s %s%s" r.r_workload
    r.r_metric.name r.r_metric.unit_ (side r.a) (side r.b) delta
    (verdict_name r.r_verdict)
    (match r.r_metric.bound with
    | Some b -> Printf.sprintf " (bound %g%%)" (b *. 100.)
    | None -> "")
