(* hubbench: the end-to-end benchmark of the distance-serving stack.

     hubbench run [--seed N] [--workload W]... [--seconds S]
                  [--trace 0|1 | --traced] [--runs K] [--json FILE] [--smoke]
     hubbench compare A.json B.json

   [run] runs each selected workload (default: all four) in its own
   child process — routed workloads fork their shard workers, which
   OCaml 5 forbids once a domain pool exists — and prints every metric
   as "<workload> <metric> <value> <unit>". An untraced run reports the
   end-to-end metrics; a traced run (--trace 1) the per-layer metrics.
   When one run was made, the last line of standard output is a JSON
   object with "correct", "attempted", "failed" and "metrics". The exit
   code is non-zero if any answer differed from ground truth.

   [compare] prints, for each (workload, metric), both sides' medians
   and quartiles over their runs, the change and a verdict against the
   metric's bound; it exits non-zero on any regression.

   Scratch files (stores, results, traced-run spans) go to .hubbench/
   under the current directory. *)

open Hubbench_core

let outdir = ".hubbench"

let usage () =
  prerr_endline
    "usage: hubbench run [--seed N] [--workload W]... [--seconds S] [--trace 0|1 | \
     --traced] [--runs K] [--json FILE] [--smoke]\n\
    \       hubbench compare A.json B.json";
  exit 124

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("hubbench: " ^ s); exit 1) fmt

let write_file = Workloads.write_file
let read_file = Workloads.read_file

(* Run one workload in a forked child that writes its result to a file;
   [None] when the child failed. *)
let run_child ~name ~seed ~traced ~sizes =
  let file = Filename.concat outdir (Printf.sprintf "result-%d-%s-%d.json" (Unix.getpid ()) name seed) in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        match Workloads.run_one ~name ~seed ~traced ~sizes ~outdir with
        | r ->
            write_file file (Json.to_string (Report.run_to_json r));
            if traced then begin
              let spans = Filename.concat outdir (Printf.sprintf "spans-%s-seed%d.json" name seed) in
              write_file spans (Json.to_string (Spans.to_json ()));
              Printf.eprintf "hubbench: %s spans -> %s\n%!" name spans
            end;
            0
        | exception e ->
            Printf.eprintf "hubbench: %s failed: %s\n%!" name (Printexc.to_string e);
            2
      in
      exit code
  | pid -> (
      let st = Workloads.waitpid pid in
      let result = try Some (read_file file) with Sys_error _ -> None in
      (try Sys.remove file with Sys_error _ -> ());
      match (st, result) with
      | Unix.WEXITED 0, Some s -> (
          match Json.of_string s with
          | Ok j -> Some (Report.run_of_json j)
          | Error e -> Printf.eprintf "hubbench: %s: bad result: %s\n%!" name e; None)
      | _ -> None)

let print_run (r : Report.run) =
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "%s %s %.6g %s (min %.6g, max %.6g)\n" r.workload m.name m.value m.unit_ m.lo
        m.hi)
    r.metrics;
  Printf.printf "%s correct %b attempted %d failed %d answers_sha256 %s\n%!" r.workload r.correct
    r.attempted r.failed r.answers_sha256

(* Every run, or [None] if any child failed. *)
let run_all ~seeds ~workloads ~traced ~sizes =
  List.concat_map
    (fun seed ->
      List.map
        (fun name ->
          Printf.eprintf "hubbench: %s seed %d%s\n%!" name seed (if traced then " (traced)" else "");
          match run_child ~name ~seed ~traced ~sizes with
          | Some r -> print_run r; Some r
          | None -> Printf.printf "%s failed\n%!" name; None)
        workloads)
    seeds

let compare_files a b =
  let load f =
    match Report.file_of_string (read_file f) with
    | Ok runs -> runs
    | Error e -> die "%s: %s" f e
    | exception Sys_error e -> die "%s" e
  in
  let rows = Report.compare_runs (load a) (load b) in
  List.iter (fun r -> Format.printf "%a@." Report.pp_row r) rows;
  let count v = List.length (List.filter (fun r -> r.Report.r_verdict = v) rows) in
  Printf.printf "compare: %d ok, %d regressed, %d unresolved\n%!" (count Report.Pass)
    (count Report.Regressed) (count Report.Unresolved);
  rows

(* Tiny sizes through every workload, untraced and traced, then the
   result file back through the parser and compared with itself. *)
let smoke () =
  let sizes = Workloads.smoke in
  let runs traced = run_all ~seeds:[ 1 ] ~workloads:Spec.workload_names ~traced ~sizes in
  let untraced = runs false in
  let all = untraced @ runs true in
  let ok = List.filter_map Fun.id all in
  let file = Filename.concat outdir "smoke.json" in
  write_file file (Json.to_string (Report.file_to_json ok));
  let rows = compare_files file file in
  let missing =
    List.concat_map
      (fun (r : Report.run) ->
        let set = if r.traced then [] else Spec.end_to_end in
        List.filter_map
          (fun (m : Spec.metric) ->
            if Report.find_metric r m.name = None then Some (r.workload ^ " " ^ m.name) else None)
          set)
      ok
  in
  List.iter (fun m -> Printf.printf "smoke: missing metric %s\n" m) missing;
  let good =
    List.length ok = List.length all
    && List.for_all (fun (r : Report.run) -> r.correct) ok
    && missing = []
    && List.for_all (fun r -> r.Report.r_verdict = Report.Pass || r.r_verdict = Report.Info) rows
  in
  Printf.printf "smoke: %s\n%!" (if good then "ok" else "FAILED");
  exit (if good then 0 else 1)

let run args =
  let seed = ref 1 and seconds = ref 10. and traced = ref false and runs = ref 1 in
  let json = ref None and smoke_mode = ref false and workloads = ref [] in
  let int_arg flag v =
    match int_of_string_opt v with Some i -> i | None -> die "%s expects an integer" flag
  in
  let rec parse = function
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> die "--seconds expects a positive number");
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> traced := false | "1" -> traced := true | _ -> die "--trace expects 0 or 1");
        parse rest
    | "--traced" :: rest -> traced := true; parse rest
    | "--runs" :: v :: rest -> runs := max 1 (int_arg "--runs" v); parse rest
    | "--json" :: f :: rest -> json := Some f; parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | "--workload" :: w :: rest ->
        if not (List.mem w Spec.workload_names) then
          die "unknown workload %s (one of %s)" w (String.concat ", " Spec.workload_names);
        workloads := !workloads @ [ w ];
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  (try Unix.mkdir outdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if !smoke_mode then smoke ();
  let workloads = if !workloads = [] then Spec.workload_names else !workloads in
  let results =
    run_all
      ~seeds:(List.init !runs (fun i -> !seed + i))
      ~workloads ~traced:!traced
      ~sizes:(Workloads.scaled ~seconds:!seconds Workloads.full)
  in
  let ok = List.filter_map Fun.id results in
  Option.iter (fun f -> write_file f (Json.to_string (Report.file_to_json ok))) !json;
  let good = List.length ok = List.length results && List.for_all (fun (r : Report.run) -> r.correct) ok in
  (match (good, ok) with
  | true, [ _ ] ->
      print_endline
        (Report.summary_line ~set:(if !traced then Spec.per_layer else Spec.end_to_end) ok)
  | _ -> ());
  exit (if good then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | [ _; "compare"; a; b ] ->
      let rows = compare_files a b in
      exit (if List.exists (fun r -> r.Report.r_verdict = Report.Regressed) rows then 1 else 0)
  | _ -> usage ()
