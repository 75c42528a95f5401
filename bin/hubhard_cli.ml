(* Command-line driver for the reproduction: run experiments, check the
   paper's lemmas on chosen parameters, build labelings over generated
   graphs, and exercise the Sum-Index protocol. *)

open Cmdliner
open Repro_graph
open Repro_hub
open Repro_core

(* ---------------------------------------------------------------- *)
(* shared arguments                                                   *)

let seed_arg =
  let doc = "Random seed (all commands are deterministic given the seed)." in
  Arg.(value & opt int 20190721 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel phases (construction distance rows, \
     König covers, batched queries). Defaults to $(b,HUBHARD_JOBS) or the \
     machine's recommended domain count. Outputs are identical for any \
     value."
  in
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"J" ~doc)

let apply_jobs = function
  | None -> ()
  | Some j ->
      if j < 1 then begin
        Printf.eprintf "hubhard: --jobs must be positive\n";
        exit 124
      end;
      Repro_par.Pool.set_default_jobs j

let b_arg =
  let doc = "Side-length parameter b (s = 2^b)." in
  Arg.(value & opt int 2 & info [ "b" ] ~docv:"B" ~doc)

let l_arg =
  let doc = "Level parameter l." in
  Arg.(value & opt int 1 & info [ "l" ] ~docv:"L" ~doc)

let rng_of seed = Random.State.make [| seed |]

(* ---------------------------------------------------------------- *)
(* exp                                                                *)

let exp_cmd =
  let id =
    let doc =
      "Experiment id (E-FIG1, E-THM21, E-THM11, E-THM41, E-THM16, E-RS, \
       E-BASE, E-ORACLE, E-ABL, E-HWY) or 'all'."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let run id =
    if String.lowercase_ascii id = "all" then begin
      Repro_experiments.Experiments.run_all ();
      `Ok ()
    end
    else
      match Repro_experiments.Experiments.find id with
      | Some f ->
          f ();
          `Ok ()
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown experiment %S; known ids: %s" id
                (String.concat ", "
                   (List.map
                      (fun (i, _, _) -> i)
                      Repro_experiments.Experiments.all)) )
  in
  let doc = "Run a reproduction experiment (or all of them)." in
  Cmd.v (Cmd.info "exp" ~doc) Term.(ret (const run $ id))

(* ---------------------------------------------------------------- *)
(* lemma                                                              *)

let lemma_cmd =
  let gadget =
    let doc = "Also check the unweighted degree-3 gadget G_{b,l} (slower)." in
    Arg.(value & flag & info [ "gadget" ] ~doc)
  in
  let run b l with_gadget =
    let grid = Grid_graph.create ~b ~l () in
    let report name (c : Lower_bound.lemma_check) =
      Printf.printf
        "%s: %d valid pairs; failures: uniqueness=%d midpoint=%d distance=%d\n"
        name c.Lower_bound.pairs_checked c.Lower_bound.unique_failures
        c.Lower_bound.midpoint_failures c.Lower_bound.distance_failures
    in
    Printf.printf "H_{%d,%d}: %d vertices, %d edges, A=%d\n" b l
      (Grid_graph.n grid)
      (Wgraph.m grid.Grid_graph.graph)
      grid.Grid_graph.a_weight;
    report "Lemma 2.2 on H" (Lower_bound.check_lemma22_grid grid);
    if with_gadget then begin
      let gadget = Degree_gadget.build grid in
      Printf.printf "G_{%d,%d}: %d vertices, max degree %d (bound %d)\n" b l
        (Degree_gadget.n gadget)
        (Graph.max_degree gadget.Degree_gadget.graph)
        (Degree_gadget.theorem21_node_bound gadget);
      report "Lemma 2.2 on G" (Lower_bound.check_lemma22_gadget gadget);
      Printf.printf "counting bound s^l(s/2)^l = %d; certified avg-hub LB = %g\n"
        (Lower_bound.counting_bound grid)
        (Lower_bound.avg_hub_size_lower_bound_measured gadget)
    end
  in
  let doc = "Exhaustively verify Lemma 2.2 on H_{b,l} (and optionally G_{b,l})." in
  Cmd.v (Cmd.info "lemma" ~doc) Term.(const run $ b_arg $ l_arg $ gadget)

(* ---------------------------------------------------------------- *)
(* label                                                              *)

let graph_of_kind rng kind n =
  match kind with
  | "path" -> Generators.path n
  | "cycle" -> Generators.cycle n
  | "grid" ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Generators.grid ~rows:side ~cols:side
  | "tree" -> Generators.random_tree rng n
  | "sparse" -> Generators.random_connected rng ~n ~m:(2 * n)
  | "deg3" -> Generators.random_bounded_degree rng ~n ~d:3
  | "road" ->
      let side = max 3 (int_of_float (sqrt (float_of_int n))) in
      Generators.grid_with_shortcuts rng ~rows:side ~cols:side
        ~shortcuts:(side * 2)
  | other -> invalid_arg (Printf.sprintf "unknown graph kind %S" other)

let label_cmd =
  let kind =
    let doc = "Graph kind: path, cycle, grid, tree, sparse, deg3, road." in
    Arg.(value & opt string "sparse" & info [ "graph" ] ~docv:"KIND" ~doc)
  in
  let n =
    let doc = "Number of vertices (approximate for grid/road)." in
    Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc)
  in
  let scheme =
    let doc =
      "Labeling scheme: pll, greedy, randhit, rshub, rshub-sparse, tree, sep, \
       approx (additive error <= 2)."
    in
    Arg.(value & opt string "pll" & info [ "scheme" ] ~docv:"SCHEME" ~doc)
  in
  let d =
    let doc = "Threshold parameter D for randhit / rshub." in
    Arg.(value & opt int 6 & info [ "d" ] ~docv:"D" ~doc)
  in
  let verify =
    let doc = "Exhaustively verify the labeling is an exact cover." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let out =
    let doc =
      "Write the labeling in Hub_io format to $(docv) ('-' for stdout), and \
       the graph next to it as $(docv).graph (for 'hubhard serve')."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let pack =
    let doc =
      "Write the labeling in the binary packed Flat_hub form to $(docv), and \
       the graph next to it as $(docv).graph (see docs/PERFORMANCE.md)."
    in
    Arg.(value & opt (some string) None & info [ "pack" ] ~docv:"FILE" ~doc)
  in
  let compress =
    let doc =
      "With --pack: write the compressed HUBFLAT2 form (delta/varint hubs, \
       zigzag-varint distances, per-block skip pointers) instead of the \
       word-per-field HUBFLAT1 form. Every consumer (--labels-file, \
       --compact, serve worker/router) auto-detects either."
    in
    Arg.(value & flag & info [ "compress" ] ~doc)
  in
  let stats =
    let doc =
      "Report measured on-disk label sizes: entry counts, avg/max hubset \
       size, and bits per entry under both binary formats (HUBFLAT1 vs \
       HUBFLAT2)."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run kind n scheme d verify out pack compress stats profile seed jobs =
    apply_jobs jobs;
    if compress && pack = None then begin
      Printf.eprintf "hubhard: --compress requires --pack\n";
      exit 124
    end;
    let rng = rng_of seed in
    match
      let construct () =
        let g = graph_of_kind rng kind n in
        let labels =
          match scheme with
          | "pll" -> Pll.build g
          | "greedy" -> Greedy_landmark.build g
          | "randhit" -> fst (Random_hitting.build ~rng ~d g)
          | "rshub" -> fst (Rs_hub.build ~rng ~d g)
          | "rshub-sparse" -> fst (Rs_hub.build_sparse ~rng ~d g)
          | "tree" -> Repro_labeling.Tree_label.build g
          | "sep" -> Separator_label.build g
          | "approx" -> (Approx_hub.build g).Approx_hub.labels
          | other -> invalid_arg (Printf.sprintf "unknown scheme %S" other)
        in
        (g, labels)
      in
      if profile then
        let r, span = Repro_obs.Span.profile ~name:"label.build" construct in
        (r, Some span)
      else (construct (), None)
    with
    | (g, labels), span_opt ->
        Printf.printf "graph: n=%d m=%d maxdeg=%d\n" (Graph.n g) (Graph.m g)
          (Graph.max_degree g);
        print_endline (Hub_stats.report labels);
        Option.iter
          (fun span ->
            Format.printf "construction profile:@.%a@?" Repro_obs.Span.pp_flame
              span)
          span_opt;
        if verify then
          Printf.printf "exact cover: %b\n" (Cover.verify g labels);
        let write p s =
          let oc = open_out_bin p in
          output_string oc s;
          close_out oc
        in
        (match out with
        | None -> ()
        | Some "-" -> print_string (Hub_io.to_string labels)
        | Some path ->
            write path (Hub_io.to_string labels);
            write (path ^ ".graph") (Graph_io.to_string g);
            Printf.printf "wrote %s and %s.graph\n" path path);
        if stats then
          print_endline
            (Hub_stats.packed_report
               (Hub_stats.packed_sizes (Flat_hub.of_labels labels)));
        (match pack with
        | None -> ()
        | Some path ->
            let flat = Flat_hub.of_labels labels in
            let packed =
              if compress then Hub_io.compact_to_bytes flat
              else Hub_io.flat_to_bytes flat
            in
            write path packed;
            write (path ^ ".graph") (Graph_io.to_string g);
            let entries = Flat_hub.total_size flat in
            Printf.printf
              "packed %d bytes (%s, %d entries, %.2f bytes/entry) into %s \
               (and %s.graph)\n"
              (String.length packed)
              (if compress then "HUBFLAT2" else "HUBFLAT1")
              entries
              (if entries = 0 then 0.
               else float_of_int (String.length packed) /. float_of_int entries)
              path path);
        `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  let profile =
    let doc =
      "Profile the construction: wrap it in a Span tree and print the \
       flame-style per-phase report (see docs/OBSERVABILITY.md)."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let doc = "Build a hub labeling over a generated graph and report sizes." in
  Cmd.v
    (Cmd.info "label" ~doc)
    Term.(
      ret
        (const run $ kind $ n $ scheme $ d $ verify $ out $ pack $ compress
       $ stats $ profile $ seed_arg $ jobs_arg))

(* ---------------------------------------------------------------- *)
(* sumindex                                                           *)

let sumindex_cmd =
  let string_arg =
    let doc =
      "Shared bit string (e.g. 0110). Must have length (2^(b-1))^l; random \
       if omitted."
    in
    Arg.(value & opt (some string) None & info [ "string" ] ~docv:"BITS" ~doc)
  in
  let run b l s_opt seed =
    match Si_reduction.params ~b ~l with
    | p ->
        let m = p.Si_reduction.m in
        let s =
          match s_opt with
          | None -> Sum_index.random_instance (rng_of seed) m
          | Some str ->
              if String.length str <> m then
                invalid_arg
                  (Printf.sprintf "string must have length m = %d" m)
              else Array.init m (fun i -> str.[i] = '1')
        in
        Printf.printf "Sum-Index universe m = %d, string = %s\n" m
          (String.concat ""
             (List.map (fun b -> if b then "1" else "0") (Array.to_list s)));
        let proto = Si_reduction.protocol p in
        let ok = Sum_index.correct_on proto s in
        let ma, mb = Sum_index.max_message_bits proto s in
        let tr = Sum_index.trivial ~n:m in
        let ta, tb = Sum_index.max_message_bits tr s in
        Printf.printf
          "Theorem 1.6 protocol: correct on all %d index pairs: %b\n" (m * m)
          ok;
        Printf.printf "message bits: alice=%d bob=%d (trivial: %d+%d)\n" ma mb
          ta tb;
        Printf.printf "SUMINDEX lower bound sqrt(m) = %.2f bits\n"
          (Sum_index.sqrt_lower_bound_bits m);
        `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  let doc = "Run the Theorem 1.6 Sum-Index protocol end to end." in
  Cmd.v
    (Cmd.info "sumindex" ~doc)
    Term.(ret (const run $ b_arg $ l_arg $ string_arg $ seed_arg))

(* ---------------------------------------------------------------- *)
(* gen                                                                *)

let gen_cmd =
  let kind =
    let doc = "Graph kind: path, cycle, grid, tree, sparse, deg3, road." in
    Arg.(value & pos 0 string "sparse" & info [] ~docv:"KIND" ~doc)
  in
  let n =
    let doc = "Number of vertices." in
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run kind n seed =
    match graph_of_kind (rng_of seed) kind n with
    | g ->
        print_string (Graph_io.to_string g);
        `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  let doc = "Generate a graph and print it in edge-list format." in
  Cmd.v (Cmd.info "gen" ~doc) Term.(ret (const run $ kind $ n $ seed_arg))

(* ---------------------------------------------------------------- *)
(* check                                                              *)

let check_cmd =
  let run seed jobs =
    apply_jobs jobs;
    let verdicts = Theorems.check_all ~seed in
    List.iter
      (fun vd -> Format.printf "%a@." Theorems.pp_verdict vd)
      verdicts;
    let failures =
      List.length (List.filter (fun vd -> not vd.Theorems.holds) verdicts)
    in
    if failures = 0 then begin
      Printf.printf "all %d theorem checks passed\n" (List.length verdicts);
      `Ok ()
    end
    else `Error (false, Printf.sprintf "%d theorem checks FAILED" failures)
  in
  let doc = "Run the consolidated theorem-certificate battery." in
  Cmd.v (Cmd.info "check" ~doc) Term.(ret (const run $ seed_arg $ jobs_arg))

(* ---------------------------------------------------------------- *)
(* serve                                                              *)

(* The resilient serving path. Distinct exit codes so callers can
   script against the failure taxonomy (see docs/ROBUSTNESS.md):
   10 = input did not parse, 11 = input parsed but failed validation,
   12 = all answers served but some came from a degraded (fallback)
   path or the primary was quarantined. *)

module Resilient_oracle = Repro_serve.Resilient_oracle
module Fault_injector = Repro_serve.Fault_injector
module Wire = Repro_shard.Wire
module Worker = Repro_shard.Worker
module Router = Repro_shard.Router
module Supervisor = Repro_shard.Supervisor
module Backend = Repro_obs.Backend
module Ops = Repro_obs.Ops
module Metrics = Repro_obs.Metrics
module Obs = Repro_obs.Obs
module Trace = Repro_obs.Trace
module Clock = Repro_obs.Clock
module Span = Repro_obs.Span
module Events = Repro_obs.Events

let exit_parse_failure = 10
let exit_validation_failure = 11
let exit_degraded = 12

let read_input = function
  | "-" ->
      (* chunked binary read: packed label files may arrive on stdin *)
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec loop () =
        let k = input stdin chunk 0 (Bytes.length chunk) in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          loop ()
        end
      in
      loop ();
      Buffer.contents buf
  | path -> (
      match open_in_bin path with
      | ic ->
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
      | exception Sys_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit exit_parse_failure)

let parse_graph_exit path =
  match Graph_io.of_string_res (read_input path) with
  | Ok g -> g
  | Error e ->
      Printf.eprintf "%s: parse failure: %s\n" path
        (Graph_io.string_of_parse_error e);
      exit exit_parse_failure

(* Label files are auto-detected: the binary packed form, the
   compressed binary form (both by magic) or the plain-text Hub_io
   format. Returns the assoc labeling for the validation paths plus
   the packed store when one was loaded. *)
let parse_labels_exit path =
  let s = read_input path in
  if Hub_io.is_packed s then
    match Hub_io.flat_of_bytes_res s with
    | Ok flat -> (Flat_hub.to_labels flat, Some flat)
    | Error e ->
        Printf.eprintf "%s: parse failure: %s\n" path
          (Graph_io.string_of_parse_error e);
        exit exit_parse_failure
  else if Hub_io.is_compact s then
    match Hub_io.compact_of_bytes_res s with
    | Ok store ->
        let flat = Compact_hub.to_flat store in
        (Flat_hub.to_labels flat, Some flat)
    | Error e ->
        Printf.eprintf "%s: parse failure: %s\n" path
          (Graph_io.string_of_parse_error e);
        exit exit_parse_failure
  else
    match Hub_io.of_string_res s with
    | Ok l -> (l, None)
    | Error e ->
        Printf.eprintf "%s: parse failure: %s\n" path
          (Graph_io.string_of_parse_error e);
        exit exit_parse_failure

let structural_exit g labels =
  match Hub_verify.structural g labels with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "validation failure: %s\n" msg;
      exit exit_validation_failure

let mmap_arg =
  let doc =
    "Serve from a zero-copy memory-mapped store: --labels-file must name a \
     binary packed file (hubhard label --pack) on disk, not stdin. Cold \
     start is O(1) in the label size and every process mapping the file \
     shares one page-cache copy. Mutually exclusive with --flat and \
     --compact; skips the startup structural re-validation (run 'serve \
     check' offline instead)."
  in
  Arg.(value & flag & info [ "mmap" ] ~doc)

let compact_arg =
  let doc =
    "Serve from a zero-copy compressed store: --labels-file must name a \
     binary compressed file (hubhard label --pack --compress) on disk, not \
     stdin. Same page-cache sharing and O(1)-in-label-size cold start as \
     --mmap at a fraction of the bytes (delta-varint HUBFLAT2 encoding, see \
     docs/PERFORMANCE.md). Mutually exclusive with --flat and --mmap."
  in
  Arg.(value & flag & info [ "compact" ] ~doc)

let flat_arg =
  let doc =
    "Serve from the packed flat-array store (Flat_hub) instead of the \
     per-vertex assoc labeling. Text label files are packed on load; \
     binary packed files (hubhard label --pack) already are."
  in
  Arg.(value & flag & info [ "flat" ] ~doc)

let cache_slots_arg =
  let doc =
    "Direct-mapped distance-cache slots in front of the label store, \
     whatever its kind (0 disables the cache)."
  in
  let slots =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some k when k >= 0 -> Ok k
          | _ -> Error (`Msg "--cache-slots must be a non-negative integer")),
        Format.pp_print_int )
  in
  Arg.(value & opt slots 0 & info [ "cache-slots" ] ~docv:"SLOTS" ~doc)

let labels_file_opt_arg =
  let doc =
    "Optional hub labeling file; without it queries are served by the \
     search chain only."
  in
  Arg.(
    value & opt (some string) None & info [ "labels-file" ] ~docv:"FILE" ~doc)

(* --labels-file and the store flags of every serve subcommand, checked
   together when the command line is parsed (exit 124). *)
type store_args = {
  labels_file : string option;
  flat : bool;
  mmap : bool;
  compact : bool;
}

let store_args_term ~with_flat =
  let check labels_file flat mmap compact =
    if (mmap && flat) || (compact && flat) || (mmap && compact) then
      `Error (false, "--mmap, --compact and --flat are mutually exclusive")
    else if (mmap || compact) && labels_file = None then
      `Error
        ( false,
          (if mmap then "--mmap" else "--compact") ^ " requires --labels-file" )
    else `Ok { labels_file; flat; mmap; compact }
  in
  Term.(
    ret
      (const check $ labels_file_opt_arg
      $ (if with_flat then flat_arg else const false)
      $ mmap_arg $ compact_arg))

(* What a serve subcommand answers from: the search chain alone
   ([None]) or one label store of any kind. [router] hands the same
   labels to a router's workers — Router.config still takes typed
   stores, and the assoc labeling is sliced per shard there. *)
type loaded = {
  store : Label_store.packed option;
  router : Router.config -> Router.config;
}

let store_name = function None -> "search" | Some s -> s.Label_store.kind

(* The one loader. --mmap / --compact map the file in place: the loader
   does the O(n) header/offset validation and the O(total) structural
   check is deliberately skipped (run 'serve check' offline when
   provenance is in doubt). Otherwise the labels are parsed (text or
   binary), structurally checked, and packed under --flat. Parse
   failures exit 10; an n-mismatch or a failed check exits 11. *)
let load_store_exit ~graph args =
  let mapped ~flag load =
    let path = Option.get args.labels_file in
    if path = "-" then begin
      Printf.eprintf "hubhard: --%s requires a regular file, not stdin\n" flag;
      exit 124
    end;
    match load path with
    | Error msg ->
        Printf.eprintf "%s: parse failure: %s\n" path msg;
        exit exit_parse_failure
    | Ok ((store : Label_store.packed), router) ->
        if store.n <> Graph.n graph then begin
          Printf.eprintf
            "validation failure: %s store has n=%d but graph has n=%d\n" flag
            store.n (Graph.n graph);
          exit exit_validation_failure
        end;
        { store = Some store; router }
  in
  if args.mmap then
    mapped ~flag:"mmap" (fun path ->
        match Mmap_hub.load_res path with
        | Ok m ->
            Ok (Mmap_hub.pack m, fun c -> { c with Router.mmap = Some m })
        | Error e -> Error (Mmap_hub.error_to_string e))
  else if args.compact then
    mapped ~flag:"compact" (fun path ->
        match Compact_hub.load_res path with
        | Ok m ->
            Ok (Compact_hub.pack m, fun c -> { c with Router.compact = Some m })
        | Error e -> Error (Compact_hub.error_to_string e))
  else
    match args.labels_file with
    | None -> { store = None; router = Fun.id }
    | Some path ->
        let labels, packed = parse_labels_exit path in
        structural_exit graph labels;
        let router c = { c with Router.labels = Some labels } in
        if args.flat then
          let flat =
            match packed with Some f -> f | None -> Flat_hub.of_labels labels
          in
          { store = Some (Flat_hub.pack flat); router }
        else { store = Some (Hub_label.pack labels); router }

let graph_file_arg =
  let doc = "Graph file in Graph_io format ('-' for stdin)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "graph-file" ] ~docv:"FILE" ~doc)

let labels_file_req_arg =
  let doc = "Hub labeling file in Hub_io format ('-' for stdin)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "labels-file" ] ~docv:"FILE" ~doc)

let serve_check_cmd =
  let samples =
    let doc = "Number of BFS sources sampled for the cover check." in
    Arg.(value & opt int 8 & info [ "samples" ] ~docv:"K" ~doc)
  in
  let run graph_file labels_file samples seed jobs =
    apply_jobs jobs;
    let g = parse_graph_exit graph_file in
    let labels, _ = parse_labels_exit labels_file in
    structural_exit g labels;
    let report = Hub_verify.verify ~samples ~rng:(rng_of seed) g labels in
    Format.printf "%a@." Hub_verify.pp_report report;
    if Hub_verify.ok report then
      print_endline "labeling validated: structural + sampled cover checks ok"
    else begin
      Printf.eprintf
        "validation failure: %d stored mismatches, %d cover violations on \
         sampled pairs\n"
        report.Hub_verify.stored_mismatches report.Hub_verify.cover_violations;
      exit exit_validation_failure
    end
  in
  let doc =
    "Validate a graph + labeling pair (text or binary packed labels): parse \
     with precise errors (exit 10), then run structural and sampled \
     cover-property checks (exit 11 on failure)."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ graph_file_arg $ labels_file_req_arg $ samples $ seed_arg
      $ jobs_arg)

(* Build the serving oracle for `serve query` / `stats` / `loop`: one
   unified Resilient_oracle.create over a uniform primary backend,
   every layer instrumented into [registry]. Returns the oracle plus a
   cache-stats thunk for the store, if any. *)
let build_serving_oracle ?clock ?(instrument_primary = true) ~registry
    ~store ~cache_slots ~step_budget ~spot_check ~quarantine_after
    ~inject_fraction ~inject_mode ~seed g =
  (* the point primary and the ops evaluator each draw their faults
     from a stream of their own, so adding one leaves the other's
     unchanged *)
  let injector () =
    if inject_fraction <= 0.0 then None
    else
      Some (Fault_injector.create ~seed ~fraction:inject_fraction inject_mode)
  in
  let wrap_primary base =
    let base =
      match injector () with
      | None -> base
      | Some inj ->
          Backend.make
            ~name:(Backend.name base ^ "+faults")
            ~space_words:(Backend.space_words base)
            (Fault_injector.wrap inj (Backend.query base))
    in
    (* batched serving skips the per-call primary instrumentation:
       the wrapper mutates the registry and reads the clock on every
       call, which is neither domain-safe nor clock-deterministic
       when primary answers are precomputed in parallel *)
    if instrument_primary then Obs.instrument ?clock registry base else base
  in
  let wrap_ops (o : Backend.ops) =
    match injector () with
    | None -> o
    | Some inj ->
        Backend.make_ops
          ~name:(Backend.ops_name o ^ "+faults")
          ~space_words:(Backend.ops_space_words o)
          ~n:(Graph.n g)
          ~op:(Fault_injector.wrap_op inj (Backend.op_valid o))
          (Backend.query (Backend.base o))
  in
  let store =
    Option.map (fun (s : Label_store.packed) -> s.with_cache ~cache_slots) store
  in
  let oracle =
    Resilient_oracle.create ?step_budget ~spot_check_every:spot_check
      ~quarantine_after ~metrics:registry
      ?primary:
        (Option.map
           (fun s -> wrap_primary (Resilient_oracle.store_primary ?step_budget s))
           store)
      ?primary_ops:
        (Option.map
           (fun (s : Label_store.packed) ->
             wrap_ops (s.ops ?budget:step_budget ()))
           store)
      g
  in
  (oracle, fun () -> Option.bind store (fun s -> s.Label_store.cache_stats ()))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let metrics_out_arg =
  let doc =
    "Write the full metrics registry (counters, gauges, latency histograms \
     with p50/p90/p99/max) as JSON to $(docv) — see docs/OBSERVABILITY.md \
     for the schema."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Options and checks shared by the in-process serve subcommands and
   the worker. *)
let budget_arg =
  let doc =
    "Per-query step budget (label scan / bidirectional expansions); 0 \
     means unlimited."
  in
  Term.(
    const (fun b -> if b > 0 then Some b else None)
    $ Arg.(value & opt int 0 & info [ "budget" ] ~docv:"B" ~doc))

let spot_check_arg =
  let doc = "Spot-check every K-th primary answer (0 disables)." in
  Arg.(value & opt int 1 & info [ "spot-check-every" ] ~docv:"K" ~doc)

let quarantine_after_arg =
  let doc = "Quarantine the primary after this many strikes." in
  Arg.(value & opt int 3 & info [ "quarantine-after" ] ~docv:"Q" ~doc)

let inject_fraction_arg =
  let doc =
    "Deterministically inject faults into this fraction of primary calls \
     (demonstration/testing)."
  in
  let fraction =
    Arg.conv
      ( (fun s ->
          match float_of_string_opt s with
          | Some f when f >= 0.0 && f <= 1.0 -> Ok f
          | _ -> Error (`Msg "--inject-fraction must lie in [0, 1]")),
        Format.pp_print_float )
  in
  Arg.(value & opt fraction 0.0 & info [ "inject-fraction" ] ~docv:"F" ~doc)

let inject_mode_arg =
  let doc = "Injected fault kind: $(docv) is corrupt, drop or fail." in
  Arg.(
    value
    & opt
        (enum
           [
             ("corrupt", Fault_injector.Corrupt);
             ("drop", Fault_injector.Drop);
             ("fail", Fault_injector.Fail);
           ])
        Fault_injector.Corrupt
    & info [ "inject-mode" ] ~docv:"MODE" ~doc)

let serving_graph_exit path =
  let g = parse_graph_exit path in
  if Graph.n g = 0 then begin
    Printf.eprintf "validation failure: empty graph\n";
    exit exit_validation_failure
  end;
  g

let op_requests_exit =
  List.map (fun s ->
      match Ops.request_of_string s with
      | Ok r -> r
      | Error msg ->
          Printf.eprintf "hubhard: --op %S: %s\n" s msg;
          exit 124)

let validate_ops_exit ~n =
  List.iter (fun r ->
      match Ops.validate ~n r with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "validation failure: %s\n" msg;
          exit exit_validation_failure)

let serve_query_cmd =
  let pairs =
    let doc = "Query pair 'u,v' (repeatable)." in
    Arg.(
      value & opt_all (pair ~sep:',' int int) [] & info [ "pair" ] ~docv:"U,V" ~doc)
  in
  let ops =
    let doc =
      "Aggregate operation (repeatable): 'dist:U,V', 'batch:U,V;U,V', \
       'one-to-many:S:T1,T2', 'many-to-many:S1,S2:T1,T2', 'top-k:S,K', \
       'top-k-among:S,K:V1,V2' (candidates ascending), 'ecc:V', \
       'farthest:V', 'farthest-among:S:V1,V2' (candidates ascending) or \
       'diam'. Served through the resilient \
       per-op degradation path and instrumented under ops.<name>.*."
    in
    Arg.(value & opt_all string [] & info [ "op" ] ~docv:"OP" ~doc)
  in
  let num =
    let doc = "Number of random query pairs when no --pair is given." in
    Arg.(value & opt int 16 & info [ "num" ] ~docv:"N" ~doc)
  in
  let run graph_file store_args pairs ops num step_budget spot_check
      quarantine_after cache_slots inject_fraction inject_mode metrics_out
      seed jobs =
    apply_jobs jobs;
    let op_reqs = op_requests_exit ops in
    let g = serving_graph_exit graph_file in
    let n = Graph.n g in
    validate_ops_exit ~n op_reqs;
    let { store; _ } = load_store_exit ~graph:g store_args in
    let registry = Metrics.create () in
    let oracle, _cache_stats =
      build_serving_oracle ~registry ~store ~cache_slots ~step_budget
        ~spot_check ~quarantine_after ~inject_fraction ~inject_mode ~seed g
    in
    let backend =
      Obs.instrument ~prefix:"serve" registry (Resilient_oracle.backend oracle)
    in
    let pairs =
      if pairs <> [] then pairs
      else if op_reqs <> [] then []
        (* --op alone: don't pad the run with random point queries *)
      else
        let rng = rng_of seed in
        List.init num (fun _ ->
            (Random.State.int rng n, Random.State.int rng n))
    in
    List.iter
      (fun (u, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then begin
          Printf.eprintf "validation failure: pair (%d, %d) out of range\n" u v;
          exit exit_validation_failure
        end)
      pairs;
    List.iter
      (fun (u, v) ->
        let d, tr = Backend.query_detailed backend u v in
        Format.printf "%d %d %a %s@." u v Dist.pp d tr.Trace.source)
      pairs;
    let serve_op = Obs.instrument_op registry (Resilient_oracle.op oracle) in
    List.iter
      (fun req ->
        let resp, src = serve_op req in
        Format.printf "%s -> %s %s@."
          (Ops.request_to_string req)
          (Ops.response_to_string resp)
          (Resilient_oracle.source_name src))
      op_reqs;
    let s = Resilient_oracle.stats oracle in
    Format.printf "stats: %a@." Resilient_oracle.pp_stats s;
    if Resilient_oracle.quarantined oracle then
      Format.printf "quarantined: %s@."
        (Option.value ~default:"primary"
           (Resilient_oracle.primary_name oracle));
    (match metrics_out with
    | None -> ()
    | Some path ->
        write_file path (Metrics.to_json (Metrics.snapshot registry));
        Format.printf "metrics: wrote %s@." path);
    if
      s.Resilient_oracle.fallback_answers > 0
      || s.Resilient_oracle.quarantines > 0
      || s.Resilient_oracle.faults > 0
    then exit exit_degraded
  in
  let doc =
    "Answer distance queries — point pairs (--pair) and aggregate \
     operations (--op: eccentricity, top-k, one-to-many, diameter…) — \
     through the resilient serving path (exit 12 when any answer came from \
     a degraded/fallback path). With --metrics-out, dump the instrumented \
     query counters and latency percentiles as JSON."
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run $ graph_file_arg
      $ store_args_term ~with_flat:true
      $ pairs $ ops $ num $ budget_arg $ spot_check_arg $ quarantine_after_arg
      $ cache_slots_arg $ inject_fraction_arg $ inject_mode_arg $ metrics_out_arg
      $ seed_arg $ jobs_arg)

let serve_stats_cmd =
  let num =
    let doc = "Number of random query pairs to drive through the stack." in
    Arg.(value & opt int 256 & info [ "num" ] ~docv:"N" ~doc)
  in
  let json =
    let doc = "Print the metrics registry as JSON instead of the text report." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let format =
    let doc =
      "Output format: $(b,text) (human-readable report), $(b,json) (the \
       docs/OBSERVABILITY.md schema) or $(b,prom) (Prometheus text \
       exposition with cumulative _bucket/_sum/_count histogram series)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("prom", `Prom) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let traces =
    let doc = "Number of most recent per-query trace records to show." in
    Arg.(value & opt int 5 & info [ "traces" ] ~docv:"K" ~doc)
  in
  let run graph_file store_args num step_budget spot_check cache_slots json format
      traces metrics_out seed jobs =
    apply_jobs jobs;
    let g = serving_graph_exit graph_file in
    let n = Graph.n g in
    let { store; _ } = load_store_exit ~graph:g store_args in
    let registry = Metrics.create () in
    let oracle, cache_stats =
      build_serving_oracle ~registry ~store ~cache_slots ~step_budget
        ~spot_check ~quarantine_after:3 ~inject_fraction:0.0
        ~inject_mode:Fault_injector.Corrupt ~seed g
    in
    let recorder = Trace.recorder ~capacity:(max 1 traces) in
    let backend =
      Obs.instrument ~recorder ~prefix:"serve" registry
        (Resilient_oracle.backend oracle)
    in
    let rng = rng_of seed in
    for _ = 1 to num do
      ignore (Backend.query backend (Random.State.int rng n)
                (Random.State.int rng n))
    done;
    Metrics.sample_runtime_gauges registry;
    let snap = Metrics.snapshot registry in
    let format = if json then `Json else format in
    (match format with
    | `Json -> print_string (Metrics.to_json snap)
    | `Prom -> print_string (Metrics.to_prometheus registry)
    | `Text ->
        Format.printf "backend: %s (%d words)@." (Backend.name backend)
          (Backend.space_words backend);
        Option.iter
          (fun (h, m) -> Format.printf "store cache: %d hits, %d misses@." h m)
          (cache_stats ());
        Format.printf "%a" Metrics.pp snap;
        if traces > 0 then begin
          Format.printf "recent traces (%d of %d):@."
            (List.length (Trace.records recorder))
            (Trace.seen recorder);
          List.iter
            (fun tr -> Format.printf "  %a@." Trace.pp tr)
            (Trace.records recorder)
        end);
    match metrics_out with
    | None -> ()
    | Some path ->
        write_file path (Metrics.to_json snap);
        Format.eprintf "metrics: wrote %s@." path
  in
  let doc =
    "Drive random queries through the instrumented serving stack and report \
     the metrics registry: query/source counters, cache hit/miss, latency \
     percentiles (deterministic fixed-bucket histograms) and recent \
     per-query traces."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ graph_file_arg
      $ store_args_term ~with_flat:true
      $ num $ budget_arg $ spot_check_arg $ cache_slots_arg $ json $ format $ traces
      $ metrics_out_arg $ seed_arg $ jobs_arg)

(* serve loop: a long-lived query loop over a file or stdin, flushing
   periodic observability snapshots (metrics registry + recent traces +
   event log) to --metrics-out via atomic write-then-rename. Closes the
   ROADMAP item about wiring the metrics registry into a periodic
   exporter. Under --clock-step the whole run — snapshot bytes
   included — is a pure function of the inputs. *)

let serve_loop_cmd =
  let queries_file =
    let doc =
      "Query stream: one 'u v' pair per line ('-' for stdin; blank lines \
       and '#' comments skipped). Malformed or out-of-range lines are \
       counted and logged, not fatal."
    in
    Arg.(value & opt string "-" & info [ "queries" ] ~docv:"FILE" ~doc)
  in
  let flush_every =
    let doc =
      "Write a snapshot every $(docv) served queries (0 disables \
       count-based flushing)."
    in
    Arg.(value & opt int 1000 & info [ "flush-every" ] ~docv:"N" ~doc)
  in
  let flush_ticks =
    let doc =
      "Write a snapshot whenever the clock advanced $(docv) ns since the \
       last one (0 disables tick-based flushing; pairs naturally with \
       --clock-step)."
    in
    Arg.(value & opt int 0 & info [ "flush-ticks" ] ~docv:"NS" ~doc)
  in
  let clock_step =
    let doc =
      "Use a manual clock advancing $(docv) ns per reading instead of the \
       process clock; two runs with the same inputs and seed then produce \
       byte-identical snapshots (0 = monotonic wall clock)."
    in
    Arg.(value & opt int 0 & info [ "clock-step" ] ~docv:"NS" ~doc)
  in
  let traces =
    let doc = "Ring capacity for recent per-query traces in snapshots." in
    Arg.(value & opt int 16 & info [ "traces" ] ~docv:"K" ~doc)
  in
  let events_cap =
    let doc = "Ring capacity for the structured event log in snapshots." in
    Arg.(value & opt int 64 & info [ "events" ] ~docv:"K" ~doc)
  in
  let echo =
    let doc = "Print each answer as 'u v dist source' (off by default)." in
    Arg.(value & flag & info [ "echo" ] ~doc)
  in
  let batch =
    let doc =
      "Serve queries in batches of $(docv): primary answers are precomputed \
       across the worker domains (see --jobs), then accounted in input \
       order, so answers, stats and exit codes match --batch 1 exactly. \
       Batching skips the per-call primary latency instrumentation; \
       snapshots may only flush on batch boundaries. 1 = per-query path."
    in
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let run graph_file store_args queries_file flush_every flush_ticks
      clock_step traces events_cap step_budget spot_check quarantine_after
      cache_slots inject_fraction inject_mode echo batch metrics_out seed jobs
      =
    apply_jobs jobs;
    if batch < 1 then begin
      Printf.eprintf "hubhard: --batch must be positive\n";
      exit 124
    end;
    if flush_every < 0 || flush_ticks < 0 || clock_step < 0 || traces < 1
       || events_cap < 1
    then begin
      Printf.eprintf
        "hubhard: --flush-every/--flush-ticks/--clock-step must be \
         non-negative; --traces/--events must be positive\n";
      exit 124
    end;
    let clock =
      if clock_step > 0 then
        Clock.read (Clock.manual ~auto_step:(Int64.of_int clock_step) ())
      else Clock.monotonic
    in
    let event_log =
      Events.create ~clock (Events.ring ~capacity:events_cap)
    in
    Events.install event_log;
    let g = serving_graph_exit graph_file in
    let n = Graph.n g in
    let { store; _ } = load_store_exit ~graph:g store_args in
    (* the store kind recorded in every snapshot, next to the metrics *)
    let store_kind = store_name store in
    let registry = Metrics.create () in
    let oracle, _cache_stats =
      build_serving_oracle ~clock ~instrument_primary:(batch = 1) ~registry
        ~store ~cache_slots ~step_budget ~spot_check ~quarantine_after
        ~inject_fraction ~inject_mode ~seed g
    in
    let recorder = Trace.recorder ~capacity:traces in
    let backend =
      Obs.instrument ~clock ~recorder ~prefix:"serve" registry
        (Resilient_oracle.backend oracle)
    in
    (* Fan a batch's primary answers across domains only when the
       primary is a pure function of the pair: fault injectors and the
       packed store's distance cache mutate shared state per call. *)
    let batch_pool =
      if batch > 1 && inject_fraction = 0.0 && cache_slots = 0 then
        Some (Repro_par.Pool.default ())
      else None
    in
    Events.emit event_log "serve_loop.start"
      [
        ("n", Events.Int n);
        ("backend", Events.Str (Backend.name backend));
        ( "clock",
          Events.Str (if clock_step > 0 then "manual" else "monotonic") );
        ("seed", Events.Int seed);
      ];
    let served = ref 0 and malformed = ref 0 and out_of_range = ref 0 in
    let snapshots = ref 0 in
    let last_flush_clock = ref (if flush_ticks > 0 then clock () else 0L) in
    let snapshot_json ~final () =
      let buf = Buffer.create 4096 in
      Printf.bprintf buf "{\n";
      Printf.bprintf buf "  \"snapshot\": %d,\n" !snapshots;
      Printf.bprintf buf "  \"final\": %b,\n" final;
      Printf.bprintf buf "  \"store\": %S,\n" store_kind;
      Printf.bprintf buf "  \"queries\": %d,\n" !served;
      Printf.bprintf buf "  \"malformed_lines\": %d,\n" !malformed;
      Printf.bprintf buf "  \"out_of_range\": %d,\n" !out_of_range;
      Printf.bprintf buf "  \"clock_ns\": %Ld,\n" (clock ());
      Metrics.sample_runtime_gauges registry;
      Printf.bprintf buf "  \"metrics\": %s,\n"
        (String.trim (Metrics.to_json (Metrics.snapshot registry)));
      let add_array key to_json items close =
        Printf.bprintf buf "  %S: [" key;
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            Printf.bprintf buf "\n    %s" (to_json x))
          items;
        if items <> [] then Buffer.add_string buf "\n  ";
        Printf.bprintf buf "]%s\n" close
      in
      add_array "traces" Trace.to_json (Trace.records recorder) ",";
      add_array "events" Events.to_json (Events.recent event_log) "";
      Printf.bprintf buf "}\n";
      Buffer.contents buf
    in
    let write_atomic path s =
      let tmp = path ^ ".tmp" in
      write_file tmp s;
      Sys.rename tmp path
    in
    let flush_snapshot ~final () =
      match metrics_out with
      | None -> ()
      | Some path ->
          incr snapshots;
          let target =
            if final then path else Printf.sprintf "%s.%d" path !snapshots
          in
          write_atomic target (snapshot_json ~final ());
          Events.emit event_log "serve_loop.flush"
            [
              ("snapshot", Events.Int !snapshots); ("path", Events.Str target);
            ]
    in
    let maybe_flush () =
      let due_count = flush_every > 0 && !served mod flush_every = 0 in
      let due_ticks =
        if flush_ticks = 0 then false
        else
          let now = clock () in
          if Int64.sub now !last_flush_clock >= Int64.of_int flush_ticks then begin
            last_flush_clock := now;
            true
          end
          else false
      in
      if due_count || due_ticks then flush_snapshot ~final:false ()
    in
    (* batched path: buffer valid pairs, answer them in one
       query_many_detailed call, then echo/account in input order *)
    let pending = ref [] and pending_n = ref 0 in
    let flush_batch () =
      if !pending_n > 0 then begin
        let arr = Array.of_list (List.rev !pending) in
        pending := [];
        pending_n := 0;
        let answers =
          Resilient_oracle.query_many_detailed ?pool:batch_pool oracle arr
        in
        Array.iteri
          (fun i (d, src) ->
            let u, v = arr.(i) in
            incr served;
            if echo then
              Format.printf "%d %d %a %s@." u v Dist.pp d
                (Resilient_oracle.source_name src);
            maybe_flush ())
          answers
      end
    in
    let ic =
      if queries_file = "-" then stdin
      else
        match open_in queries_file with
        | ic -> ic
        | exception Sys_error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit exit_parse_failure
    in
    let stop = ref false in
    let drain_reason = ref "signal" in
    (* SIGTERM is what process supervisors (and the shard router) send;
       it gets the same graceful drain as an interactive ^C: finish the
       current line, flush the batch, write the final snapshot. *)
    let install_stop signal =
      try
        Some (Sys.signal signal (Sys.Signal_handle (fun _ -> stop := true)))
      with Invalid_argument _ | Sys_error _ -> None
    in
    let prev_sigint = install_stop Sys.sigint in
    let prev_sigterm = install_stop Sys.sigterm in
    let line_no = ref 0 in
    while not !stop do
      match input_line ic with
      | exception End_of_file ->
          (* a SIGINT that lands mid-read surfaces as EOF after the
             handler runs; attribute it to the signal *)
          drain_reason := (if !stop then "signal" else "eof");
          stop := true
      | exception Sys_error _ ->
          (* interrupted read (e.g. SIGINT mid-read on a tty) *)
          drain_reason := "read-error";
          stop := true
      | line ->
          incr line_no;
          let line = String.trim line in
          if line <> "" && line.[0] <> '#' then begin
            match Scanf.sscanf line " %d %d" (fun u v -> (u, v)) with
            | exception _ ->
                incr malformed;
                Events.emit event_log ~level:Events.Warn "serve_loop.malformed"
                  [ ("line", Events.Int !line_no) ]
            | u, v ->
                if u < 0 || u >= n || v < 0 || v >= n then begin
                  incr out_of_range;
                  Events.emit event_log ~level:Events.Warn
                    "serve_loop.out_of_range"
                    [
                      ("line", Events.Int !line_no);
                      ("u", Events.Int u);
                      ("v", Events.Int v);
                    ]
                end
                else if batch > 1 then begin
                  pending := (u, v) :: !pending;
                  incr pending_n;
                  if !pending_n >= batch then flush_batch ()
                end
                else begin
                  let d, tr = Backend.query_detailed backend u v in
                  incr served;
                  if echo then
                    Format.printf "%d %d %a %s@." u v Dist.pp d tr.Trace.source;
                  maybe_flush ()
                end
          end
    done;
    if ic != stdin then close_in ic;
    Option.iter (fun b -> Sys.set_signal Sys.sigint b) prev_sigint;
    Option.iter (fun b -> Sys.set_signal Sys.sigterm b) prev_sigterm;
    flush_batch ();
    Events.emit event_log "serve_loop.drain"
      [ ("reason", Events.Str !drain_reason); ("served", Events.Int !served) ];
    flush_snapshot ~final:true ();
    Events.uninstall ();
    let s = Resilient_oracle.stats oracle in
    Format.printf
      "served %d queries (%d malformed, %d out-of-range lines skipped), \
       drained on %s; wrote %d snapshot(s)%s@."
      !served !malformed !out_of_range !drain_reason !snapshots
      (match metrics_out with None -> "" | Some p -> " under " ^ p);
    Format.printf "stats: %a@." Resilient_oracle.pp_stats s;
    if Resilient_oracle.quarantined oracle then
      Format.printf "quarantined: %s@."
        (Option.value ~default:"primary"
           (Resilient_oracle.primary_name oracle));
    if
      s.Resilient_oracle.fallback_answers > 0
      || s.Resilient_oracle.quarantines > 0
      || s.Resilient_oracle.faults > 0
    then exit exit_degraded
  in
  let doc =
    "Run a long-lived query loop over a file or stdin through the resilient \
     serving path, periodically flushing an observability snapshot (metrics \
     registry + recent traces + structured event log, one JSON object) to \
     --metrics-out.<seq> by atomic write-then-rename, with a final snapshot \
     at --metrics-out on EOF/SIGINT/SIGTERM drain. With --clock-step the \
     snapshots are byte-identical across runs. Exit 12 when any answer came \
     from a degraded path."
  in
  Cmd.v (Cmd.info "loop" ~doc)
    Term.(
      const run $ graph_file_arg
      $ store_args_term ~with_flat:true
      $ queries_file $ flush_every $ flush_ticks $ clock_step $ traces
      $ events_cap $ budget_arg $ spot_check_arg $ quarantine_after_arg $ cache_slots_arg
      $ inject_fraction_arg $ inject_mode_arg $ echo $ batch $ metrics_out_arg
      $ seed_arg $ jobs_arg)

(* serve worker / serve router: the supervised sharded tier. A worker
   speaks the Wire protocol over stdin/stdout and owns one partition
   slice; the router forks (or execs) a fleet of them, fans queries
   out, and survives their deaths. See docs/ROBUSTNESS.md. *)

let shards_arg ~default =
  let doc = "Number of shards the vertex set is split into." in
  Arg.(value & opt int default & info [ "shards" ] ~docv:"S" ~doc)

let partition_arg =
  let doc = "Partition scheme: $(docv) is range or hash." in
  Arg.(
    value
    & opt
        (enum
           [
             ("range", Partition.Range);
             ("hash", Partition.Hash);
           ])
        Partition.Range
    & info [ "partition" ] ~docv:"SCHEME" ~doc)

let clock_step_arg =
  let doc =
    "Manual clock step in ns per reading (0 = monotonic wall clock); with \
     it, metrics snapshots are byte-identical across same-seed runs."
  in
  Arg.(value & opt int 0 & info [ "clock-step" ] ~docv:"NS" ~doc)

let serve_worker_cmd =
  let shard =
    let doc = "This worker's shard index (in [0, shards))." in
    Arg.(value & opt int 0 & info [ "shard" ] ~docv:"I" ~doc)
  in
  let chaos =
    let doc =
      "Chaos plan '<fault>@<frames>' (kill, hang, truncate, corrupt, slow): \
       misbehave exactly once, just before writing the $(i,frames)-th \
       response frame."
    in
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"PLAN" ~doc)
  in
  let run graph_file store_args shards shard partition chaos step_budget spot_check
      quarantine_after clock_step seed =
    if shards < 1 || shard < 0 || shard >= shards then begin
      Printf.eprintf "hubhard: need 0 <= --shard < --shards\n";
      exit 124
    end;
    let chaos =
      match chaos with
      | None -> None
      | Some s -> (
          match Fault_injector.chaos_of_string s with
          | Ok c -> Some c
          | Error msg ->
              Printf.eprintf "hubhard: %s\n" msg;
              exit 124)
    in
    let g = serving_graph_exit graph_file in
    let cfg =
      {
        Worker.graph = g;
        primary =
          (match (load_store_exit ~graph:g store_args).store with
          | Some s -> Worker.Store s
          | None -> Worker.Search);
        shards;
        shard;
        partition;
        spot_check_every = spot_check;
        quarantine_after;
        step_budget;
        chaos;
        clock_step =
          (if clock_step > 0 then Some (Int64.of_int clock_step) else None);
        seed;
      }
    in
    Worker.run ~input:Unix.stdin ~output:Unix.stdout cfg
  in
  let doc =
    "Run one shard worker: serve Wire-protocol frames (length-prefixed \
     binary) over stdin/stdout for the partition slice this shard owns, \
     behind the full resilient degradation chain. Normally spawned by \
     'serve router', not by hand."
  in
  Cmd.v (Cmd.info "worker" ~doc)
    Term.(
      const run $ graph_file_arg
      $ store_args_term ~with_flat:false
      $ shards_arg ~default:1 $ shard $ partition_arg $ chaos $ budget_arg
      $ spot_check_arg $ quarantine_after_arg $ clock_step_arg $ seed_arg)

(* serve router and serve trace drive the same fleet: one set of
   router-side arguments, one start-up path and one query-stream loop. *)
type fleet_args = {
  graph_file : string;
  store_args : store_args;
  queries_file : string;
  ops : string list;
  shards : int;
  partition : Partition.spec;
  chaos : string list;
  batch : int;
  deadline_ms : int;
  max_restarts : int;
  backoff_ms : int;
  worker_exe : string option;
  spot_check : int;
  clock_step : int;
  seed : int;
}

let fleet_term ~default_shards ~ops_doc ~chaos_doc ~batch_doc =
  let queries_file =
    let doc =
      "Query stream: one 'u v' pair per line ('-' for stdin; blank lines and \
       '#' comments skipped). With --op and no explicit --queries, the \
       stream is skipped entirely."
    in
    Arg.(value & opt string "-" & info [ "queries" ] ~docv:"FILE" ~doc)
  in
  let ops =
    Arg.(value & opt_all string [] & info [ "op" ] ~docv:"OP" ~doc:ops_doc)
  in
  let chaos =
    Arg.(
      value & opt_all string [] & info [ "chaos" ] ~docv:"S:PLAN" ~doc:chaos_doc)
  in
  let batch = Arg.(value & opt int 64 & info [ "batch" ] ~docv:"N" ~doc:batch_doc) in
  let deadline_ms =
    let doc = "Per-request deadline in milliseconds." in
    Arg.(value & opt int 2000 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let max_restarts =
    let doc = "Restart budget per shard before quarantine." in
    Arg.(value & opt int 3 & info [ "max-restarts" ] ~docv:"R" ~doc)
  in
  let backoff_ms =
    let doc = "Base restart backoff in milliseconds (doubles per restart)." in
    Arg.(value & opt int 50 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let worker_exe =
    let doc =
      "Spawn workers by exec'ing $(docv) ('serve worker' is appended) \
       instead of forking in-process."
    in
    Arg.(value & opt (some string) None & info [ "worker-exe" ] ~docv:"EXE" ~doc)
  in
  let spot_check =
    let doc = "Per-worker spot-check cadence (0 disables)." in
    Arg.(value & opt int 1 & info [ "spot-check-every" ] ~docv:"K" ~doc)
  in
  let make graph_file store_args queries_file ops shards partition chaos batch
      deadline_ms max_restarts backoff_ms worker_exe spot_check clock_step seed
      =
    { graph_file; store_args; queries_file; ops; shards; partition; chaos;
      batch; deadline_ms; max_restarts; backoff_ms; worker_exe; spot_check;
      clock_step; seed }
  in
  Term.(
    const make $ graph_file_arg
    $ store_args_term ~with_flat:false
    $ queries_file $ ops $ shards_arg ~default:default_shards $ partition_arg
    $ chaos $ batch $ deadline_ms $ max_restarts $ backoff_ms $ worker_exe
    $ spot_check $ clock_step_arg $ seed_arg)

(* Validate the arguments, load the store and spawn the fleet. Returns
   the router, the spawn span, the graph's n and the --op requests. *)
let start_fleet_exit ?trace f =
  if f.shards < 1 || f.batch < 1 || f.deadline_ms < 1 || f.max_restarts < 0
     || f.backoff_ms < 0 || f.clock_step < 0
  then begin
    Printf.eprintf
      "hubhard: need --shards/--batch/--deadline-ms positive, \
       --max-restarts/--backoff-ms/--clock-step non-negative\n";
    exit 124
  end;
  let op_reqs = op_requests_exit f.ops in
  let chaos =
    List.map
      (fun s ->
        match String.index_opt s ':' with
        | None ->
            Printf.eprintf
              "hubhard: --chaos %S: expected <shard>:<fault>@<frames>\n" s;
            exit 124
        | Some i -> (
            let shard = String.sub s 0 i
            and plan = String.sub s (i + 1) (String.length s - i - 1) in
            match
              (int_of_string_opt shard, Fault_injector.chaos_of_string plan)
            with
            | Some sh, Ok c when sh >= 0 && sh < f.shards -> (sh, c)
            | Some _, Ok _ ->
                Printf.eprintf "hubhard: --chaos %S: shard out of range\n" s;
                exit 124
            | None, _ ->
                Printf.eprintf "hubhard: --chaos %S: bad shard index\n" s;
                exit 124
            | _, Error msg ->
                Printf.eprintf "hubhard: %s\n" msg;
                exit 124))
      f.chaos
  in
  let g = serving_graph_exit f.graph_file in
  let n = Graph.n g in
  validate_ops_exit ~n op_reqs;
  let loaded = load_store_exit ~graph:g f.store_args in
  Events.install (Events.create (Events.ring ~capacity:64));
  let spawn =
    match f.worker_exe with
    | None -> Router.Fork
    | Some exe ->
        Router.Exec
          (fun ~shard ->
            Array.of_list
              ([
                 exe; "serve"; "worker"; "--graph-file"; f.graph_file;
                 "--shards"; string_of_int f.shards;
                 "--shard"; string_of_int shard;
                 "--partition"; Partition.string_of_spec f.partition;
                 "--spot-check-every"; string_of_int f.spot_check;
                 "--clock-step"; string_of_int f.clock_step;
                 "--seed"; string_of_int f.seed;
               ]
              @ (match f.store_args.labels_file with
                | Some file -> [ "--labels-file"; file ]
                | None -> [])
              (* exec'd workers map the packed file themselves; the OS
                 page cache still keeps one physical copy fleet-wide.
                 The flags are the worker's own: a store kind such as
                 assoc has none, and an unknown flag would kill it. *)
              @ (if f.store_args.mmap then [ "--mmap" ]
                 else if f.store_args.compact then [ "--compact" ]
                 else [])
              @
              match List.assoc_opt shard chaos with
              | Some c -> [ "--chaos"; Fault_injector.chaos_to_string c ]
              | None -> []))
  in
  let cfg =
    loaded.router
      {
        (Router.default_config g) with
        shards = f.shards;
        partition = f.partition;
        supervisor =
          {
            Supervisor.default_config with
            deadline_ns = Int64.of_int (f.deadline_ms * 1_000_000);
            max_restarts = f.max_restarts;
            base_backoff_ns = Int64.of_int (f.backoff_ms * 1_000_000);
          };
        spot_check_every = f.spot_check;
        chaos;
        clock_step =
          (if f.clock_step > 0 then Some (Int64.of_int f.clock_step) else None);
        seed = f.seed;
        spawn;
        trace;
      }
  in
  let router, spawn_span =
    Span.profile ~name:"router.spawn" (fun () -> Router.create cfg)
  in
  (router, spawn_span, n, op_reqs)

(* Serve the query stream in batches of [f.batch], handing every answer
   to [on_answer]; returns the number of skipped lines. *)
let drive_queries_exit f ~n ~op_reqs router on_answer =
  let ic =
    if f.queries_file = "-" then
      if op_reqs <> [] then None (* --op alone: no query stream *)
      else Some stdin
    else
      match open_in f.queries_file with
      | ic -> Some ic
      | exception Sys_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit exit_parse_failure
  in
  let skipped = ref 0 in
  let pending = ref [] and pending_n = ref 0 in
  let flush_batch () =
    if !pending_n > 0 then begin
      let arr = Array.of_list (List.rev !pending) in
      pending := [];
      pending_n := 0;
      Array.iteri
        (fun i a -> on_answer arr.(i) a)
        (Router.query_batch router arr)
    end
  in
  Option.iter
    (fun ic ->
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             match Scanf.sscanf line " %d %d" (fun u v -> (u, v)) with
             | exception _ -> incr skipped
             | u, v ->
                 if u < 0 || u >= n || v < 0 || v >= n then incr skipped
                 else begin
                   pending := (u, v) :: !pending;
                   incr pending_n;
                   if !pending_n >= f.batch then flush_batch ()
                 end
         done
       with End_of_file -> ());
      if ic != stdin then close_in ic)
    ic;
  flush_batch ();
  !skipped

let serve_router_cmd =
  let echo =
    let doc = "Print each answer as 'u v dist source' (off by default)." in
    Arg.(value & flag & info [ "echo" ] ~doc)
  in
  let run f echo metrics_out =
    let router, spawn_span, n, op_reqs = start_fleet_exit f in
    let served = ref 0 and degraded = ref 0 in
    let count degr =
      incr served;
      if degr then incr degraded
    in
    let skipped =
      drive_queries_exit f ~n ~op_reqs router (fun (u, v) a ->
          count a.Router.degraded;
          if echo then
            Format.printf "%d %d %a %s%s@." u v Dist.pp a.Router.dist
              (Wire.name_of_source_code a.Router.source)
              (if a.Router.degraded then " degraded" else ""))
    in
    List.iter
      (fun req ->
        let r = Router.op router req in
        count r.Router.degraded;
        Format.printf "%s -> %s %s%s@."
          (Ops.request_to_string req)
          (Ops.response_to_string r.Router.response)
          (Wire.name_of_source_code r.Router.source)
          (if r.Router.degraded then " degraded" else ""))
      op_reqs;
    (match metrics_out with
    | None -> ()
    | Some path ->
        write_file path (Metrics.to_json (Router.merged_snapshot router)));
    let sup = Router.supervisor router in
    Format.printf
      "served %d queries over %d shard(s) (%d degraded, %d lines skipped); \
       spawn took %Ldns@."
      !served f.shards !degraded skipped
      (Span.total_ns spawn_span);
    for s = 0 to f.shards - 1 do
      Format.printf "shard %d: %s, %d restart(s)@." s
        (Supervisor.state_name (Supervisor.state sup s))
        (Supervisor.restarts_used sup s)
    done;
    Router.shutdown router;
    Events.uninstall ();
    if !degraded > 0 then exit exit_degraded
  in
  let fleet =
    fleet_term ~default_shards:2
      ~ops_doc:
        "Aggregate operation (repeatable, same forms as 'serve query --op'), \
         fanned out to the owning shards and merged; a dead shard's share is \
         served exactly by the router's local fallback (marked degraded)."
      ~chaos_doc:
        "Per-shard chaos plan '<shard>:<fault>@<frames>' (repeatable), \
         applied to that shard's initial worker."
      ~batch_doc:
        "Pairs per router batch; restarts happen only at batch boundaries, \
         so a mid-batch crash degrades at most one batch of its partition."
  in
  let doc =
    "Route queries across a supervised fleet of forked (or exec'd) shard \
     workers: per-request deadlines, bounded exponential-backoff restarts, \
     quarantine of flapping shards, and local exact fallback for a dead \
     shard's partition. With --metrics-out, write the merged metrics \
     snapshot (router counters plus each worker's registry under \
     'shard<i>.'). Exit 12 when any answer was degraded."
  in
  Cmd.v (Cmd.info "router" ~doc) Term.(const run $ fleet $ echo $ metrics_out_arg)

let serve_trace_cmd =
  let trace_sample =
    let doc =
      "Head-sample 1 in $(docv) traces (deterministic hash of the trace \
       id); 1 records every query. Retried, degraded and slow queries are \
       force-recorded regardless."
    in
    Arg.(value & opt int 1 & info [ "trace-sample" ] ~docv:"N" ~doc)
  in
  let slow_ms =
    let doc =
      "Also force-record any query at least this slow (milliseconds; 0 \
       disables the threshold)."
    in
    Arg.(value & opt int 0 & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let trace_format =
    let doc =
      "Trace rendering: 'text' (flame-style tree per trace) or 'jsonl' (one \
       JSON object per trace: {\"trace_id\": ..., \"root\": <span tree>})."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("jsonl", `Jsonl) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let trace_out =
    let doc =
      "Also write the rendered traces to $(docv) (atomic write-then-rename; \
       byte-identical across same-seed runs under --clock-step)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run f trace_sample slow_ms trace_format trace_out metrics_out =
    if trace_sample < 1 || slow_ms < 0 then begin
      Printf.eprintf
        "hubhard: need --trace-sample positive, --slow-ms non-negative\n";
      exit 124
    end;
    let trace =
      {
        Router.sample_every = trace_sample;
        slow_ns = Int64.of_int (slow_ms * 1_000_000);
        capacity = 4096;
      }
    in
    let router, _, n, op_reqs = start_fleet_exit ~trace f in
    let served = ref 0 and degraded = ref 0 in
    let count degr =
      incr served;
      if degr then incr degraded
    in
    let skipped =
      drive_queries_exit f ~n ~op_reqs router (fun _ a -> count a.Router.degraded)
    in
    List.iter (fun req -> count (Router.op router req).Router.degraded) op_reqs;
    let trees = Router.trace_trees router in
    let rendered =
      let buf = Buffer.create 4096 in
      (match trace_format with
      | `Text ->
          List.iter
            (fun (id, node) ->
              Buffer.add_string buf (Printf.sprintf "trace %s\n" id);
              Buffer.add_string buf
                (Format.asprintf "%a" Span.pp_flame node))
            trees
      | `Jsonl ->
          List.iter
            (fun (id, node) ->
              Buffer.add_string buf
                (Printf.sprintf "{\"trace_id\": \"%s\", \"root\": %s}\n" id
                   (Span.to_json node)))
            trees);
      Buffer.contents buf
    in
    print_string rendered;
    (match trace_out with
    | None -> ()
    | Some path -> write_file path rendered);
    (match metrics_out with
    | None -> ()
    | Some path ->
        write_file path (Metrics.to_json (Router.merged_snapshot router)));
    Format.printf
      "traced %d queries over %d shard(s): %d trace tree(s) (%d degraded, \
       %d lines skipped)@."
      !served f.shards (List.length trees) !degraded skipped;
    Router.shutdown router;
    Events.uninstall ();
    if !degraded > 0 then exit exit_degraded
  in
  let fleet =
    fleet_term ~default_shards:3
      ~ops_doc:
        "Aggregate operation (repeatable, same forms as 'serve query --op'), \
         fanned out and traced like any query."
      ~chaos_doc:
        "Per-shard chaos plan '<shard>:<fault>@<frames>' (repeatable), \
         applied to that shard's initial worker — chaos paths (retries, \
         backoff, degraded recomputes) are exactly what the trace trees make \
         visible."
      ~batch_doc:"Pairs per router batch (one trace tree per batch)."
  in
  let doc =
    "Route queries across the supervised sharded tier with distributed \
     tracing on: each query mints a deterministic trace context, \
     propagates it to the workers over the wire, and the router \
     reassembles one end-to-end trace tree per query — router span, \
     per-shard RPC spans, worker spans, and the retry / backoff / \
     degraded-recompute spans of the unlucky paths. Deterministic given \
     --seed and --clock-step: the rendered traces are byte-identical \
     across same-seed runs. Exit 12 when any answer was degraded."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ fleet $ trace_sample $ slow_ms $ trace_format $ trace_out
      $ metrics_out_arg)

let serve_cmd =
  let doc =
    "Resilient serving path: validated inputs, spot-checked answers, \
     graceful degradation (hub labels -> bidirectional search -> BFS), and \
     the supervised sharded tier (worker/router) with end-to-end \
     distributed tracing. Exit codes: 10 parse failure, 11 validation \
     failure, 12 degraded-mode answers."
  in
  Cmd.group (Cmd.info "serve" ~doc)
    [
      serve_check_cmd; serve_query_cmd; serve_stats_cmd; serve_loop_cmd;
      serve_worker_cmd; serve_router_cmd; serve_trace_cmd;
    ]

(* ---------------------------------------------------------------- *)

let default =
  let doc =
    "Reproduction of 'Hardness of exact distance queries in sparse graphs \
     through hub labeling' (PODC 2019)."
  in
  let info = Cmd.info "hubhard" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ exp_cmd; lemma_cmd; label_cmd; sumindex_cmd; gen_cmd; check_cmd; serve_cmd ]

let () = exit (Cmd.eval default)
