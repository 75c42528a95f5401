(* Span-profile smoke for the @ci gate (`dune build @span-smoke`).

   Builds one small fixture per instrumented construction pipeline with
   profiling on, then asserts (1) the exported span tree is valid JSON
   — checked by a minimal standalone parser, no JSON dependency — (2)
   the recorded phase names exactly match the documented set in
   docs/OBSERVABILITY.md, and (3) the documented per-phase counters are
   still recorded. A rename or reorder of any pipeline phase
   fails CI until the docs (and this list) are updated with it. *)

open Repro_graph
open Repro_hub
open Repro_core
module Span = Repro_obs.Span
module Clock = Repro_obs.Clock

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "span smoke FAIL: %s\n" msg)
    fmt

(* ---- minimal JSON validity parser -------------------------------- *)

exception Bad of int

let check_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad !pos) in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (peek () = ' ' || peek () = '\n' || peek () = '\t') then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    if peek () <> c then raise (Bad !pos);
    advance ()
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          advance ();
          go ()
      | _ ->
          advance ();
          go ()
    in
    go ()
  in
  let number () =
    if peek () = '-' then advance ();
    let digits = ref 0 in
    while
      !pos < n
      && (match peek () with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
         | _ -> false)
    do
      incr digits;
      advance ()
    done;
    if !digits = 0 then raise (Bad !pos)
  in
  let literal word =
    String.iter (fun c -> expect c) word
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ -> number ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> raise (Bad !pos)
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            elems ()
        | ']' -> advance ()
        | _ -> raise (Bad !pos)
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Bad _ -> false

(* ---- the documented phase-name sets ------------------------------ *)

let documented =
  [
    ("pll.build", [ "order"; "pruned-sweep" ]);
    ( "rs-hub.build",
      [
        "distance-rows";
        "hitting-set";
        "d3-colouring";
        "conflict-sets";
        "koenig-covers";
        "hubsets";
      ] );
    ("flat-hub.pack", []);
    ("grid-graph.create", [ "level-edges"; "adjacency" ]);
    ("degree-gadget.build", [ "anchor-trees"; "edge-paths"; "adjacency" ]);
  ]

(* Counters a phase must keep reporting, however often it reports
   them (the PLL sweep batches its counts once per root). *)
let documented_counters =
  [ ("pll.build", [ ("pruned-sweep", [ "labels_added"; "pruned" ]) ]) ]

let check_counters label tree =
  List.iter
    (fun (phase, names) ->
      match List.find_opt (fun c -> c.Span.name = phase) tree.Span.children with
      | None -> fail "%s: phase %S missing" label phase
      | Some node ->
          List.iter
            (fun name ->
              if not (List.mem_assoc name node.Span.counters) then
                fail "%s: phase %S lost counter %S" label phase name)
            names)
    (Option.value ~default:[]
       (List.assoc_opt tree.Span.name documented_counters))

let check_tree label tree =
  check_counters label tree;
  let json = Span.to_json tree in
  if not (check_json json) then fail "%s: span JSON does not parse" label;
  match List.assoc_opt tree.Span.name documented with
  | None -> fail "%s: root span %S is not a documented pipeline" label
            tree.Span.name
  | Some phases ->
      let got = List.map (fun c -> c.Span.name) tree.Span.children in
      if got <> phases then
        fail "%s: phases [%s] differ from documented [%s]" label
          (String.concat "; " got) (String.concat "; " phases)

let profiled label f =
  let clock = Clock.read (Clock.manual ~auto_step:10L ()) in
  let _, root = Span.profile ~clock ~name:("smoke:" ^ label) f in
  match root.Span.children with
  | [ tree ] -> check_tree label tree
  | trees ->
      fail "%s: expected one recorded pipeline, got %d" label
        (List.length trees)

let () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let labels = Pll.build g in
  profiled "pll" (fun () -> ignore (Pll.build g));
  profiled "rs-hub" (fun () ->
      let rng = Random.State.make [| 20190721 |] in
      ignore (Rs_hub.build ~rng ~d:2 (Generators.path 24)));
  profiled "flat-pack" (fun () -> ignore (Flat_hub.of_labels labels));
  let grid = Grid_graph.create ~b:2 ~l:1 () in
  profiled "grid-graph" (fun () -> ignore (Grid_graph.create ~b:2 ~l:1 ()));
  profiled "degree-gadget" (fun () -> ignore (Degree_gadget.build grid));
  (* the mini parser itself must reject garbage, or the check above is
     vacuous *)
  if check_json "{\"unterminated\": [1, 2" then
    fail "json checker accepted garbage";
  if not (check_json "{\"a\": [1, {\"b\": \"c\\\"d\"}], \"e\": -1.5}") then
    fail "json checker rejected valid JSON";
  if !failures > 0 then begin
    Printf.eprintf "span smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "span smoke: all pipeline phase sets match the documented set"
