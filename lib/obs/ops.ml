open Repro_graph

type request =
  | Dist of { u : int; v : int }
  | Batch of (int * int) array
  | One_to_many of { source : int; targets : int array }
  | Many_to_many of { sources : int array; targets : int array }
  | Top_k_nearest of { source : int; k : int }
  | Top_k_among of { source : int; k : int; among : int array }
  | Eccentricity of int
  | Farthest of int
  | Farthest_among of { source : int; among : int array }
  | Diameter_radius

type valid = request

type response =
  | R_dist of int
  | R_dists of int array
  | R_matrix of int array array
  | R_nearest of (int * int) array
  | R_ecc of int
  | R_farthest of { vertex : int; dist : int }
  | R_diam_rad of { diameter : int; radius : int }

let name = function
  | Dist _ -> "dist"
  | Batch _ -> "batch"
  | One_to_many _ -> "one_to_many"
  | Many_to_many _ -> "many_to_many"
  | Top_k_nearest _ | Top_k_among _ -> "top_k_nearest"
  | Eccentricity _ -> "eccentricity"
  | Farthest _ | Farthest_among _ -> "farthest"
  | Diameter_radius -> "diameter_radius"

let check ~n req : (valid, string) result =
  let vertex v =
    if v < 0 || v >= n then
      Error (Printf.sprintf "vertex %d out of range [0, %d)" v n)
    else Ok ()
  in
  (* one compare per entry: a worker validates each share's owned list *)
  let vertices a =
    let rec go i =
      if i = Array.length a then Ok ()
      else
        let v = Array.unsafe_get a i in
        if v < 0 || v >= n then vertex v else go (i + 1)
    in
    go 0
  in
  (* a share's source and its strictly ascending candidate list *)
  let candidates source among =
    match vertex source with
    | Error _ as e -> e
    | Ok () -> (
        match vertices among with
        | Error _ as e -> e
        | Ok () ->
            let rec ascending i =
              i >= Array.length among
              || (Array.unsafe_get among (i - 1) < Array.unsafe_get among i
                 && ascending (i + 1))
            in
            if ascending 1 then Ok ()
            else Error "among must be strictly ascending")
  in
  Result.map (fun () -> req)
  @@
  match req with
  | Dist { u; v } -> ( match vertex u with Ok () -> vertex v | e -> e)
  | Batch pairs ->
      Array.fold_left
        (fun acc (u, v) ->
          match acc with
          | Error _ -> acc
          | Ok () -> ( match vertex u with Ok () -> vertex v | e -> e))
        (Ok ()) pairs
  | One_to_many { source; targets } -> (
      match vertex source with Ok () -> vertices targets | e -> e)
  | Many_to_many { sources; targets } -> (
      match vertices sources with Ok () -> vertices targets | e -> e)
  | Top_k_nearest { source; k } -> (
      if k < 0 then Error (Printf.sprintf "k must be non-negative, got %d" k)
      else match vertex source with Ok () -> Ok () | e -> e)
  | Top_k_among { source; k; among } ->
      if k < 0 then Error (Printf.sprintf "k must be non-negative, got %d" k)
      else candidates source among
  | Farthest_among { source; among } -> candidates source among
  | Eccentricity v | Farthest v -> vertex v
  | Diameter_radius -> Ok ()

let validate ~n req = Result.map ignore (check ~n req)

(* ----- string forms -------------------------------------------------- *)

let dist_str d = if Dist.is_finite d then string_of_int d else "inf"

let ints_str a = String.concat "," (Array.to_list (Array.map string_of_int a))

let request_to_string = function
  | Dist { u; v } -> Printf.sprintf "dist:%d,%d" u v
  | Batch pairs ->
      "batch:"
      ^ String.concat ";"
          (Array.to_list
             (Array.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) pairs))
  | One_to_many { source; targets } ->
      Printf.sprintf "one-to-many:%d:%s" source (ints_str targets)
  | Many_to_many { sources; targets } ->
      Printf.sprintf "many-to-many:%s:%s" (ints_str sources) (ints_str targets)
  | Top_k_nearest { source; k } -> Printf.sprintf "top-k:%d,%d" source k
  | Top_k_among { source; k; among } ->
      Printf.sprintf "top-k-among:%d,%d:%s" source k (ints_str among)
  | Eccentricity v -> Printf.sprintf "ecc:%d" v
  | Farthest v -> Printf.sprintf "farthest:%d" v
  | Farthest_among { source; among } ->
      Printf.sprintf "farthest-among:%d:%s" source (ints_str among)
  | Diameter_radius -> "diam"

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: bad integer %S" what s)

let parse_ints what s =
  if String.trim s = "" then Error (what ^ ": empty vertex list")
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> (
          match parse_int what p with
          | Ok v -> go (v :: acc) rest
          | Error _ as e -> e)
    in
    go [] parts

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* A share's "HEAD:V1,V2,..." operands: the head's integers and the
   candidate list, which may be empty. *)
let head_among what head rest =
  match String.index_opt rest ':' with
  | None -> Error (Printf.sprintf "%s: expected '%s:v1,v2,...'" what head)
  | Some i ->
      let* a = parse_ints what (String.sub rest 0 i) in
      let vs = String.sub rest (i + 1) (String.length rest - i - 1) in
      let* among = if vs = "" then Ok [||] else parse_ints what vs in
      Ok (a, among)

let request_of_string s =
  let op, rest =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match op with
  | "dist" -> (
      let* a = parse_ints "dist" rest in
      match a with
      | [| u; v |] -> Ok (Dist { u; v })
      | _ -> Error "dist: expected exactly 'u,v'")
  | "batch" ->
      let groups = String.split_on_char ';' rest in
      let rec go acc = function
        | [] -> Ok (Batch (Array.of_list (List.rev acc)))
        | g :: rest -> (
            let* a = parse_ints "batch" g in
            match a with
            | [| u; v |] -> go ((u, v) :: acc) rest
            | _ -> Error "batch: each pair must be 'u,v'")
      in
      go [] groups
  | "one-to-many" -> (
      match String.index_opt rest ':' with
      | None -> Error "one-to-many: expected 's:t1,t2,...'"
      | Some i ->
          let* source = parse_int "one-to-many" (String.sub rest 0 i) in
          let* targets =
            parse_ints "one-to-many"
              (String.sub rest (i + 1) (String.length rest - i - 1))
          in
          Ok (One_to_many { source; targets }))
  | "many-to-many" -> (
      match String.index_opt rest ':' with
      | None -> Error "many-to-many: expected 's1,s2:t1,t2'"
      | Some i ->
          let* sources = parse_ints "many-to-many" (String.sub rest 0 i) in
          let* targets =
            parse_ints "many-to-many"
              (String.sub rest (i + 1) (String.length rest - i - 1))
          in
          Ok (Many_to_many { sources; targets }))
  | "top-k" -> (
      let* a = parse_ints "top-k" rest in
      match a with
      | [| source; k |] -> Ok (Top_k_nearest { source; k })
      | _ -> Error "top-k: expected 's,k'")
  | "top-k-among" -> (
      let* a, among = head_among "top-k-among" "s,k" rest in
      match a with
      | [| source; k |] -> Ok (Top_k_among { source; k; among })
      | _ -> Error "top-k-among: expected 's,k:v1,v2,...'")
  | "farthest-among" -> (
      let* a, among = head_among "farthest-among" "s" rest in
      match a with
      | [| source |] -> Ok (Farthest_among { source; among })
      | _ -> Error "farthest-among: expected 's:v1,v2,...'")
  | "ecc" ->
      let* v = parse_int "ecc" rest in
      Ok (Eccentricity v)
  | "farthest" ->
      let* v = parse_int "farthest" rest in
      Ok (Farthest v)
  | "diam" ->
      if rest = "" then Ok Diameter_radius
      else Error "diam: takes no arguments"
  | other -> Error (Printf.sprintf "unknown operation %S" other)

let response_to_string = function
  | R_dist d -> "dist " ^ dist_str d
  | R_dists a ->
      "dists " ^ String.concat "," (Array.to_list (Array.map dist_str a))
  | R_matrix m ->
      "matrix "
      ^ String.concat ";"
          (Array.to_list
             (Array.map
                (fun row ->
                  String.concat "," (Array.to_list (Array.map dist_str row)))
                m))
  | R_nearest pairs ->
      "nearest "
      ^ String.concat ","
          (Array.to_list
             (Array.map
                (fun (v, d) -> string_of_int v ^ ":" ^ dist_str d)
                pairs))
  | R_ecc d -> "ecc " ^ dist_str d
  | R_farthest { vertex; dist } ->
      Printf.sprintf "farthest %d:%s" vertex (dist_str dist)
  | R_diam_rad { diameter; radius } ->
      Printf.sprintf "diam %s rad %s" (dist_str diameter) (dist_str radius)

let equal_response (a : response) (b : response) = a = b
let pp_response ppf r = Format.pp_print_string ppf (response_to_string r)

(* ----- shared reducers ---------------------------------------------- *)

(* The reducers run over an indexed view — candidate [i] is
   [(vertex i, dist i)] — so pairs, full rows and a shard's owned row
   share one tie-break and build no candidate tuples. *)

let before (d1 : int) (v1 : int) d2 v2 = d1 < d2 || (d1 = d2 && v1 < v2)

(* The best [min k len] candidates go into a max-heap on
   [(dist, vertex)] whose root is the worst one kept; a candidate
   enters only by beating the root. Heap-sorting the survivors in place
   then leaves them ascending: O(len log k) int compares and O(k)
   space for every k. *)
let select ~k len (vertex : int -> int) (dist : int -> int) =
  if k < 0 then invalid_arg "Ops.k_nearest: k must be non-negative";
  let m = min k len in
  let hd = Array.make m 0 and hv = Array.make m 0 in
  let set i d v =
    hd.(i) <- d;
    hv.(i) <- v
  in
  let below i j = before hd.(i) hv.(i) hd.(j) hv.(j) in
  let swap i j =
    let d = hd.(i) and v = hv.(i) in
    set i hd.(j) hv.(j);
    set j d v
  in
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && below p i then begin
      swap p i;
      up p
    end
  in
  let rec down i size =
    let l = (2 * i) + 1 in
    if l < size then begin
      let c = if l + 1 < size && below l (l + 1) then l + 1 else l in
      if below i c then begin
        swap i c;
        down c size
      end
    end
  in
  for i = 0 to len - 1 do
    let d = dist i and v = vertex i in
    if i < m then begin
      set i d v;
      up i
    end
    else if m > 0 && before d v hd.(0) hv.(0) then begin
      set 0 d v;
      down 0 m
    end
  done;
  for size = m - 1 downto 1 do
    swap 0 size;
    down 0 size
  done;
  Array.init m (fun j -> (hv.(j), hd.(j)))

let farthest len (vertex : int -> int) (dist : int -> int) =
  if len = 0 then None
  else begin
    let bv = ref (vertex 0) and bd = ref (dist 0) in
    for i = 1 to len - 1 do
      let d = dist i and v = vertex i in
      if d > !bd || (d = !bd && v < !bv) then begin
        bv := v;
        bd := d
      end
    done;
    Some (!bv, !bd)
  end

let k_nearest ~k pairs =
  select ~k (Array.length pairs) (fun i -> fst pairs.(i)) (fun i -> snd pairs.(i))

let farthest_of pairs =
  farthest (Array.length pairs) (fun i -> fst pairs.(i)) (fun i -> snd pairs.(i))

let nearest_in ~k ~vertex ds = select ~k (Array.length ds) vertex (Array.get ds)
let farthest_in ~vertex ds = farthest (Array.length ds) vertex (Array.get ds)

let farthest_response = function
  | Some (vertex, dist) -> R_farthest { vertex; dist }
  | None -> R_farthest { vertex = -1; dist = 0 }


(* ----- brute-force reference ----------------------------------------- *)

let brute ~n ~query req =
  let row s = Array.init n (fun v -> (v, query s v)) in
  let ecc_of s =
    match farthest_of (row s) with Some (_, d) -> d | None -> 0
  in
  let among_row s among = Array.map (fun w -> (w, query s w)) among in
  match req with
  | Dist { u; v } -> R_dist (query u v)
  | Batch pairs -> R_dists (Array.map (fun (u, v) -> query u v) pairs)
  | One_to_many { source; targets } ->
      R_dists (Array.map (query source) targets)
  | Many_to_many { sources; targets } ->
      R_matrix (Array.map (fun s -> Array.map (query s) targets) sources)
  | Top_k_nearest { source; k } -> R_nearest (k_nearest ~k (row source))
  | Top_k_among { source; k; among } ->
      R_nearest (k_nearest ~k (among_row source among))
  | Eccentricity v -> R_ecc (ecc_of v)
  | Farthest v -> farthest_response (farthest_of (row v))
  | Farthest_among { source; among } ->
      farthest_response (farthest_of (among_row source among))
  | Diameter_radius ->
      if n = 0 then R_diam_rad { diameter = 0; radius = 0 }
      else begin
        let dia = ref 0 and rad = ref max_int in
        for v = 0 to n - 1 do
          let e = ecc_of v in
          if e > !dia then dia := e;
          if e < !rad then rad := e
        done;
        R_diam_rad { diameter = !dia; radius = !rad }
      end
