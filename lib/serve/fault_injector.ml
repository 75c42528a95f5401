open Repro_graph
open Repro_hub
module Ops = Repro_obs.Ops

exception Injected_failure

type mode = Corrupt | Drop | Fail

type t = {
  rng : Random.State.t;
  fraction : float;
  mode : mode;
  mutable calls : int;
  mutable injected : int;
}

let create ~seed ~fraction mode =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Fault_injector.create: fraction must lie in [0, 1]";
  {
    rng = Random.State.make [| seed; 0x0FA17 |];
    fraction;
    mode;
    calls = 0;
    injected = 0;
  }

let calls t = t.calls
let injected t = t.injected

(* Whether this call is injected; counts it either way. *)
let hit t =
  t.calls <- t.calls + 1;
  let hit = Random.State.float t.rng 1.0 < t.fraction in
  if hit then t.injected <- t.injected + 1;
  hit

(* [f] delivers the true distance after the shift is drawn. *)
let corrupt t f =
  let delta = 1 + Random.State.int t.rng 3 in
  let d = f () in
  if not (Dist.is_finite d) then delta
  else if d > delta && Random.State.bool t.rng then d - delta
  else d + delta

let wrap t f u v =
  if not (hit t) then f u v
  else
    match t.mode with
    | Fail -> raise Injected_failure
    | Drop -> Dist.inf
    | Corrupt -> corrupt t (fun () -> f u v)

let map_dists f : Ops.response -> Ops.response = function
  | R_dist d -> R_dist (f d)
  | R_dists a -> R_dists (Array.map f a)
  | R_matrix m -> R_matrix (Array.map (Array.map f) m)
  | R_nearest ps -> R_nearest (Array.map (fun (w, d) -> (w, f d)) ps)
  | R_ecc d -> R_ecc (f d)
  | R_farthest { vertex; dist } -> R_farthest { vertex; dist = f dist }
  | R_diam_rad { diameter; radius } ->
      R_diam_rad { diameter = f diameter; radius = f radius }

let wrap_op t f req =
  if not (hit t) then f req
  else
    match t.mode with
    | Fail -> raise Injected_failure
    | Drop -> map_dists (fun _ -> Dist.inf) (f req)
    | Corrupt -> map_dists (fun d -> corrupt t (fun () -> d)) (f req)

type proc_fault = Kill | Hang | Truncate_frame | Corrupt_frame | Slow_write
type chaos = { after_frames : int; fault : proc_fault }

let chaos ~after_frames fault =
  if after_frames < 1 then
    invalid_arg "Fault_injector.chaos: after_frames must be >= 1";
  { after_frames; fault }

let fault_name = function
  | Kill -> "kill"
  | Hang -> "hang"
  | Truncate_frame -> "truncate"
  | Corrupt_frame -> "corrupt"
  | Slow_write -> "slow"

let chaos_to_string c =
  Printf.sprintf "%s@%d" (fault_name c.fault) c.after_frames

let chaos_of_string s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "chaos plan %S: expected <fault>@<frames>" s)
  | Some i -> (
      let fault = String.sub s 0 i
      and frames = String.sub s (i + 1) (String.length s - i - 1) in
      let fault =
        match fault with
        | "kill" -> Ok Kill
        | "hang" -> Ok Hang
        | "truncate" -> Ok Truncate_frame
        | "corrupt" -> Ok Corrupt_frame
        | "slow" -> Ok Slow_write
        | other -> Error (Printf.sprintf "chaos plan: unknown fault %S" other)
      in
      match (fault, int_of_string_opt frames) with
      | Error e, _ -> Error e
      | Ok f, Some n when n >= 1 -> Ok { after_frames = n; fault = f }
      | Ok _, _ ->
          Error (Printf.sprintf "chaos plan %S: frame count must be >= 1" s))

let corrupt_labels ~seed ~fraction labels =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Fault_injector.corrupt_labels: fraction must lie in [0, 1]";
  let rng = Random.State.make [| seed; 0xC0B0 |] in
  let n = Hub_label.n labels in
  let sets =
    Array.init n (fun v ->
        List.map
          (fun (h, d) ->
            if Random.State.float rng 1.0 < fraction then (h, d + 1) else (h, d))
          (Hub_label.hub_list labels v))
  in
  Hub_label.make ~n sets
