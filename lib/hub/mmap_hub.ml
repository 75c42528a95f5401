open Repro_graph
module A1 = Bigarray.Array1

(* Word layout of the whole file viewed as little-endian int64s:
     word 0           magic "HUBFLAT1"
     word 1           n
     word 2           total entry count
     words 3 .. 3+n   the n+1 CSR offsets
     words 4+n ..     2*total interleaved (hub, dist)
   This is exactly the Hub_io packed form; the magic happens to be
   8 bytes, so the whole file is word-aligned. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

type error = Label_store.error =
  | Io of string
  | Not_regular of string
  | Too_short of { bytes : int }
  | Misaligned of { bytes : int }
  | Bad_magic
  | Bad_header of { word : int; msg : string }
  | Length_mismatch of { expected_words : int; actual_words : int }
  | Bad_offsets of { vertex : int; msg : string }
  | Bad_entry of { vertex : int; entry : int; msg : string }

let error_to_string = Label_store.error_to_string ~prefix:"Mmap_hub"

exception Bad of error

type mapping = {
  n : int;
  total : int;
  words : words;
  path : string;
  bytes : int;
}

let fits_int x = Int64.of_int (Int64.to_int x) = x
let magic_word = String.get_int64_le Hub_io.packed_magic 0
let min_bytes = 8 * 3 (* magic + n + total *)

(* O(n): monotone from 0 to [total]. Every data index the query path
   derives is [2 * offset] for a validated offset, so this check alone
   bounds all subsequent unsafe reads inside the mapping. *)
let validate_offsets (words : words) ~n ~total =
  let total64 = Int64.of_int total in
  try
    if A1.unsafe_get words 3 <> 0L then
      raise (Bad (Bad_offsets { vertex = 0; msg = "must start at 0" }));
    let prev = ref 0L in
    for v = 1 to n do
      let x = A1.unsafe_get words (3 + v) in
      if x < !prev then
        raise (Bad (Bad_offsets { vertex = v; msg = "must be non-decreasing" }));
      if x > total64 then
        raise
          (Bad (Bad_offsets { vertex = v; msg = "exceeds the entry count" }));
      prev := x
    done;
    if !prev <> total64 then
      raise
        (Bad (Bad_offsets { vertex = n; msg = "must end at the entry count" }));
    Ok ()
  with Bad e -> Error e

let off m v = Int64.to_int (A1.unsafe_get m.words (3 + v))

module Core = Label_store.Make (struct
  type t = mapping

  let module_name = "Mmap_hub"
  let backend_name = "mmap-hub-labeling"
  let kind = "mmap"
  let n m = m.n
  let size m v = off m (v + 1) - off m v

  (* Offsets are validated, so every entry index is inside the
     mapping; hub and distance words are returned as stored. *)
  let fold_label m v f acc =
    let words = m.words in
    let base = 4 + m.n in
    let acc = ref acc in
    for e = off m v to off m (v + 1) - 1 do
      acc :=
        f !acc
          (Int64.to_int (A1.unsafe_get words (base + (2 * e))))
          (Int64.to_int (A1.unsafe_get words (base + (2 * e) + 1)))
    done;
    !acc

  let space_words m = m.n + 1 + (2 * m.total)

  (* The hot path: the same two-pointer merge as Flat_hub's, with the
     interleaved run walked directly in the mapping. Indices are in
     mapping words; validated offsets bound them, so unsafe gets are
     sound even on a shallow-validated file. *)
  let raw_query m u v =
    let words = m.words in
    let base = 4 + m.n in
    let i = ref (base + (2 * off m u))
    and iend = base + (2 * off m (u + 1))
    and j = ref (base + (2 * off m v))
    and jend = base + (2 * off m (v + 1)) in
    let best = ref Dist.inf in
    while !i < iend && !j < jend do
      let ha = Int64.to_int (A1.unsafe_get words !i)
      and hb = Int64.to_int (A1.unsafe_get words !j) in
      if ha = hb then begin
        let d =
          Dist.add
            (Int64.to_int (A1.unsafe_get words (!i + 1)))
            (Int64.to_int (A1.unsafe_get words (!j + 1)))
        in
        if d < !best then best := d;
        i := !i + 2;
        j := !j + 2
      end
      else if ha < hb then i := !i + 2
      else j := !j + 2
    done;
    !best
end)

include Core

(* O(total): the full per-entry contract of Flat_hub.of_raw. *)
let validate_mapping m =
  let base = 4 + m.n in
  let n64 = Int64.of_int m.n in
  try
    for v = 0 to m.n - 1 do
      let prev = ref (-1) in
      for e = off m v to off m (v + 1) - 1 do
        let h64 = A1.unsafe_get m.words (base + (2 * e)) in
        if h64 < 0L || h64 >= n64 then
          raise (Bad (Bad_entry { vertex = v; entry = e; msg = "hub out of range" }));
        let h = Int64.to_int h64 in
        if h <= !prev then
          raise
            (Bad
               (Bad_entry
                  { vertex = v; entry = e;
                    msg = "hubs must be strictly increasing" }));
        prev := h;
        let d64 = A1.unsafe_get m.words (base + (2 * e) + 1) in
        if d64 < 0L || not (fits_int d64) then
          raise
            (Bad (Bad_entry { vertex = v; entry = e; msg = "bad distance" }))
      done
    done;
    Ok ()
  with Bad e -> Error e

let validate_entries t = validate_mapping (format t)

let load_res ?(cache_slots = 0) ?(deep = false) path =
  let make = Core.make ~cache_slots in
  Repro_obs.Span.run ~name:"mmap-hub.load" (fun () ->
      let ( let* ) = Result.bind in
      let res =
        let* words, bytes = Label_store.map_file Bigarray.int64 ~min_bytes path in
        Repro_obs.Span.count "bytes" bytes;
        if A1.get words 0 <> magic_word then Error Bad_magic
        else
          let* n = Label_store.header_int ~index:1 (A1.get words 1) in
          let* total = Label_store.header_int ~index:2 (A1.get words 2) in
          let actual_words = bytes / 8 in
          (* saturate so 3 + (n+1) + 2*total cannot overflow: any
             n/total beyond the word count already disagrees with the
             length *)
          let expected_words =
            if n > actual_words || total > actual_words then max_int
            else 3 + (n + 1) + (2 * total)
          in
          if expected_words <> actual_words then
            Error (Length_mismatch { expected_words; actual_words })
          else
            let* () = validate_offsets words ~n ~total in
            let m = { n; total; words; path; bytes } in
            let* () = if deep then validate_mapping m else Ok () in
            Ok (make m)
      in
      (match res with
      | Ok _ -> ()
      | Error e ->
          Repro_obs.Events.emit_ambient ~level:Repro_obs.Events.Warn
            "mmap_hub.load_failure"
            [ ("path", Repro_obs.Events.Str path);
              ("msg", Repro_obs.Events.Str (error_to_string e)) ]);
      res)

let total_size t = (format t).total
let path t = (format t).path
let bytes t = (format t).bytes

let to_flat t =
  let m = format t in
  let offsets = Array.init (m.n + 1) (off m) in
  let base = 4 + m.n in
  let data =
    Array.init (2 * m.total) (fun j -> Int64.to_int (A1.get m.words (base + j)))
  in
  Flat_hub.of_raw ~n:m.n ~offsets ~data

let pp ppf t =
  let m = format t in
  Format.fprintf ppf "mmap_hub(%s, n=%d, total=%d, cache=%s)" m.path m.n
    m.total (cache_label t)
