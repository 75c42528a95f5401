open Repro_graph
module A1 = Bigarray.Array1

(* Byte layout of a HUBFLAT2 image:

     bytes 0..7          magic "HUBFLAT2"
     word  1             n          (vertex count, 0 <= n < 2^31)
     word  2             total      (label entry count)
     word  3             block      (entries per block, >= 1)
     word  4             blob_len   (bytes of the variable-length blob)
     words 5 .. 5+n      ent_off    (n+1 entry-index CSR offsets, 0 -> total)
     words 6+n .. 6+2n   byte_off   (n+1 byte CSR offsets into the blob,
                                     0 -> blob_len)
     then                blob_len blob bytes, zero-padded to a word boundary

   The region of vertex v is blob[byte_off(v) .. byte_off(v+1)) and,
   for a k-entry hubset split into nb = ceil(k/block) blocks, holds:

     nb skip entries     uint32 LE first hub of the block,
                         uint32 LE byte offset of the block's first
                         entry relative to the region start
     varint              base = the vertex's minimum stored distance
     blocks              first entry of a block:  varint(hub),
                                                  varint(zigzag(d - base))
                         later entries:           varint(hub - prev - 1),
                                                  varint(zigzag(d - base))

   An empty hubset has an empty region. Varints are LEB128 (7 bits per
   byte, high bit = continuation); canonical encodings are minimal and
   at most 9 bytes (63-bit native ints). Because every block opens with
   an absolutely-coded entry, a block is decodable without its
   predecessors — that is what lets the merge consult the skip table
   and leap mid-stream. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

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

let error_to_string = Label_store.error_to_string ~prefix:"Compact_hub"

exception Bad of error

type image = {
  n : int;
  total : int;
  block : int;
  blob_len : int;
  ent_off : int array; (* n+1 entry-index offsets, decoded to the heap *)
  byte_off : int array; (* n+1 byte offsets into the blob *)
  buf : buf; (* the whole image: header words + blob + pad *)
  blob_base : int; (* byte index of the blob inside [buf] *)
  path : string; (* "" for a store decoded from in-memory bytes *)
  bytes : int;
}

let magic = "HUBFLAT2"
let default_block = 32
let max_n = 0x4000_0000 * 2 (* 2^31: hub ids must fit the uint32 skip slots *)
let min_bytes = 8 * 5 (* magic + n + total + block + blob_len *)
let header_words n = 5 + (2 * (n + 1))

(* ---------------------------------------------------------------- *)
(* Varint + zigzag primitives. *)

let zigzag x = (x lsl 1) lxor (x asr 62)
let unzig v = (v lsr 1) lxor (- (v land 1))

let emit_varint buf x =
  (* LEB128 of the 63-bit pattern of [x] (so any native int, negative
     included, round-trips in at most 9 bytes) *)
  let x = ref x in
  let fin = ref false in
  while not !fin do
    let b = !x land 0x7f in
    x := !x lsr 7;
    if !x = 0 then begin
      Buffer.add_char buf (Char.chr b);
      fin := true
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let emit_u32 buf x =
  Buffer.add_char buf (Char.chr (x land 0xff));
  Buffer.add_char buf (Char.chr ((x lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((x lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((x lsr 24) land 0xff))

(* ---------------------------------------------------------------- *)
(* Encoder. Canonical: one store, one byte string. *)

let to_bytes ?(block = default_block) flat =
  Repro_obs.Span.run ~name:"compact-hub.save" (fun () ->
  if block < 1 then invalid_arg "Compact_hub.to_bytes: block must be >= 1";
  let n = Flat_hub.n flat in
  if n >= max_n then
    invalid_arg "Compact_hub.to_bytes: n exceeds the 2^31 vertex bound";
  let offsets, data = Flat_hub.raw flat in
  let total = Flat_hub.total_size flat in
  let blob = Buffer.create ((4 * total) + 64) in
  let byte_off = Array.make (n + 1) 0 in
  let body = Buffer.create 512 in
  let head = Buffer.create 10 in
  for v = 0 to n - 1 do
    byte_off.(v) <- Buffer.length blob;
    let lo = offsets.(v) and hi = offsets.(v + 1) in
    let k = hi - lo in
    if k > 0 then begin
      let nb = ((k - 1) / block) + 1 in
      let base = ref max_int in
      for e = lo to hi - 1 do
        let d = data.((2 * e) + 1) in
        if d < !base then base := d
      done;
      let base = !base in
      Buffer.clear body;
      Buffer.clear head;
      emit_varint head base;
      let starts = Array.make nb 0 in
      for b = 0 to nb - 1 do
        starts.(b) <- Buffer.length body;
        let j_hi = min k ((b + 1) * block) in
        for j = b * block to j_hi - 1 do
          let e = lo + j in
          let h = data.(2 * e) in
          if j = b * block then emit_varint body h
          else emit_varint body (h - data.(2 * (e - 1)) - 1);
          emit_varint body (zigzag (data.((2 * e) + 1) - base))
        done
      done;
      let data_base = (8 * nb) + Buffer.length head in
      if data_base + Buffer.length body > 0xffff_ffff then
        invalid_arg
          "Compact_hub.to_bytes: vertex region exceeds the uint32 skip range";
      for b = 0 to nb - 1 do
        emit_u32 blob data.(2 * (lo + (b * block)));
        emit_u32 blob (data_base + starts.(b))
      done;
      Buffer.add_buffer blob head;
      Buffer.add_buffer blob body
    end
  done;
  let blob_len = Buffer.length blob in
  byte_off.(n) <- blob_len;
  let pad = (8 - (blob_len mod 8)) mod 8 in
  let out = Bytes.make ((8 * header_words n) + blob_len + pad) '\000' in
  Bytes.blit_string magic 0 out 0 8;
  let word = ref 1 in
  let put x =
    Bytes.set_int64_le out (8 * !word) (Int64.of_int x);
    incr word
  in
  put n;
  put total;
  put block;
  put blob_len;
  Array.iter put offsets;
  Array.iter put byte_off;
  Buffer.blit blob 0 out (8 * header_words n) blob_len;
  Repro_obs.Span.count "bytes" (Bytes.length out);
  Bytes.unsafe_to_string out)

(* ---------------------------------------------------------------- *)
(* Shallow validation: header, both offset tables, and the skip-table
   room check. After it passes, every fixed-position read of the query
   path (skip slots, region bounds) is in bounds; varint reads clamp at
   the region end, so a garbage blob yields wrong distances only. *)

let word64 (buf : buf) i =
  let off = 8 * i in
  let r = ref 0L in
  for k = 7 downto 0 do
    r :=
      Int64.logor (Int64.shift_left !r 8)
        (Int64.of_int (Char.code (A1.get buf (off + k))))
  done;
  !r

let fits_int x = Int64.of_int (Int64.to_int x) = x
let header_field buf ~index = Label_store.header_int ~index (word64 buf index)

let decode_offsets buf ~first_word ~count ~limit ~what =
  (* [count] words, monotone from 0 to [limit], returned as a heap
     array (the price is O(n) heap, already the load's complexity). *)
  let out = Array.make count 0 in
  try
    for i = 0 to count - 1 do
      let x = word64 buf (first_word + i) in
      if not (fits_int x) || Int64.to_int x < 0 then
        raise
          (Bad (Bad_offsets { vertex = i; msg = what ^ " overflows native int" }));
      let v = Int64.to_int x in
      if i = 0 && v <> 0 then
        raise (Bad (Bad_offsets { vertex = 0; msg = what ^ " must start at 0" }));
      if i > 0 && v < out.(i - 1) then
        raise
          (Bad
             (Bad_offsets { vertex = i; msg = what ^ " must be non-decreasing" }));
      if v > limit then
        raise
          (Bad (Bad_offsets { vertex = i; msg = what ^ " exceeds its bound" }));
      out.(i) <- v
    done;
    if out.(count - 1) <> limit then
      raise
        (Bad
           (Bad_offsets
              { vertex = count - 1; msg = what ^ " must end at its bound" }));
    Ok out
  with Bad e -> Error e

let validate ~path ~bytes (buf : buf) =
  let ( let* ) = Result.bind in
  if bytes < min_bytes then Error (Too_short { bytes })
  else if bytes mod 8 <> 0 then Error (Misaligned { bytes })
  else if
    (try
       let ok = ref true in
       for i = 0 to 7 do
         if A1.get buf i <> magic.[i] then ok := false
       done;
       not !ok
     with _ -> true)
  then Error Bad_magic
  else
    let* n = header_field buf ~index:1 in
    let* () =
      if n >= max_n then
        Error
          (Bad_header { word = 8; msg = "exceeds the 2^31 vertex bound" })
      else Ok ()
    in
    let* total = header_field buf ~index:2 in
    let* block = header_field buf ~index:3 in
    let* () =
      if block < 1 then
        Error (Bad_header { word = 24; msg = "block size must be >= 1" })
      else Ok ()
    in
    let* blob_len = header_field buf ~index:4 in
    let actual_words = bytes / 8 in
    (* saturate so the expected size cannot overflow: any n/blob_len
       beyond the file size already disagrees with the length *)
    let expected_bytes =
      if n > bytes || blob_len > bytes then max_int
      else (8 * header_words n) + blob_len + ((8 - (blob_len mod 8)) mod 8)
    in
    if expected_bytes <> bytes then
      Error
        (Length_mismatch
           { expected_words =
               (if expected_bytes = max_int then max_int
                else expected_bytes / 8);
             actual_words })
    else
      let* ent_off =
        decode_offsets buf ~first_word:5 ~count:(n + 1) ~limit:total
          ~what:"entry offset"
      in
      let* byte_off =
        decode_offsets buf ~first_word:(5 + n + 1) ~count:(n + 1)
          ~limit:blob_len ~what:"byte offset"
      in
      (* every non-empty region must at least hold its skip table and
         the base varint's first byte — this is what bounds the query
         path's fixed-position reads *)
      let rec check_room v =
        if v >= n then Ok ()
        else
          let k = ent_off.(v + 1) - ent_off.(v) in
          if k = 0 then check_room (v + 1)
          else
            let nb = ((k - 1) / block) + 1 in
            if byte_off.(v + 1) - byte_off.(v) < (8 * nb) + 1 then
              Error
                (Bad_offsets
                   { vertex = v; msg = "region too small for its skip table" })
            else check_room (v + 1)
      in
      let* () = check_room 0 in
      Ok
        { n; total; block; blob_len; ent_off; byte_off; buf;
          blob_base = 8 * header_words n; path; bytes }

(* ---------------------------------------------------------------- *)
(* The clamped reader and the block-skipping two-pointer merge. All
   reads stay inside [rs, re) — bounds the shallow contract
   guarantees — so [unsafe_get] is sound on any validated image. *)

type cursor = {
  rs : int; (* region start, absolute byte index in [buf] *)
  re : int; (* region end *)
  k : int; (* entries in the hubset *)
  nb : int; (* blocks *)
  mutable base : int;
  mutable pos : int; (* next unread byte *)
  mutable i : int; (* index of the current entry *)
  mutable blk : int; (* block holding the current entry *)
  mutable bnd : int; (* entry index where the next block starts *)
  mutable nf : int; (* next block's first hub ([max_int] on the last
                       block) — cached so the merge's skip test is one
                       integer compare, not a skip-table load *)
  mutable h : int; (* current hub *)
  mutable d : int; (* current distance *)
}

(* clamped LEB128: never reads past [c.re] nor more than 10 bytes; on
   a truncated or hostile stream the value is garbage, which the
   shallow contract permits. Allocation-free (tail recursion instead
   of refs) with a straight-line fast path for the dominant 1-byte
   case — this is the innermost loop of every query. *)
let rec readv_slow (buf : buf) c x shift cnt =
  if c.pos >= c.re || cnt >= 10 then x
  else begin
    let b = Char.code (A1.unsafe_get buf c.pos) in
    c.pos <- c.pos + 1;
    let x = if shift <= 56 then x lor ((b land 0x7f) lsl shift) else x in
    if b < 0x80 then x else readv_slow buf c x (shift + 7) (cnt + 1)
  end

let readv (buf : buf) c =
  if c.pos >= c.re then 0
  else begin
    let b = Char.code (A1.unsafe_get buf c.pos) in
    c.pos <- c.pos + 1;
    if b < 0x80 then b else readv_slow buf c (b land 0x7f) 7 1
  end

let u32 (buf : buf) off =
  Char.code (A1.unsafe_get buf off)
  lor (Char.code (A1.unsafe_get buf (off + 1)) lsl 8)
  lor (Char.code (A1.unsafe_get buf (off + 2)) lsl 16)
  lor (Char.code (A1.unsafe_get buf (off + 3)) lsl 24)

let cursor t v ~k =
  let rs = t.blob_base + t.byte_off.(v) in
  let re = t.blob_base + t.byte_off.(v + 1) in
  let nb = ((k - 1) / t.block) + 1 in
  let c =
    { rs; re; k; nb; base = 0; pos = rs + (8 * nb); i = 0; blk = 0;
      bnd = t.block; nf = (if nb > 1 then u32 t.buf (rs + 8) else max_int);
      h = 0; d = 0 }
  in
  c.base <- readv t.buf c;
  c.h <- readv t.buf c;
  c.d <- c.base + unzig (readv t.buf c);
  c

let advance buf ~block c =
  (* move to the next entry; false when the hubset is exhausted *)
  c.i <- c.i + 1;
  if c.i >= c.k then false
  else begin
    (if c.i = c.bnd then begin
       (* a block boundary: its first entry is absolutely coded *)
       c.blk <- c.blk + 1;
       c.bnd <- c.bnd + block;
       c.nf <-
         (if c.blk + 1 < c.nb then u32 buf (c.rs + (8 * (c.blk + 1)))
          else max_int);
       c.h <- readv buf c;
       c.d <- c.base + unzig (readv buf c)
     end
     else begin
       let p = c.pos in
       if p + 1 < c.re then begin
         let b0 = Char.code (A1.unsafe_get buf p) in
         let b1 = Char.code (A1.unsafe_get buf (p + 1)) in
         if b0 lor b1 < 0x80 then begin
           (* dominant case: delta hub and zigzag distance are both
              single-byte — decode straight-line *)
           c.pos <- p + 2;
           c.h <- c.h + 1 + b0;
           c.d <- c.base + unzig b1
         end
         else begin
           c.h <- c.h + 1 + readv buf c;
           c.d <- c.base + unzig (readv buf c)
         end
       end
       else begin
         c.h <- c.h + 1 + readv buf c;
         c.d <- c.base + unzig (readv buf c)
       end
     end);
    true
  end

let skip buf ~block c ~target =
  (* leap to the last block whose skip-table first hub is <= target;
     true iff the cursor moved (strictly forward, so the merge always
     terminates). [c.nf] caches the next block's first hub, so the
     common no-skip case is one integer compare. Skip slots are in
     bounds by the shallow room check; a hostile byte offset is
     clamped to the region end. *)
  if target < c.nf then false
  else begin
    let b = ref (c.blk + 1) in
    while !b + 1 < c.nb && u32 buf (c.rs + (8 * (!b + 1))) <= target do incr b
    done;
    c.blk <- !b;
    c.bnd <- (!b + 1) * block;
    c.nf <-
      (if !b + 1 < c.nb then u32 buf (c.rs + (8 * (!b + 1))) else max_int);
    c.i <- !b * block;
    let o = u32 buf (c.rs + (8 * !b) + 4) in
    c.pos <- (if o > c.re - c.rs then c.re else c.rs + o);
    c.h <- readv buf c;
    c.d <- c.base + unzig (readv buf c);
    true
  end

(* The two-pointer merge, tail-recursive so [best] lives in a
   register and no ref cells are allocated. The skip test is inlined
   (one compare against the cached next-block first hub); [skip] is
   only called when it is guaranteed to move the cursor, so the merge
   still strictly advances on every step. *)
let rec merge buf block a b best =
  if a.h = b.h then begin
    let s = Dist.add a.d b.d in
    let best = if s < best then s else best in
    let ma = advance buf ~block a in
    if advance buf ~block b && ma then merge buf block a b best else best
  end
  else if a.h < b.h then
    if b.h < a.nf then
      if advance buf ~block a then merge buf block a b best else best
    else begin
      ignore (skip buf ~block a ~target:b.h);
      merge buf block a b best
    end
  else if a.h < b.nf then
    if advance buf ~block b then merge buf block a b best else best
  else begin
    ignore (skip buf ~block b ~target:a.h);
    merge buf block a b best
  end

let raw_query t u v =
  let eo = t.ent_off in
  let ku = Array.unsafe_get eo (u + 1) - Array.unsafe_get eo u
  and kv = Array.unsafe_get eo (v + 1) - Array.unsafe_get eo v in
  if ku = 0 || kv = 0 then Dist.inf
  else
    let a = cursor t u ~k:ku and b = cursor t v ~k:kv in
    merge t.buf t.block a b Dist.inf

module Core = Label_store.Make (struct
  type t = image

  let module_name = "Compact_hub"
  let backend_name = "compact-hub-labeling"
  let kind = "compact"
  let n t = t.n
  let size t v = t.ent_off.(v + 1) - t.ent_off.(v)

  (* one sequential pass with the query path's clamped reader *)
  let fold_label t v f acc =
    let k = size t v in
    if k = 0 then acc
    else begin
      let c = cursor t v ~k in
      let acc = ref (f acc c.h c.d) in
      while advance t.buf ~block:t.block c do
        acc := f !acc c.h c.d
      done;
      !acc
    end

  let space_words t = (2 * (t.n + 1)) + ((t.blob_len + 7) / 8)
  let raw_query = raw_query
end)

include Core

(* ---------------------------------------------------------------- *)
(* Deep validation: a strict decode of every region — minimal varints
   only, skip table checked against the actual layout, the full
   per-entry contract of Flat_hub.of_raw, and exact consumption. *)

let strict_varint buf ~re ~vertex ~entry pos =
  let fail msg = raise (Bad (Bad_entry { vertex; entry; msg })) in
  let x = ref 0 and shift = ref 0 and cnt = ref 0 in
  let last = ref 0 and fin = ref false in
  while not !fin do
    if !pos >= re then fail "truncated varint";
    if !cnt >= 9 then fail "varint overflows a native int";
    let b = Char.code (A1.get buf !pos) in
    incr pos;
    incr cnt;
    last := b;
    x := !x lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then fin := true
  done;
  if !cnt > 1 && !last = 0 then fail "overlong varint";
  !x

let validate_image t =
  try
    for v = 0 to t.n - 1 do
      let rs = t.blob_base + t.byte_off.(v) in
      let re = t.blob_base + t.byte_off.(v + 1) in
      let k = t.ent_off.(v + 1) - t.ent_off.(v) in
      let fail entry msg = raise (Bad (Bad_entry { vertex = v; entry; msg })) in
      if k = 0 then begin
        if re <> rs then fail 0 "empty hubset with a non-empty region"
      end
      else begin
        let nb = ((k - 1) / t.block) + 1 in
        let pos = ref (rs + (8 * nb)) in
        let base = strict_varint t.buf ~re ~vertex:v ~entry:0 pos in
        if base < 0 then fail 0 "negative distance base";
        let prev = ref (-1) in
        for i = 0 to k - 1 do
          let h =
            if i mod t.block = 0 then begin
              let b = i / t.block in
              if u32 t.buf (rs + (8 * b) + 4) <> !pos - rs then
                fail i "skip-table byte offset mismatch";
              let h = strict_varint t.buf ~re ~vertex:v ~entry:i pos in
              if u32 t.buf (rs + (8 * b)) <> h then
                fail i "skip-table first hub mismatch";
              h
            end
            else !prev + 1 + strict_varint t.buf ~re ~vertex:v ~entry:i pos
          in
          if h < 0 || h >= t.n then fail i "hub out of range";
          if h <= !prev then fail i "hubs must be strictly increasing";
          prev := h;
          let z = strict_varint t.buf ~re ~vertex:v ~entry:i pos in
          let d = base + unzig z in
          if d < 0 then fail i "bad distance"
        done;
        if !pos <> re then fail k "trailing bytes in vertex region"
      end
    done;
    Ok ()
  with Bad e -> Error e

let validate_entries t = validate_image (format t)

(* ---------------------------------------------------------------- *)
(* Loading. *)

let finish_load ~path ~deep ~make res =
  let ( let* ) = Result.bind in
  let res =
    let* image = res in
    let* () = if deep then validate_image image else Ok () in
    Ok (make image)
  in
  (match res with
  | Ok _ -> ()
  | Error e ->
      Repro_obs.Events.emit_ambient ~level:Repro_obs.Events.Warn
        "compact_hub.load_failure"
        [ ("path", Repro_obs.Events.Str path);
          ("msg", Repro_obs.Events.Str (error_to_string e)) ]);
  res

let of_bytes_res ?(cache_slots = 0) ?(deep = false) s =
  let make = Core.make ~cache_slots in
  Repro_obs.Span.run ~name:"compact-hub.parse" (fun () ->
      let bytes = String.length s in
      Repro_obs.Span.count "bytes" bytes;
      let buf =
        A1.init Bigarray.char Bigarray.c_layout bytes (String.unsafe_get s)
      in
      finish_load ~path:"<bytes>" ~deep ~make (validate ~path:"" ~bytes buf))

let load_res ?(cache_slots = 0) ?(deep = false) path =
  let make = Core.make ~cache_slots in
  Repro_obs.Span.run ~name:"compact-hub.load" (fun () ->
      let ( let* ) = Result.bind in
      finish_load ~path ~deep ~make
        (let* buf, bytes = Label_store.map_file Bigarray.char ~min_bytes path in
         Repro_obs.Span.count "bytes" bytes;
         validate ~path ~bytes buf))

(* ---------------------------------------------------------------- *)
(* Accessors. *)

let total_size t = (format t).total
let block t = (format t).block
let path t = (format t).path
let bytes t = (format t).bytes

let bits_per_entry t =
  let i = format t in
  if i.total = 0 then 0. else 8. *. float_of_int i.bytes /. float_of_int i.total

let to_flat t =
  let i = format t in
  let offsets = Array.copy i.ent_off in
  let data = Array.make (2 * i.total) 0 in
  for v = 0 to i.n - 1 do
    let lo = i.ent_off.(v) in
    Array.iteri
      (fun k (h, d) ->
        data.(2 * (lo + k)) <- h;
        data.((2 * (lo + k)) + 1) <- d)
      (hubs t v)
  done;
  Flat_hub.of_raw ~n:i.n ~offsets ~data

let pp ppf t =
  let i = format t in
  Format.fprintf ppf "compact_hub(%s, n=%d, total=%d, block=%d, %dB, cache=%s)"
    (if i.path = "" then "<bytes>" else i.path)
    i.n i.total i.block i.bytes (cache_label t)
