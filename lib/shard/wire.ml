(* Length-prefixed binary frames. See wire.mli for the layout; the
   invariants that matter here:
   - decoding is total: every branch returns a typed error, and body
     reads are bounds-checked before any Bytes access;
   - encoding and decoding agree byte for byte (round-trip property in
     test_shard.ml);
   - the signed-length check runs before any allocation sized by
     attacker-controlled input. *)

type request =
  | Query of { id : int; u : int; v : int }
  | Ping of { id : int }
  | Stats of { id : int }
  | Shutdown
  | Op_row of { id : int; source : int; targets : int array }
  | Op_ecc of { id : int; v : int }
  | Op_topk of { id : int; source : int; k : int }
  | Op_diam of { id : int }
  | Trace_fetch of { id : int }

type response =
  | Answer of { id : int; dist : int; source : int; degraded : bool }
  | Pong of { id : int }
  | Stats_payload of { id : int; data : string }
  | Error_frame of { id : int; code : int; msg : string }
  | Row_payload of { id : int; dists : int array; source : int; degraded : bool }
  | Ecc_payload of {
      id : int;
      vertex : int;
      dist : int;
      source : int;
      degraded : bool;
    }
  | Topk_payload of {
      id : int;
      pairs : (int * int) array;
      source : int;
      degraded : bool;
    }
  | Diam_payload of {
      id : int;
      diameter : int;
      radius : int;
      vertices : int;
      source : int;
      degraded : bool;
    }
  | Trace_payload of { id : int; data : string }

let source_primary = 0
let source_bidirectional = 1
let source_bfs = 2
let source_router = 3
let source_other = 255

let source_code_of_name = function
  | "primary" -> source_primary
  | "bidirectional" -> source_bidirectional
  | "bfs" -> source_bfs
  | "router" -> source_router
  | _ -> source_other

let name_of_source_code c =
  if c = source_primary then "primary"
  else if c = source_bidirectional then "bidirectional"
  else if c = source_bfs then "bfs"
  else if c = source_router then "router"
  else "other"

let err_bad_request = 1
let err_unavailable = 2

type error =
  | Eof
  | Truncated of { wanted : int; got : int }
  | Negative_length of int
  | Oversized of int
  | Bad_opcode of int
  | Bad_payload of string
  | Io of string

let error_to_string = function
  | Eof -> "end of stream"
  | Truncated { wanted; got } ->
      Printf.sprintf "truncated frame: wanted %d bytes, got %d" wanted got
  | Negative_length l -> Printf.sprintf "negative frame length %d" l
  | Oversized l -> Printf.sprintf "oversized frame length %d" l
  | Bad_opcode op -> Printf.sprintf "unknown opcode 0x%02x" op
  | Bad_payload msg -> "bad payload: " ^ msg
  | Io msg -> "io error: " ^ msg

let max_frame_len = 1 lsl 20

(* opcodes: requests in 0x01..0x7f, responses in 0x81..0xff *)
let op_query = 0x01
let op_ping = 0x02
let op_stats = 0x03
let op_shutdown = 0x04
let op_op_row = 0x05
let op_op_ecc = 0x06
let op_op_topk = 0x07
let op_op_diam = 0x08
let op_trace_fetch = 0x09

(* 0x0f wraps another request with a versioned trace-context block; a
   dedicated opcode keeps every pre-context payload byte-identical and
   lets an old peer reject it cleanly as Bad_opcode without losing
   stream sync. *)
let op_ctx = 0x0f
let ctx_version = 1
let op_answer = 0x81
let op_pong = 0x82
let op_stats_payload = 0x83
let op_error = 0x84
let op_row_payload = 0x85
let op_ecc_payload = 0x86
let op_topk_payload = 0x87
let op_diam_payload = 0x88
let op_trace_payload = 0x89

(* ----- encoding ---------------------------------------------------- *)

let frame payload_len fill =
  let b = Bytes.create (4 + payload_len) in
  Bytes.set_int32_le b 0 (Int32.of_int payload_len);
  fill b;
  Bytes.unsafe_to_string b

let put_i64 b off v = Bytes.set_int64_le b off (Int64.of_int v)

let encode_request = function
  | Query { id; u; v } ->
      frame 25 (fun b ->
          Bytes.set_uint8 b 4 op_query;
          put_i64 b 5 id;
          put_i64 b 13 u;
          put_i64 b 21 v)
  | Ping { id } ->
      frame 9 (fun b ->
          Bytes.set_uint8 b 4 op_ping;
          put_i64 b 5 id)
  | Stats { id } ->
      frame 9 (fun b ->
          Bytes.set_uint8 b 4 op_stats;
          put_i64 b 5 id)
  | Shutdown -> frame 1 (fun b -> Bytes.set_uint8 b 4 op_shutdown)
  | Op_row { id; source; targets } ->
      let len = 17 + (8 * Array.length targets) in
      if len > max_frame_len then
        invalid_arg "Wire.encode_request: target list too large";
      frame len (fun b ->
          Bytes.set_uint8 b 4 op_op_row;
          put_i64 b 5 id;
          put_i64 b 13 source;
          Array.iteri (fun i w -> put_i64 b (21 + (8 * i)) w) targets)
  | Op_ecc { id; v } ->
      frame 17 (fun b ->
          Bytes.set_uint8 b 4 op_op_ecc;
          put_i64 b 5 id;
          put_i64 b 13 v)
  | Op_topk { id; source; k } ->
      frame 25 (fun b ->
          Bytes.set_uint8 b 4 op_op_topk;
          put_i64 b 5 id;
          put_i64 b 13 source;
          put_i64 b 21 k)
  | Op_diam { id } ->
      frame 9 (fun b ->
          Bytes.set_uint8 b 4 op_op_diam;
          put_i64 b 5 id)
  | Trace_fetch { id } ->
      frame 9 (fun b ->
          Bytes.set_uint8 b 4 op_trace_fetch;
          put_i64 b 5 id)

(* ctx payload: 0x0f | version | ctx length | ctx bytes | inner payload *)
let encode_request_ctx ?ctx req =
  match ctx with
  | None -> encode_request req
  | Some c ->
      let inner = encode_request req in
      let inner_len = String.length inner - 4 in
      let block = Repro_obs.Trace_ctx.encode c in
      let block_len = String.length block in
      let len = 3 + block_len + inner_len in
      if len > max_frame_len then
        invalid_arg "Wire.encode_request_ctx: frame too large";
      frame len (fun b ->
          Bytes.set_uint8 b 4 op_ctx;
          Bytes.set_uint8 b 5 ctx_version;
          Bytes.set_uint8 b 6 block_len;
          Bytes.blit_string block 0 b 7 block_len;
          Bytes.blit_string inner 4 b (7 + block_len) inner_len)

let encode_response = function
  | Answer { id; dist; source; degraded } ->
      frame 19 (fun b ->
          Bytes.set_uint8 b 4 op_answer;
          put_i64 b 5 id;
          put_i64 b 13 dist;
          Bytes.set_uint8 b 21 (source land 0xff);
          Bytes.set_uint8 b 22 (if degraded then 1 else 0))
  | Pong { id } ->
      frame 9 (fun b ->
          Bytes.set_uint8 b 4 op_pong;
          put_i64 b 5 id)
  | Stats_payload { id; data } ->
      let len = 9 + String.length data in
      if len > max_frame_len then
        invalid_arg "Wire.encode_response: stats payload too large";
      frame len (fun b ->
          Bytes.set_uint8 b 4 op_stats_payload;
          put_i64 b 5 id;
          Bytes.blit_string data 0 b 13 (String.length data))
  | Error_frame { id; code; msg } ->
      let len = 10 + String.length msg in
      if len > max_frame_len then
        invalid_arg "Wire.encode_response: error message too large";
      frame len (fun b ->
          Bytes.set_uint8 b 4 op_error;
          put_i64 b 5 id;
          Bytes.set_uint8 b 13 (code land 0xff);
          Bytes.blit_string msg 0 b 14 (String.length msg))
  | Row_payload { id; dists; source; degraded } ->
      let len = 11 + (8 * Array.length dists) in
      if len > max_frame_len then
        invalid_arg "Wire.encode_response: distance row too large";
      frame len (fun b ->
          Bytes.set_uint8 b 4 op_row_payload;
          put_i64 b 5 id;
          Bytes.set_uint8 b 13 (source land 0xff);
          Bytes.set_uint8 b 14 (if degraded then 1 else 0);
          Array.iteri (fun i d -> put_i64 b (15 + (8 * i)) d) dists)
  | Ecc_payload { id; vertex; dist; source; degraded } ->
      frame 27 (fun b ->
          Bytes.set_uint8 b 4 op_ecc_payload;
          put_i64 b 5 id;
          put_i64 b 13 vertex;
          put_i64 b 21 dist;
          Bytes.set_uint8 b 29 (source land 0xff);
          Bytes.set_uint8 b 30 (if degraded then 1 else 0))
  | Topk_payload { id; pairs; source; degraded } ->
      let len = 11 + (16 * Array.length pairs) in
      if len > max_frame_len then
        invalid_arg "Wire.encode_response: top-k payload too large";
      frame len (fun b ->
          Bytes.set_uint8 b 4 op_topk_payload;
          put_i64 b 5 id;
          Bytes.set_uint8 b 13 (source land 0xff);
          Bytes.set_uint8 b 14 (if degraded then 1 else 0);
          Array.iteri
            (fun i (v, d) ->
              put_i64 b (15 + (16 * i)) v;
              put_i64 b (23 + (16 * i)) d)
            pairs)
  | Diam_payload { id; diameter; radius; vertices; source; degraded } ->
      frame 35 (fun b ->
          Bytes.set_uint8 b 4 op_diam_payload;
          put_i64 b 5 id;
          put_i64 b 13 diameter;
          put_i64 b 21 radius;
          put_i64 b 29 vertices;
          Bytes.set_uint8 b 37 (source land 0xff);
          Bytes.set_uint8 b 38 (if degraded then 1 else 0))
  | Trace_payload { id; data } ->
      let len = 9 + String.length data in
      if len > max_frame_len then
        invalid_arg "Wire.encode_response: trace payload too large";
      frame len (fun b ->
          Bytes.set_uint8 b 4 op_trace_payload;
          put_i64 b 5 id;
          Bytes.blit_string data 0 b 13 (String.length data))

(* ----- pure decoding ------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let check_len ~limit ~pos wanted =
  let got = limit - pos in
  if got >= wanted then Ok () else Error (Truncated { wanted; got })

(* The one header check: every reader frames through here. *)
let decode_frame_bytes b ~pos ~limit =
  if pos < 0 || pos > limit || limit > Bytes.length b then
    Error (Bad_payload "position out of range")
  else if pos = limit then Error Eof
  else
    let* () = check_len ~limit ~pos 4 in
    let len = Int32.to_int (Bytes.get_int32_le b pos) in
    if len < 0 then Error (Negative_length len)
    else if len > max_frame_len then Error (Oversized len)
    else if len = 0 then Error (Bad_payload "empty frame: no opcode")
    else
      let* () = check_len ~limit ~pos:(pos + 4) len in
      Ok (len, pos + 4 + len)

let decode_frame s ~pos =
  let* len, next =
    decode_frame_bytes (Bytes.unsafe_of_string s) ~pos ~limit:(String.length s)
  in
  Ok (String.sub s (pos + 4) len, next)

let get_i64 p off = Int64.to_int (String.get_int64_le p off)

let body_exact p wanted =
  let got = String.length p in
  if got = wanted then Ok ()
  else if got < wanted then Error (Truncated { wanted; got })
  else Error (Bad_payload (Printf.sprintf "%d trailing bytes" (got - wanted)))

let check_payload_min p wanted =
  let got = String.length p in
  if got >= wanted then Ok () else Error (Truncated { wanted; got })

let request_of_payload p =
  if String.length p = 0 then Error (Bad_payload "empty frame: no opcode")
  else
    let op = Char.code p.[0] in
    if op = op_query then
      let* () = body_exact p 25 in
      Ok (Query { id = get_i64 p 1; u = get_i64 p 9; v = get_i64 p 17 })
    else if op = op_ping then
      let* () = body_exact p 9 in
      Ok (Ping { id = get_i64 p 1 })
    else if op = op_stats then
      let* () = body_exact p 9 in
      Ok (Stats { id = get_i64 p 1 })
    else if op = op_shutdown then
      let* () = body_exact p 1 in
      Ok Shutdown
    else if op = op_op_row then
      let* () = check_payload_min p 17 in
      let rest = String.length p - 17 in
      if rest mod 8 <> 0 then
        Error (Bad_payload "op_row: target bytes not a multiple of 8")
      else
        Ok
          (Op_row
             {
               id = get_i64 p 1;
               source = get_i64 p 9;
               targets = Array.init (rest / 8) (fun i -> get_i64 p (17 + (8 * i)));
             })
    else if op = op_op_ecc then
      let* () = body_exact p 17 in
      Ok (Op_ecc { id = get_i64 p 1; v = get_i64 p 9 })
    else if op = op_op_topk then
      let* () = body_exact p 25 in
      Ok (Op_topk { id = get_i64 p 1; source = get_i64 p 9; k = get_i64 p 17 })
    else if op = op_op_diam then
      let* () = body_exact p 9 in
      Ok (Op_diam { id = get_i64 p 1 })
    else if op = op_trace_fetch then
      let* () = body_exact p 9 in
      Ok (Trace_fetch { id = get_i64 p 1 })
    else Error (Bad_opcode op)

(* Context-aware request decoding: 0x0f unwraps to (request, Some ctx);
   everything else falls through to the plain decoder with ctx = None.
   The inner payload is decoded by [request_of_payload] itself, so a
   nested 0x0f is rejected as Bad_opcode rather than recursed into. *)
let request_of_payload_ctx p =
  if String.length p > 0 && Char.code p.[0] = op_ctx then
    let* () = check_payload_min p 3 in
    let version = Char.code p.[1] in
    let block_len = Char.code p.[2] in
    let* () = check_payload_min p (3 + block_len) in
    let* ctx =
      if version <> ctx_version then
        (* forward compatibility: an unknown context version is skipped,
           not fatal — the inner request still decodes *)
        Ok None
      else if block_len <> Repro_obs.Trace_ctx.encoded_len then
        Error
          (Bad_payload
             (Printf.sprintf "trace context v1: bad length %d" block_len))
      else
        match Repro_obs.Trace_ctx.decode p ~pos:3 with
        | Ok ctx -> Ok (Some ctx)
        | Error msg -> Error (Bad_payload msg)
    in
    let inner = String.sub p (3 + block_len) (String.length p - 3 - block_len) in
    let* req = request_of_payload inner in
    Ok (req, ctx)
  else
    let* req = request_of_payload p in
    Ok (req, None)

let response_of_payload p =
  if String.length p = 0 then Error (Bad_payload "empty frame: no opcode")
  else
    let op = Char.code p.[0] in
    if op = op_answer then
      let* () = body_exact p 19 in
      Ok
        (Answer
           {
             id = get_i64 p 1;
             dist = get_i64 p 9;
             source = Char.code p.[17];
             degraded = Char.code p.[18] <> 0;
           })
    else if op = op_pong then
      let* () = body_exact p 9 in
      Ok (Pong { id = get_i64 p 1 })
    else if op = op_stats_payload then
      let* () = check_payload_min p 9 in
      Ok
        (Stats_payload
           { id = get_i64 p 1; data = String.sub p 9 (String.length p - 9) })
    else if op = op_error then
      let* () = check_payload_min p 10 in
      Ok
        (Error_frame
           {
             id = get_i64 p 1;
             code = Char.code p.[9];
             msg = String.sub p 10 (String.length p - 10);
           })
    else if op = op_row_payload then
      let* () = check_payload_min p 11 in
      let rest = String.length p - 11 in
      if rest mod 8 <> 0 then
        Error (Bad_payload "row_payload: distance bytes not a multiple of 8")
      else
        Ok
          (Row_payload
             {
               id = get_i64 p 1;
               source = Char.code p.[9];
               degraded = Char.code p.[10] <> 0;
               dists = Array.init (rest / 8) (fun i -> get_i64 p (11 + (8 * i)));
             })
    else if op = op_ecc_payload then
      let* () = body_exact p 27 in
      Ok
        (Ecc_payload
           {
             id = get_i64 p 1;
             vertex = get_i64 p 9;
             dist = get_i64 p 17;
             source = Char.code p.[25];
             degraded = Char.code p.[26] <> 0;
           })
    else if op = op_topk_payload then
      let* () = check_payload_min p 11 in
      let rest = String.length p - 11 in
      if rest mod 16 <> 0 then
        Error (Bad_payload "topk_payload: pair bytes not a multiple of 16")
      else
        Ok
          (Topk_payload
             {
               id = get_i64 p 1;
               source = Char.code p.[9];
               degraded = Char.code p.[10] <> 0;
               pairs =
                 Array.init (rest / 16) (fun i ->
                     (get_i64 p (11 + (16 * i)), get_i64 p (19 + (16 * i))));
             })
    else if op = op_diam_payload then
      let* () = body_exact p 35 in
      Ok
        (Diam_payload
           {
             id = get_i64 p 1;
             diameter = get_i64 p 9;
             radius = get_i64 p 17;
             vertices = get_i64 p 25;
             source = Char.code p.[33];
             degraded = Char.code p.[34] <> 0;
           })
    else if op = op_trace_payload then
      let* () = check_payload_min p 9 in
      Ok
        (Trace_payload
           { id = get_i64 p 1; data = String.sub p 9 (String.length p - 9) })
    else Error (Bad_opcode op)

(* ----- descriptor-level transport ----------------------------------- *)

let rec read_exact fd buf off len =
  if len = 0 then Ok ()
  else
    match Unix.read fd buf off len with
    | 0 -> Error (Truncated { wanted = off + len; got = off })
    | k -> read_exact fd buf (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf off len
    | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

let decode_after_header fd header =
  let len = Int32.to_int (Bytes.get_int32_le header 0) in
  if len < 0 then Error (Negative_length len)
  else if len > max_frame_len then Error (Oversized len)
  else if len = 0 then Error (Bad_payload "empty frame: no opcode")
  else
    let body = Bytes.create len in
    match read_exact fd body 0 len with
    | Error _ as e -> e
    | Ok () -> Ok (Bytes.unsafe_to_string body)

let rec read_frame fd =
  let header = Bytes.create 4 in
  match Unix.read fd header 0 4 with
  | 0 -> Error Eof
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* nothing was consumed; retry the whole frame read *)
      read_frame fd
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | k -> (
      match read_exact fd header k (4 - k) with
      | Error _ as e -> e
      | Ok () -> decode_after_header fd header)

let read_response fd =
  match read_frame fd with
  | Error _ as e -> e
  | Ok p -> response_of_payload p

let write_frame fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off len =
    if len = 0 then Ok ()
    else
      match Unix.write fd b off len with
      | k -> go (off + k) (len - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  in
  go 0 (String.length s)
