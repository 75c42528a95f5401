(** The length-prefixed binary request/response codec of the sharded
    serving tier.

    One protocol drives every transport — a worker's stdin/stdout
    ([hubhard serve worker]), the router's [Unix] socketpairs, and any
    future TCP listener — because frames are self-delimiting:

    {v
    +----------------+---------+-------------------+
    | length (i32 LE)| opcode  | body (length - 1) |
    +----------------+---------+-------------------+
    v}

    [length] counts the payload (opcode byte included), is signed so a
    hostile prefix like [0xFFFFFFFF] surfaces as {!Negative_length}
    rather than a giant allocation, and is capped at {!max_frame_len}
    ({!Oversized}). Integers in bodies are 64-bit little-endian;
    strings are raw bytes running to the end of the frame.

    Every decoding entry point is total: malformed input yields a typed
    {!error}, never an exception and never a hang — the adversarial
    suite in [test_io_adversarial.ml] locks that in. The aggregate
    operations of the {!Repro_obs.Ops} algebra (eccentricity, top-k,
    one-to-many rows — see PAPERS.md/Ducoffe) ride the same framing as
    fresh opcodes ([0x05..0x08] requests, [0x85..0x88] responses); an
    unknown opcode is a per-frame {!Bad_opcode} error that leaves the
    stream in sync. *)

(** {1 Messages} *)

type request =
  | Query of { id : int; u : int; v : int }
      (** point-to-point distance; [id] is echoed in the response *)
  | Ping of { id : int }  (** health check *)
  | Stats of { id : int }  (** request the worker's metrics snapshot *)
  | Shutdown  (** drain and exit; no response *)
  | Op_row of { id : int; source : int; targets : int array }
      (** one-to-many: distances from [source] to each target, in
          order. The target count is derived from the frame length, so
          a list may hold at most [(max_frame_len - 17) / 8] ids. *)
  | Op_ecc of { id : int; v : int }
      (** eccentricity of [v] restricted to the worker's {e owned}
          vertices, with the farthest owned witness *)
  | Op_topk of { id : int; source : int; k : int }
      (** the k nearest {e owned} vertices to [source] *)
  | Op_diam of { id : int }
      (** diameter/radius of the owned-eccentricity set: max and min
          over owned [w] of ecc(w) (the router reduces shard maxima) *)
  | Trace_fetch of { id : int }
      (** request the worker's recorded trace spans (drains nothing;
          the worker's span store is bounded) *)

type response =
  | Answer of { id : int; dist : int; source : int; degraded : bool }
      (** [dist] uses the {!Repro_graph.Dist} convention; [source] is a
          {!source_code}; [degraded] marks answers not served by the
          healthy primary path *)
  | Pong of { id : int }
  | Stats_payload of { id : int; data : string }
      (** [data] is {!Repro_obs.Metrics.snapshot_to_wire} output *)
  | Error_frame of { id : int; code : int; msg : string }
      (** explicit in-band failure: the peer could not serve [id] *)
  | Row_payload of { id : int; dists : int array; source : int; degraded : bool }
      (** answer to [Op_row], distances in request-target order *)
  | Ecc_payload of {
      id : int;
      vertex : int;
      dist : int;
      source : int;
      degraded : bool;
    }
      (** answer to [Op_ecc]: the farthest owned vertex and its
          distance; [vertex = -1] when the shard owns no vertices *)
  | Topk_payload of {
      id : int;
      pairs : (int * int) array;
      source : int;
      degraded : bool;
    }
      (** answer to [Op_topk]: [(vertex, dist)] sorted by
          [(dist, vertex)] ascending *)
  | Diam_payload of {
      id : int;
      diameter : int;
      radius : int;
      vertices : int;
      source : int;
      degraded : bool;
    }
      (** answer to [Op_diam]; [vertices] is the owned count (0 means
          the shard contributed nothing and the router skips it) *)
  | Trace_payload of { id : int; data : string }
      (** [data] is {!Repro_obs.Trace_ctx.spans_to_wire} output *)

(** {1 Source and error codes} *)

val source_primary : int
val source_bidirectional : int
val source_bfs : int
val source_router : int
(** Answers synthesised by the router's local fallback oracle while the
    owning shard is down. *)

val source_code_of_name : string -> int
(** Maps the {!Repro_obs.Trace.t} [source] strings emitted by the
    resilient chain; unknown strings map to a reserved [other] code. *)

val name_of_source_code : int -> string

val err_bad_request : int
val err_unavailable : int

(** {1 Errors} *)

type error =
  | Eof  (** clean end of stream at a frame boundary *)
  | Truncated of { wanted : int; got : int }
      (** stream ended inside a header or body *)
  | Negative_length of int
  | Oversized of int
  | Bad_opcode of int
  | Bad_payload of string
  | Io of string  (** transport-level [Unix] error *)

val error_to_string : error -> string

val max_frame_len : int
(** Upper bound on the payload length accepted or produced (1 MiB). *)

(** {1 Pure string-level codec} *)

val encode_request : request -> string
(** Full frame, header included. *)

val encode_response : response -> string

val decode_frame : string -> pos:int -> (string * int, error) result
(** [(payload, next_pos)] of the frame starting at [pos]; [Eof] when
    [pos] is exactly the end of the buffer. *)

val decode_frame_bytes :
  Bytes.t -> pos:int -> limit:int -> (int * int, error) result
(** {!decode_frame} over the bytes [[pos, limit)] of a buffer, framing
    in place: [(payload_len, next_pos)], the payload being the
    [payload_len] bytes at [pos + 4]. The same checks and errors;
    {!decode_frame} is this plus one copy of the payload. *)

val request_of_payload : string -> (request, error) result
val response_of_payload : string -> (response, error) result

(** {1 Trace-context propagation}

    A request may be wrapped with a trace context: opcode [0x0f], then a
    version byte, a context-length byte, the context block
    ({!Repro_obs.Trace_ctx.encode}, 25 bytes in version 1) and the
    unmodified inner request payload. The wrapper is a {e separate}
    opcode so that a peer that predates it rejects the frame as
    {!Bad_opcode} (stream stays in sync, the caller sees an in-band
    error) and so that context-free frames stay byte-identical to the
    historical encoding. An unknown context {e version} is skipped —
    the inner request still decodes, with no context. Responses never
    carry a context; [0x0f] in a response payload is {!Bad_opcode}. *)

val encode_request_ctx :
  ?ctx:Repro_obs.Trace_ctx.t -> request -> string
(** With [ctx] absent this is exactly {!encode_request}. *)

val request_of_payload_ctx :
  string -> (request * Repro_obs.Trace_ctx.t option, error) result
(** Total, like {!request_of_payload} (which handles every non-[0x0f]
    payload, returning no context). A nested [0x0f] inner payload is
    {!Bad_opcode}. *)

(** {1 Descriptor-level transport}

    Unbuffered, one frame per call: a reader that must not consume a
    byte past its frame. Router and worker serve through the buffered
    {!Frame_io} instead. *)

val read_frame : Unix.file_descr -> (string, error) result
(** Blocking read of one payload. [Eof] on a clean end of stream,
    [Truncated] when the peer died mid-frame, [Io] on transport
    errors; retries [EINTR]. *)

val read_response : Unix.file_descr -> (response, error) result

val write_frame : Unix.file_descr -> string -> (unit, error) result
(** Write a pre-encoded frame (from {!encode_request} /
    {!encode_response}), retrying short writes and [EINTR]; [Io] on a
    broken pipe. *)
