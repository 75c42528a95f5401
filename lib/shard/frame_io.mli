(** Buffered {!Wire} frame transport over one connection: the one place
    router and worker read and write frames.

    Each side of a connection keeps one reusable input buffer with read
    and write cursors. A read takes as many bytes as the descriptor
    offers, so one [read] can land a whole pipelined window; frames are
    then framed where they lie ({!Wire.decode_frame_bytes}, the same
    header checks as {!Wire.decode_frame}) and only each payload is
    copied out. The buffer starts small, compacts in place by blitting
    the unread tail to offset 0, and grows geometrically only when one
    frame needs more room than it has, so its capacity stays at most
    [2 * (largest frame + 4)], or its initial 16 KiB.

    Output is queued: {!queue} appends encoded frames and {!flush}
    writes them with one write loop, so a window of requests (or the
    responses to every buffered request) costs one [write].

    The surface is deliberately small — send frames, wait for a frame
    under a deadline, close — so that a second transport (an in-memory
    simulated network) can implement the same operations. *)

type t

val create : ?output:Unix.file_descr -> Unix.file_descr -> t
(** [create fd] reads frames from [fd] and writes to [output] (default
    [fd]). The input buffer starts at 16 KiB, the output buffer at
    4 KiB. Nothing is read or written. *)

val capacity : t -> int
(** Current input buffer size in bytes. *)

(** {1 Deadlines} *)

val deadline : int64 -> int64
(** [deadline ns] is the instant [ns] nanoseconds from now on the
    monotonic clock (CLOCK_MONOTONIC), the only clock {!recv} measures
    deadlines on: stepping the wall clock neither fires nor stretches
    a wait. *)

(** {1 Sending} *)

val queue : t -> string -> unit
(** Append one encoded frame ({!Wire.encode_request},
    {!Wire.encode_response}) to the output buffer. Nothing is written
    until {!flush}. *)

val flush : t -> (unit, Wire.error) result
(** Write every queued byte, retrying short writes and [EINTR]. [Io] on
    a transport error (a peer that hung up surfaces as [EPIPE] when
    [SIGPIPE] is ignored). The output buffer is empty afterwards either
    way. *)

val send : t -> string -> (unit, Wire.error) result
(** {!queue} then {!flush}. *)

(** {1 Receiving} *)

type error =
  | Timeout  (** the deadline passed before a whole frame arrived *)
  | Wire_err of Wire.error

val ready : t -> bool
(** A whole frame, or a header error, is buffered: {!recv} returns
    without touching the descriptor. *)

val recv : ?until:int64 -> t -> (string, error) result
(** The next frame's payload. Reads only when no whole frame is
    buffered. With [until] (a {!deadline}) the wait for bytes is
    bounded: [Timeout] once the deadline has passed and no more bytes
    are readable — bytes already readable are still taken, so a past
    deadline polls. Without it the wait blocks. At end of stream:
    [Eof] at a frame boundary, [Truncated] inside a frame with the
    frame's real counts ([wanted = 4] inside the header, the payload
    length inside the body). A bad header ([Negative_length],
    [Oversized], an empty frame) is returned as soon as its four bytes
    are in: nothing after it can be framed. Retries [EINTR]. *)

val close : t -> unit
(** Close [fd], ignoring errors. A separate [output] descriptor stays
    open for its owner to close. *)
