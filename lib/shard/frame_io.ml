(* One connection's frame buffers. Input: [buf.[rd, wr)] holds bytes
   read but not yet framed; a frame is framed in place and only its
   payload copied out. Before each read the unread tail moves to offset
   0, and the buffer grows (to at least twice its size) only when the
   frame at [rd] is larger than the whole buffer. Output: [out.[0, olen)]
   holds queued frames until one write loop sends them. *)

type t = {
  fd : Unix.file_descr;
  fds : Unix.file_descr list;  (* [fd], kept for select *)
  out_fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable rd : int;  (* first unframed byte *)
  mutable wr : int;  (* end of the bytes read *)
  mutable eof : bool;  (* the peer closed its end *)
  mutable out : Bytes.t;
  mutable olen : int;
}

type error = Timeout | Wire_err of Wire.error

let create ?output fd =
  {
    fd;
    fds = [ fd ];
    out_fd = Option.value output ~default:fd;
    buf = Bytes.create 16384;
    rd = 0;
    wr = 0;
    eof = false;
    out = Bytes.create 4096;
    olen = 0;
  }

let capacity t = Bytes.length t.buf
let deadline ns = Int64.add (Monotonic_clock.now ()) ns

(* ----- output -------------------------------------------------------- *)

let queue t frame =
  let len = String.length frame in
  let need = t.olen + len in
  if need > Bytes.length t.out then begin
    let out = Bytes.create (max need (2 * Bytes.length t.out)) in
    Bytes.blit t.out 0 out 0 t.olen;
    t.out <- out
  end;
  Bytes.blit_string frame 0 t.out t.olen len;
  t.olen <- need

let flush t =
  let rec go off =
    if off >= t.olen then Ok ()
    else
      match Unix.write t.out_fd t.out off (t.olen - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
          Error (Wire.Io (Unix.error_message e))
  in
  let r = go 0 in
  t.olen <- 0;
  r

let send t frame =
  queue t frame;
  flush t

(* ----- input --------------------------------------------------------- *)

let ready t =
  t.eof
  ||
  match Wire.decode_frame_bytes t.buf ~pos:t.rd ~limit:t.wr with
  | Error (Wire.Eof | Wire.Truncated _) -> false
  | Ok _ | Error _ -> true

(* Move the unread tail to offset 0 and grow the buffer if the frame at
   its head (header already checked) cannot fit. *)
let make_room t =
  let pending = t.wr - t.rd in
  if t.rd > 0 then begin
    Bytes.blit t.buf t.rd t.buf 0 pending;
    t.rd <- 0;
    t.wr <- pending
  end;
  let need =
    if pending < 4 then 4 else 4 + Int32.to_int (Bytes.get_int32_le t.buf 0)
  in
  if need > Bytes.length t.buf then begin
    let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 pending;
    t.buf <- buf
  end

(* Wait until the descriptor is readable. A deadline already passed
   still polls once, so bytes that have arrived are taken. *)
let rec wait t until =
  match until with
  | None -> Ok ()
  | Some u -> (
      let left = Int64.sub u (Monotonic_clock.now ()) in
      let s =
        if Int64.compare left 0L <= 0 then 0. else Int64.to_float left /. 1e9
      in
      match Unix.select t.fds [] [] s with
      | [], _, _ -> Error Timeout
      | _ -> Ok ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait t until
      | exception Unix.Unix_error (e, _, _) ->
          Error (Wire_err (Wire.Io (Unix.error_message e))))

let rec recv ?until t =
  match Wire.decode_frame_bytes t.buf ~pos:t.rd ~limit:t.wr with
  | Ok (len, next) ->
      let payload = Bytes.sub_string t.buf (t.rd + 4) len in
      if next = t.wr then begin
        t.rd <- 0;
        t.wr <- 0
      end
      else t.rd <- next;
      Ok payload
  | Error (Wire.Eof | Wire.Truncated _) when not t.eof -> (
      make_room t;
      match wait t until with
      | Error _ as e -> e
      | Ok () -> (
          match Unix.read t.fd t.buf t.wr (Bytes.length t.buf - t.wr) with
          | 0 ->
              t.eof <- true;
              recv ?until t
          | k ->
              t.wr <- t.wr + k;
              recv ?until t
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ?until t
          | exception Unix.Unix_error (e, _, _) ->
              Error (Wire_err (Wire.Io (Unix.error_message e)))))
  | Error e -> Error (Wire_err e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
