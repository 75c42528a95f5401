(** Deterministic (seeded) fault injection for hardening tests.

    Wraps an oracle function and corrupts, drops or fails a
    configurable fraction of calls, or perturbs label entries
    wholesale. Given the seed and the call sequence, the injected
    faults are fully reproducible, so tests against
    {!Resilient_oracle} are deterministic. *)

open Repro_hub

exception Injected_failure

type mode =
  | Corrupt  (** return a wrong finite distance (off by a few, either way) *)
  | Drop  (** claim the pair is disconnected *)
  | Fail  (** raise {!Injected_failure} *)

type t

val create : seed:int -> fraction:float -> mode -> t
(** @raise Invalid_argument unless [0 <= fraction <= 1]. *)

val wrap : t -> (int -> int -> int) -> int -> int -> int
(** [wrap t f] behaves as [f] except on the injected fraction of
    calls. *)

val wrap_op :
  t -> ('req -> Repro_obs.Ops.response) -> 'req -> Repro_obs.Ops.response
(** [wrap_op t f] is [wrap] for an ops evaluator, drawing from the same
    stream: an injected call raises under [Fail], and otherwise reports
    every distance of [f]'s response as [inf] ([Drop]) or shifted as
    [wrap] shifts one ([Corrupt]). *)

val calls : t -> int
val injected : t -> int

val corrupt_labels : seed:int -> fraction:float -> Hub_label.t -> Hub_label.t
(** Off-by-one perturbation of a fraction of stored distances; the
    result is structurally valid but no longer exact — what a
    bit-rotted label file looks like to {!Hub_verify}. *)

(** {1 Process-level chaos}

    Deterministic chaos plans for the sharded serving tier: a shard
    worker carrying a plan misbehaves exactly once, just before writing
    its [after_frames]-th response frame. Triggering on a frame count
    (not on time) keeps kill/restart scenarios reproducible run to run;
    the supervisor's reaction is what the [@shard-smoke] chaos suite
    locks in. The plan is pure data — applying it (exiting, hanging,
    mangling bytes) is the worker loop's job, since only it holds the
    file descriptors. *)

type proc_fault =
  | Kill  (** exit abruptly, as if OOM-killed — no reply, EOF on the pipe *)
  | Hang  (** stop reading and writing; only a deadline can detect it *)
  | Truncate_frame  (** write half a response frame, then die mid-write *)
  | Corrupt_frame  (** flip payload bytes; the frame arrives but won't parse *)
  | Slow_write  (** dribble the response a byte at a time (slow-loris) *)

type chaos = { after_frames : int; fault : proc_fault }

val chaos : after_frames:int -> proc_fault -> chaos
(** @raise Invalid_argument unless [after_frames >= 1]. *)

val chaos_of_string : string -> (chaos, string) result
(** Parse ["<fault>@<frames>"], e.g. ["kill@8"], ["slow@3"]; faults are
    [kill], [hang], [truncate], [corrupt], [slow]. *)

val chaos_to_string : chaos -> string
