(** Reusable scratch buffers for kernels that may run on several
    domains at once.

    A kernel {!take}s a buffer, uses it and {!give}s it back. Two
    callers never hold the same buffer, so concurrent calls — pool
    tasks or unrelated domains — stay independent, and a warm caller
    allocates no buffer: the set holds at most as many buffers as were
    ever in use at the same time. A buffer that is not given back (its
    user raised) is simply dropped. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** An empty set; [make ()] builds a buffer when none is free. *)

val take : 'a t -> 'a
(** A free buffer, or a fresh one from [make]. *)

val give : 'a t -> 'a -> unit
(** Return a buffer taken from this set. Its user restores whatever
    state {!take}'s callers expect of it first. *)
