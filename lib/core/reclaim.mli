(** The reclaim queue: the frames of every resident page, oldest
    first, as a doubly linked list threaded through two int arrays
    indexed by frame number.

    {!push}, {!remove}, {!mem}, {!oldest} and {!newer} are O(1) and
    allocate nothing.  Walking {!oldest}, {!newer}, ... visits the
    queued frames in push order.  Every mutation runs under the owning
    PVM's mm lock (the parallel engine) and notes the frame pool. *)

type t = private {
  rq_next : int array;
      (** [rq_next.(i)]: the frame queued after [i], or [capacity] (the
          sentinel) when [i] is the newest; [rq_next.(capacity)] is the
          oldest frame ([capacity] when empty).  [-1]: [i] not queued. *)
  rq_prev : int array;
      (** the reverse links; [rq_prev.(capacity)] is the newest frame. *)
  mutable rq_len : int;  (** the number of queued frames *)
}

val create : frames:int -> t
(** An empty queue for frame numbers [0 .. frames - 1]. *)

val capacity : t -> int
(** The number of frames the queue can hold; also the sentinel's slot. *)

val length : t -> int
val mem : t -> int -> bool

val push : t -> int -> unit
(** Queue frame [i] as the newest entry.
    @raise Invalid_argument if [i] is already queued. *)

val remove : t -> int -> unit
(** Unlink frame [i]; no-op if it is not queued. *)

val oldest : t -> int
(** The oldest queued frame, or [-1] when the queue is empty. *)

val newer : t -> int -> int
(** The frame queued right after [i] (which must be queued), or [-1]
    when [i] is the newest. *)
