(** Simulated physical memory: a pool of page frames.

    Each frame is backed by a real [Bytes.t] buffer, so every
    deferred-copy optimisation in the memory managers can be validated
    bit-for-bit against an eager-copy oracle.  The allocator is a free
    list, as in the PVM; frame descriptors are the "real page
    descriptors" of paper §4.1.1 minus the cache back-pointer (which
    belongs to the memory manager, see {!Core.Page}).

    The free list is a LIFO stack — the most recently freed frame is
    the next one handed out — so a run allocates the same frame
    indices every time, and neither {!alloc_index} nor {!free}
    allocates. *)

type t

type frame = private {
  index : int;  (** physical frame number *)
  bytes : Bytes.t;  (** the frame's contents; length = page size *)
}

val create : ?page_size:int -> frames:int -> unit -> t
(** [create ~frames ()] builds a pool of [frames] page frames.
    [page_size] defaults to 8192 bytes (the Sun-3/60 page size).
    @raise Invalid_argument if [frames <= 0] or [page_size <= 0]. *)

val page_size : t -> int
val total_frames : t -> int
val free_frames : t -> int
val used_frames : t -> int

exception Out_of_memory

val alloc : t -> frame
(** Takes the most recently freed frame off the free list.  The frame
    contents are whatever the previous user left there (as on real
    hardware); callers that need zeroed memory must {!bzero} it.
    @raise Out_of_memory when the pool is exhausted. *)

val alloc_opt : t -> frame option

val alloc_index : t -> int
(** Like {!alloc_opt}, as the frame's index ([-1] when the pool is
    exhausted): allocates nothing.  {!frame} gives the frame. *)

val frame : t -> int -> frame
(** [frame t i] is frame number [i] of the pool. *)

val free : t -> frame -> unit
(** Returns a frame to the head of the free list.
    @raise Invalid_argument if the frame is already free. *)

val is_allocated : t -> frame -> bool

val bzero : frame -> unit
(** Fill a frame with zeroes (the paper's [bzero]). *)

val bcopy : src:frame -> dst:frame -> unit
(** Copy the full contents of [src] into [dst] (the paper's [bcopy]).
    @raise Invalid_argument on page-size mismatch. *)

val read : frame -> off:int -> len:int -> Bytes.t
val write : frame -> off:int -> Bytes.t -> unit

val fill : frame -> char -> unit
(** Fill a frame with a given byte; test/workload helper. *)

val pp_stats : Format.formatter -> t -> unit
