(** The Chorus/MIX process manager (paper §5.1.5).

    A Unix process is a Chorus actor hosting a single thread.  [exec]
    maps the image's text segment (rgnMap, shared), initialises the
    data segment as a deferred copy (rgnInit), and allocates bss and
    stack (rgnAllocate).  [fork] shares the text with the child
    (rgnMapFromActor) and creates the child's data, bss and stack as
    deferred copies of the parent's (rgnInitFromActor) — the Unix
    workload history objects were designed for. *)

type manager
type t

type state = Running | Zombie of int (* exit status *) | Reaped

val text_base : int
val data_base : int
val bss_base : int
val stack_base : int
val stack_size : int

val create_manager : Nucleus.Site.t -> Image.store -> manager
val transit : manager -> Nucleus.Transit.t
val site : manager -> Nucleus.Site.t

val spawn_init : manager -> image:string -> t
(** The first process: a fresh actor exec'ing [image]. *)

val fork : manager -> t -> t
val exec : manager -> t -> image:string -> unit
val exit_ : manager -> t -> status:int -> unit

val wait : manager -> t -> (t * int) option
(** Reap one zombie child, if any ([None] when all children run). *)

val pid : t -> int
val state : t -> state
val actor : t -> Nucleus.Actor.t
val image_name : t -> string
val live_processes : manager -> int

val read : t -> addr:int -> len:int -> Bytes.t
val write : t -> addr:int -> Bytes.t -> unit

val sbrk : manager -> t -> int -> int
(** Grow the process's heap by the given number of bytes (rounded up
    to whole pages), Unix-style: allocates anonymous memory adjacent
    to the current break and returns the old break address. *)

val brk : t -> int
(** The current break (first unallocated heap address). *)
