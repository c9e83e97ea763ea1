(** Ports (paper §5.1.1): addresses to which messages can be sent,
    plus a queue holding messages received but not yet consumed.
    Receivers block on an empty queue. *)

type 'a t

val create : ?name:string -> unit -> 'a t
val name : 'a t -> string

val send : 'a t -> 'a -> unit
(** Enqueue a message and wake a waiting receiver. *)

val receive : 'a t -> 'a
(** Dequeue the oldest message, blocking the calling fibre while the
    queue is empty.  Must run inside {!Hw.Engine.run}. *)

val pending : 'a t -> int
