(** IPC message transport (paper §5.1.6).

    IPC is decoupled from memory management: it never creates,
    destroys or resizes regions.  A send copies the payload from the
    sender's address space into a transit-segment slot — as a
    [cache.copy] (per-virtual-page deferred when alignment allows) or
    a [bcopy] — and a receive moves it out with [cache.move], which
    reassigns whole page frames whenever possible.  Messages are
    limited to 64 KB; larger or sparse transfers belong to the memory
    management operations, not IPC. *)

type message

type endpoint = message Port.t

val make_endpoint : ?name:string -> unit -> endpoint

exception Message_too_big of int

val send : Actor.t -> Transit.t -> dst:endpoint -> addr:int -> len:int -> unit
(** Send [len] bytes at [addr] in the sender's address space.
    @raise Message_too_big beyond 64 KB. *)

val receive : Actor.t -> Transit.t -> endpoint -> addr:int -> int
(** Receive the oldest message into the receiver's address space at
    [addr]; blocks while the queue is empty; returns the length. *)
