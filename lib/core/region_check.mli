(** Shared regionCreate argument validation (Table 2), used by every
    GMI implementation (PVM, minimal, simulator) so malformed requests
    fail with uniform [Invalid_argument] messages. *)

val validate :
  page_size:int ->
  ctx_alive:bool ->
  cache_alive:bool ->
  addr:int ->
  size:int ->
  offset:int ->
  overlaps:bool ->
  unit
(** Reject a regionCreate request whose context or cache is destroyed,
    whose size is not positive, whose address/size/offset are not
    page-aligned, or which overlaps an existing region ([overlaps]:
    the caller's walk of its context's live regions found one that
    meets [addr, addr+size), by {!overlap}).  Checks run in that
    order.
    @raise Invalid_argument with a ["regionCreate: ..."] message. *)

val overlap : addr:int -> size:int -> int -> int -> bool
(** [overlap ~addr ~size a s]: do [addr, addr+size) and [a, a+s)
    meet? *)
