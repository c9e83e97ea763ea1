(** Per-domain rows of integer cells: contention-free counters.

    A cell set is a fixed-width row of plain ints, one row per domain
    that has written to it.  A domain registers its row on first use
    and from then on updates only that row, with plain loads and
    stores: no atomic read-modify-write, no lock and no cache line
    shared with another writer.  Readers combine the rows (sum for
    counts, min/max for extremes), so a total is exact once the
    writers are quiescent (joined, or parked behind the engine's
    barrier) and a best-effort snapshot before that.

    Rows are indexed by a dense per-domain slot, not by
    [Domain.self]: a live domain holds one slot, taken on its first
    cell write and handed back when it exits, and a later domain may
    reuse it.  Reuse is exact because the slot's previous holder is
    dead, and its release happens-before the new holder's claim.
    Two running domains never share a row, whatever their ids. *)

type t

val create : int array -> t
(** [create init]: a cell set whose rows have the width of [init] and
    start as a copy of it (e.g. [max_int] for a running minimum). *)

val mine : t -> int array
(** The calling domain's row, registered on first use.  Only the
    calling domain may write it; keep writes to [r.(i) <- r.(i) + n]
    or a min/max update. *)

val fold : t -> ('a -> int array -> 'a) -> 'a -> 'a
(** Fold over every registered row, in slot order.  Takes no lock.
    Rows must not be retained or written by the callback. *)

val sum : t -> int -> int
(** [sum t i]: cell [i] summed over every row. *)

val reset : t -> unit
(** Restore every row to [init].  Quiescence only. *)
