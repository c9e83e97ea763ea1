(** The single global map of the PVM (paper §4.1.1, Figure 2).

    Real page descriptors are hashed by (cache, offset in segment); an
    entry may instead be a {e synchronization page stub} — the page is
    in transit between memory and its segment, and any access sleeps
    until the transfer completes (§4.1.2) — or a per-virtual-page
    copy-on-write stub (§4.3).  The map's size depends only on real
    memory, never on segment or address-space sizes (§4.1). *)

val peek : Types.pvm -> Types.cache -> off:int -> Types.entry option
(** Internal bookkeeping probe (free: a real implementation would hold
    a direct pointer). *)

val set : Types.pvm -> Types.cache -> off:int -> Types.entry -> unit
val remove : Types.pvm -> Types.cache -> off:int -> unit

val try_install : Types.pvm -> Types.cache -> off:int -> Types.entry -> bool
(** Install the entry iff the slot is empty; returns whether it was
    installed.  [peek = None] followed by [set], in one probe. *)

val wait_not_in_transit :
  Types.pvm -> Types.cache -> off:int -> Types.entry option
(** Sleep while a synchronization stub covers the slot; returns the
    entry current when no transfer is pending (never a
    [Sync_stub]). *)

val insert_sync_stub : Types.pvm -> Types.cache -> off:int -> Hw.Engine.Cond.t
(** Mark the page in transit; future accesses sleep on the returned
    condition.  Charged a stub insert, after the stub is in. *)

val claim_sync_stub : Types.pvm -> Types.cache -> off:int -> Hw.Engine.Cond.t
(** {!insert_sync_stub} uncharged: an eviction's claim on its victim,
    before any scheduling point. *)

val finish_sync_stub :
  Types.pvm ->
  Types.cache ->
  off:int ->
  Hw.Engine.Cond.t ->
  Types.entry option ->
  unit
(** Replace the stub with the final entry (or nothing) and wake the
    sleepers. *)
