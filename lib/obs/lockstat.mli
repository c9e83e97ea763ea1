(** Lock contention records.  The simulation runs on one OS domain and
    takes no lock, so nothing produces a {!snapshot} any more: every
    lock-statistics list in the libraries is empty.  What is left is
    the surface the wall-clock benchmark's frozen per-layer rows
    name. *)

type snapshot = {
  name : string;
  acquires : int;
  waits : int; (* acquisitions that found the lock held *)
  wait_ns : int; (* wall-clock *)
  hold_ns : int;
  max_wait_ns : int;
  max_hold_ns : int;
}
(** perfbench is its only reader. *)

val enable_timing : clock:(unit -> int) -> unit
(** perfbench is its only caller; a no-op. *)

val disable_timing : unit -> unit
(** perfbench is its only caller; a no-op. *)
