(** Simulated time.

    The whole reproduction runs against a discrete-event clock rather
    than wall-clock time: the paper's measurements are reproduced by
    charging calibrated costs (see {!Cost}) for each hardware-level
    primitive the algorithms execute.  Time is counted in integer
    nanoseconds since the start of the simulation. *)

type t = int
(** An instant, in nanoseconds since simulation start. *)

type span = int
(** A duration in nanoseconds. *)

val zero : t

val ns : int -> span
(** [ns n] is a span of [n] nanoseconds. *)

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val to_us_float : span -> float
val to_ms_float : span -> float

val pp : Format.formatter -> t -> unit
(** Prints a time in the most readable unit, e.g. ["1.40ms"]. *)
