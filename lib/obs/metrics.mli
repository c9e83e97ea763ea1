(** Metrics registry: named counters, simulated-time histograms and a
    fixed per-primitive cost-attribution table.

    Unlike {!Trace}, which captures the full event stream, a registry
    only keeps aggregates, so it is always on: updates are integer
    arithmetic and never touch the simulated clock.  Registration
    ({!counter}/{!histogram}) is a table probe: hot paths should look
    a handle up once and keep it rather than resolving the name per
    event.  One registry lives on every PVM instance; it subsumes
    the legacy [Core.Types.stats] counters (published into it on
    demand) and additionally aggregates fault-resolution latencies and
    the per-primitive sim-time attribution that the paper's §5.3.2
    decomposition is built from. *)

type t

val create : ?prims:string array -> unit -> t
(** [prims] names the slots of the per-primitive attribution table
    (see {!charge}); defaults to an empty table. *)

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Find or register the counter named [name]. *)

val incr : ?by:int -> counter -> unit
val set : counter -> int -> unit
val value : counter -> int

val counters : t -> (string * int) list
(** All registered counters, sorted by name. *)

(** {1 Simulated-time histograms} *)

type histogram

val histogram : t -> string -> histogram
(** Find or register the histogram named [name]. *)

val observe : histogram -> int -> unit
(** Record one sim-time observation (ns). *)

type hstats = { count : int; sum : int; min : int; max : int }

val histogram_stats : histogram -> hstats

val histograms : t -> (string * hstats) list
(** All registered histograms, sorted by name. *)

(** {1 Per-primitive cost attribution} *)

val charge : t -> idx:int -> ns:int -> unit
(** Attribute [ns] of simulated time to primitive slot [idx] (out of
    range is ignored).  Called by the cost-charging hot path. *)

val prim_report : t -> (string * int * int) list
(** [(name, count, total_ns)] per primitive slot, table order. *)

(** {1 Reporting} *)

val to_json : t -> Json.t
(** Machine-readable report: counters, histograms and the
    per-primitive attribution table (primitives never charged
    omitted). *)

val pp : Format.formatter -> t -> unit
(** Human-readable report. *)
