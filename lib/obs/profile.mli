(** Cost-attribution profiler.

    Folds a captured trace ({!Trace}) into a hierarchical cost tree —
    per fault-resolution kind, per primitive, per cache — and
    {e derives} the paper's §5.3.2 overhead decomposition
    (demand-alloc, COW, tree setup, per-page protect) from the
    measured charges, rather than restating the calibrated cost
    profile.  Exports a text report, folded stacks for flamegraphs and
    a JSON document.

    Span nesting is reconstructed per fibre from the close-ordered
    ring: spans sort by (begin ts ascending, duration descending), so
    an enclosing span precedes everything it contains, and a stack
    sweep attaches each ["cost"]-category charge instant to the
    innermost open span.  Fault spans are keyed by their resolution
    argument as ["fault:<resolution>"]. *)

type prim_stat = { prim : string; p_count : int; p_ns : int }

type node = {
  label : string;  (** span name; faults are ["fault:<resolution>"] *)
  cat : string;
  count : int;  (** span instances folded into this node *)
  total_ns : int;  (** sum of span durations *)
  charge_ns : int;  (** charges attached directly to this node *)
  prims : prim_stat list;  (** per-primitive charges, ns-descending *)
  marks : (string * int) list;  (** non-cost instants, by name *)
  children : node list;  (** ns-descending *)
}

type series = {
  samples : int;
  first : int;
  last : int;
  s_min : int;
  s_max : int;
}
(** Summary of one {!Trace.event.Counter} stream over the run. *)

type t = {
  root : node;  (** synthetic root; its own charges fell outside any span *)
  total_charge_ns : int;  (** every charge in the buffer *)
  unattributed_ns : int;  (** charges recorded outside any span *)
  per_cache : (int * int) list;
      (** (cache id, ns) — a charge is attributed to the nearest
          enclosing span carrying a ["cache"] argument *)
  counter_series : (string * series) list;
  n_events : int;
  n_spans : int;
  n_dropped : int;  (** ring overwrites: nonzero means incomplete data *)
}

val of_trace : Trace.t -> t

(** {1 §5.3.2 derivation} *)

type derived = {
  zero_fill_faults : int;
  cow_faults : int;
  copies : int;
  teardown_share_ns : float;
      (** per allocated frame: region-teardown frees spread back over
          the faults that allocated (the paper's per-page numbers
          include this deferred cost) *)
  demand_ns : float option;
      (** per zero-fill fault, structure + teardown share, excluding
          the bzero itself — the paper's 0.27 ms *)
  cow_ns : float option;
      (** per COW fault, excluding the bcopy — the paper's 0.31 ms *)
  tree_setup_ns : float option;
      (** tree_setup charges per copy operation — the paper's 0.03 ms *)
  protect_ns : float option;
      (** mmu_protect inside copy spans, per protected page *)
}
(** Fields are [None] when the trace did not exercise that path. *)

val derive : t -> derived

(** {1 Export} *)

val to_folded : t -> string
(** Folded-stack lines ["a;b;prim ns"], flamegraph.pl/speedscope
    compatible; charges outside any span appear under [(no-span)]. *)

val to_json : t -> Json.t
(** Schema ["chorus-profile/1"]: counts, tree, caches, counter series
    and the derived decomposition (ms). *)

val pp : Format.formatter -> t -> unit
(** Full text report: cost tree, per-cache table, counter series and
    the derived decomposition; warns when the ring dropped events. *)

val pp_derived : Format.formatter -> derived -> unit

(** {1 Per-CPU utilization (simulated CPUs)} *)

val pp_utilization : Format.formatter -> busy:int array -> makespan:int -> unit
(** Busy/idle table per simulated CPU against the run's makespan
    ([busy] from [Hw.Engine.cpu_busy], [makespan] the engine clock
    after the run; all simulated ns).  For each CPU,
    busy + idle = makespan, and the footer derives the parallel
    efficiency: total busy over [CPUs x makespan]. *)
