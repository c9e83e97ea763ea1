(** Structured tracing over the simulated clock.

    A tracer is an in-memory ring buffer of typed events — spans,
    instants and counters — timestamped in integer nanoseconds of
    simulated time and attributed to the fibre that emitted them.  The
    clock and fibre sources are injected by the simulation engine
    ({!Hw.Engine.set_tracer}), keeping this library free of upward
    dependencies.

    Tracing is zero-cost when disabled: every recording entry point
    checks {!enabled} first and returns before any formatting or
    allocation; a never-enabled tracer (in particular {!null}, the
    default sink of every engine) records nothing and perturbs
    nothing.

    On an engine with simulated CPUs, a lane slice stages its events
    until the engine commits them with their final CPU placement and
    clock shift ({!slice_commit}); the commit also records one span per
    slice in category ["cpu"], the per-CPU tracks of the timeline.

    Captured traces export to Chrome [trace_event] JSON — loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} — and
    to a compact text rendering. *)

type value = Int of int | Str of string
type args = (string * value) list

type event =
  | Span of {
      name : string;
      cat : string;
      ts : int;  (** simulated ns at span begin *)
      dur : int;  (** simulated ns between begin and end *)
      fib : int;  (** engine fibre id *)
      args : args;
    }
  | Instant of { name : string; cat : string; ts : int; fib : int; args : args }
  | Counter of { name : string; ts : int; value : int }

type t

val create : ?capacity:int -> unit -> t
(** A fresh, disabled tracer.  [capacity] bounds the ring buffer
    (default 262144 events); once full, the oldest events are
    overwritten and counted in {!dropped}. *)

val null : t
(** The shared never-enabled sink: {!enable} on it is a no-op, so
    instrumentation threaded through it short-circuits forever. *)

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit
val clear : t -> unit

val length : t -> int
(** Buffered events. *)

val dropped : t -> int
(** Events overwritten because the ring buffer was full, or not staged
    because a slice outgrew it. *)

(** {1 Lane slices} *)

val slice_begin : t -> unit
(** Engine hook: a lane slice starts; subsequent records are staged
    until {!slice_commit} fixes their clocks. *)

val slice_commit : t -> cpu:int -> fib:int -> t0:int -> t1:int -> shift:int -> unit
(** Engine hook: the lane slice completed and was placed on simulated
    CPU [cpu] over [\[t0, t1\]] with its virtual clock shifted forward
    by [shift].  Staged events move to the ring with final timestamps
    (a span opened in an earlier slice closes against its own
    slice's placement), plus one ["slice"] span in category ["cpu"]
    carrying [fib] as argument — the raw material of the per-CPU
    tracks and the utilization report. *)

val set_clock : t -> (unit -> int) -> unit
(** Inject the simulated-time source (ns). *)

val set_fibre : t -> (unit -> int) -> unit
(** Inject the current-fibre-id source. *)

val name_fibre : t -> int -> string -> unit
(** Label a fibre id; exported as Chrome [thread_name] metadata. *)

val span_begin : t -> ?cat:string -> string -> unit
(** Open a span on the current fibre's span stack. *)

val span_end : ?args:args -> t -> unit
(** Close the innermost open span of the current fibre, recording one
    {!event.Span} with its begin timestamp and duration.  [args] are
    attached at close time (e.g. a fault's resolution kind, known only
    once resolved). *)

val with_span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] wraps [f] in a span; the span is closed even
    if [f] raises. *)

val instant : t -> ?cat:string -> ?args:args -> string -> unit
val counter : t -> string -> int -> unit

val charge : t -> prim:string -> span:int -> unit
(** Per-primitive cost attribution: records an instant event in
    category ["cost"] named after the primitive, with the charged span
    as argument, at the simulated instant the charge begins. *)

val events : t -> event list
(** Buffered events, oldest first (recording order; spans are recorded
    when they close, a lane slice's events when it commits). *)

val to_chrome_json : t -> string
(** The whole buffer as Chrome [trace_event] JSON ([ts]/[dur] in
    microseconds, as the format requires), events sorted by timestamp
    with enclosing spans first.  The {!dropped} count is exported as
    [otherData.droppedEvents]; nonzero means the trace is only a
    suffix of the run.  Traces with lane slices add a second process
    (pid 2, named "simulated CPUs") with one thread per simulated CPU
    holding that CPU's slice spans. *)

val pp_text : Format.formatter -> t -> unit
(** Compact text rendering, one event per line. *)
