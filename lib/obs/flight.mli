(** Flight recorder: an always-on, allocation-light binary ring of
    engine events.

    Where {!Trace} captures rich, named spans for offline profiling,
    the flight recorder is the black box: a fixed [int array] ring of
    fixed-width records — task dispatches, scheduling decisions and
    shared-object accesses — cheap enough to leave running under any
    workload, plus an unbounded (but tiny: one int per multi-ready
    dispatch) log of the scheduling {e decisions} taken.  After a
    crash the decision prefix replays the run deterministically
    through the forced-pick driver [Check.Explore.run_forced] (which
    both [Check.Explore.replay] and [Check.Forensics] use), and the ring tail
    shows the last moments before the failure.

    Recording a record is four int stores and two increments; no
    allocation ever happens on the recording path after the first
    record (the ring array is allocated lazily, the decision log grows
    by doubling).  A disabled recorder (in particular {!null}, the
    default of every engine) records nothing. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh, disabled recorder.  [capacity] bounds the ring in
    records (default 65536); once full, the oldest records are
    overwritten and counted in {!dropped}.  The decision log is not
    bounded — decisions are the replay key and must never be lost. *)

val null : t
(** The shared never-enabled recorder: {!enable} on it is a no-op. *)

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val clear : t -> unit
(** Empty the ring and the decision log. *)

val length : t -> int
(** Records currently buffered in the ring. *)

val dropped : t -> int
(** Records overwritten because the ring was full; nonzero means
    {!entries} is only the tail of the run. *)

(** {1 Recording} — called by the engine; no-ops when disabled. *)

val record_dispatch : t -> fib:int -> time:int -> unit
(** A task of [fib] started running at simulated [time]. *)

val record_choice : t -> nready:int -> fib:int -> unit
(** A multi-ready dispatch chose [fib] among [nready] equal-time
    tasks.  Also appends [fib] to the decision log. *)

val record_access : t -> fib:int -> a:int -> b:int -> unit
(** The running slice of [fib] touched shared object [(a, b)] (the
    {!Hw.Engine.note_access} footprint). *)

val record_mark : t -> code:int -> arg:int -> unit
(** A free-form marker (watchdog alarms, failure points). *)

(** {1 Reading back} *)

val decisions : t -> int list
(** Every scheduling decision of the run, oldest first — the fibre
    chosen at each multi-ready dispatch, exactly the schedule format
    [Check.Explore.run_forced] consumes. *)

val decision_count : t -> int

type entry =
  | Dispatch of { fib : int; time : int }
  | Choice of { nready : int; fib : int; decision : int }
      (** [decision] is this choice's index in {!decisions} *)
  | Access of { fib : int; a : int; b : int }
  | Mark of { code : int; arg : int }

val entries : t -> entry list
(** Buffered ring records, oldest first. *)

val to_json : t -> Json.t
(** The ring tail and the decision log as one JSON object
    ([{"dropped"; "decisions"; "events"}]) — the flight section of a
    crash bundle. *)

val pp : Format.formatter -> t -> unit
(** Compact text rendering of the ring tail, one record per line. *)
