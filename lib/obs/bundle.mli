(** Crash bundles: one self-contained, machine-readable artifact per
    failure.

    A bundle freezes everything needed to understand and re-drive a
    failed run: which scenario ran (and with which fault injections),
    what kind of failure ended it, the complete schedule-decision
    prefix (the replay key), the engine's trace tail, the full
    observable PVM state with digests, the sanitizer verdict, the
    metrics registries and the watchdog's view.  [chorus replay BUNDLE]
    re-executes the schedule deterministically and checks the outcome
    against the recorded one.

    This module only defines the container and its JSON round-trip;
    assembling a bundle from live state lives in [Check.Forensics]
    (which can see the engine and the PVM), and the schema is
    documented in DESIGN.md §4e. *)

type t = {
  schema : string;  (** always {!schema_version} on bundles we write *)
  scenario : string;  (** chorus scenario name, the replay entry point *)
  inject : string list;  (** fault-injection flags active during the run *)
  kind : string;
      (** failure class: ["invariant"], ["deadlock"], ["watchdog"],
          ["crash"], ["divergence"], or an explorer oracle's
          ["digest-divergence"] / ["non-serializable"] *)
  detail : string;  (** rendered diagnostic (report, exception, ...) *)
  observed : string option;
      (** for an oracle violation, the observable outcome digest the
          oracle rejected — the run itself completed, so replay
          recognises the failure by ending on this digest *)
  sim_now : int;  (** simulated time at capture *)
  schedule : int list;
      (** the recorded scheduling decisions, oldest first — the fibre
          chosen at each multi-ready dispatch, directly consumable by
          the explorer's forced-schedule replay *)
  trace : Json.t;
      (** the engine tracer's ring at capture, as Chrome [trace_event]
          JSON ({!Trace.to_chrome_json}); [Null] when none was given *)
  state : Json.t list;  (** one full state object per PVM, in order *)
  digests : string list;  (** the state objects' digests, in order *)
  violations : Json.t;  (** sanitizer rules that failed, or [Null] *)
  metrics : Json.t list;  (** metrics registries, one per PVM *)
  watchdog : Json.t;  (** blocked-fibre report at capture, or [Null] *)
}

val schema_version : string

val v :
  scenario:string ->
  ?inject:string list ->
  kind:string ->
  detail:string ->
  ?observed:string ->
  sim_now:int ->
  schedule:int list ->
  ?trace:Json.t ->
  ?state:Json.t list ->
  ?digests:string list ->
  ?violations:Json.t ->
  ?metrics:Json.t list ->
  ?watchdog:Json.t ->
  unit ->
  t

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Rejects objects whose ["schema"] is missing or unknown. *)

val filename : t -> string
(** Deterministic suggested basename,
    [bundle-<scenario>-<kind>.json]. *)

val write : dir:string -> t -> string
(** Serialize into [dir] (created if missing) under {!filename};
    returns the full path written. *)

val read : string -> (t, string) result
(** Load and validate a bundle file. *)
