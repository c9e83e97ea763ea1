(** Oracle-twin cross-validation: run the same workload on the
    sequential engine and on an engine with simulated CPUs and require
    identical observable state.

    The sequential engine is the reference semantics — every checker
    (DPOR, sanitizer, forced replay) is defined against it.  Lanes must
    refine it: for workloads whose outcome is schedule-independent
    (serial-class programs, or programs whose racing fibres touch
    disjoint fragments), {!Core.Inspect.digest} after the run must be
    byte-identical on both engines at any CPU count.  Worker fibres
    may use non-zero [affinity] to actually run in lanes, as
    {!Scenario.storm}'s do. *)

type outcome = {
  o_name : string;
  o_seq : string;  (** concatenated digests on the sequential engine *)
  o_par : string;  (** same, on simulated CPUs *)
  o_domains : int;
  o_ok : bool;
}

val run_on : ?domains:int -> Scenario.t -> string
(** Run the scenario on a fresh engine ([domains = 0]: sequential, the
    default) until it drains and return the {!Scenario.digest} of the
    PVMs it registered. *)

val run_pair : ?domains:int -> Scenario.t -> outcome
(** Run the scenario on the sequential engine, then again from scratch
    on [domains] simulated CPUs (default 4), and compare digests. *)

val pp_outcome : Format.formatter -> outcome -> unit
