(** Oracle-twin cross-validation: run the same workload on the
    cooperative sequential engine and on the domain-parallel engine
    and require identical observable state.

    The sequential engine is the reference semantics — every checker
    (DPOR, sanitizer, forced replay) is defined against it.  The
    parallel engine must refine it: for workloads whose outcome is
    schedule-independent (serial-class programs, or programs whose
    racing fibres touch disjoint fragments), {!Core.Inspect.digest}
    after the run must be byte-identical on both engines at any domain
    count.  Worker fibres may use non-zero [affinity] to actually
    exercise the domain pool, as {!Scenario.storm}'s do. *)

type outcome = {
  o_name : string;
  o_seq : string;  (** concatenated digests on the sequential engine *)
  o_par : string;  (** same, on the parallel engine *)
  o_domains : int;
  o_ok : bool;
}

val run_on : ?domains:int -> Scenario.t -> string
(** Run the scenario on a fresh engine ([domains = 0]: sequential, the
    default) until it drains and return the {!Scenario.digest} of the
    PVMs it registered. *)

val run_pair : ?domains:int -> Scenario.t -> outcome
(** Run the scenario on the sequential engine, then again from scratch
    on a parallel engine with [domains] workers (default 4), and
    compare digests. *)

val pp_outcome : Format.formatter -> outcome -> unit
