(* Oracle-twin cross-validation (see crossval.mli).

   The driver is deliberately dumb: build the workload twice from
   scratch — once per engine — and compare the observable digests.
   Nothing is shared between the two runs, so a mismatch can only come
   from the engines executing the same program differently. *)

type outcome = {
  o_name : string;
  o_seq : string;
  o_par : string;
  o_cpus : int;
  o_ok : bool;
}

let run_on ?(domains = 0) (s : Scenario.t) =
  Scenario.digest (fst (Scenario.exec (Hw.Engine.create ~domains ()) s))

let run_pair ?(domains = 4) (s : Scenario.t) =
  let o_seq = run_on ~domains:0 s in
  let o_par = run_on ~domains s in
  {
    o_name = s.name;
    o_seq;
    o_par;
    o_cpus = domains;
    o_ok = String.equal o_seq o_par;
  }

let pp_outcome ppf (o : outcome) =
  if o.o_ok then
    Format.fprintf ppf "%-10s OK    digest %s (sequential = %d CPUs)"
      o.o_name o.o_seq o.o_cpus
  else
    Format.fprintf ppf
      "%-10s FAIL  sequential %s, %d CPUs %s — the simulated CPUs \
       diverged from the oracle"
      o.o_name o.o_seq o.o_cpus o.o_par
