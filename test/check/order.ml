(* Eight fibres waking at the same instant append their index to a
   list: the list is the dispatch order the engine chose for them,
   under [scheduler] if given.  Fibre [i] has affinity [i], so on an
   engine with simulated CPUs each runs as lane slices and the list is
   the order of those slices; the sequential engine ignores affinity.
   [engine] (default sequential) lets the caller pick the CPU count and
   read the run's {!Hw.Engine.decisions} afterwards. *)
let spawn_eight engine order =
  for i = 1 to 8 do
    Hw.Engine.spawn engine ~affinity:i (fun () ->
        Hw.Engine.sleep 10;
        order := i :: !order)
  done;
  Hw.Engine.sleep 20

let dispatch ?scheduler ?(engine = Hw.Engine.create ()) () =
  Option.iter (Hw.Engine.set_scheduler engine) scheduler;
  let order = ref [] in
  Hw.Engine.run_fn engine (fun () -> spawn_eight engine order);
  List.rev !order

let seeded ?engine seed =
  dispatch ~scheduler:(Hw.Engine.seeded_scheduler seed) ?engine ()

let show order = String.concat "," (List.map string_of_int order)

(* The same program as a scenario, observed as its rendered order, so
   the explorer's forced-pick driver can re-drive a recorded schedule
   of it. *)
let scenario =
  {
    Check.Scenario.name = "order";
    oracle = No_oracle;
    run =
      (fun engine ~register:_ ->
        let order = ref [] in
        spawn_eight engine order;
        fun () -> show (List.rev !order));
  }
