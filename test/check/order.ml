(* Eight fibres waking at the same instant append their index to a
   list: the list is the dispatch order the engine chose for them,
   under [scheduler] if given.  [engine] lets the caller read the
   run's {!Hw.Engine.decisions} afterwards. *)
let spawn_eight engine order =
  for i = 1 to 8 do
    Hw.Engine.spawn engine (fun () ->
        Hw.Engine.sleep 10;
        order := i :: !order)
  done;
  Hw.Engine.sleep 20

let dispatch ?scheduler ?(engine = Hw.Engine.create ()) () =
  Option.iter (Hw.Engine.set_scheduler engine) scheduler;
  let order = ref [] in
  Hw.Engine.run_fn engine (fun () -> spawn_eight engine order);
  List.rev !order

let seeded seed = dispatch ~scheduler:(Hw.Engine.seeded_scheduler seed) ()

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
