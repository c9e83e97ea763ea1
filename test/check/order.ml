(* Eight fibres waking at the same instant append their index to a
   list: the list is the dispatch order the engine chose for them,
   under [scheduler] if given and with an enabled flight recorder if
   [flight]. *)
let dispatch ?scheduler ?(flight = false) () =
  let engine = Hw.Engine.create () in
  Option.iter (Hw.Engine.set_scheduler engine) scheduler;
  if flight then begin
    let fl = Obs.Flight.create () in
    Obs.Flight.enable fl;
    Hw.Engine.set_flight engine fl
  end;
  let order = ref [] in
  Hw.Engine.run_fn engine (fun () ->
      for i = 1 to 8 do
        Hw.Engine.spawn engine (fun () ->
            Hw.Engine.sleep 10;
            order := i :: !order)
      done;
      Hw.Engine.sleep 20);
  List.rev !order

let seeded seed = dispatch ~scheduler:(Hw.Engine.seeded_scheduler seed) ()
