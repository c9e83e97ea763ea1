(* Tests of the simulated machine: discrete-event engine (task order,
   determinism, fibres, condition variables, daemons, deadlock
   detection, hand-off), physical memory, MMU, protections. *)

(* --- Engine --------------------------------------------------------- *)

(* Fibre [i] of [scripts] logs [(i, now)] when it starts and after each
   of its sleeps. *)
let engine_wakes scripts =
  let engine = Hw.Engine.create () in
  let log = ref [] in
  let note i = log := (i, Hw.Engine.now engine) :: !log in
  Hw.Engine.run engine (fun () ->
      List.iteri
        (fun i spans ->
          Hw.Engine.spawn engine (fun () ->
              note i;
              List.iter
                (fun span ->
                  Hw.Engine.sleep span;
                  note i)
                spans))
        scripts);
  List.rev !log

(* The same log, from a model of the task order with no heap: every
   spawn and every sleep's wake-up takes the next sequence number (the
   main fibre has 0, so fibre [i] starts with [i + 1]), and the pending
   step least in (time, seq) runs next. *)
let model_wakes scripts =
  let seq = ref 0 in
  let stamp time i spans =
    incr seq;
    (time, !seq, i, spans)
  in
  let pending = ref (List.mapi (fun i spans -> stamp 0 i spans) scripts) in
  let log = ref [] in
  while !pending <> [] do
    let ((time, _, i, spans) as next) =
      List.fold_left min (List.hd !pending) !pending
    in
    pending := List.filter (( != ) next) !pending;
    log := (i, time) :: !log;
    match spans with
    | [] -> ()
    | span :: rest -> pending := stamp (time + span) i rest :: !pending
  done;
  List.rev !log

let test_engine_wakes_in_time_order () =
  let spans = [ 5; 1; 4; 1; 3; 9; 2 ] in
  let woken =
    engine_wakes (List.map (fun s -> [ s ]) spans)
    |> List.filter (fun (_, t) -> t > 0)
  in
  Alcotest.(check (list (pair int int)))
    "by wake time, the two 1s in spawn order"
    [ (1, 1); (3, 1); (6, 2); (4, 3); (2, 4); (0, 5); (5, 9) ]
    woken

(* Up to 40 fibres keep the heap growing and sifting; spans of 0 and
   repeats make equal-time ties. *)
let prop_engine_wakes_in_order =
  QCheck.Test.make ~count:300 ~name:"wakes in (time, seq) order"
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (list_of_size Gen.(int_bound 8) (int_bound 20)))
    (fun scripts -> engine_wakes scripts = model_wakes scripts)

let test_engine_time_and_order () =
  let engine = Hw.Engine.create () in
  let log = ref [] in
  Hw.Engine.run engine (fun () ->
      log := ("start", Hw.Engine.now engine) :: !log;
      Hw.Engine.spawn engine (fun () ->
          Hw.Engine.sleep 50;
          log := ("b", Hw.Engine.now engine) :: !log);
      Hw.Engine.sleep 10;
      log := ("a", Hw.Engine.now engine) :: !log;
      Hw.Engine.sleep 100;
      log := ("c", Hw.Engine.now engine) :: !log);
  Alcotest.(check (list (pair string int)))
    "events in simulated-time order"
    [ ("c", 110); ("b", 50); ("a", 10); ("start", 0) ]
    !log

let test_engine_deterministic () =
  let run () =
    let engine = Hw.Engine.create () in
    let log = ref [] in
    Hw.Engine.run engine (fun () ->
        for i = 0 to 4 do
          Hw.Engine.spawn engine (fun () ->
              Hw.Engine.sleep ((i * 7) mod 3);
              log := i :: !log)
        done);
    !log
  in
  Alcotest.(check (list int)) "two runs identical" (run ()) (run ())

(* A finished fibre is garbage once [run] returns: the event heap
   must not keep its task — and everything the closure captured —
   reachable from a vacated slot. *)
let test_engine_releases_finished () =
  let engine = Hw.Engine.create () in
  let w = Weak.create 1 in
  let[@inline never] run_holder () =
    let buf = Bytes.make 100_000 'x' in
    Weak.set w 0 (Some buf);
    Hw.Engine.run engine (fun () ->
        Hw.Engine.spawn engine (fun () ->
            Hw.Engine.sleep 5;
            ignore (Sys.opaque_identity (Bytes.length buf))))
  in
  run_holder ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "captured buffer collected" true
    (Option.is_none (Weak.get w 0));
  ignore (Sys.opaque_identity engine)

let test_engine_ties_fifo () =
  let engine = Hw.Engine.create () in
  let log = ref [] in
  Hw.Engine.run engine (fun () ->
      for i = 0 to 3 do
        Hw.Engine.spawn engine (fun () -> log := i :: !log)
      done);
  Alcotest.(check (list int)) "same-time fibres run in spawn order"
    [ 3; 2; 1; 0 ] !log

let test_cond_broadcast () =
  let engine = Hw.Engine.create () in
  let woken = ref 0 in
  Hw.Engine.run engine (fun () ->
      let cond = Hw.Engine.Cond.create () in
      for _ = 1 to 3 do
        Hw.Engine.spawn engine (fun () ->
            Hw.Engine.Cond.wait cond;
            incr woken)
      done;
      Hw.Engine.spawn engine (fun () ->
          Hw.Engine.sleep 5;
          Alcotest.(check int) "three waiters parked" 3
            (Hw.Engine.Cond.waiters cond);
          Hw.Engine.Cond.broadcast cond));
  Alcotest.(check int) "all woken" 3 !woken

let test_deadlock_detected () =
  let engine = Hw.Engine.create () in
  Alcotest.check_raises "stuck fibre detected" (Hw.Engine.Deadlock 1)
    (fun () ->
      Hw.Engine.run engine (fun () ->
          let cond = Hw.Engine.Cond.create () in
          Hw.Engine.Cond.wait cond))

let test_daemon_not_deadlock () =
  let engine = Hw.Engine.create () in
  (* a parked daemon is fine *)
  Hw.Engine.run engine (fun () ->
      let cond = Hw.Engine.Cond.create () in
      Hw.Engine.spawn engine ~daemon:true (fun () -> Hw.Engine.Cond.wait cond));
  ()

(* --- watchdog ----------------------------------------------------- *)

(* Two fibres each waiting on a resource the other holds: the
   blocked-on graph closes a cycle the moment the second one parks,
   and the run dies of Watchdog (not of queue-drain Deadlock).  The
   waiters are lane fibres, so on simulated CPUs they park in lane
   slices; without, affinity is ignored and they park in serial
   slices. *)
let test_watchdog_flags_cross_block domains () =
  let engine = Hw.Engine.create ~domains () in
  Hw.Engine.enable_watchdog engine ();
  let tr = Obs.Trace.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  let r1 = Hw.Engine.Cond.create () in
  let r2 = Hw.Engine.Cond.create () in
  (* run's main fibre is 1; the two spawns below are 2 and 3 *)
  Hw.Engine.Cond.set_owner r1 2;
  Hw.Engine.Cond.set_owner r2 3;
  let raised =
    try
      Hw.Engine.run engine (fun () ->
          Hw.Engine.spawn engine ~name:"a" ~affinity:1 (fun () ->
              Hw.Engine.declare_wait engine ~on:"r2"
                ~owner:(Hw.Engine.Cond.owner r2) ();
              Hw.Engine.Cond.wait r2);
          Hw.Engine.spawn engine ~name:"b" ~affinity:2 (fun () ->
              Hw.Engine.declare_wait engine ~on:"r1"
                ~owner:(Hw.Engine.Cond.owner r1) ();
              Hw.Engine.Cond.wait r1));
      false
    with Hw.Engine.Watchdog diag ->
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length diag
          && (String.sub diag i n = sub || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("diagnostic names " ^ sub) true (has sub))
        [ "deadlock cycle of 2 fibre(s)"; "blocked on r1"; "blocked on r2" ];
      true
  in
  Alcotest.(check bool) "cycle raised Watchdog" true raised;
  (match Hw.Engine.watchdog_metrics engine with
  | None -> Alcotest.fail "watchdog metrics missing"
  | Some m ->
    Alcotest.(check bool) "deadlock counted" true
      (Obs.Metrics.value (Obs.Metrics.counter m "watchdog.deadlocks") >= 1));
  Alcotest.(check bool) "blocked report lists the fibres" true
    (String.length (Hw.Engine.blocked_report engine) > 0);
  Alcotest.(check bool) "tracer holds a watchdog deadlock instant" true
    (List.exists
       (function
         | Obs.Trace.Instant { cat = "watchdog"; name = "deadlock"; _ } -> true
         | _ -> false)
       (Obs.Trace.events tr))

(* Slow but live: a waiter parked well under the stall threshold whose
   broadcast does arrive must trip nothing. *)
let test_watchdog_spares_slow_but_live () =
  let engine = Hw.Engine.create () in
  Hw.Engine.enable_watchdog engine
    ~stall_after:(Hw.Sim_time.ms 1000) ();
  let c = Hw.Engine.Cond.create () in
  Hw.Engine.run engine (fun () ->
      Hw.Engine.spawn engine (fun () ->
          Hw.Engine.declare_wait engine ~on:"slow" ();
          Hw.Engine.Cond.wait c);
      Hw.Engine.spawn engine (fun () ->
          for _ = 1 to 20 do
            Hw.Engine.sleep (Hw.Sim_time.ms 25)
          done;
          Hw.Engine.Cond.broadcast c));
  match Hw.Engine.watchdog_metrics engine with
  | None -> Alcotest.fail "watchdog metrics missing"
  | Some m ->
    Alcotest.(check int) "no stalls" 0
      (Obs.Metrics.value (Obs.Metrics.counter m "watchdog.stalls"));
    Alcotest.(check int) "no deadlocks" 0
      (Obs.Metrics.value (Obs.Metrics.counter m "watchdog.deadlocks"))

(* A genuinely overdue waiter is counted as a stall — visibly, but
   not fatally: the late broadcast still lets the run finish. *)
let test_watchdog_counts_stall () =
  let engine = Hw.Engine.create () in
  Hw.Engine.enable_watchdog engine ~stall_after:(Hw.Sim_time.ms 10) ();
  let c = Hw.Engine.Cond.create () in
  Hw.Engine.run engine (fun () ->
      Hw.Engine.spawn engine ~name:"waiter" (fun () ->
          Hw.Engine.declare_wait engine ~on:"late" ();
          Hw.Engine.Cond.wait c);
      Hw.Engine.spawn engine (fun () ->
          for _ = 1 to 50 do
            Hw.Engine.sleep (Hw.Sim_time.ms 1)
          done;
          Hw.Engine.Cond.broadcast c));
  match Hw.Engine.watchdog_metrics engine with
  | None -> Alcotest.fail "watchdog metrics missing"
  | Some m ->
    Alcotest.(check bool) "stall counted" true
      (Obs.Metrics.value (Obs.Metrics.counter m "watchdog.stalls") >= 1);
    Alcotest.(check int) "but no deadlock" 0
      (Obs.Metrics.value (Obs.Metrics.counter m "watchdog.deadlocks"));
    Alcotest.(check bool) "stall diagnostic kept" true
      (Hw.Engine.last_stall engine <> None)

let test_fibre_exception_propagates () =
  let engine = Hw.Engine.create () in
  Alcotest.check_raises "exception escapes run" (Failure "boom") (fun () ->
      Hw.Engine.run engine (fun () ->
          Hw.Engine.sleep 3;
          failwith "boom"))

let test_run_fn_returns () =
  let engine = Hw.Engine.create () in
  let v =
    Hw.Engine.run_fn engine (fun () ->
        Hw.Engine.sleep 42;
        "result")
  in
  Alcotest.(check string) "value returned" "result" v;
  Alcotest.(check int) "time advanced" 42 (Hw.Engine.now engine)

(* Random fibre trees (spawns, sleeps, cond handoffs) must replay
   identically: the engine is deterministic by construction. *)
let prop_engine_deterministic =
  let gen =
    QCheck.Gen.(list_size (int_range 1 30) (pair (int_bound 3) (int_bound 20)))
  in
  QCheck.Test.make ~count:150 ~name:"engine runs are deterministic"
    (QCheck.make
       ~print:(fun l ->
         String.concat ";"
           (List.map (fun (k, t) -> Printf.sprintf "(%d,%d)" k t) l))
       gen)
    (fun script ->
      let run () =
        let engine = Hw.Engine.create () in
        let log = ref [] in
        let cond = Hw.Engine.Cond.create () in
        Hw.Engine.run engine (fun () ->
            List.iteri
              (fun i (kind, t) ->
                Hw.Engine.spawn engine (fun () ->
                    match kind with
                    | 0 ->
                      Hw.Engine.sleep t;
                      log := (i, Hw.Engine.now engine) :: !log
                    | 1 ->
                      Hw.Engine.Cond.wait cond;
                      log := (i, Hw.Engine.now engine) :: !log
                    | 2 ->
                      Hw.Engine.sleep t;
                      Hw.Engine.Cond.broadcast cond;
                      log := (i, Hw.Engine.now engine) :: !log
                    | _ ->
                      Hw.Engine.sleep (t / 2);
                      Hw.Engine.spawn engine (fun () ->
                          log := (1000 + i, Hw.Engine.now engine) :: !log)))
              script;
            (* make sure waiters always get released *)
            Hw.Engine.sleep 1000;
            Hw.Engine.Cond.broadcast cond);
        !log
      in
      run () = run ())

(* With no scheduler, watchdog or event hook, nothing observes a
   dispatch, so it skips the run loop: a user fibre whose wake-up
   would be the next task advances the clock in place, and a fibre
   that parks hands off to the next parked fibre from the effect
   handler.  Random programs of sleeps (zero and equal-time ties
   included), spawns, cond waits and broadcasts, nested runs of a
   second engine, a fibre that raises and periodic daemons must end
   the same way (outcome and clock) and log the same (fibre, now)
   steps as under [fifo_scheduler], which always takes the run loop.
   The run ends by installing a scheduler that records the sequence
   numbers it is shown, so the numbering the in-place advance leaves
   behind is compared too. *)
type step =
  | Sleep of int
  | Spawn of int
  | Wait of int
  | Broadcast of int
  | Nested of int
  | Raise

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (20, map (fun t -> Sleep t) (int_bound 6));
        (4, map (fun t -> Spawn t) (int_bound 6));
        (4, map (fun c -> Wait c) (int_bound 1));
        (8, map (fun c -> Broadcast c) (int_bound 1));
        (4, map (fun t -> Nested t) (int_bound 6));
        (1, return Raise);
      ])

let print_step = function
  | Sleep t -> Printf.sprintf "sleep %d" t
  | Spawn t -> Printf.sprintf "spawn %d" t
  | Wait c -> Printf.sprintf "wait %d" c
  | Broadcast c -> Printf.sprintf "broadcast %d" c
  | Nested t -> Printf.sprintf "nested %d" t
  | Raise -> "raise"

let run_program ~sched (fibres, daemons) =
  let engine = Hw.Engine.create () in
  if sched then Hw.Engine.set_scheduler engine Hw.Engine.fifo_scheduler;
  let log = ref [] in
  let note () =
    log := (Hw.Engine.current_fibre engine, Hw.Engine.now engine) :: !log
  in
  let conds = Array.init 2 (fun _ -> Hw.Engine.Cond.create ()) in
  let seqs = ref [] in
  let recorder =
    {
      Hw.Engine.fifo_scheduler with
      sched_pick =
        (fun ~now:_ ready ->
          Array.iter (fun r -> seqs := r.Hw.Engine.rt_seq :: !seqs) ready;
          0);
    }
  in
  let step = function
    | Sleep t -> Hw.Engine.sleep t
    | Spawn t ->
      Hw.Engine.spawn engine (fun () ->
          note ();
          Hw.Engine.sleep t;
          note ())
    | Wait c -> Hw.Engine.Cond.wait conds.(c)
    | Broadcast c -> Hw.Engine.Cond.broadcast conds.(c)
    | Nested t ->
      (* Two switching fibres of a second engine, logged as fibres
         1000 and up. *)
      let inner = Hw.Engine.create () in
      if sched then Hw.Engine.set_scheduler inner Hw.Engine.fifo_scheduler;
      let note_inner () =
        log :=
          (1000 + Hw.Engine.current_fibre inner, Hw.Engine.now inner) :: !log
      in
      Hw.Engine.run inner (fun () ->
          Hw.Engine.spawn inner (fun () ->
              Hw.Engine.sleep t;
              note_inner ());
          Hw.Engine.sleep 1;
          note_inner ();
          Hw.Engine.sleep t;
          note_inner ())
    | Raise ->
      failwith (Printf.sprintf "fibre %d" (Hw.Engine.current_fibre engine))
  in
  let outcome =
    match
      Hw.Engine.run engine (fun () ->
          List.iter
            (fun period ->
              Hw.Engine.spawn engine ~daemon:true (fun () ->
                  while true do
                    Hw.Engine.sleep period;
                    note ();
                    Array.iter Hw.Engine.Cond.broadcast conds
                  done))
            daemons;
          List.iter
            (fun script ->
              Hw.Engine.spawn engine (fun () ->
                  List.iter
                    (fun s ->
                      step s;
                      note ())
                    script))
            fibres;
          Hw.Engine.sleep 50;
          Array.iter Hw.Engine.Cond.broadcast conds;
          Hw.Engine.set_scheduler engine recorder;
          Hw.Engine.spawn engine (fun () -> Hw.Engine.sleep 1);
          Hw.Engine.sleep 1;
          note ())
    with
    | () -> "done"
    | exception Hw.Engine.Deadlock n -> Printf.sprintf "deadlock %d" n
    | exception Failure m -> "raised in " ^ m
  in
  (outcome, Hw.Engine.now engine, List.rev !log, List.rev !seqs)

let prop_clock_advance_preserves_schedule =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 5) (list_size (int_bound 12) gen_step))
        (list_size (int_bound 2) (int_range 1 7)))
  in
  let print (fibres, daemons) =
    Printf.sprintf "fibres [%s] daemons [%s]"
      (String.concat " | "
         (List.map
            (fun s -> String.concat "; " (List.map print_step s))
            fibres))
      (String.concat "; " (List.map string_of_int daemons))
  in
  QCheck.Test.make ~count:300
    ~name:"hand-off keeps the fifo schedule"
    (QCheck.make ~print gen)
    (fun prog -> run_program ~sched:false prog = run_program ~sched:true prog)

(* A daemon never advances in place: its wake-up is dropped once the
   last user fibre exits, and that is what ends the run. *)
let test_daemon_ends_with_users () =
  let engine = Hw.Engine.create () in
  let ticks = ref 0 in
  Hw.Engine.run engine (fun () ->
      Hw.Engine.spawn engine ~daemon:true (fun () ->
          while true do
            Hw.Engine.sleep 1;
            incr ticks;
            if !ticks > 1000 then failwith "daemon outlived its users"
          done);
      Hw.Engine.sleep 10);
  Alcotest.(check int) "clock stops with the last user fibre" 10
    (Hw.Engine.now engine);
  Alcotest.(check int) "daemon ticked until then" 9 !ticks

(* Whatever observes dispatches sees every one, the start and one per
   sleep: an event hook, a scheduler's picks, the watchdog's checks. *)
let test_observers_see_every_sleep () =
  let five_sleeps engine =
    Hw.Engine.run engine (fun () ->
        for _ = 1 to 5 do
          Hw.Engine.sleep 3
        done)
  in
  let events = ref 0 in
  let engine = Hw.Engine.create () in
  Hw.Engine.set_event_hook engine (fun () -> incr events);
  five_sleeps engine;
  Alcotest.(check int) "event hook" 6 !events;
  let picks = ref 0 in
  let engine = Hw.Engine.create () in
  Hw.Engine.set_scheduler engine
    {
      Hw.Engine.fifo_scheduler with
      sched_pick = (fun ~now:_ _ -> incr picks; 0);
    };
  five_sleeps engine;
  Alcotest.(check int) "scheduler picks" 6 !picks;
  let engine = Hw.Engine.create () in
  let metrics = Obs.Metrics.create () in
  Hw.Engine.enable_watchdog engine ~check_every:1 ~metrics ();
  five_sleeps engine;
  Alcotest.(check int) "watchdog checks" 6
    (Obs.Metrics.value (Obs.Metrics.counter metrics "watchdog.checks"))

(* The in-place advance allocates nothing. *)
let test_clock_advance_allocates_nothing () =
  let engine = Hw.Engine.create () in
  let n = 10_000 in
  let words =
    Hw.Engine.run_fn engine (fun () ->
        Hw.Engine.sleep 1;
        let before = Gc.minor_words () in
        for _ = 1 to n do
          Hw.Engine.sleep 1
        done;
        Gc.minor_words () -. before)
  in
  Alcotest.(check int) "clock advanced" (n + 1) (Hw.Engine.now engine);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d sleeps" words n)
    true
    (words < 16.)

(* A fibre switch allocates the continuation OCaml must capture and the
   closure that resumes it — not a task record, an effect payload, a
   handler closure or heap-sift closures; [note_ambient] allocates
   nothing at all; and a park/resume through [Cond] stays under 40
   words.  Minor words are sampled from inside the run, after every
   fibre has been spawned, so set-up is not counted. *)
let test_switch_allocates_a_continuation () =
  let n = 10_000 in
  let measure body =
    let engine = Hw.Engine.create () in
    let before = ref 0. and after = ref 0. in
    Hw.Engine.run engine (fun () ->
        Hw.Engine.spawn engine (fun () -> body 0);
        Hw.Engine.spawn engine (fun () ->
            body 1;
            after := Gc.minor_words ());
        before := Gc.minor_words ());
    (engine, !after -. !before)
  in
  (* The second fibre starts 5 ns late, so each 10 ns sleep wakes
     after the other fibre's next wake-up: every sleep switches. *)
  let engine, words =
    measure (fun i ->
        Hw.Engine.sleep (5 * i);
        for _ = 1 to n do
          Hw.Engine.sleep 10
        done)
  in
  Alcotest.(check int) "both fibres ran to the end" ((10 * n) + 5)
    (Hw.Engine.now engine);
  let per_sleep = words /. float_of_int (2 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per switching sleep (at most 8)" per_sleep)
    true (per_sleep <= 8.);
  let words =
    Hw.Engine.run_fn (Hw.Engine.create ()) (fun () ->
        Hw.Engine.note_ambient 1 1;
        let before = Gc.minor_words () in
        for i = 1 to n do
          Hw.Engine.note_ambient ~write:false i 0
        done;
        Gc.minor_words () -. before)
  in
  Alcotest.(check (float 0.)) "minor words for 10k note_ambient calls" 0. words;
  let c = Hw.Engine.Cond.create () in
  let _, words =
    measure (fun _ ->
        for _ = 1 to n do
          Hw.Engine.Cond.broadcast c;
          Hw.Engine.Cond.wait c
        done;
        Hw.Engine.Cond.broadcast c)
  in
  let per_park = words /. float_of_int (2 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per Cond park (at most 40)" per_park)
    true (per_park <= 40.)

(* An unobserved switch resumes the next fibre from the effect handler,
   in tail position, so a chain of hand-offs keeps the host stack flat:
   with the stack limit lowered to 32k words, 1M switching sleeps
   between two fibres and 100k Cond park/resume rounds still finish.
   A hand-off that kept one frame per switch would overflow. *)
let test_hand_off_stack_flat () =
  let two_fibres body =
    let engine = Hw.Engine.create () in
    Hw.Engine.run engine (fun () ->
        for i = 0 to 1 do
          Hw.Engine.spawn engine (fun () -> body i)
        done);
    Hw.Engine.now engine
  in
  let n = 500_000 and rounds = 50_000 in
  let c = Hw.Engine.Cond.create () in
  let saved = Gc.get () in
  Gc.set { saved with stack_limit = 32 * 1024 };
  let slept, parked =
    Fun.protect
      ~finally:(fun () -> Gc.set saved)
      (fun () ->
        let slept =
          two_fibres (fun i ->
              Hw.Engine.sleep (5 * i);
              for _ = 1 to n do
                Hw.Engine.sleep 10
              done)
        in
        let parked = ref 0 in
        ignore
          (two_fibres (fun _ ->
               for _ = 1 to rounds do
                 Hw.Engine.Cond.broadcast c;
                 Hw.Engine.Cond.wait c;
                 incr parked
               done;
               Hw.Engine.Cond.broadcast c)
            : Hw.Sim_time.t);
        (slept, !parked))
  in
  Alcotest.(check int) "1M switching sleeps" ((10 * n) + 5) slept;
  Alcotest.(check int) "100k Cond rounds" (2 * rounds) parked

(* [ambient] names the engine whose fibre is running: none outside
   [run] and none in code the run loop calls between fibres. *)
let test_ambient_answers () =
  let is eng =
    match Hw.Engine.ambient () with Some e -> e == eng | None -> false
  in
  let none () = Option.is_none (Hw.Engine.ambient ()) in
  Alcotest.(check bool) "None outside run" true (none ());
  let outer = Hw.Engine.create () and inner = Hw.Engine.create () in
  let seen = ref [] in
  let see what ok = seen := (what, ok) :: !seen in
  Hw.Engine.run outer (fun () ->
      see "serial fibre" (is outer);
      Hw.Engine.run inner (fun () ->
          see "fibre of a nested run" (is inner);
          Hw.Engine.sleep 3;
          see "nested fibre after a switch" (is inner));
      see "after the nested run" (is outer);
      Hw.Engine.sleep 2;
      see "after a switch" (is outer));
  let cpus = Hw.Engine.create ~domains:2 () in
  Hw.Engine.run cpus (fun () ->
      Hw.Engine.spawn cpus ~affinity:1 (fun () ->
          see "lane slice" (is cpus && Hw.Engine.in_parallel_slice ())));
  let hooked = Hw.Engine.create () in
  let hook_none = ref true and hook_calls = ref 0 in
  Hw.Engine.set_event_hook hooked (fun () ->
      incr hook_calls;
      if not (none ()) then hook_none := false);
  Hw.Engine.set_scheduler hooked
    {
      Hw.Engine.sched_pick =
        (fun ~now:_ _ ->
          if not (none ()) then hook_none := false;
          0);
      sched_step =
        (fun ~fib:_ ~accesses:_ -> if not (none ()) then hook_none := false);
    };
  Hw.Engine.run hooked (fun () ->
      Hw.Engine.spawn hooked (fun () -> Hw.Engine.sleep 1);
      Hw.Engine.sleep 1);
  see "hook, pick and step" (!hook_calls > 0 && !hook_none);
  List.iter
    (fun (what, ok) -> Alcotest.(check bool) what true ok)
    (List.rev !seen);
  Alcotest.(check bool) "None after run" true (none ());
  (* A hook declaring a wait must not label the next fibre's park. *)
  let engine = Hw.Engine.create () in
  Hw.Engine.enable_watchdog engine ();
  Hw.Engine.set_event_hook engine (fun () ->
      Hw.Engine.declare_wait_ambient ~on:"hook" ());
  let c = Hw.Engine.Cond.create () in
  let report = ref "" in
  Hw.Engine.run engine (fun () ->
      Hw.Engine.spawn engine (fun () -> Hw.Engine.Cond.wait c);
      Hw.Engine.spawn engine (fun () ->
          Hw.Engine.sleep 10;
          report := Hw.Engine.blocked_report engine;
          Hw.Engine.Cond.broadcast c));
  Alcotest.(check string) "parked fibre keeps the generic label"
    "fibre 2 blocked on suspend since 0ns" !report

(* --- simulated CPUs ------------------------------------------------- *)

(* Distinct affinities run in their lanes; every slice's work must
   land, and the clock must cover the slowest slice. *)
let test_parallel_smoke () =
  let engine = Hw.Engine.create ~domains:2 () in
  Alcotest.(check int) "simulated CPUs" 2 (Hw.Engine.domains engine);
  let hits = ref 0 in
  Hw.Engine.run engine (fun () ->
      for w = 1 to 4 do
        Hw.Engine.spawn engine ~affinity:w (fun () ->
            for _ = 1 to 100 do
              Hw.Engine.sleep 3;
              incr hits
            done)
      done);
  Alcotest.(check int) "all increments landed" 400 !hits;
  Alcotest.(check bool)
    (Printf.sprintf "clock covers the slices (now=%d)" (Hw.Engine.now engine))
    true
    (Hw.Engine.now engine >= 300)

(* With no scheduler, ready lane tasks run in the order they became
   ready: appends from one class arrive in spawn order. *)
let test_parallel_lane_serialises () =
  let engine = Hw.Engine.create ~domains:4 () in
  let order = ref [] in
  Hw.Engine.run engine (fun () ->
      for i = 1 to 8 do
        Hw.Engine.spawn engine ~affinity:7 (fun () ->
            Hw.Engine.sleep 5;
            order := i :: !order)
      done);
  Alcotest.(check (list int))
    "one lane, spawn order" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.rev !order)

(* Lane waiters park on a Cond and a serial fibre releases them; await
   after finish returns immediately. *)
let test_parallel_cond_finish () =
  let engine = Hw.Engine.create ~domains:2 () in
  let cond = Hw.Engine.Cond.create () in
  let woken = ref 0 in
  Hw.Engine.run engine (fun () ->
      for w = 1 to 3 do
        Hw.Engine.spawn engine ~affinity:w (fun () ->
            Hw.Engine.Cond.await_unfinished cond;
            incr woken)
      done;
      Hw.Engine.sleep 50;
      Hw.Engine.Cond.finish cond);
  Alcotest.(check int) "every waiter woken" 3 !woken;
  Alcotest.(check bool) "finished" true (Hw.Engine.Cond.finished cond);
  (* a late waiter must not park *)
  Hw.Engine.run engine (fun () -> Hw.Engine.Cond.await_unfinished cond)

let test_parallel_spawn_guards () =
  Alcotest.check_raises "negative domains"
    (Invalid_argument "Engine.create: negative domain count") (fun () ->
      ignore (Hw.Engine.create ~domains:(-1) ()));
  let engine = Hw.Engine.create ~domains:1 () in
  Hw.Engine.run engine (fun () ->
      Alcotest.check_raises "negative affinity"
        (Invalid_argument "Engine.spawn: negative affinity") (fun () ->
          Hw.Engine.spawn engine ~affinity:(-1) ignore);
      Alcotest.check_raises "parallel daemon"
        (Invalid_argument
           "Engine.spawn: daemon fibres must stay in the serial class")
        (fun () -> Hw.Engine.spawn engine ~daemon:true ~affinity:2 ignore))

(* A serial-class-only program must run the exact sequential schedule
   on simulated CPUs: the oracle-twin contract for every check
   scenario. *)
let test_parallel_class0_identical () =
  let script domains =
    let engine =
      if domains = 0 then Hw.Engine.create ()
      else Hw.Engine.create ~domains ()
    in
    let log = ref [] in
    Hw.Engine.run engine (fun () ->
        for i = 1 to 6 do
          Hw.Engine.spawn engine (fun () ->
              Hw.Engine.sleep ((i * 7) mod 3);
              log := (i, Hw.Engine.now engine) :: !log;
              Hw.Engine.sleep 4;
              log := (-i, Hw.Engine.now engine) :: !log)
        done);
    List.rev !log
  in
  let seq = script 0 in
  Alcotest.(check bool) "1 domain = sequential" true (script 1 = seq);
  Alcotest.(check bool) "4 domains = sequential" true (script 4 = seq)

(* Under a scheduler a lane slice is a slice like any other: its
   accesses are its own footprint, stepped with its own fibre after the
   serial slice that spawned it.  A single ready lane task is no choice,
   so nothing is logged. *)
let test_parallel_lane_footprint_own () =
  let engine = Hw.Engine.create ~domains:2 () in
  let steps = ref [] in
  Hw.Engine.set_scheduler engine
    {
      Hw.Engine.fifo_scheduler with
      sched_step = (fun ~fib ~accesses -> steps := (fib, accesses) :: !steps);
    };
  Hw.Engine.run engine (fun () ->
      Hw.Engine.spawn engine ~affinity:1 (fun () -> Hw.Engine.note_ambient 2 2);
      Hw.Engine.note_ambient 1 1);
  Alcotest.(check (list (pair int (list (triple int int bool)))))
    "main's footprint, then the lane fibre's"
    [ (1, [ (1, 1, true) ]); (2, [ (2, 2, true) ]) ]
    (List.rev !steps);
  Alcotest.(check (list int)) "no decision" [] (Hw.Engine.decisions engine)

(* An exception in a lane slice propagates out of [run]. *)
let test_parallel_exception_propagates () =
  let engine = Hw.Engine.create ~domains:2 () in
  Alcotest.check_raises "escapes run" (Failure "storm-worker") (fun () ->
      Hw.Engine.run engine (fun () ->
          Hw.Engine.spawn engine ~affinity:1 (fun () ->
              Hw.Engine.sleep 2;
              failwith "storm-worker")))

(* --- Phys_mem ------------------------------------------------------- *)

let test_phys_mem_alloc_free () =
  let mem = Hw.Phys_mem.create ~frames:4 () in
  let frames = List.init 4 (fun _ -> Hw.Phys_mem.alloc mem) in
  Alcotest.(check int) "all used" 0 (Hw.Phys_mem.free_frames mem);
  Alcotest.check_raises "exhausted" Hw.Phys_mem.Out_of_memory (fun () ->
      ignore (Hw.Phys_mem.alloc mem));
  List.iter (Hw.Phys_mem.free mem) frames;
  Alcotest.(check int) "all free again" 4 (Hw.Phys_mem.free_frames mem);
  let f = Hw.Phys_mem.alloc mem in
  Alcotest.check_raises "double free rejected"
    (Invalid_argument "Phys_mem.free: frame already free") (fun () ->
      Hw.Phys_mem.free mem f;
      Hw.Phys_mem.free mem f)

let test_phys_mem_data () =
  let mem = Hw.Phys_mem.create ~page_size:64 ~frames:2 () in
  let a = Hw.Phys_mem.alloc mem and b = Hw.Phys_mem.alloc mem in
  Hw.Phys_mem.fill a 'x';
  Hw.Phys_mem.bcopy ~src:a ~dst:b;
  Alcotest.(check string) "bcopy copies" (String.make 8 'x')
    (Bytes.to_string (Hw.Phys_mem.read b ~off:0 ~len:8));
  Hw.Phys_mem.bzero a;
  Alcotest.(check string) "bzero zeroes" (String.make 8 '\000')
    (Bytes.to_string (Hw.Phys_mem.read a ~off:0 ~len:8));
  Hw.Phys_mem.write b ~off:10 (Bytes.of_string "yo");
  Alcotest.(check string) "sub-page write" "yo"
    (Bytes.to_string (Hw.Phys_mem.read b ~off:10 ~len:2))

(* The free list is LIFO: a fresh pool hands out frames in index
   order, and the most recently freed frame comes back first.  Every
   simulated table depends on this order staying what it was. *)
let test_phys_mem_lifo () =
  let mem = Hw.Phys_mem.create ~page_size:64 ~frames:4 () in
  let next () = (Hw.Phys_mem.alloc mem).Hw.Phys_mem.index in
  let a = Hw.Phys_mem.alloc mem in
  let b = Hw.Phys_mem.alloc mem in
  Alcotest.(check (pair int int)) "fresh pool in index order" (0, 1)
    (a.Hw.Phys_mem.index, b.Hw.Phys_mem.index);
  Hw.Phys_mem.free mem a;
  Hw.Phys_mem.free mem b;
  let order = List.init 4 (fun _ -> next ()) in
  Alcotest.(check (list int)) "last freed, first out" [ 1; 0; 2; 3 ] order

(* A mixed pattern of allocations and frees hands out the frame
   indices every simulated table was built on: 64 allocations over a
   16-frame pool, each third followed by freeing the frame taken two
   steps before, each eighth by freeing all but the newest four held. *)
let check_first_64_indices mem =
  let free i = Hw.Phys_mem.free mem (Hw.Phys_mem.frame mem i) in
  let held = ref [] and out = ref [] in
  for k = 1 to 64 do
    let i = Hw.Phys_mem.alloc_index mem in
    out := i :: !out;
    held := i :: !held;
    (if k mod 3 = 0 then
       match !held with
       | a :: b :: c :: rest ->
         free c;
         held := a :: b :: rest
       | _ -> ());
    if k mod 8 = 0 then begin
      let keep = List.filteri (fun j _ -> j < 4) !held in
      List.iter (fun i -> if not (List.mem i keep) then free i) !held;
      held := keep
    end
  done;
  Alcotest.(check (list int)) "the first 64 indices handed out"
    [ 0; 1; 2; 0; 3; 4; 0; 5; 1; 0; 2; 6; 0; 7; 8; 0; 3; 4; 0; 5; 1; 0; 2; 9;
      6; 7; 8; 6; 3; 4; 6; 0; 5; 6; 1; 2; 6; 9; 7; 6; 3; 4; 6; 0; 5; 6; 1; 8;
      2; 9; 7; 2; 3; 4; 2; 6; 0; 2; 5; 1; 2; 8; 9; 2 ]
    (List.rev !out)

(* Taking a frame and giving it back allocates nothing, and a fresh
   pool hands out the pinned indices. *)
let test_phys_mem_free_allocates_nothing () =
  let mem = Hw.Phys_mem.create ~page_size:64 ~frames:16 () in
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let pairs () =
    for _ = 1 to 10_000 do
      let i = Hw.Phys_mem.alloc_index mem in
      Hw.Phys_mem.free mem (Hw.Phys_mem.frame mem i)
    done
  in
  pairs ();
  let words = measure pairs -. measure ignore in
  Alcotest.(check (float 0.)) "minor words for 10k alloc/free pairs" 0. words;
  check_first_64_indices (Hw.Phys_mem.create ~page_size:64 ~frames:16 ())

(* --- Recycled host buffers --------------------------------------- *)

let buffers mem =
  Array.init (Hw.Phys_mem.total_frames mem) (fun i ->
      (Hw.Phys_mem.frame mem i).Hw.Phys_mem.bytes)

let shares_any a b = Array.exists (fun x -> Array.exists (( == ) x) b) a

(* The buffers of a pool that is unreachable once this returns; the
   pool was used, and its free list left out of index order. *)
let[@inline never] dead_pool ~page_size ~frames =
  let mem = Hw.Phys_mem.create ~page_size ~frames () in
  let taken = List.init frames (fun _ -> Hw.Phys_mem.alloc mem) in
  List.iter (Hw.Phys_mem.free mem) (List.rev taken);
  buffers mem

(* Finalises every dead pool: its buffers join the spare. *)
let finalise_dead_pools () = Gc.full_major ()

(* A pool built after a dead pool of the same page size and size runs
   on exactly the dead pool's buffers, frame for frame, so it allocated
   no page buffer; it hands out the indices a fresh pool does. *)
let test_recycle_takes_dead_buffers () =
  finalise_dead_pools ();
  let old = dead_pool ~page_size:96 ~frames:16 in
  finalise_dead_pools ();
  let mem = Hw.Phys_mem.create ~page_size:96 ~frames:16 () in
  Alcotest.(check bool) "every frame on the dead pool's buffer" true
    (Array.for_all2 ( == ) old (buffers mem));
  check_first_64_indices mem

(* One reachable frame keeps its whole pool alive: none of the pool's
   buffers may back a frame of another pool. *)
let[@inline never] pool_held_by_one_frame ~page_size ~frames =
  let mem = Hw.Phys_mem.create ~page_size ~frames () in
  (buffers mem, Hw.Phys_mem.frame mem (frames - 1))

let test_recycle_held_frame_keeps_pool () =
  finalise_dead_pools ();
  let old, held = pool_held_by_one_frame ~page_size:112 ~frames:4 in
  finalise_dead_pools ();
  let mem = Hw.Phys_mem.create ~page_size:112 ~frames:4 () in
  Alcotest.(check bool) "no buffer of the held pool reused" false
    (shares_any old (buffers mem));
  Alcotest.(check int) "the held frame is the pool's" 4
    (Hw.Phys_mem.total_frames held.Hw.Phys_mem.pool)

(* The spare is kept per page size. *)
let test_recycle_per_page_size () =
  finalise_dead_pools ();
  let old = dead_pool ~page_size:128 ~frames:4 in
  finalise_dead_pools ();
  let other = Hw.Phys_mem.create ~page_size:144 ~frames:4 () in
  Alcotest.(check bool) "another page size takes none" false
    (shares_any old (buffers other));
  let same = Hw.Phys_mem.create ~page_size:128 ~frames:4 () in
  Alcotest.(check bool) "the same page size takes them all" true
    (Array.for_all2 ( == ) old (buffers same))

(* Only the newest dead pool is kept: an older one goes to the GC.
   The two pools live at once, so they own distinct buffers. *)
let test_recycle_keeps_newest () =
  finalise_dead_pools ();
  let make () = ref (Some (Hw.Phys_mem.create ~page_size:160 ~frames:4 ())) in
  let older_pool = make () and newer_pool = make () in
  let older = buffers (Option.get !older_pool) in
  let newer = buffers (Option.get !newer_pool) in
  older_pool := None;
  finalise_dead_pools ();
  newer_pool := None;
  finalise_dead_pools ();
  let first = Hw.Phys_mem.create ~page_size:160 ~frames:4 () in
  let second = Hw.Phys_mem.create ~page_size:160 ~frames:4 () in
  Alcotest.(check bool) "the newest dead pool's buffers" true
    (Array.for_all2 ( == ) newer (buffers first));
  Alcotest.(check bool) "none of the older one's" false
    (shares_any older (buffers second))

(* A dead pool leaves the spare with its last buffer: its frame
   records and free list are garbage then, only the buffers live on. *)
let[@inline never] watched_dead_pool ~page_size ~frames w =
  let mem = Hw.Phys_mem.create ~page_size ~frames () in
  Weak.set w 0 (Some (Hw.Phys_mem.frame mem 0))

let test_recycle_drops_used_pool () =
  finalise_dead_pools ();
  let w = Weak.create 1 in
  watched_dead_pool ~page_size:176 ~frames:3 w;
  finalise_dead_pools ();
  let mem = Hw.Phys_mem.create ~page_size:176 ~frames:3 () in
  finalise_dead_pools ();
  Alcotest.(check bool) "the used-up dead pool is collected" true
    (Option.is_none (Weak.get w 0));
  ignore (Sys.opaque_identity mem)

(* --- MMU ------------------------------------------------------------ *)

let test_mmu_translate () =
  let mmu = Hw.Mmu.create ~page_size:4096 in
  let mem = Hw.Phys_mem.create ~page_size:4096 ~frames:2 () in
  let space = Hw.Mmu.create_space mmu in
  let frame = Hw.Phys_mem.alloc mem in
  Alcotest.(check int) "a first map replaces nothing" (-1)
    (Hw.Mmu.map space ~vpn:3 frame Hw.Prot.read_only);
  (match Hw.Mmu.translate space ~addr:(3 * 4096 + 17) ~access:`Read with
  | Ok f -> Alcotest.(check int) "right frame" frame.Hw.Phys_mem.index f.Hw.Phys_mem.index
  | Error _ -> Alcotest.fail "expected translation");
  (match Hw.Mmu.translate space ~addr:(3 * 4096) ~access:`Write with
  | Error Hw.Mmu.Protection -> ()
  | _ -> Alcotest.fail "expected protection fault");
  (match Hw.Mmu.translate space ~addr:0 ~access:`Read with
  | Error Hw.Mmu.Unmapped -> ()
  | _ -> Alcotest.fail "expected unmapped fault");
  Hw.Mmu.protect space ~vpn:3 Hw.Prot.read_write;
  (match Hw.Mmu.translate space ~addr:(3 * 4096) ~access:`Write with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "writable after protect");
  let seen = ref [] in
  let note seen ~vpn (f : Hw.Phys_mem.frame) _ = seen := (vpn, f.index) :: !seen in
  Alcotest.(check int) "invalidate_range counts" 1
    (Hw.Mmu.invalidate_range space ~vpn:0 ~count:8 note seen);
  Alcotest.(check (list (pair int int))) "the callback saw the entry once"
    [ (3, frame.index) ] !seen;
  Alcotest.(check int) "nothing mapped" 0 (Hw.Mmu.mapped_pages space);
  (* A range wider than the table is a slot scan, not a per-vpn walk. *)
  ignore (Hw.Mmu.map space ~vpn:5 frame Hw.Prot.read_only : int);
  ignore (Hw.Mmu.map space ~vpn:9 frame Hw.Prot.read_only : int);
  seen := [];
  Alcotest.(check int) "a scan counts" 2
    (Hw.Mmu.invalidate_range space ~vpn:0 ~count:(1 lsl 40) note seen);
  Alcotest.(check (list (pair int int))) "the scan saw each entry once"
    [ (5, frame.index); (9, frame.index) ]
    (List.sort compare !seen)

(* Model test: the page table against a [Map.Make (Int)] reference.
   Page size 1 makes an address its vpn, so [translate] covers every
   key.  The vpn mix stresses both levels: vpns clustered in a few
   64-entry leaves and crossing their boundaries (a leaf emptied and
   refilled, a range ending mid-leaf), a dense window, region-like
   sequential runs at far-apart bases (long directory probe runs,
   wrap-around, deletes inside a run), sparse huge and negative vpns,
   and enough leaves to grow the directory from its initial size.  The
   range counts reach from part of one leaf to far more chunks than the
   directory has slots, so the range walks take both the per-chunk
   probe and the directory scan. *)
module IM = Map.Make (Int)

type mmu_op =
  | Map of int * int * int  (** vpn, frame, protection *)
  | Unmap of int
  | Protect of int * int
  | Query of int
  | Translate of int * Hw.Mmu.access
  | Invalidate of int * int  (** vpn, count *)
  | Iter_range of int * int
  | Next_mapped of int * int  (** vpn, count *)
  | Iter

let prots = Hw.Prot.[| none; read_only; read_write; read_execute; all |]
let nframes = 8

let gen_vpn =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun leaf i -> (leaf * 64) + i) (int_range 0 3) (int_range (-3) 66));
        (3, int_range 0 47);
        (3, map2 (fun b i -> (b lsl 30) + i) (int_range 0 3) (int_range 0 99));
        (1, int_range (-8) (-1));
        (1, map (fun x -> x lsl 20) (int_range 1 (1 lsl 40)));
      ])

let gen_count =
  QCheck.Gen.(
    frequency
      [ (4, int_range 0 64); (1, int_range 65 4096); (1, return (1 lsl 40)) ])

let gen_mmu_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun v f p -> Map (v, f, p))
            gen_vpn (int_bound (nframes - 1))
            (int_bound (Array.length prots - 1)) );
        (3, map (fun v -> Unmap v) gen_vpn);
        ( 1,
          map2
            (fun v p -> Protect (v, p))
            gen_vpn
            (int_bound (Array.length prots - 1)) );
        (2, map (fun v -> Query v) gen_vpn);
        ( 2,
          map2
            (fun v a -> Translate (v, a))
            gen_vpn
            (oneofl [ `Read; `Write; `Execute ]) );
        (1, map2 (fun v c -> Invalidate (v, c)) gen_vpn gen_count);
        (1, map2 (fun v c -> Iter_range (v, c)) gen_vpn gen_count);
        (1, map2 (fun v c -> Next_mapped (v, c)) gen_vpn gen_count);
        (1, return Iter);
      ])

let pp_mmu_op = function
  | Map (v, f, p) -> Printf.sprintf "map %d f%d p%d" v f p
  | Unmap v -> Printf.sprintf "unmap %d" v
  | Protect (v, p) -> Printf.sprintf "protect %d p%d" v p
  | Query v -> Printf.sprintf "query %d" v
  | Translate (v, _) -> Printf.sprintf "translate %d" v
  | Invalidate (v, c) -> Printf.sprintf "invalidate %d+%d" v c
  | Iter_range (v, c) -> Printf.sprintf "iter_range %d+%d" v c
  | Next_mapped (v, c) -> Printf.sprintf "next_mapped %d+%d" v c
  | Iter -> "iter"

let in_range ~vpn ~count k = k >= vpn && k - vpn < count

let prop_mmu_model =
  QCheck.Test.make ~count:400 ~name:"mmu = Map.Make(Int) model"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_mmu_op ops))
        ~shrink:Shrink.list
        Gen.(list_size (int_range 0 400) gen_mmu_op))
    (fun ops ->
      let mmu = Hw.Mmu.create ~page_size:1 in
      let mem = Hw.Phys_mem.create ~page_size:1 ~frames:nframes () in
      let frames = Array.init nframes (fun _ -> Hw.Phys_mem.alloc mem) in
      let space = Hw.Mmu.create_space mmu in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let binding (frame : Hw.Phys_mem.frame) prot = (frame.index, prot) in
      let sorted_bindings model ~vpn ~count =
        IM.bindings (IM.filter (fun k _ -> in_range ~vpn ~count k) model)
      in
      let model =
        List.fold_left
          (fun model op ->
            match op with
            | Map (v, f, p) ->
              let replaced = Hw.Mmu.map space ~vpn:v frames.(f) prots.(p) in
              let expected =
                match IM.find_opt v model with
                | Some (f', _) -> frames.(f').index
                | None -> -1
              in
              if replaced <> expected then
                fail "map %d replaced frame %d, model %d" v replaced expected;
              IM.add v (f, prots.(p)) model
            | Unmap v ->
              Hw.Mmu.unmap space ~vpn:v;
              IM.remove v model
            | Protect (v, p) -> (
              match IM.find_opt v model with
              | Some (f, _) ->
                Hw.Mmu.protect space ~vpn:v prots.(p);
                IM.add v (f, prots.(p)) model
              | None -> (
                match Hw.Mmu.protect space ~vpn:v prots.(p) with
                | () -> fail "protect of unmapped %d accepted" v
                | exception Invalid_argument _ -> model))
            | Query v ->
              let got =
                match Hw.Mmu.query space ~vpn:v with
                | Pte { frame; prot; _ } -> Some (binding frame prot)
                | No_pte -> None
              in
              if got <> IM.find_opt v model then
                fail "query %d disagrees with the model" v;
              let idx = Hw.Mmu.mapped_frame_index space ~vpn:v in
              if idx <> Option.fold ~none:(-1) ~some:fst got then
                fail "mapped_frame_index %d disagrees with query" v;
              model
            | Translate (v, access) ->
              let want =
                match IM.find_opt v model with
                | None -> Error Hw.Mmu.Unmapped
                | Some (f, prot) ->
                  if Hw.Prot.allows prot access then Ok f
                  else Error Hw.Mmu.Protection
              in
              let got =
                Result.map
                  (fun (frame : Hw.Phys_mem.frame) -> frame.index)
                  (Hw.Mmu.translate space ~addr:v ~access)
              in
              if got <> want then
                fail "translate %d disagrees with the model" v;
              model
            | Invalidate (vpn, count) ->
              let gone = sorted_bindings model ~vpn ~count in
              let seen = ref [] in
              let removed =
                Hw.Mmu.invalidate_range space ~vpn ~count
                  (fun seen ~vpn frame prot ->
                    seen := (vpn, binding frame prot) :: !seen)
                  seen
              in
              if removed <> List.length gone then
                fail "invalidate_range %d+%d removed %d, model %d" vpn count
                  removed (List.length gone);
              (* Each removed entry reaches the callback exactly once,
                 in ascending vpn order, on the per-chunk walk and on
                 the directory scan (more chunks than slots) alike. *)
              if List.rev !seen <> gone then
                fail "invalidate_range %d+%d reported entries other than \
                      those removed" vpn count;
              List.fold_left (fun m (k, _) -> IM.remove k m) model gone
            | Iter_range (vpn, count) ->
              let seen = ref [] in
              Hw.Mmu.iter_range space ~vpn ~count (fun ~vpn frame prot ->
                  seen := (vpn, binding frame prot) :: !seen);
              (* ascending vpn order on both walks *)
              if List.rev !seen <> sorted_bindings model ~vpn ~count then
                fail "iter_range %d+%d disagrees with the model" vpn count;
              model
            | Next_mapped (vpn, count) -> (
              let limit = vpn + count in
              match Hw.Mmu.next_mapped space ~vpn ~limit with
              | got ->
                let want =
                  match IM.find_first_opt (fun k -> k >= vpn) model with
                  | Some (k, _) when k < limit -> k
                  | Some _ | None -> -1
                in
                if vpn < 0 then fail "next_mapped from %d accepted" vpn;
                if got <> want then
                  fail "next_mapped %d..%d is %d, model %d" vpn limit got want;
                model
              | exception Invalid_argument _ ->
                if vpn >= 0 then fail "next_mapped from %d refused" vpn;
                model)
            | Iter ->
              let seen = ref [] in
              Hw.Mmu.iter space (fun ~vpn frame prot ->
                  seen := (vpn, binding frame prot) :: !seen);
              if List.rev !seen <> IM.bindings model then
                fail "iter is not the model in ascending order";
              model)
          IM.empty ops
      in
      if Hw.Mmu.mapped_pages space <> IM.cardinal model then
        fail "mapped_pages %d, model %d" (Hw.Mmu.mapped_pages space)
          (IM.cardinal model);
      IM.iter
        (fun v (f, prot) ->
          match Hw.Mmu.query space ~vpn:v with
          | Pte { frame; prot = p; _ }
            when frame.index = f && Hw.Prot.equal p prot ->
            ()
          | Pte _ | No_pte -> fail "final entry %d lost or wrong" v)
        model;
      true)

(* A hit allocates nothing: [translate] returns the block the entry
   already holds, [query] the entry itself. *)
let test_mmu_hits_allocate_nothing () =
  let mmu = Hw.Mmu.create ~page_size:4096 in
  let mem = Hw.Phys_mem.create ~page_size:4096 ~frames:64 () in
  let space = Hw.Mmu.create_space mmu in
  for vpn = 0 to 63 do
    ignore
      (Hw.Mmu.map space ~vpn:(vpn * 37) (Hw.Phys_mem.alloc mem)
         Hw.Prot.read_only)
  done;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let vpn = i mod 64 * 37 in
    (match Hw.Mmu.translate space ~addr:(vpn * 4096) ~access:`Read with
    | Ok _ -> incr hits
    | Error _ -> ());
    match Hw.Mmu.query space ~vpn with Pte _ -> incr hits | No_pte -> ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every lookup hit" 20_000 !hits;
  Alcotest.(check (float 0.)) "minor words for 10k translate+query hits" 0.
    words

(* An entry holds its frame and protection inline: re-protecting it,
   re-mapping it to the same frame and reading its frame index
   allocate nothing. *)
let test_mmu_updates_allocate_nothing () =
  let mmu = Hw.Mmu.create ~page_size:4096 in
  let mem = Hw.Phys_mem.create ~page_size:4096 ~frames:64 () in
  let space = Hw.Mmu.create_space mmu in
  let frames = Array.init 64 (fun _ -> Hw.Phys_mem.alloc mem) in
  Array.iteri
    (fun vpn frame -> ignore (Hw.Mmu.map space ~vpn frame Hw.Prot.read_only))
    frames;
  let prots = [| Hw.Prot.read_only; Hw.Prot.read_write |] in
  let wrong = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let vpn = i mod 64 in
    Hw.Mmu.protect space ~vpn prots.(i land 1);
    ignore (Hw.Mmu.map space ~vpn frames.(vpn) prots.((i + 1) land 1));
    if Hw.Mmu.mapped_frame_index space ~vpn <> frames.(vpn).index then
      incr wrong
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every entry keeps its frame" 0 !wrong;
  Alcotest.(check (float 0.))
    "minor words for 10k protect+same-frame map+index reads" 0. words

(* Words allocated by [f ()], the minor heap and direct major
   allocations alike: a block beyond the minor heap's size limit goes
   straight to the major heap, and [Gc.minor_words] misses it. *)
let words_of f =
  let minor = Gc.minor_words () and _, promoted, major = Gc.counters () in
  f ();
  let minor' = Gc.minor_words () and _, promoted', major' = Gc.counters () in
  minor' -. minor +. (major' -. major) -. (promoted' -. promoted)

(* No single map pays for the table's growth: mapping 2^12 consecutive
   pages, the most words any one [map] allocates is a fresh leaf (a
   64-slot array, 65 words), the entry with its hit result (5 + 2
   words) and one doubling of the directory.  64 leaves at load <= 1/2
   take 128 slots, so the last doubling builds a directory record (6
   words) and three 129-word arrays.  A one-level table would rehash
   2^11 entries into a fresh 2^13-slot array inside a single map. *)
let test_mmu_map_worst_case () =
  let mmu = Hw.Mmu.create ~page_size:4096 in
  let mem = Hw.Phys_mem.create ~page_size:4096 ~frames:1 () in
  let frame = Hw.Phys_mem.alloc mem in
  let space = Hw.Mmu.create_space mmu in
  let overhead = words_of ignore in
  let worst = ref 0. in
  for vpn = 0 to (1 lsl 12) - 1 do
    let words =
      words_of (fun () ->
          ignore (Hw.Mmu.map space ~vpn frame Hw.Prot.read_only : int))
      -. overhead
    in
    if words > !worst then worst := words
  done;
  Alcotest.(check int) "every page mapped" (1 lsl 12) (Hw.Mmu.mapped_pages space);
  let bound = 65. +. 7. +. (6. +. (3. *. 129.)) in
  if !worst > bound then
    Alcotest.failf "one map allocated %.0f words (bound %.0f)" !worst bound

(* --- Prot ----------------------------------------------------------- *)

let test_prot_algebra () =
  let open Hw.Prot in
  Alcotest.(check bool) "rw allows write" true (allows read_write `Write);
  Alcotest.(check bool) "ro forbids write" false (allows read_only `Write);
  Alcotest.(check bool) "remove_write" false
    (allows (remove_write all) `Write);
  Alcotest.(check bool) "remove_write keeps exec" true
    (allows (remove_write all) `Execute);
  Alcotest.(check bool) "subsumes reflexive" true (subsumes all all);
  Alcotest.(check bool) "ro !subsumes rw" false (subsumes read_only read_write);
  Alcotest.(check bool) "intersect" true
    (equal (intersect read_write read_execute) read_only);
  Alcotest.(check string) "to_string" "rw-" (to_string read_write)

let () =
  Alcotest.run "hw"
    [
      ( "engine",
        [
          Alcotest.test_case "time and order" `Quick test_engine_time_and_order;
          Alcotest.test_case "wakes in time order" `Quick
            test_engine_wakes_in_time_order;
          QCheck_alcotest.to_alcotest prop_engine_wakes_in_order;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "ties FIFO" `Quick test_engine_ties_fifo;
          Alcotest.test_case "finished tasks not retained" `Quick
            test_engine_releases_finished;
          Alcotest.test_case "cond broadcast" `Quick test_cond_broadcast;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "daemon tolerated" `Quick test_daemon_not_deadlock;
          Alcotest.test_case "watchdog flags cross-block" `Quick
            (test_watchdog_flags_cross_block 0);
          Alcotest.test_case "watchdog flags cross-block (2 CPUs)" `Quick
            (test_watchdog_flags_cross_block 2);
          Alcotest.test_case "watchdog spares slow-but-live" `Quick
            test_watchdog_spares_slow_but_live;
          Alcotest.test_case "watchdog counts stalls" `Quick
            test_watchdog_counts_stall;
          Alcotest.test_case "exceptions propagate" `Quick
            test_fibre_exception_propagates;
          Alcotest.test_case "run_fn returns" `Quick test_run_fn_returns;
          QCheck_alcotest.to_alcotest prop_clock_advance_preserves_schedule;
          Alcotest.test_case "daemon ends with its users" `Quick
            test_daemon_ends_with_users;
          Alcotest.test_case "observers see every sleep" `Quick
            test_observers_see_every_sleep;
          Alcotest.test_case "clock advance allocates nothing" `Quick
            test_clock_advance_allocates_nothing;
          Alcotest.test_case "a fibre switch allocates a continuation, not a task"
            `Quick test_switch_allocates_a_continuation;
          Alcotest.test_case "hand-off keeps the host stack flat" `Quick
            test_hand_off_stack_flat;
          Alcotest.test_case "ambient answers as before" `Quick
            test_ambient_answers;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "smoke" `Quick test_parallel_smoke;
          Alcotest.test_case "lane serialises" `Quick
            test_parallel_lane_serialises;
          Alcotest.test_case "cond finish wakes parallel waiters" `Quick
            test_parallel_cond_finish;
          Alcotest.test_case "spawn guards" `Quick test_parallel_spawn_guards;
          Alcotest.test_case "class-0 schedule identical" `Quick
            test_parallel_class0_identical;
          Alcotest.test_case "exception propagates" `Quick
            test_parallel_exception_propagates;
          Alcotest.test_case "lane slice steps with its own footprint"
            `Quick test_parallel_lane_footprint_own;
          QCheck_alcotest.to_alcotest prop_engine_deterministic;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "alloc/free" `Quick test_phys_mem_alloc_free;
          Alcotest.test_case "data ops" `Quick test_phys_mem_data;
          Alcotest.test_case "LIFO order" `Quick test_phys_mem_lifo;
          Alcotest.test_case "alloc/free pairs allocate nothing" `Quick
            test_phys_mem_free_allocates_nothing;
          Alcotest.test_case "a new pool takes a dead pool's buffers" `Quick
            test_recycle_takes_dead_buffers;
          Alcotest.test_case "a held frame keeps its pool's buffers" `Quick
            test_recycle_held_frame_keeps_pool;
          Alcotest.test_case "another page size takes none" `Quick
            test_recycle_per_page_size;
          Alcotest.test_case "only the newest dead pool is kept" `Quick
            test_recycle_keeps_newest;
          Alcotest.test_case "a used-up dead pool is collected" `Quick
            test_recycle_drops_used_pool;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate" `Quick test_mmu_translate;
          Alcotest.test_case "hits allocate nothing" `Quick
            test_mmu_hits_allocate_nothing;
          Alcotest.test_case "updates allocate nothing" `Quick
            test_mmu_updates_allocate_nothing;
          Alcotest.test_case "one map allocates at most a leaf and a doubling"
            `Quick test_mmu_map_worst_case;
          QCheck_alcotest.to_alcotest prop_mmu_model;
        ] );
      ( "prot", [ Alcotest.test_case "algebra" `Quick test_prot_algebra ] );
    ]
