(* Tests of the simulated machine: priority queue, discrete-event
   engine (determinism, fibres, condition variables, daemons,
   deadlock detection), physical memory, MMU, protections. *)

(* --- Pqueue --------------------------------------------------------- *)

let test_pqueue_orders () =
  let h = Hw.Pqueue.create ~cmp:compare in
  List.iter (Hw.Pqueue.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let out = List.init (Hw.Pqueue.length h) (fun _ -> Hw.Pqueue.pop h) in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] out;
  Alcotest.(check bool) "empty after drain" true (Hw.Pqueue.is_empty h)

let prop_pqueue =
  QCheck.Test.make ~count:300 ~name:"pqueue = sorted"
    QCheck.(list int)
    (fun xs ->
      let h = Hw.Pqueue.create ~cmp:compare in
      List.iter (Hw.Pqueue.push h) xs;
      let out = List.init (List.length xs) (fun _ -> Hw.Pqueue.pop h) in
      out = List.sort compare xs)

(* --- Engine --------------------------------------------------------- *)

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
   and the run dies of Watchdog (not of queue-drain Deadlock). *)
let test_watchdog_flags_cross_block () =
  let engine = Hw.Engine.create () in
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
          Hw.Engine.spawn engine ~name:"a" (fun () ->
              Hw.Engine.declare_wait engine ~on:"r2"
                ~owner:(Hw.Engine.Cond.owner r2) ();
              Hw.Engine.Cond.wait r2);
          Hw.Engine.spawn engine ~name:"b" (fun () ->
              Hw.Engine.declare_wait engine ~on:"r1"
                ~owner:(Hw.Engine.Cond.owner r1) ();
              Hw.Engine.Cond.wait r1));
      false
    with Hw.Engine.Watchdog diag ->
      Alcotest.(check bool) "diagnostic names the resource" true
        (String.length diag > 0);
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

(* With no scheduler, watchdog or event hook, a user fibre whose
   wake-up would be the next task advances the clock in place instead
   of round-tripping through the heap.  Random programs of sleeps
   (zero and equal-time ties included), spawns, cond waits and
   broadcasts and periodic daemons must log the same (fibre, now)
   steps as under [fifo_scheduler], which always takes the round trip.
   The run ends by installing a scheduler that records the sequence
   numbers it is shown, so the numbering the in-place advance leaves
   behind is compared too. *)
type step = Sleep of int | Spawn of int | Wait of int | Broadcast of int

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Sleep t) (int_bound 6));
        (1, map (fun t -> Spawn t) (int_bound 6));
        (1, map (fun c -> Wait c) (int_bound 1));
        (2, map (fun c -> Broadcast c) (int_bound 1));
      ])

let print_step = function
  | Sleep t -> Printf.sprintf "sleep %d" t
  | Spawn t -> Printf.sprintf "spawn %d" t
  | Wait c -> Printf.sprintf "wait %d" c
  | Broadcast c -> Printf.sprintf "broadcast %d" c

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
    ~name:"in-place clock advance keeps the fifo schedule"
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

(* --- parallel engine ------------------------------------------------ *)

(* Distinct affinities run on the domain pool; every slice's work must
   land, and the coordinator's clock must cover the slowest slice. *)
let test_parallel_smoke () =
  let engine = Hw.Engine.create ~domains:2 () in
  Alcotest.(check int) "pool size" 2 (Hw.Engine.domains engine);
  let hits = Atomic.make 0 in
  Hw.Engine.run engine (fun () ->
      for w = 1 to 4 do
        Hw.Engine.spawn engine ~affinity:w (fun () ->
            for _ = 1 to 100 do
              Hw.Engine.sleep 3;
              Atomic.incr hits
            done)
      done);
  Alcotest.(check int) "all increments landed" 400 (Atomic.get hits);
  Alcotest.(check bool)
    (Printf.sprintf "clock covers the slices (now=%d)" (Hw.Engine.now engine))
    true
    (Hw.Engine.now engine >= 300)

(* Equal affinities serialise in FIFO lanes: appends from one class
   need no lock and arrive in spawn order. *)
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

(* Parallel waiters park on a Cond and a serial fibre releases them;
   await after finish returns immediately. *)
let test_parallel_cond_finish () =
  let engine = Hw.Engine.create ~domains:2 () in
  let cond = Hw.Engine.Cond.create () in
  let woken = Atomic.make 0 in
  Hw.Engine.run engine (fun () ->
      for w = 1 to 3 do
        Hw.Engine.spawn engine ~affinity:w (fun () ->
            Hw.Engine.Cond.await_unfinished cond;
            Atomic.incr woken)
      done;
      Hw.Engine.sleep 50;
      Hw.Engine.Cond.finish cond);
  Alcotest.(check int) "every waiter woken" 3 (Atomic.get woken);
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
   on the parallel engine: the oracle-twin contract for every check
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

(* An exception in a parallel slice propagates out of [run]. *)
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

(* --- MMU ------------------------------------------------------------ *)

let test_mmu_translate () =
  let mmu = Hw.Mmu.create ~page_size:4096 in
  let mem = Hw.Phys_mem.create ~page_size:4096 ~frames:2 () in
  let space = Hw.Mmu.create_space mmu in
  let frame = Hw.Phys_mem.alloc mem in
  Hw.Mmu.map space ~vpn:3 frame Hw.Prot.read_only;
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
  Alcotest.(check int) "invalidate_range counts" 1
    (Hw.Mmu.invalidate_range space ~vpn:0 ~count:8);
  Alcotest.(check int) "nothing mapped" 0 (Hw.Mmu.mapped_pages space)

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
      ( "pqueue",
        [
          Alcotest.test_case "orders" `Quick test_pqueue_orders;
          QCheck_alcotest.to_alcotest prop_pqueue;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time and order" `Quick test_engine_time_and_order;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "ties FIFO" `Quick test_engine_ties_fifo;
          Alcotest.test_case "cond broadcast" `Quick test_cond_broadcast;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "daemon tolerated" `Quick test_daemon_not_deadlock;
          Alcotest.test_case "watchdog flags cross-block" `Quick
            test_watchdog_flags_cross_block;
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
          QCheck_alcotest.to_alcotest prop_engine_deterministic;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "alloc/free" `Quick test_phys_mem_alloc_free;
          Alcotest.test_case "data ops" `Quick test_phys_mem_data;
        ] );
      ( "mmu", [ Alcotest.test_case "translate" `Quick test_mmu_translate ] );
      ( "prot", [ Alcotest.test_case "algebra" `Quick test_prot_algebra ] );
    ]
