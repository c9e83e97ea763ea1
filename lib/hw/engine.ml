(* A fibre's one task record: [spawn] creates and numbers it, and each
   wake-up re-stamps and re-queues it with the slice to run next, sound
   as a fibre has at most one queued task (one-shot continuations). *)
type task = {
  mutable time : Sim_time.t;
  mutable seq : int;
  daemon : bool;
  mutable fib : int;
  cls : int; (* affinity class: 0 serial, else the lane *)
  mutable run : unit -> unit;
}

type ready_task = { rt_fib : int; rt_seq : int; rt_daemon : bool }

type scheduler = {
  sched_pick : now:Sim_time.t -> ready_task array -> int;
  sched_step : fib:int -> accesses:(int * int * bool) list -> unit;
}

(* A parked fibre, as seen by the watchdog: what it is blocked on,
   which fibre (if known) must act to release it, and since when. *)
type wait_info = {
  wi_label : string;
  wi_owner : int; (* -1 when unknown *)
  wi_since : Sim_time.t;
  mutable wi_flagged : bool; (* already counted as stalled *)
}

type watchdog = {
  wd_stall_after : Sim_time.span;
  wd_check_every : Sim_time.span;
  mutable wd_next : Sim_time.t;
  wd_metrics : Obs.Metrics.t;
  wd_deadlocks : Obs.Metrics.counter;
  wd_stalls : Obs.Metrics.counter;
  wd_checks : Obs.Metrics.counter;
  mutable wd_alarm : string option; (* deadlock found mid-slice *)
  mutable wd_last_stall : string option;
}

(* One affinity class's serialisation lane: tasks of equal (non-zero)
   affinity execute in FIFO order, at most one at a time, but lanes
   run concurrently with each other on the domain pool. *)
type lane = { l_q : task Queue.t; mutable l_busy : bool }

(* The worker pool.  [p_domains] is 0 for the sequential engine: no
   worker domains, no lanes, and the coordinator runs every slice in
   heap order.  With workers, every field is protected by [p_lock], and
   so are the engine's own mutable fields (seq, live, live_tasks,
   queue, names, waiting), because fibres on worker domains spawn,
   sleep, park and resume concurrently with the coordinator; without
   workers nothing else runs and the lock is never taken. *)
type par = {
  p_domains : int;
  p_lock : Mutex.t;
  p_work : Condition.t; (* workers: a lane became runnable *)
  p_idle : Condition.t; (* coordinator: pool state changed *)
  lanes : (int, lane) Hashtbl.t;
  runnable : int Queue.t; (* affinity classes with a runnable head *)
  mutable p_running : int; (* tasks executing on the pool right now *)
  mutable p_stop : bool;
  mutable p_exn : exn option; (* first exception raised on the pool *)
  mutable p_horizon : Sim_time.t; (* max virtual clock seen on the pool *)
  p_cpu : Sim_time.t array;
      (* simulated clock of each of the [p_domains] CPUs the pool
         models.  A slice runs on the least-loaded CPU — greedy list
         scheduling — so the horizon is the workload's makespan on an
         N-CPU machine, independent of which OS worker executes which
         slice.  Protected by [p_lock]. *)
  p_busy : Sim_time.span array;
      (* accumulated charge time per simulated CPU: every committed
         slice adds its charged interval to the CPU it was placed on,
         so busy(i) <= makespan and makespan - busy(i) is CPU i's idle
         time.  Protected by [p_lock]; the raw material of the
         utilization report. *)
  p_stat : Obs.Lockstat.t;
      (* contention accounting for [p_lock] itself: every acquisition
         goes through it, and its plain-int counts are guarded by
         [p_lock]; wait/hold wall-clock only when Lockstat timing is
         enabled *)
}

type t = {
  mutable now : Sim_time.t;
  mutable seq : int;
  queue : task Pqueue.t;
  mutable live : int; (* non-daemon fibres spawned and not yet finished *)
  mutable live_tasks : int; (* non-daemon tasks waiting in the queue *)
  mutable cur_fib : int; (* fibre the running task belongs to *)
  mutable cur_daemon : bool; (* the running task is a daemon's *)
  mutable in_slice : bool; (* a serial slice of this engine is running *)
  mutable sleep_span : Sim_time.span; (* the span of the Sleep in flight *)
  mutable next_fib : int;
  mutable tracer : Obs.Trace.t;
  mutable on_event : (unit -> unit) option;
  mutable sched : scheduler option;
  mutable decisions : int list; (* multi-ready picks, newest first *)
  mutable tracking : bool; (* inside a serial slice under a scheduler *)
  mutable accesses : (int * int * bool) list;
      (* serial slice footprint, reversed; the bool marks a write *)
  names : (int, string) Hashtbl.t;
  par : par;
  waiting : (int, wait_info) Hashtbl.t; (* parked fibres, by id *)
  mutable pending_wait : (string * int) option; (* coordinator's next park *)
  mutable watch : watchdog option;
  me : t option; (* [Some] of this engine, {!ambient}'s answer *)
  mutable outside : t option; (* {!ambient} where [run] was called *)
}

exception Deadlock of int
exception Watchdog of string

(* [Sleep] carries no payload: {!sleep} leaves the span in the
   engine's [sleep_span], so a switch allocates no effect value. *)
type _ Effect.t +=
  | Sleep : unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* A parallel slice: a fibre running on a worker domain advances a
   private virtual clock ([pt_clock]) instead of scheduling a wake-up
   per charge — the discrete-event queue only sees it again when it
   parks or finishes — and carries its own next-park annotation, so a
   worker never writes the coordinator's. *)
type ptask = {
  pt_eng : t; (* the pool's engine, {!ambient}'s answer *)
  pt_fib : int;
  mutable pt_clock : Sim_time.t;
  mutable pt_wait : (string * int) option;
}

(* What this domain is running: a coordinator loop (its engine, so
   {!sleep} and {!ambient} can reach it without an effect), a parallel
   slice, or neither.  [Slice] is what [in_parallel_slice] tests — the
   cheap "may another domain touch shared state right now?" check the
   locking seams are gated on. *)
type slot = Idle | Coord of t | Slice of ptask

let slot : slot Domain.DLS.key = Domain.DLS.new_key (fun () -> Idle)

let in_parallel_slice () =
  match Domain.DLS.get slot with Slice _ -> true | Idle | Coord _ -> false

(* Tasks at distinct times run in time order; equal-time tasks run in
   [seq] (spawn/wake) order, the default policy.  Any other order is a
   {!scheduler}'s choice at dispatch time — legal because a fibre has
   at most one queued task (one-shot continuations), so program order
   within a fibre is unaffected and only genuinely concurrent work is
   reordered. *)
let cmp_task a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create ?(domains = 0) () =
  if domains < 0 then invalid_arg "Engine.create: negative domain count";
  let filler =
    { time = Sim_time.zero; seq = 0; daemon = true; fib = 0; cls = 0;
      run = ignore }
  in
  let rec eng =
    {
      now = Sim_time.zero;
      seq = 0;
      queue = Pqueue.create ~cmp:cmp_task ~filler;
      live = 0;
      live_tasks = 0;
      cur_fib = 0;
      cur_daemon = false;
      in_slice = false;
      sleep_span = 0;
      next_fib = 1;
      tracer = Obs.Trace.null;
      on_event = None;
      sched = None;
      decisions = [];
      tracking = false;
      accesses = [];
      names = Hashtbl.create 16;
      par =
        {
          p_domains = domains;
          p_lock = Mutex.create ();
          p_work = Condition.create ();
          p_idle = Condition.create ();
          lanes = Hashtbl.create 16;
          runnable = Queue.create ();
          p_running = 0;
          p_stop = false;
          p_exn = None;
          p_horizon = Sim_time.zero;
          p_cpu = Array.make domains Sim_time.zero;
          p_busy = Array.make domains 0;
          p_stat = Obs.Lockstat.create ~cls:"pool" "engine/pool";
        };
      waiting = Hashtbl.create 16;
      pending_wait = None;
      watch = None;
      me = Some eng;
      outside = None;
    }
  in
  eng

let domains eng = eng.par.p_domains

(* Per-CPU utilization raw material: accumulated charge time per
   simulated CPU.  Read at quiescence — after [run] returns — for a
   stable snapshot. *)
let cpu_busy eng = Array.copy eng.par.p_busy

let pool_lock_stats eng =
  let p = eng.par in
  if p.p_domains = 0 then [] else [ Obs.Lockstat.snapshot p.p_stat ]

(* Inside a parallel slice, "now" is the slice's private virtual
   clock; everywhere else it is the coordinator clock.  This keeps
   fault-latency arithmetic (now-after minus now-before) meaningful on
   the pool, where the coordinator clock stands still. *)
let now eng =
  match Domain.DLS.get slot with
  | Slice pt -> pt.pt_clock
  | Idle | Coord _ -> eng.now

let current_fibre eng =
  match Domain.DLS.get slot with
  | Slice pt -> pt.pt_fib
  | Idle | Coord _ -> eng.cur_fib

let tracer eng = eng.tracer

let set_tracer eng tr =
  eng.tracer <- tr;
  (* The DLS-aware accessors, not the raw fields: inside a parallel
     slice the tracer must see the slice's virtual clock and fibre,
     not the coordinator's. *)
  Obs.Trace.set_clock tr (fun () -> now eng);
  Obs.Trace.set_fibre tr (fun () -> current_fibre eng)

let set_event_hook eng hook = eng.on_event <- Some hook
let set_scheduler eng s = eng.sched <- Some s
let clear_scheduler eng = eng.sched <- None
let decisions eng = List.rev eng.decisions

(* Footprints are the coordinator's: a parallel slice is not a choice
   point, so it records nothing even while a serial slice is tracked. *)
let tracking eng = eng.tracking && not (in_parallel_slice ())

let note_access ?(write = true) eng a b =
  if tracking eng then eng.accesses <- (a, b, write) :: eng.accesses

let fibre_name eng fib = Hashtbl.find_opt eng.names fib

let describe eng fib =
  match fibre_name eng fib with
  | Some n -> Printf.sprintf "fibre %d (%s)" fib n
  | None -> Printf.sprintf "fibre %d" fib

(* --- Watchdog ----------------------------------------------------- *)

let enable_watchdog eng ?(stall_after = Sim_time.ms 1000)
    ?(check_every = Sim_time.ms 1) ?metrics () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  eng.watch <-
    Some
      {
        wd_stall_after = stall_after;
        wd_check_every = check_every;
        wd_next = Sim_time.zero;
        wd_metrics = m;
        wd_deadlocks = Obs.Metrics.counter m "watchdog.deadlocks";
        wd_stalls = Obs.Metrics.counter m "watchdog.stalls";
        wd_checks = Obs.Metrics.counter m "watchdog.checks";
        wd_alarm = None;
        wd_last_stall = None;
      }

let watchdog_metrics eng =
  match eng.watch with Some w -> Some w.wd_metrics | None -> None

let last_stall eng =
  match eng.watch with Some w -> w.wd_last_stall | None -> None

let declare_wait eng ~on ?(owner = -1) () =
  (* Only pay for the option allocation while someone is watching. *)
  if eng.watch <> None then
    match Domain.DLS.get slot with
    | Slice pt -> pt.pt_wait <- Some (on, owner)
    | Idle | Coord _ -> eng.pending_wait <- Some (on, owner)

let pp_time t = Format.asprintf "%a" Sim_time.pp t

let wait_line eng fib wi =
  let held =
    if wi.wi_owner >= 0 then
      Printf.sprintf " held by %s" (describe eng wi.wi_owner)
    else ""
  in
  Printf.sprintf "%s blocked on %s%s since %s" (describe eng fib) wi.wi_label
    held (pp_time wi.wi_since)

let blocked_report eng =
  let entries =
    Hashtbl.fold (fun fib wi acc -> (fib, wi) :: acc) eng.waiting []
    |> List.sort compare
  in
  match entries with
  | [] -> "no blocked fibres"
  | entries ->
    String.concat "\n"
      (List.map (fun (fib, wi) -> wait_line eng fib wi) entries)

(* Follow blocked-on owner edges from the fibre that just parked.  A
   new cycle, if any, must pass through it; the hop bound guards
   against walking a pre-existing cycle that does not. *)
let find_cycle eng start =
  let bound = Hashtbl.length eng.waiting + 1 in
  let rec go fib hops acc =
    if hops > bound then None
    else
      match Hashtbl.find_opt eng.waiting fib with
      | None -> None
      | Some wi ->
        if wi.wi_owner < 0 then None
        else if wi.wi_owner = start then Some (List.rev (fib :: acc))
        else go wi.wi_owner (hops + 1) (fib :: acc)
  in
  go start 0 []

let deadlock_diag eng cycle =
  let lines =
    List.filter_map
      (fun fib ->
        match Hashtbl.find_opt eng.waiting fib with
        | Some wi -> Some ("  " ^ wait_line eng fib wi)
        | None -> None)
      cycle
  in
  Printf.sprintf "watchdog: deadlock cycle of %d fibre(s) at %s:\n%s"
    (List.length cycle) (pp_time eng.now)
    (String.concat "\n" lines)

let stall_diag eng fib wi =
  Printf.sprintf "watchdog: stall at %s: %s" (pp_time eng.now)
    (wait_line eng fib wi)

(* The pool lock, taken only with workers: the sequential engine pays
   one branch and no lock.  No section between the halves raises. *)
let[@chorus.balanced
     "the acquire half of the pool-lock seam: returns holding the lock \
      when there are workers; callers pair it with pool_exit"] pool_enter p =
  if p.p_domains > 0 then Obs.Lockstat.lock p.p_stat p.p_lock

let[@chorus.balanced
     "the release half of the pool-lock seam: entered holding the lock \
      when there are workers"] pool_exit p =
  if p.p_domains > 0 then Obs.Lockstat.unlock p.p_stat p.p_lock

(* Called from the Suspend handler as a fibre parks: register the
   park, consuming the parking slice's annotation, and see whether it
   closed a blocked-on cycle.  Pool and coordinator parks share the
   one table.  The alarm is not raised here — effect handlers should
   not throw past live continuations — but parked for the run loop to
   raise between events. *)
let note_park eng fib =
  match eng.watch with
  | None -> ()
  | Some w ->
    let p = eng.par in
    pool_enter p;
    let lo =
      match Domain.DLS.get slot with
      | Slice pt ->
        let lo = pt.pt_wait in
        pt.pt_wait <- None;
        lo
      | Idle | Coord _ ->
        let lo = eng.pending_wait in
        eng.pending_wait <- None;
        lo
    in
    let label, owner = Option.value lo ~default:("suspend", -1) in
    Hashtbl.replace eng.waiting fib
      { wi_label = label; wi_owner = owner; wi_since = now eng;
        wi_flagged = false };
    (match find_cycle eng fib with
    | Some cycle ->
      Obs.Metrics.incr w.wd_deadlocks;
      Obs.Trace.instant eng.tracer ~cat:"watchdog"
        ~args:[ ("fib", Obs.Trace.Int fib) ]
        "deadlock";
      if w.wd_alarm = None then w.wd_alarm <- Some (deadlock_diag eng cycle)
    | None -> ());
    pool_exit p

(* Between events: raise a parked deadlock alarm, and periodically
   sweep the waiting table for fibres blocked longer than the stall
   threshold.  Stalls are counted (once per continuous wait) rather
   than fatal: a slow-but-live run legitimately clears them. *)
let watchdog_check eng =
  match eng.watch with
  | None -> ()
  | Some w ->
    (match w.wd_alarm with
    | Some diag ->
      w.wd_alarm <- None;
      raise (Watchdog diag)
    | None -> ());
    if eng.now >= w.wd_next then begin
      w.wd_next <- eng.now + w.wd_check_every;
      Obs.Metrics.incr w.wd_checks;
      Hashtbl.iter
        (fun fib wi ->
          if (not wi.wi_flagged) && eng.now - wi.wi_since > w.wd_stall_after
          then begin
            wi.wi_flagged <- true;
            Obs.Metrics.incr w.wd_stalls;
            Obs.Trace.instant eng.tracer ~cat:"watchdog"
              ~args:[ ("fib", Obs.Trace.Int fib) ]
              "stall";
            w.wd_last_stall <- Some (stall_diag eng fib wi)
          end)
        eng.waiting
    end

(* --- Scheduling --------------------------------------------------- *)

(* The canned policies.  The ready array is presented in [seq] order,
   so FIFO — also what a dispatch with no scheduler takes — is index
   0, and the seeded permutation is the argmin of the seeded hash of
   [seq], hash ties resolved by position (i.e. by [seq]). *)
let fifo_scheduler =
  {
    sched_pick = (fun ~now:_ _ -> 0);
    sched_step = (fun ~fib:_ ~accesses:_ -> ());
  }

let seeded_scheduler seed =
  {
    sched_pick =
      (fun ~now:_ ready ->
        let best = ref 0 in
        for i = 1 to Array.length ready - 1 do
          if
            Hashtbl.seeded_hash seed ready.(i).rt_seq
            < Hashtbl.seeded_hash seed ready.(!best).rt_seq
          then best := i
        done;
        !best);
    sched_step = (fun ~fib:_ ~accesses:_ -> ());
  }

(* Stamp a task with its time and the next sequence number and route
   it; with workers the caller holds [p_lock].  Serial-class tasks go
   to the discrete-event heap the coordinator drains; an affinity class
   goes to its lane, which becomes runnable when its head is the only
   queued task and no worker is already inside the lane. *)
let push eng p task time =
  task.time <- time;
  task.seq <- eng.seq;
  eng.seq <- eng.seq + 1;
  if not task.daemon then eng.live_tasks <- eng.live_tasks + 1;
  if task.cls = 0 then Pqueue.push eng.queue task
  else begin
    let lane =
      match Hashtbl.find_opt p.lanes task.cls with
      | Some l -> l
      | None ->
        let l = { l_q = Queue.create (); l_busy = false } in
        Hashtbl.replace p.lanes task.cls l;
        l
    in
    Queue.push task lane.l_q;
    if (not lane.l_busy) && Queue.length lane.l_q = 1 then begin
      Queue.push task.cls p.runnable;
      Condition.signal p.p_work
    end
  end;
  if p.p_domains > 0 then Condition.signal p.p_idle

(* Queue a fibre's next slice, [task.run].  A fibre being scheduled is
   no longer parked, so its waiting-table entry (if any) goes too. *)
let schedule eng task time =
  let p = eng.par in
  pool_enter p;
  if eng.watch <> None then Hashtbl.remove eng.waiting task.fib;
  push eng p task time;
  pool_exit p

(* Advance the clock in place when the Sleep round trip would pop this
   same fibre's wake-up straight back off the heap: every queued task
   is due strictly after [now + span].  The wake-up's sequence number
   is consumed and [pending_wait] cleared exactly as the handler does,
   so later tasks are numbered as before.  Only without workers (they
   push to the heap concurrently) and when nothing observes the
   dispatch in between: no scheduler (it picks and steps every slice),
   no watchdog (it checks between events), no event hook (it runs
   after every event), and a user fibre (the run loop decides whether
   a daemon's wake-up runs at all: once the last user fibre exits it
   drops them and ends the run). *)
let[@chorus.hot] advance_in_place eng span =
  Option.is_none eng.sched
  && Option.is_none eng.watch
  && Option.is_none eng.on_event
  && eng.par.p_domains = 0
  && (not eng.cur_daemon)
  &&
  let time = eng.now + span in
  if Pqueue.is_empty eng.queue || (Pqueue.top eng.queue).time > time then begin
    eng.seq <- eng.seq + 1;
    eng.pending_wait <- None;
    eng.now <- time;
    true
  end
  else false

let[@chorus.hot] sleep span =
  if span < 0 then invalid_arg "Engine.sleep: negative span";
  (* Parallel slices coalesce charges into the slice clock; doing it
     here rather than in the Sleep handler skips the effect round-trip
     (and its continuation allocation) on the pool's hottest path.  A
     switching sleep leaves its span in the engine for the handler. *)
  match Domain.DLS.get slot with
  | Slice pt -> pt.pt_clock <- pt.pt_clock + span
  | Coord eng when advance_in_place eng span -> ()
  | Coord eng -> eng.sleep_span <- span; Effect.perform Sleep
  | Idle -> Effect.perform Sleep

let suspend register = Effect.perform (Suspend register)

(* The engine running the current fibre, read from the domain slot —
   no global state, so nested or interleaved engines each see their
   own.  Between a coordinator's slices (event hook, scheduler,
   watchdog) the answer is the one where its [run] was called: [None]
   at top level. *)
let[@chorus.hot] ambient () =
  match Domain.DLS.get slot with
  | Coord eng -> if eng.in_slice then eng.me else eng.outside
  | Slice pt -> pt.pt_eng.me
  | Idle -> None

let[@chorus.hot] note_ambient ?write a b =
  match ambient () with Some eng -> note_access ?write eng a b | None -> ()

let[@chorus.hot] declare_wait_ambient ~on ?owner () =
  match ambient () with
  | Some eng -> declare_wait eng ~on ?owner ()
  | None -> ()

(* Runs a fibre body under the effect handler.  Deep handlers stay
   installed for the whole fibre, so a continuation resumed later from
   the event queue still sees Sleep/Suspend.  Each wake re-queues the
   fibre's [task] with the continuation as its next slice, so a fibre
   keeps its id, daemon flag and class.  The Sleep handler is built
   once per fibre.

   In a parallel slice, Sleep never reaches the handler ({!sleep}
   coalesces it into the slice's private clock), and the resume time
   comes from the slice; the DLS slot is read at perform time, so one
   fibre can even migrate between pool and coordinator across
   park/resume.  The resume flag is atomic because any domain may
   resume a parked fibre. *)
let exec eng task f =
  let p = eng.par in
  let finished () =
    (* Drop the last slice, so the record retains nothing it ran. *)
    task.run <- ignore;
    if not task.daemon then begin
      pool_enter p;
      eng.live <- eng.live - 1;
      if p.p_domains > 0 then Condition.signal p.p_idle;
      pool_exit p
    end
  in
  let on_sleep =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        eng.pending_wait <- None;
        task.run <- (fun () -> Effect.Deep.continue k ());
        schedule eng task (eng.now + eng.sleep_span))
  in
  Effect.Deep.match_with f ()
    {
      retc = finished;
      exnc = (fun ex -> finished (); raise ex);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Sleep -> on_sleep
          | Suspend register ->
            Some
              (fun k ->
                let parked = Domain.DLS.get slot in
                note_park eng task.fib;
                let resumed = Atomic.make false in
                register (fun () ->
                    if Atomic.exchange resumed true then
                      invalid_arg "Engine: resume called twice";
                    (* A slice resumes at the later of its own clock and
                       the waker's, so virtual time stays monotone along
                       every happens-before edge; a coordinator fibre at
                       the coordinator clock. *)
                    let time =
                      match parked with
                      | Slice pt -> max pt.pt_clock (now eng)
                      | Idle | Coord _ -> eng.now
                    in
                    task.run <- (fun () -> Effect.Deep.continue k ());
                    schedule eng task time))
          | _ -> None);
    }

let spawn eng ?name ?(daemon = false) ?(affinity = 0) f =
  if affinity < 0 then invalid_arg "Engine.spawn: negative affinity";
  if affinity <> 0 && daemon then
    invalid_arg "Engine.spawn: daemon fibres must stay in the serial class";
  let p = eng.par in
  (* Without workers every fibre is serial: affinity is advisory and
     ignored, which is what makes this engine the oracle twin of the
     pool. *)
  let cls = if p.p_domains = 0 then 0 else affinity in
  let task =
    { time = Sim_time.zero; seq = 0; daemon; fib = 0; cls; run = ignore }
  in
  (* Built outside the pool lock: the fibre body takes it. *)
  task.run <- (fun () -> exec eng task f);
  pool_enter p;
  if not daemon then eng.live <- eng.live + 1;
  let fib = eng.next_fib in
  eng.next_fib <- fib + 1;
  task.fib <- fib;
  (match name with
  | Some n ->
    Hashtbl.replace eng.names fib n;
    Obs.Trace.name_fibre eng.tracer fib n
  | None -> ());
  push eng p task (now eng);
  pool_exit p

(* A pool worker: pop a runnable lane, run its head task as a parallel
   slice, then hand the lane back.  Exceptions from fibre bodies are
   parked in [p_exn] for the coordinator to re-raise; the worker keeps
   serving (remaining fibres may hold locks a clean shutdown needs). *)
let worker eng p =
  (* Least-loaded simulated CPU (caller holds [p_lock]).  A slice
     tentatively begins at the later of its fibre's ready time and the
     least CPU clock; when it completes, its charge interval is placed
     on the then-least-loaded CPU, shifted forward if that CPU is
     already busy past the tentative start.  The pool's virtual-time
     horizon is thus the makespan of greedy list scheduling onto
     [p_domains] CPUs — charges on distinct CPUs overlap in simulated
     time, charges on the same CPU serialise — and, crucially, it does
     not depend on which OS worker executed which slice, so the model
     is stable under real-time scheduling skew.  (For a fibre that
     parks mid-charge-train and is resumed by a peer, the wakeup edge
     carries the pre-shift clock: the approximation under-counts such
     cross-CPU latency, never the CPU occupancy itself.) *)
  let pick_cpu () =
    let best = ref 0 in
    for i = 1 to Array.length p.p_cpu - 1 do
      if p.p_cpu.(i) < p.p_cpu.(!best) then best := i
    done;
    !best
  in
  let rec go () =
    Obs.Lockstat.lock p.p_stat p.p_lock;
    while Queue.is_empty p.runnable && not p.p_stop do
      Obs.Lockstat.wait p.p_stat p.p_work p.p_lock
    done;
    if p.p_stop then Obs.Lockstat.unlock p.p_stat p.p_lock
    else begin
      (* The claim runs under [p_lock]; an exception while it is held
         (a popped lane vanishing from the table would be an engine
         bug) must not wedge every other worker on a dead mutex. *)
      let aff, lane, task, base =
        Fun.protect
          ~finally:(fun () -> Obs.Lockstat.unlock p.p_stat p.p_lock)
          (fun () ->
            let aff = Queue.pop p.runnable in
            let lane =
              match Hashtbl.find_opt p.lanes aff with
              | Some lane -> lane
              | None -> invalid_arg "Engine.worker: runnable lane has no queue"
            in
            let task = Queue.pop lane.l_q in
            lane.l_busy <- true;
            p.p_running <- p.p_running + 1;
            if not task.daemon then eng.live_tasks <- eng.live_tasks - 1;
            let base = max task.time p.p_cpu.(pick_cpu ()) in
            (aff, lane, task, base))
      in
      let pt =
        { pt_eng = eng; pt_fib = task.fib; pt_clock = base; pt_wait = None }
      in
      Domain.DLS.set slot (Slice pt);
      if Obs.Trace.enabled eng.tracer then Obs.Trace.slice_begin eng.tracer;
      (try task.run ()
       with ex ->
         Obs.Lockstat.lock p.p_stat p.p_lock;
         if p.p_exn = None then p.p_exn <- Some ex;
         Obs.Lockstat.unlock p.p_stat p.p_lock);
      Domain.DLS.set slot Idle;
      Obs.Lockstat.lock p.p_stat p.p_lock;
      let cpu = pick_cpu () in
      let shift = max 0 (p.p_cpu.(cpu) - base) in
      let finish = pt.pt_clock + shift in
      p.p_cpu.(cpu) <- finish;
      p.p_busy.(cpu) <- p.p_busy.(cpu) + (pt.pt_clock - base);
      if Obs.Trace.enabled eng.tracer then
        Obs.Trace.slice_commit eng.tracer ~cpu ~fib:task.fib ~t0:(base + shift)
          ~t1:finish ~shift;
      p.p_running <- p.p_running - 1;
      if finish > p.p_horizon then p.p_horizon <- finish;
      lane.l_busy <- false;
      if not (Queue.is_empty lane.l_q) then begin
        Queue.push aff p.runnable;
        Condition.signal p.p_work
      end;
      Condition.signal p.p_idle;
      Obs.Lockstat.unlock p.p_stat p.p_lock;
      go ()
    end
  in
  go ()

(* --- The run loop ------------------------------------------------- *)

let pool_busy p = p.p_running > 0 || not (Queue.is_empty p.runnable)

(* Run while non-daemon work remains: queued tasks, or parked user
   fibres that a daemon or a parallel slice may still wake.  Once every
   user fibre has finished, pending daemon wakeups are discarded — a
   periodic daemon would otherwise keep the simulation alive forever.
   With workers, [p_lock] held. *)
let more eng p =
  eng.live_tasks > 0
  || eng.live > 0 && ((not (Pqueue.is_empty eng.queue)) || pool_busy p)

(* Dispatch under a scheduler: every dispatch is an explicit choice
   point.  The equal-time ready set is drained (the heap yields it in
   [seq] order) and the scheduler picks; multi-way picks are logged to
   [decisions], the schedule a forced replay re-drives.  The heap holds
   serial-class tasks only, so lane slices are never choice points. *)
let dispatch eng s =
  let q = eng.queue in
  let task = Pqueue.pop q in
  let rec gather acc =
    if (not (Pqueue.is_empty q)) && (Pqueue.top q).time = task.time then
      gather (Pqueue.pop q :: acc)
    else acc
  in
  let arr = Array.of_list (List.rev (gather [ task ])) in
  let ready =
    Array.map
      (fun t -> { rt_fib = t.fib; rt_seq = t.seq; rt_daemon = t.daemon })
      arr
  in
  let idx = s.sched_pick ~now:task.time ready in
  if idx < 0 || idx >= Array.length arr then
    invalid_arg "Engine: scheduler picked an out-of-range ready task";
  if Array.length arr > 1 then eng.decisions <- arr.(idx).fib :: eng.decisions;
  Array.iteri (fun i t -> if i <> idx then Pqueue.push eng.queue t) arr;
  arr.(idx)

(* Pop the next serial task.  Without a scheduler the heap order
   (time, seq) IS the policy. *)
let take eng =
  let task =
    match eng.sched with None -> Pqueue.pop eng.queue | Some s -> dispatch eng s
  in
  if not task.daemon then eng.live_tasks <- eng.live_tasks - 1;
  task

(* Whether a serial task is to run next.  With workers, first wait
   until one is due on a quiescent pool, so a serial slice never
   observes a half-done parallel mutation: a program whose fibres are
   all serial-class runs the identical schedule at any domain count.
   The pool then stays quiescent until that task runs — only running
   slices make lanes runnable — so [take] needs no lock. *)
let ready eng p =
  if p.p_domains = 0 then more eng p
  else begin
    Obs.Lockstat.lock p.p_stat p.p_lock;
    Fun.protect
      ~finally:(fun () -> Obs.Lockstat.unlock p.p_stat p.p_lock)
      (fun () ->
        while
          p.p_exn = None && more eng p
          && (Pqueue.is_empty eng.queue || pool_busy p)
        do
          Obs.Lockstat.wait p.p_stat p.p_idle p.p_lock
        done;
        p.p_exn = None && more eng p)
  end

let rec coordinate eng p =
  if ready eng p then begin
    let task = take eng in
    if task.time > eng.now then eng.now <- task.time;
    eng.cur_fib <- task.fib;
    eng.cur_daemon <- task.daemon;
    eng.in_slice <- true;
    (match eng.sched with
    | None -> task.run ()
    | Some _ ->
      eng.tracking <- true;
      eng.accesses <- [];
      Fun.protect ~finally:(fun () -> eng.tracking <- false) task.run);
    eng.in_slice <- false;
    (* The scheduler's step, the event hook and the watchdog sweep run
       between events — with workers, once the pool is quiescent too,
       so every slice the serial one set off has run or parked, and a
       cycle closed on the pool is raised here, before the run can end
       in Deadlock.  With none of them installed nothing waits. *)
    if eng.sched <> None || eng.on_event <> None || eng.watch <> None then begin
      if p.p_domains > 0 then begin
        Obs.Lockstat.lock p.p_stat p.p_lock;
        while pool_busy p do
          Obs.Lockstat.wait p.p_stat p.p_idle p.p_lock
        done;
        Obs.Lockstat.unlock p.p_stat p.p_lock
      end;
      (match eng.sched with
      | Some s ->
        let accesses = eng.accesses in
        eng.accesses <- [];
        s.sched_step ~fib:task.fib ~accesses
      | None -> ());
      (match eng.on_event with Some f -> f () | None -> ());
      watchdog_check eng
    end;
    coordinate eng p
  end

let stop_workers p workers =
  if p.p_domains > 0 then begin
    Obs.Lockstat.lock p.p_stat p.p_lock;
    p.p_stop <- true;
    Condition.broadcast p.p_work;
    Obs.Lockstat.unlock p.p_stat p.p_lock;
    Array.iter Domain.join workers
  end

let run eng main =
  let p = eng.par in
  let outer = Domain.DLS.get slot in
  eng.outside <- ambient ();
  eng.in_slice <- false;
  Domain.DLS.set slot (Coord eng);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set slot outer)
    (fun () ->
      (* Tracing with workers records through per-domain shards; the
         no-op is preserved because [set_sharded] ignores the null
         tracer and every recording entry point still checks
         [enabled] first. *)
      if p.p_domains > 0 then Obs.Trace.set_sharded eng.tracer true;
      spawn eng main;
      let workers =
        Array.init p.p_domains (fun _ -> Domain.spawn (fun () -> worker eng p))
      in
      (try coordinate eng p with ex -> stop_workers p workers; raise ex);
      stop_workers p workers;
      (match p.p_exn with Some ex -> raise ex | None -> ());
      if p.p_horizon > eng.now then eng.now <- p.p_horizon;
      if eng.live > 0 then raise (Deadlock eng.live))

let run_fn eng f =
  let result = ref None in
  run eng (fun () -> result := Some (f ()));
  Option.get !result

(* Condition variables for fibres, backed by a real mutex so
   registration, broadcast and the finished flag are race-free when
   waiters and wakers live on different domains.  [wait] and
   [await_unfinished] perform exactly one Suspend, and [broadcast] and
   [finish] wake in registration order. *)
module Cond = struct
  type t = {
    cv_lock : Mutex.t;
    mutable parked : (unit -> unit) list;
    mutable owner : int;
    mutable finished : bool;
  }

  let create () =
    { cv_lock = Mutex.create (); parked = []; owner = -1; finished = false }

  let wait c =
    suspend (fun resume ->
        Mutex.lock c.cv_lock;
        c.parked <- resume :: c.parked;
        Mutex.unlock c.cv_lock)

  let broadcast c =
    Mutex.lock c.cv_lock;
    let resumes = List.rev c.parked in
    c.parked <- [];
    Mutex.unlock c.cv_lock;
    List.iter (fun resume -> resume ()) resumes

  let finish c =
    Mutex.lock c.cv_lock;
    c.finished <- true;
    Mutex.unlock c.cv_lock;
    broadcast c

  let finished c = c.finished

  let await_unfinished c =
    if not c.finished then
      suspend (fun resume ->
          (* Re-check under the mutex inside the registration window:
             a [finish] racing with this park either sees our resume
             in [parked] or we see [finished] — the lost-wakeup gap of
             a plain wait is closed. *)
          Mutex.lock c.cv_lock;
          if c.finished then begin
            Mutex.unlock c.cv_lock;
            resume ()
          end
          else begin
            c.parked <- resume :: c.parked;
            Mutex.unlock c.cv_lock
          end)

  let waiters c = List.length c.parked
  let set_owner c fib = c.owner <- fib
  let owner c = c.owner
end
