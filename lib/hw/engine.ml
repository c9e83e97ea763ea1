type task = {
  time : Sim_time.t;
  seq : int;
  daemon : bool;
  fib : int;
  cls : int; (* affinity class; 0 = serial, runs on the coordinator *)
  run : unit -> unit;
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

(* Shared state of the parallel run mode.  Every field is protected by
   [p_lock]; in parallel mode the engine's own mutable fields (seq,
   live, live_tasks, queue, names, classes) are protected by the same
   lock, because fibres on worker domains spawn, sleep and resume
   concurrently with the coordinator. *)
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
         goes through it (one Atomic op), wait/hold wall-clock only
         when Lockstat timing is enabled *)
}

type t = {
  mutable now : Sim_time.t;
  mutable seq : int;
  queue : task Pqueue.t;
  mutable live : int; (* non-daemon fibres spawned and not yet finished *)
  mutable live_tasks : int; (* non-daemon tasks waiting in the queue *)
  mutable cur_fib : int; (* fibre the running task belongs to *)
  mutable cur_daemon : bool; (* the running task is a daemon's *)
  mutable next_fib : int;
  mutable tracer : Obs.Trace.t;
  mutable on_event : (unit -> unit) option;
  mutable sched : scheduler option;
  mutable decisions : int list; (* multi-ready picks, newest first *)
  mutable tracking : bool; (* inside a task slice under a scheduler *)
  mutable accesses : (int * int * bool) list;
      (* slice footprint, reversed; the bool marks a write *)
  names : (int, string) Hashtbl.t;
  classes : (int, int) Hashtbl.t; (* fibre -> affinity, non-zero only *)
  par : par option; (* None = the cooperative engine (the default) *)
  waiting : (int, wait_info) Hashtbl.t; (* parked fibres, by id *)
  mutable pending_wait : (string * int) option; (* next park's label/owner *)
  mutable watch : watchdog option;
}

exception Deadlock of int
exception Watchdog of string

type _ Effect.t +=
  | Sleep : Sim_time.span -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Ambient : t Effect.t

(* The parallel slice a worker domain is currently executing, if any.
   A fibre running on the pool advances a private virtual clock
   ([pt_clock]) instead of scheduling a wake-up per charge — the
   discrete-event queue only sees it again when it parks or finishes.
   [None] on the coordinator and in every sequential engine, so
   [in_parallel_slice] is the cheap "may another domain touch shared
   state right now?" test the locking seams are gated on. *)
type ptask = { pt_fib : int; mutable pt_clock : Sim_time.t }

let cur_ptask : ptask option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let in_parallel_slice () = Domain.DLS.get cur_ptask <> None

(* Tasks at distinct times run in time order; equal-time tasks run in
   [seq] (spawn/wake) order, the default policy.  Any other order is a
   {!scheduler}'s choice at dispatch time — legal because a fibre has
   at most one queued task (one-shot continuations), so program order
   within a fibre is unaffected and only genuinely concurrent work is
   reordered. *)
let cmp_task a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create ?domains () =
  let par =
    match domains with
    | None | Some 0 -> None
    | Some n when n < 0 -> invalid_arg "Engine.create: negative domain count"
    | Some n ->
      Some
        {
          p_domains = n;
          p_lock = Mutex.create ();
          p_work = Condition.create ();
          p_idle = Condition.create ();
          lanes = Hashtbl.create 16;
          runnable = Queue.create ();
          p_running = 0;
          p_stop = false;
          p_exn = None;
          p_horizon = Sim_time.zero;
          p_cpu = Array.make n Sim_time.zero;
          p_busy = Array.make n 0;
          p_stat = Obs.Lockstat.create ~cls:"pool" "engine/pool";
        }
  in
  {
    now = Sim_time.zero;
    seq = 0;
    queue = Pqueue.create ~cmp:cmp_task;
    live = 0;
    live_tasks = 0;
    cur_fib = 0;
    cur_daemon = false;
    next_fib = 1;
    tracer = Obs.Trace.null;
    on_event = None;
    sched = None;
    decisions = [];
    tracking = false;
    accesses = [];
    names = Hashtbl.create 16;
    classes = Hashtbl.create 16;
    par;
    waiting = Hashtbl.create 16;
    pending_wait = None;
    watch = None;
  }

let domains eng = match eng.par with Some p -> p.p_domains | None -> 0

(* Per-CPU utilization raw material: accumulated charge time per
   simulated CPU (empty on the sequential engine).  Read at
   quiescence — after [run] returns — for a stable snapshot. *)
let cpu_busy eng =
  match eng.par with None -> [||] | Some p -> Array.copy p.p_busy

let pool_lock_stats eng =
  match eng.par with None -> [] | Some p -> [ Obs.Lockstat.snapshot p.p_stat ]

(* Inside a parallel slice, "now" is the slice's private virtual
   clock; everywhere else it is the coordinator clock.  This keeps
   fault-latency arithmetic (now-after minus now-before) meaningful on
   the pool, where the coordinator clock stands still. *)
let now eng =
  match Domain.DLS.get cur_ptask with
  | Some pt -> pt.pt_clock
  | None -> eng.now

let current_fibre eng =
  match Domain.DLS.get cur_ptask with
  | Some pt -> pt.pt_fib
  | None -> eng.cur_fib

let tracer eng = eng.tracer

let set_tracer eng tr =
  eng.tracer <- tr;
  (* The DLS-aware accessors, not the raw fields: inside a parallel
     slice the tracer must see the slice's virtual clock and fibre,
     not the coordinator's. *)
  Obs.Trace.set_clock tr (fun () -> now eng);
  Obs.Trace.set_fibre tr (fun () -> current_fibre eng)

let set_event_hook eng hook = eng.on_event <- Some hook
let event_hook eng = match eng.on_event with Some f -> f () | None -> ()

let set_scheduler eng s =
  if eng.par <> None then
    invalid_arg
      "Engine.set_scheduler: schedulers require the sequential engine (this \
       engine was created with ~domains; explore schedules on the sequential \
       oracle twin instead)";
  eng.sched <- Some s
let clear_scheduler eng = eng.sched <- None
let decisions eng = List.rev eng.decisions
let tracking eng = eng.tracking

let note_access ?(write = true) eng a b =
  if eng.tracking then eng.accesses <- (a, b, write) :: eng.accesses

let fibre_name eng fib = Hashtbl.find_opt eng.names fib

let describe eng fib =
  match fibre_name eng fib with
  | Some n -> Printf.sprintf "fibre %d (%s)" fib n
  | None -> Printf.sprintf "fibre %d" fib

(* --- Watchdog ----------------------------------------------------- *)

let enable_watchdog eng ?(stall_after = Sim_time.ms 1000)
    ?(check_every = Sim_time.ms 1) ?metrics () =
  if eng.par <> None then
    invalid_arg
      "Engine.enable_watchdog: the watchdog requires the sequential engine \
       (this engine was created with ~domains; watch the sequential oracle \
       twin instead)";
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
  if eng.watch <> None then eng.pending_wait <- Some (on, owner)

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

(* Called from the Suspend handler as a fibre parks: register the
   wait, then see whether this park closed a blocked-on cycle.  The
   alarm is not raised here — effect handlers should not throw past
   live continuations — but parked for the run loop to raise after the
   current slice completes. *)
let note_park eng fib =
  (match eng.watch with
  | Some w ->
    let label, owner =
      match eng.pending_wait with Some lo -> lo | None -> ("suspend", -1)
    in
    Hashtbl.replace eng.waiting fib
      { wi_label = label; wi_owner = owner; wi_since = eng.now;
        wi_flagged = false };
    (match find_cycle eng fib with
    | Some cycle ->
      Obs.Metrics.incr w.wd_deadlocks;
      Obs.Trace.instant eng.tracer ~cat:"watchdog"
        ~args:[ ("fib", Obs.Trace.Int fib) ]
        "deadlock";
      if w.wd_alarm = None then w.wd_alarm <- Some (deadlock_diag eng cycle)
    | None -> ())
  | None -> ());
  eng.pending_wait <- None

let note_unpark eng fib = Hashtbl.remove eng.waiting fib

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

(* Route a freshly scheduled task.  [p_lock] held.  Serial-class tasks
   go to the discrete-event heap the coordinator drains; an affinity
   class goes to its lane, which becomes runnable when its head is the
   only queued task and no worker is already inside the lane. *)
let enqueue eng p (t : task) =
  if t.cls = 0 then Pqueue.push eng.queue t
  else begin
    let lane =
      match Hashtbl.find_opt p.lanes t.cls with
      | Some l -> l
      | None ->
        let l = { l_q = Queue.create (); l_busy = false } in
        Hashtbl.replace p.lanes t.cls l;
        l
    in
    Queue.push t lane.l_q;
    if (not lane.l_busy) && Queue.length lane.l_q = 1 then begin
      Queue.push t.cls p.runnable;
      Condition.signal p.p_work
    end
  end;
  Condition.signal p.p_idle

(* Stamp a task with the next sequence number and queue it: on the
   heap in sequential mode, routed by class in parallel mode, where
   the caller holds [p_lock]. *)
let push eng ~daemon ~fib ~cls time run =
  let seq = eng.seq in
  eng.seq <- seq + 1;
  if not daemon then eng.live_tasks <- eng.live_tasks + 1;
  let t = { time; seq; daemon; fib; cls; run } in
  match eng.par with None -> Pqueue.push eng.queue t | Some p -> enqueue eng p t

let schedule eng ~daemon ~fib time run =
  match eng.par with
  | None -> push eng ~daemon ~fib ~cls:0 time run
  | Some p ->
    Obs.Lockstat.lock p.p_stat p.p_lock;
    let cls =
      match Hashtbl.find_opt eng.classes fib with Some c -> c | None -> 0
    in
    push eng ~daemon ~fib ~cls time run;
    Obs.Lockstat.unlock p.p_stat p.p_lock

(* The sequential engine whose run loop owns this domain right now:
   set for the extent of [run] (and cleared under a parallel engine's
   coordinator), so {!sleep} can reach the engine without an effect. *)
let cur_seq : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Advance the clock in place when the Sleep round trip would pop this
   same fibre's wake-up straight back off the heap: every queued task
   is due strictly after [now + span].  The wake-up's sequence number
   is consumed and [pending_wait] cleared exactly as the handler does,
   so later tasks are numbered as before.  Only when nothing observes
   the dispatch in between: no scheduler (it picks and steps every
   slice), no watchdog (it checks between events), no event hook (it
   runs after every event), and a user fibre (the run loop decides
   whether a daemon's wake-up runs at all: once the last user fibre
   exits it drops them and ends the run). *)
let advance_in_place eng span =
  match (eng.sched, eng.watch, eng.on_event) with
  | None, None, None when not eng.cur_daemon ->
    let time = eng.now + span in
    if Pqueue.is_empty eng.queue || (Pqueue.top eng.queue).time > time
    then begin
      eng.seq <- eng.seq + 1;
      eng.pending_wait <- None;
      eng.now <- time;
      true
    end
    else false
  | _ -> false

let sleep span =
  if span < 0 then invalid_arg "Engine.sleep: negative span";
  (* Parallel slices coalesce charges into the slice clock; doing it
     here rather than in the Sleep handler skips the effect round-trip
     (and its continuation allocation) on the pool's hottest path.
     [cur_ptask] is never set outside a pool worker. *)
  match Domain.DLS.get cur_ptask with
  | Some pt -> pt.pt_clock <- pt.pt_clock + span
  | None -> (
    match Domain.DLS.get cur_seq with
    | Some eng when advance_in_place eng span -> ()
    | _ -> Effect.perform (Sleep span))

let suspend register = Effect.perform (Suspend register)

(* The engine running the current fibre, recovered through the effect
   handler the fibre executes under — no global state, so nested or
   interleaved engines each see their own.  [None] outside [run]. *)
let ambient () =
  match Effect.perform Ambient with
  | eng -> Some eng
  | exception Effect.Unhandled Ambient -> None

let note_ambient ?write a b =
  match ambient () with Some eng -> note_access ?write eng a b | None -> ()

let declare_wait_ambient ~on ?(owner = -1) () =
  match ambient () with
  | Some eng -> declare_wait eng ~on ~owner ()
  | None -> ()

(* Runs a fibre body under the effect handler.  Deep handlers stay
   installed for the whole fibre, so a continuation resumed later from
   the event queue still sees Sleep/Suspend.  Continuations of a
   daemon fibre schedule daemon tasks: the simulation ends when only
   daemon work remains.  Handlers run at perform time, so [cur_fib] is
   the performing fibre; continuations keep that id.

   On the domain pool, Sleep never reaches the handler ({!sleep}
   coalesces it into the slice's private clock) and Suspend parks
   against a real [Atomic] flag so any domain may resume; the branch
   is selected by the DLS slice marker at perform time, so one fibre
   can even migrate between pool and coordinator across park/resume. *)
let exec eng ~daemon f =
  let finished () =
    if not daemon then
      match eng.par with
      | None -> eng.live <- eng.live - 1
      | Some p ->
        Obs.Lockstat.lock p.p_stat p.p_lock;
        eng.live <- eng.live - 1;
        Condition.signal p.p_idle;
        Obs.Lockstat.unlock p.p_stat p.p_lock
  in
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> finished ());
      exnc = (fun ex -> finished (); raise ex);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep span ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                let fib = eng.cur_fib in
                eng.pending_wait <- None;
                schedule eng ~daemon ~fib (eng.now + span) (fun () ->
                    Effect.Deep.continue k ()))
          | Ambient ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                Effect.Deep.continue k eng)
          | Suspend register ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                match Domain.DLS.get cur_ptask with
                | Some pt ->
                  let fib = pt.pt_fib in
                  let resumed = Atomic.make false in
                  register (fun () ->
                      if Atomic.exchange resumed true then
                        invalid_arg "Engine: resume called twice";
                      (* Resume at the later of the parked fibre's own
                         clock and the waker's, so virtual time stays
                         monotone along every happens-before edge. *)
                      let time =
                        match Domain.DLS.get cur_ptask with
                        | Some w -> max pt.pt_clock w.pt_clock
                        | None -> max pt.pt_clock eng.now
                      in
                      schedule eng ~daemon ~fib time (fun () ->
                          Effect.Deep.continue k ()))
                | None ->
                  let fib = eng.cur_fib in
                  note_park eng fib;
                  let resumed = ref false in
                  register (fun () ->
                      if !resumed then
                        invalid_arg "Engine: resume called twice";
                      resumed := true;
                      note_unpark eng fib;
                      schedule eng ~daemon ~fib eng.now (fun () ->
                          Effect.Deep.continue k ())))
          | _ -> None);
    }

(* Register a new fibre and queue [run], its first slice; in parallel
   mode the caller holds [p_lock]. *)
let start eng ~name ~daemon ~cls run =
  if not daemon then eng.live <- eng.live + 1;
  let fib = eng.next_fib in
  eng.next_fib <- fib + 1;
  (match name with
  | Some n ->
    Hashtbl.replace eng.names fib n;
    Obs.Trace.name_fibre eng.tracer fib n
  | None -> ());
  if cls <> 0 then Hashtbl.replace eng.classes fib cls;
  push eng ~daemon ~fib ~cls (now eng) run

let spawn eng ?name ?(daemon = false) ?(affinity = 0) f =
  if affinity < 0 then invalid_arg "Engine.spawn: negative affinity";
  if affinity <> 0 && daemon then
    invalid_arg "Engine.spawn: daemon fibres must stay in the serial class";
  let run () = exec eng ~daemon f in
  match eng.par with
  | None ->
    (* The cooperative engine serialises everything; affinity is
       advisory and ignored, which is exactly what makes it the oracle
       twin of the parallel mode. *)
    start eng ~name ~daemon ~cls:0 run
  | Some p ->
    Obs.Lockstat.lock p.p_stat p.p_lock;
    start eng ~name ~daemon ~cls:affinity run;
    Obs.Lockstat.unlock p.p_stat p.p_lock

let run_sequential eng main =
  spawn eng main;
  (* Run while non-daemon work remains — either queued tasks, or
     suspended user fibres that a daemon (server loop, page-out
     daemon) may still wake.  Once every user fibre has finished,
     pending daemon wakeups are discarded: a periodic daemon would
     otherwise keep the simulation alive forever. *)
  (* Dispatch: without a scheduler the heap order (time, seq) IS the
     policy and the popped minimum runs — the fast path.  With one,
     every dispatch becomes an explicit choice point: the full set of
     equal-time ready tasks is drained (the heap yields it in [seq]
     order) and the scheduler picks one.  Multi-way picks are logged
     to [decisions], the schedule a forced replay re-drives. *)
  let dispatch s =
    let task = Pqueue.pop eng.queue in
    let rec gather acc =
      match Pqueue.pop_if eng.queue (fun t -> t.time = task.time) with
      | Some t -> gather (t :: acc)
      | None -> acc
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
    if Array.length arr > 1 then
      eng.decisions <- arr.(idx).fib :: eng.decisions;
    Array.iteri (fun i t -> if i <> idx then Pqueue.push eng.queue t) arr;
    arr.(idx)
  in
  let rec loop () =
    if
      eng.live_tasks > 0
      || (eng.live > 0 && not (Pqueue.is_empty eng.queue))
    then begin
      let task =
        match eng.sched with
        | None -> Pqueue.pop eng.queue
        | Some s -> dispatch s
      in
      assert (task.time >= eng.now);
      eng.now <- task.time;
      eng.cur_fib <- task.fib;
      eng.cur_daemon <- task.daemon;
      if not task.daemon then eng.live_tasks <- eng.live_tasks - 1;
      if eng.sched = None then task.run ()
      else begin
        eng.tracking <- true;
        eng.accesses <- [];
        Fun.protect ~finally:(fun () -> eng.tracking <- false) task.run;
        let accesses = eng.accesses in
        eng.accesses <- [];
        match eng.sched with
        | Some s -> s.sched_step ~fib:task.fib ~accesses
        | None -> ()
      end;
      event_hook eng;
      watchdog_check eng;
      loop ()
    end
  in
  loop ();
  if eng.live > 0 then raise (Deadlock eng.live)

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
      let pt = { pt_fib = task.fib; pt_clock = base } in
      Domain.DLS.set cur_ptask (Some pt);
      if Obs.Trace.enabled eng.tracer then Obs.Trace.slice_begin eng.tracer;
      (try task.run ()
       with ex ->
         Obs.Lockstat.lock p.p_stat p.p_lock;
         if p.p_exn = None then p.p_exn <- Some ex;
         Obs.Lockstat.unlock p.p_stat p.p_lock);
      Domain.DLS.set cur_ptask None;
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

(* The parallel coordinator.  Serial-class tasks still run here, in
   exact heap order — but only while the pool is quiescent, so a
   serial slice never observes a half-done parallel mutation.  This is
   the determinism contract: a program whose fibres are all
   serial-class executes the identical schedule the sequential engine
   would, at any domain count. *)
let run_parallel eng p main =
  if eng.sched <> None then
    invalid_arg "Engine.run: schedulers require the sequential engine";
  if eng.watch <> None then
    invalid_arg "Engine.run: the watchdog requires the sequential engine";
  (* Tracing in parallel mode records through per-domain shards; the
     no-op is preserved because [set_sharded] ignores the null tracer
     and every recording entry point still checks [enabled] first. *)
  Obs.Trace.set_sharded eng.tracer true;
  spawn eng main;
  let workers =
    Array.init p.p_domains (fun _ -> Domain.spawn (fun () -> worker eng p))
  in
  let stop_workers () =
    Obs.Lockstat.lock p.p_stat p.p_lock;
    p.p_stop <- true;
    Condition.broadcast p.p_work;
    Obs.Lockstat.unlock p.p_stat p.p_lock;
    Array.iter Domain.join workers
  in
  let pool_busy () = p.p_running > 0 || not (Queue.is_empty p.runnable) in
  let rec loop () =
    Obs.Lockstat.lock p.p_stat p.p_lock;
    if p.p_exn <> None then Obs.Lockstat.unlock p.p_stat p.p_lock
    else begin
      let more =
        eng.live_tasks > 0
        || eng.live > 0
           && ((not (Pqueue.is_empty eng.queue)) || pool_busy ())
      in
      if not more then Obs.Lockstat.unlock p.p_stat p.p_lock
      else if Pqueue.is_empty eng.queue then begin
        (* Only pool work in flight: wait for it to finish, park, or
           schedule something serial. *)
        Obs.Lockstat.wait p.p_stat p.p_idle p.p_lock;
        Obs.Lockstat.unlock p.p_stat p.p_lock;
        loop ()
      end
      else begin
        (* A serial task is due: barrier on pool quiescence first. *)
        while pool_busy () && p.p_exn = None do
          Obs.Lockstat.wait p.p_stat p.p_idle p.p_lock
        done;
        if p.p_exn <> None then (
          Obs.Lockstat.unlock p.p_stat p.p_lock;
          loop ())
        else begin
          let task =
            Fun.protect
              ~finally:(fun () -> Obs.Lockstat.unlock p.p_stat p.p_lock)
              (fun () ->
                let task = Pqueue.pop eng.queue in
                if not task.daemon then eng.live_tasks <- eng.live_tasks - 1;
                if task.time > eng.now then eng.now <- task.time;
                eng.cur_fib <- task.fib;
                task)
          in
          task.run ();
          event_hook eng;
          loop ()
        end
      end
    end
  in
  (try loop () with ex -> stop_workers (); raise ex);
  stop_workers ();
  (match p.p_exn with Some ex -> raise ex | None -> ());
  if p.p_horizon > eng.now then eng.now <- p.p_horizon;
  if eng.live > 0 then raise (Deadlock eng.live)

let run eng main =
  let outer = Domain.DLS.get cur_seq in
  Domain.DLS.set cur_seq (if eng.par = None then Some eng else None);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set cur_seq outer)
    (fun () ->
      match eng.par with
      | None -> run_sequential eng main
      | Some p -> run_parallel eng p main)

let run_fn eng f =
  let result = ref None in
  run eng (fun () -> result := Some (f ()));
  match !result with
  | Some v -> v
  | None -> assert false

(* Condition variables for fibres, now backed by a real mutex so
   registration, broadcast and the finished flag are race-free when
   waiters and wakers live on different domains.  On the sequential
   engine the mutex is uncontended and the operation sequence is
   unchanged: [wait]/[await_unfinished] perform exactly one Suspend
   and [broadcast]/[finish] wake in registration order, so schedules
   are byte-identical to the historical implementation. *)
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

  let drain c =
    Mutex.lock c.cv_lock;
    let resumes = List.rev c.parked in
    c.parked <- [];
    Mutex.unlock c.cv_lock;
    List.iter (fun resume -> resume ()) resumes

  let broadcast c = drain c

  let finish c =
    Mutex.lock c.cv_lock;
    c.finished <- true;
    Mutex.unlock c.cv_lock;
    drain c

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
