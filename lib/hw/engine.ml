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
   affinity execute in FIFO order, at most one at a time; distinct
   lanes model fibres on distinct simulated CPUs. *)
type lane = { l_q : task Queue.t; mutable l_busy : bool }

(* The simulated CPUs.  [p_domains] is 0 for the sequential engine: no
   lanes, and every slice runs in heap order. *)
type par = {
  p_domains : int;
  lanes : (int, lane) Hashtbl.t;
  runnable : int Queue.t; (* affinity classes with a runnable head *)
  mutable p_horizon : Sim_time.t; (* max virtual clock a lane slice reached *)
  p_cpu : Sim_time.t array;
      (* simulated clock of each of the [p_domains] CPUs.  A slice runs
         on the least-loaded CPU — greedy list scheduling — so the
         horizon is the workload's makespan on an N-CPU machine. *)
  p_busy : Sim_time.span array;
      (* accumulated charge time per simulated CPU: every committed
         slice adds its charged interval to the CPU it was placed on,
         so busy(i) <= makespan and makespan - busy(i) is CPU i's idle
         time; the raw material of the utilization report. *)
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

(* A lane slice: a fibre running on a simulated CPU advances a private
   virtual clock ([pt_clock]) instead of scheduling a wake-up per
   charge — the discrete-event queue only sees it again when it parks
   or finishes — and carries its own next-park annotation. *)
type ptask = {
  pt_eng : t; (* the lane's engine, {!ambient}'s answer *)
  pt_fib : int;
  mutable pt_clock : Sim_time.t;
  mutable pt_wait : (string * int) option;
}

(* What is running: a run loop (its engine, so {!sleep} and {!ambient}
   can reach it without an effect), a lane slice, or neither. *)
type slot = Idle | Coord of t | Slice of ptask

let slot = ref Idle

let in_parallel_slice () =
  match !slot with Slice _ -> true | Idle | Coord _ -> false

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
          lanes = Hashtbl.create 16;
          runnable = Queue.create ();
          p_horizon = Sim_time.zero;
          p_cpu = Array.make domains Sim_time.zero;
          p_busy = Array.make domains 0;
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

(* perfbench is its only caller. *)
let pool_lock_stats _ = []

(* Inside a lane slice, "now" is the slice's private virtual clock;
   everywhere else it is the coordinator clock.  This keeps
   fault-latency arithmetic (now-after minus now-before) meaningful in
   a lane slice, where the coordinator clock stands still. *)
let now eng =
  match !slot with
  | Slice pt -> pt.pt_clock
  | Idle | Coord _ -> eng.now

let current_fibre eng =
  match !slot with
  | Slice pt -> pt.pt_fib
  | Idle | Coord _ -> eng.cur_fib

let tracer eng = eng.tracer

let set_tracer eng tr =
  eng.tracer <- tr;
  (* The slot-aware accessors, not the raw fields: inside a lane slice
     the tracer must see the slice's virtual clock and fibre, not the
     coordinator's. *)
  Obs.Trace.set_clock tr (fun () -> now eng);
  Obs.Trace.set_fibre tr (fun () -> current_fibre eng)

let set_event_hook eng hook = eng.on_event <- Some hook
let set_scheduler eng s = eng.sched <- Some s
let clear_scheduler eng = eng.sched <- None
let decisions eng = List.rev eng.decisions

(* Footprints are the serial slices': a lane slice is not a choice
   point, and runs after the serial slice's tracking has ended. *)
let tracking eng = eng.tracking

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
    match !slot with
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

(* Called from the Suspend handler as a fibre parks: register the
   park, consuming the parking slice's annotation, and see whether it
   closed a blocked-on cycle.  Lane and serial parks share the one
   table.  The alarm is not raised here — effect handlers should
   not throw past live continuations — but parked for the run loop to
   raise between events. *)
let note_park eng fib =
  match eng.watch with
  | None -> ()
  | Some w ->
    let lo =
      match !slot with
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
    | None -> ())

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
   it.  Serial-class tasks go to the discrete-event heap; an affinity
   class goes to its lane, which becomes runnable when its head is the
   only queued task and no slice of the lane is running. *)
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
    if (not lane.l_busy) && Queue.length lane.l_q = 1 then
      Queue.push task.cls p.runnable
  end

(* Queue a fibre's next slice, [task.run].  A fibre being scheduled is
   no longer parked, so its waiting-table entry (if any) goes too. *)
let schedule eng task time =
  if eng.watch <> None then Hashtbl.remove eng.waiting task.fib;
  push eng eng.par task time

(* Advance the clock in place when the Sleep round trip would pop this
   same fibre's wake-up straight back off the heap: every queued task
   is due strictly after [now + span].  The wake-up's sequence number
   is consumed and [pending_wait] cleared exactly as the handler does,
   so later tasks are numbered as before.  Only when no lane is
   runnable (the run loop would run those first) and nothing observes
   the dispatch in between: no scheduler (it picks and steps every slice),
   no watchdog (it checks between events), no event hook (it runs
   after every event), and a user fibre (the run loop decides whether
   a daemon's wake-up runs at all: once the last user fibre exits it
   drops them and ends the run). *)
let[@chorus.hot] advance_in_place eng span =
  Option.is_none eng.sched
  && Option.is_none eng.watch
  && Option.is_none eng.on_event
  && Queue.is_empty eng.par.runnable
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
  (* Lane slices coalesce charges into the slice clock; doing it here
     rather than in the Sleep handler skips the effect round-trip (and
     its continuation allocation) on the lanes' hottest path.  A
     switching sleep leaves its span in the engine for the handler. *)
  match !slot with
  | Slice pt -> pt.pt_clock <- pt.pt_clock + span
  | Coord eng when advance_in_place eng span -> ()
  | Coord eng -> eng.sleep_span <- span; Effect.perform Sleep
  | Idle -> Effect.perform Sleep

let suspend register = Effect.perform (Suspend register)

(* The engine running the current fibre, read from the slot, which
   [run] saves and restores, so nested engines each see their own.
   Between a run loop's slices (event hook, scheduler, watchdog) the
   answer is the one where its [run] was called: [None] at top
   level. *)
let[@chorus.hot] ambient () =
  match !slot with
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

   In a lane slice, Sleep never reaches the handler ({!sleep}
   coalesces it into the slice's private clock), and the resume time
   comes from the slice; the slot is read at perform time. *)
let exec eng task f =
  let finished () =
    (* Drop the last slice, so the record retains nothing it ran. *)
    task.run <- ignore;
    if not task.daemon then eng.live <- eng.live - 1
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
                let parked = !slot in
                note_park eng task.fib;
                let resumed = ref false in
                register (fun () ->
                    if !resumed then invalid_arg "Engine: resume called twice";
                    resumed := true;
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
  (* Without simulated CPUs every fibre is serial: affinity is advisory
     and ignored, which is what makes this engine the oracle twin of
     the lanes. *)
  let cls = if p.p_domains = 0 then 0 else affinity in
  let task =
    { time = Sim_time.zero; seq = 0; daemon; fib = 0; cls; run = ignore }
  in
  task.run <- (fun () -> exec eng task f);
  if not daemon then eng.live <- eng.live + 1;
  let fib = eng.next_fib in
  eng.next_fib <- fib + 1;
  task.fib <- fib;
  (match name with
  | Some n ->
    Hashtbl.replace eng.names fib n;
    Obs.Trace.name_fibre eng.tracer fib n
  | None -> ());
  push eng p task (now eng)

(* Run the head of the next runnable lane as a lane slice.  The slice
   begins at the later of its fibre's ready time and the least CPU
   clock; when it completes, its charge interval is placed on the
   then-least-loaded CPU, shifted forward if that CPU is already busy
   past the start, and added to that CPU's busy time.  The horizon is
   thus the makespan of greedy list scheduling onto [p_domains] CPUs:
   charges on distinct CPUs overlap in simulated time, charges on the
   same CPU serialise.  (For a fibre that parks mid-charge-train and
   is resumed by a peer, the wakeup edge carries the pre-shift clock:
   the approximation under-counts such cross-CPU latency, never the
   CPU occupancy itself.) *)
let lane_slice eng p =
  let pick_cpu () =
    let best = ref 0 in
    for i = 1 to Array.length p.p_cpu - 1 do
      if p.p_cpu.(i) < p.p_cpu.(!best) then best := i
    done;
    !best
  in
  let aff = Queue.pop p.runnable in
  let lane = Hashtbl.find p.lanes aff in
  let task = Queue.pop lane.l_q in
  lane.l_busy <- true;
  if not task.daemon then eng.live_tasks <- eng.live_tasks - 1;
  let base = max task.time p.p_cpu.(pick_cpu ()) in
  let pt = { pt_eng = eng; pt_fib = task.fib; pt_clock = base; pt_wait = None } in
  slot := Slice pt;
  if Obs.Trace.enabled eng.tracer then Obs.Trace.slice_begin eng.tracer;
  task.run ();
  slot := Coord eng;
  let cpu = pick_cpu () in
  let shift = max 0 (p.p_cpu.(cpu) - base) in
  let finish = pt.pt_clock + shift in
  p.p_cpu.(cpu) <- finish;
  p.p_busy.(cpu) <- p.p_busy.(cpu) + (pt.pt_clock - base);
  if Obs.Trace.enabled eng.tracer then
    Obs.Trace.slice_commit eng.tracer ~cpu ~fib:task.fib ~t0:(base + shift)
      ~t1:finish ~shift;
  if finish > p.p_horizon then p.p_horizon <- finish;
  lane.l_busy <- false;
  if not (Queue.is_empty lane.l_q) then Queue.push aff p.runnable

(* --- The run loop ------------------------------------------------- *)

(* Run while non-daemon work remains: queued tasks, or parked user
   fibres that a queued daemon may still wake.  Once every user fibre
   has finished, pending daemon wakeups are discarded — a periodic
   daemon would otherwise keep the simulation alive forever.  Called
   with no lane runnable. *)
let more eng =
  eng.live_tasks > 0 || (eng.live > 0 && not (Pqueue.is_empty eng.queue))

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

(* One serial slice, then every lane slice it made runnable, in FIFO
   order of the lanes becoming runnable: so a serial slice always runs
   with no lane runnable, and a program whose fibres are all serial
   runs the identical schedule at any CPU count. *)
let rec coordinate eng p =
  if more eng then begin
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
    while not (Queue.is_empty p.runnable) do
      lane_slice eng p
    done;
    (* The scheduler's step, the event hook and the watchdog sweep run
       between events, once the lane slices the serial one set off have
       run or parked, so a cycle closed in a lane is raised here, before
       the run can end in Deadlock. *)
    if eng.sched <> None || eng.on_event <> None || eng.watch <> None then begin
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

let run eng main =
  let p = eng.par in
  let outer = !slot in
  eng.outside <- ambient ();
  eng.in_slice <- false;
  slot := Coord eng;
  Fun.protect
    ~finally:(fun () -> slot := outer)
    (fun () ->
      spawn eng main;
      coordinate eng p;
      if p.p_horizon > eng.now then eng.now <- p.p_horizon;
      if eng.live > 0 then raise (Deadlock eng.live))

let run_fn eng f =
  let result = ref None in
  run eng (fun () -> result := Some (f ()));
  Option.get !result

(* Condition variables for fibres.  [wait] and [await_unfinished]
   perform exactly one Suspend, and [broadcast] and [finish] wake in
   registration order. *)
module Cond = struct
  type t = {
    mutable parked : (unit -> unit) list;
    mutable owner : int;
    mutable finished : bool;
  }

  let create () = { parked = []; owner = -1; finished = false }
  let wait c = suspend (fun resume -> c.parked <- resume :: c.parked)

  let broadcast c =
    let resumes = List.rev c.parked in
    c.parked <- [];
    List.iter (fun resume -> resume ()) resumes

  let finish c =
    c.finished <- true;
    broadcast c

  let finished c = c.finished
  let await_unfinished c = if not c.finished then wait c
  let waiters c = List.length c.parked
  let set_owner c fib = c.owner <- fib
  let owner c = c.owner
end
