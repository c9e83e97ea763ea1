(* A fibre's one task record: [spawn] creates and numbers it, and each
   wake-up re-stamps and re-queues it with the slice to run next, sound
   as a fibre has at most one queued task (one-shot continuations). *)
type task = {
  mutable time : Sim_time.t;
  mutable seq : int;
  daemon : bool;
  mutable fib : int;
  lane : bool; (* runs as lane slices: non-zero affinity on simulated CPUs *)
  mutable run : unit -> unit;
  mutable started : bool; (* [run] resumes a continuation, not the body *)
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

(* The simulated CPUs.  [p_domains] is 0 for the sequential engine: no
   lane fibres, and every slice runs in heap order. *)
type par = {
  p_domains : int;
  lane_ready : task Queue.t; (* ready lane tasks, in [seq] order *)
  mutable p_horizon : Sim_time.t; (* max virtual clock a lane slice reached *)
  p_cpu : Sim_time.t array;
      (* simulated clock of each of the [p_domains] CPUs.  A slice runs
         on the least-loaded CPU — greedy list scheduling — so the
         horizon is the workload's makespan on an N-CPU machine. *)
  p_busy : Sim_time.span array;
      (* accumulated charge time per simulated CPU: every lane
         slice adds its charged interval to the CPU it was placed on,
         so busy(i) <= makespan and makespan - busy(i) is CPU i's idle
         time; the raw material of the utilization report. *)
}

type t = {
  mutable now : Sim_time.t;
  mutable seq : int;
  mutable heap : task array; (* serial tasks, a min-heap on (time, seq) *)
  mutable size : int; (* tasks in [heap]; the slots beyond hold [vacant] *)
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
  mutable tracking : bool; (* inside a slice under a scheduler *)
  mutable accesses : (int * int * bool) list;
      (* the slice's footprint, reversed; the bool marks a write *)
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

(* --- The task heap ------------------------------------------------ *)

(* Tasks at distinct times run in time order; equal-time tasks run in
   [seq] (spawn/wake) order, the default policy.  Any other order is a
   {!scheduler}'s choice at dispatch time — legal because a fibre has
   at most one queued task (one-shot continuations), so program order
   within a fibre is unaffected and only genuinely concurrent work is
   reordered.  The heap compares inline, and its sifts move a hole and
   are top-level loops, so a push or pop allocates nothing (the engine
   pushes and pops on every fibre switch). *)
let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Fills the slots beyond [size]: the heap must not keep a popped task,
   and everything its slice captured, reachable. *)
let vacant =
  { time = Sim_time.zero; seq = 0; daemon = true; fib = 0; lane = false;
    run = ignore; started = false }

let rec sift_up h task i =
  let parent = (i - 1) / 2 in
  if i > 0 && before task h.(parent) then begin
    h.(i) <- h.(parent);
    sift_up h task parent
  end
  else h.(i) <- task

let rec sift_down h size task i =
  let l = (2 * i) + 1 in
  if l >= size then h.(i) <- task
  else
    let c = if l + 1 < size && before h.(l + 1) h.(l) then l + 1 else l in
    if before h.(c) task then begin
      h.(i) <- h.(c);
      sift_down h size task c
    end
    else h.(i) <- task

let[@chorus.hot] [@inline] heap_push eng task =
  let size = eng.size in
  if size = Array.length eng.heap then begin
    let bigger = Array.make (max 16 (2 * size)) vacant in
    Array.blit eng.heap 0 bigger 0 size;
    eng.heap <- bigger
  end;
  eng.size <- size + 1;
  sift_up eng.heap task size

(* The heap's first task; the heap must not be empty. *)
let[@chorus.hot] [@inline] heap_pop eng =
  let h = eng.heap and size = eng.size - 1 in
  let top = h.(0) and last = h.(size) in
  h.(size) <- vacant;
  eng.size <- size;
  if size > 0 then sift_down h size last 0;
  top

let create ?(domains = 0) () =
  if domains < 0 then invalid_arg "Engine.create: negative domain count";
  let rec eng =
    {
      now = Sim_time.zero;
      seq = 0;
      heap = [||];
      size = 0;
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
          lane_ready = Queue.create ();
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
let[@inline] now eng =
  match !slot with
  | Slice pt -> pt.pt_clock
  | Idle | Coord _ -> eng.now

let[@inline] current_fibre eng =
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

(* Under a scheduler every slice, serial or lane, has its own
   footprint. *)
let tracking eng = eng.tracking

(* No default for [write]: an optional argument with a default splits
   into a wrapper and an inner function, and the inner one, which every
   caller would then call, does not inline. *)
let[@inline] note_access ?write eng a b =
  if tracking eng then
    eng.accesses <- (a, b, Option.value write ~default:true) :: eng.accesses

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
   it: a lane task joins the ready lane tasks, in the order they became
   ready; any other goes to the discrete-event heap. *)
let[@inline] push eng p task time =
  task.time <- time;
  task.seq <- eng.seq;
  eng.seq <- eng.seq + 1;
  if not task.daemon then eng.live_tasks <- eng.live_tasks + 1;
  if task.lane then Queue.push task p.lane_ready else heap_push eng task

(* Queue a fibre's next slice, [task.run].  A fibre being scheduled is
   no longer parked, so its waiting-table entry (if any) goes too. *)
let[@inline] schedule eng task time =
  if eng.watch <> None then Hashtbl.remove eng.waiting task.fib;
  push eng eng.par task time

(* Nothing observes between slices: no scheduler (it picks and steps
   every slice), no event hook (it runs after every slice), no watchdog
   (it checks between slices), and no ready lane task (the run loop
   runs those before the heap's next task).  Only then may a fibre's
   next slice skip the run loop: {!sleep}'s in-place clock advance and
   the effect handlers' hand-off. *)
let[@chorus.hot] [@inline] unobserved eng =
  Option.is_none eng.sched
  && Option.is_none eng.on_event
  && Option.is_none eng.watch
  && Queue.is_empty eng.par.lane_ready

(* Advance the clock in place when the Sleep round trip would pop this
   same fibre's wake-up straight back off the heap: every queued task
   is due strictly after [now + span].  The wake-up's sequence number
   is consumed and [pending_wait] cleared exactly as the handler does,
   so later tasks are numbered as before.  Only when nothing observes
   the dispatch, and for a user fibre (the run loop decides whether a
   daemon's wake-up runs at all: once the last user fibre exits it
   drops them and ends the run). *)
let[@chorus.hot] [@inline] advance_in_place eng span =
  unobserved eng
  && (not eng.cur_daemon)
  &&
  let time = eng.now + span in
  if eng.size = 0 || eng.heap.(0).time > time then begin
    eng.seq <- eng.seq + 1;
    eng.pending_wait <- None;
    eng.now <- time;
    true
  end
  else false

let[@chorus.hot] [@inline] sleep span =
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
let[@chorus.hot] [@inline] ambient () =
  match !slot with
  | Coord eng -> if eng.in_slice then eng.me else eng.outside
  | Slice pt -> pt.pt_eng.me
  | Idle -> None

let[@chorus.hot] [@inline] note_ambient ?write a b =
  match ambient () with Some eng -> note_access ?write eng a b | None -> ()

let[@chorus.hot] declare_wait_ambient ~on ?owner () =
  match ambient () with
  | Some eng -> declare_wait eng ~on ?owner ()
  | None -> ()

(* Run while non-daemon work remains: queued tasks, or parked user
   fibres that a queued daemon may still wake.  Once every user fibre
   has finished, pending daemon wakeups are discarded — a periodic
   daemon would otherwise keep the simulation alive forever.  Lane
   tasks are never a daemon's, so a ready one always counts. *)
let[@inline] more eng =
  eng.live_tasks > 0 || (eng.live > 0 && eng.size > 0)

(* A serial slice runs at the task's time on the coordinator clock. *)
let[@chorus.hot] [@inline] enter eng task =
  if task.time > eng.now then eng.now <- task.time;
  eng.cur_fib <- task.fib;
  eng.cur_daemon <- task.daemon

(* The last step of the Sleep and Suspend handlers, once the parking
   fibre's task is queued (or parked): when nothing observes and the
   handler runs under this engine's own run loop (not a nested one),
   take and resume the heap's next task here instead of returning to
   the run loop, which would take that same task next.  The resume
   must stay in tail position, here and in the handlers, so a chain of
   hand-offs keeps the host stack flat.  A fresh fibre's first slice
   goes back through the run loop: starting a fibre is no tail call. *)
let[@chorus.hot] hand_off eng =
  match !slot with
  | Coord e when e == eng && unobserved eng && more eng -> (
    let task = eng.heap.(0) in
    if task.started then begin
      ignore (heap_pop eng : task);
      if not task.daemon then eng.live_tasks <- eng.live_tasks - 1;
      enter eng task;
      task.run ()
    end)
  | Coord _ | Slice _ | Idle -> ()

(* Runs a fibre body under the effect handler.  Deep handlers stay
   installed for the whole fibre, so a continuation resumed later from
   the event queue still sees Sleep/Suspend.  Each wake re-queues the
   fibre's [task] with the continuation as its next slice, so a fibre
   keeps its id, daemon flag and class.  The Sleep handler is built
   once per fibre.  Both handlers end in {!hand_off}, which must stay a
   tail call: a switch skips the run loop only while nothing observes
   ({!unobserved}), and an installed observer sends every dispatch back
   through it.

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
        schedule eng task (eng.now + eng.sleep_span);
        hand_off eng)
  in
  task.started <- true;
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
                    schedule eng task time);
                hand_off eng)
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
  let lane = p.p_domains > 0 && affinity <> 0 in
  let task =
    { time = Sim_time.zero; seq = 0; daemon; fib = 0; lane; run = ignore;
      started = false }
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

(* The least-loaded simulated CPU, the lowest index on a tie. *)
let pick_cpu p =
  let best = ref 0 in
  for i = 1 to Array.length p.p_cpu - 1 do
    if p.p_cpu.(i) < p.p_cpu.(!best) then best := i
  done;
  !best

let serial_slice eng task =
  enter eng task;
  eng.in_slice <- true;
  task.run ();
  eng.in_slice <- false

(* A lane slice is placed when it starts, on the least-loaded simulated
   CPU.  The slice begins at the later of its fibre's ready time and
   that CPU's clock; when it completes, the CPU's clock moves to the
   slice's end and its charge interval is added to the CPU's busy time.
   The horizon is thus the makespan of greedy list scheduling onto
   [p_domains] CPUs: charges on distinct CPUs overlap in simulated
   time, charges on the same CPU serialise.  The slice's trace records
   went to the ring as it ran; its "slice" span follows if it charged
   time or recorded anything. *)
let lane_slice eng p task =
  let cpu = pick_cpu p in
  let base = max task.time p.p_cpu.(cpu) in
  let pt = { pt_eng = eng; pt_fib = task.fib; pt_clock = base; pt_wait = None } in
  let recorded tr = Obs.Trace.length tr + Obs.Trace.dropped tr in
  let before = recorded eng.tracer in
  slot := Slice pt;
  task.run ();
  slot := Coord eng;
  let finish = pt.pt_clock in
  p.p_cpu.(cpu) <- finish;
  p.p_busy.(cpu) <- p.p_busy.(cpu) + (finish - base);
  if Obs.Trace.enabled eng.tracer
     && (finish > base || recorded eng.tracer > before)
  then Obs.Trace.slice_commit eng.tracer ~cpu ~fib:task.fib ~t0:base ~t1:finish;
  if finish > p.p_horizon then p.p_horizon <- finish

let run_slice eng p task =
  if task.lane then lane_slice eng p task else serial_slice eng task

(* --- The run loop ------------------------------------------------- *)

(* Under a scheduler every dispatch is an explicit choice point over a
   ready set in [seq] order: the scheduler picks, a multi-way pick is
   logged to [decisions] (the schedule a forced replay re-drives) and
   the rest go back through [requeue]. *)
let pick eng s ~now arr requeue =
  let ready =
    Array.map
      (fun t -> { rt_fib = t.fib; rt_seq = t.seq; rt_daemon = t.daemon })
      arr
  in
  let idx = s.sched_pick ~now ready in
  if idx < 0 || idx >= Array.length arr then
    invalid_arg "Engine: scheduler picked an out-of-range ready task";
  if Array.length arr > 1 then eng.decisions <- arr.(idx).fib :: eng.decisions;
  Array.iteri (fun i t -> if i <> idx then requeue t) arr;
  arr.(idx)

(* The next task: a ready lane task while there is one, so the lanes
   drain before the heap moves on, and otherwise the heap's next task.
   Without a scheduler, ready order and the heap's (time, seq) order
   ARE the policy.  Under one, the ready set is every ready lane task,
   or else the heap's equal-time tasks (it yields them in [seq]
   order). *)
let take eng p =
  let lanes = p.lane_ready in
  let task =
    match eng.sched with
    | None -> if Queue.is_empty lanes then heap_pop eng else Queue.pop lanes
    | Some s when Queue.is_empty lanes ->
      let first = heap_pop eng in
      let rec gather acc =
        if eng.size > 0 && eng.heap.(0).time = first.time then
          gather (heap_pop eng :: acc)
        else acc
      in
      let arr = Array.of_list (List.rev (gather [ first ])) in
      pick eng s ~now:first.time arr (heap_push eng)
    | Some s ->
      let arr = Array.of_seq (Queue.to_seq lanes) in
      Queue.clear lanes;
      pick eng s ~now:eng.now arr (fun t -> Queue.push t lanes)
  in
  if not task.daemon then eng.live_tasks <- eng.live_tasks - 1;
  task

(* One slice, serial or lane, at a time.  Between slices run the
   scheduler's step (with the slice's own footprint), the event hook
   and the watchdog sweep, so a cycle closed in a lane slice is raised
   before the run can end in Deadlock.  A program whose fibres are all
   serial runs the identical schedule at any CPU count. *)
let rec coordinate eng p =
  if more eng then begin
    let task = take eng p in
    (match eng.sched with
    | None -> run_slice eng p task
    | Some _ ->
      eng.tracking <- true;
      eng.accesses <- [];
      Fun.protect
        ~finally:(fun () -> eng.tracking <- false)
        (fun () -> run_slice eng p task));
    if not (unobserved eng) then begin
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
