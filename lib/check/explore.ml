(* Systematic schedule exploration for the PVM: a stateless model
   checker in the style of Flanagan & Godefroid's dynamic
   partial-order reduction, driven through Hw.Engine's scheduling
   choice-point API.

   The engine's only nondeterminism is the dispatch order of ready
   tasks carrying the same simulated time; each dispatched task runs a
   SLICE — up to the fibre's next charge/sleep/suspend.  A schedule is
   the sequence of choices made at multi-ready dispatches, so the
   explorer re-runs a scenario thunk from scratch under controlled
   schedules, walking the choice tree by DFS.

   Pruning uses a fragment-level independence relation: every slice
   reports the shared objects it touched (global-map fragments as
   (cache id, offset); the frame pool and the cache/context topology
   as coarse classes, see Core.Types.note_frag), and two slices
   commute unless their footprints intersect.  After each completed
   schedule a vector-clock race analysis finds reversible races and
   seeds backtrack points (persistent-set side); sleep sets kill the
   remaining redundant interleavings.  A preemption-bounded mode
   (plain DFS, no DPOR — the combination would be unsound) caps the
   number of times the scheduler switches away from a still-ready
   fibre, for scenarios too big to exhaust. *)

(* --- Small utilities --------------------------------------------- *)

module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length v = v.len

  let get v i =
    assert (i >= 0 && i < v.len);
    v.data.(i)

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (max 8 (2 * v.len)) x in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let truncate v n = if n < v.len then v.len <- n
  let clear v = v.len <- 0
end

(* A slice footprint: sorted, deduplicated shared-object ids, each
   carrying whether the slice wrote it.  A key noted both ways in one
   slice collapses to a write. *)
type objs = ((int * int) * bool) array

let canon (l : (int * int * bool) list) : objs =
  let sorted =
    List.sort_uniq compare (List.map (fun (a, b, w) -> ((a, b), w)) l)
  in
  let rec merge = function
    | (k1, w1) :: (k2, w2) :: rest when k1 = k2 ->
      merge ((k1, w1 || w2) :: rest)
    | e :: rest -> e :: merge rest
    | [] -> []
  in
  Array.of_list (merge sorted)

(* Two slices conflict when they touch a common object and at least
   one of them writes it: read-read pairs commute. *)
let conflict (a : objs) (b : objs) =
  let rec go i j =
    i < Array.length a
    && j < Array.length b
    &&
    let ka, wa = a.(i) and kb, wb = b.(j) in
    let c = compare ka kb in
    if c = 0 then wa || wb || go (i + 1) (j + 1)
    else if c < 0 then go (i + 1) j
    else go i (j + 1)
  in
  go 0 0

(* --- Explorer state ---------------------------------------------- *)

exception Sleep_blocked
(* the run entered a state whose every enabled transition is in the
   sleep set: a redundant interleaving, abandoned mid-flight *)

exception Too_many_steps of int

type step = {
  st_fib : int;
  st_objs : objs;
  st_node : int; (* choice node that picked this slice, -1 if forced *)
}

type node = {
  n_ready : int array; (* fibre ids at this choice point, seq order *)
  n_preempts : int; (* preemptions spent before this choice *)
  n_prev_fib : int; (* fibre of the preceding slice, -1 at start *)
  n_sleep0 : (int * objs) list; (* sleep set inherited on arrival *)
  mutable n_chosen : int; (* fibre of the branch being explored *)
  mutable n_chosen_objs : objs; (* its slice footprint, once known *)
  mutable n_done : (int * objs) list; (* retired branches *)
  mutable n_backtrack : int list; (* branches the race analysis demands *)
}

(* 1 when choosing fibre [f] at [n] switches away from a still-ready
   predecessor *)
let preemption n f =
  if
    n.n_prev_fib >= 0 && f <> n.n_prev_fib
    && Array.exists (fun x -> x = n.n_prev_fib) n.n_ready
  then 1
  else 0

type stats = {
  mutable schedules : int;
  mutable sleep_blocked : int;
  mutable sleep_skips : int;
  mutable bound_pruned : int;
  mutable races : int;
  mutable steps_total : int;
  mutable max_depth : int;
  mutable distinct_outcomes : int;
  mutable exhausted : bool;
}

type violation = {
  v_kind : string;
  v_detail : string;
  v_schedule : int list;
  v_digest : string option; (* the digest an oracle rejected *)
}

type result = {
  r_stats : stats;
  r_violation : violation option;
  r_outcomes : (string, int) Hashtbl.t;
}

(* How one harness run ended, as the explorer sees it: its two
   private exceptions first, then the harness's classification. *)
let verdict (h : Harness.t) =
  match h.ending with
  | Ok obs -> `Done obs
  | Error { exn = Sleep_blocked; _ } -> `Sleep
  | Error { exn = Too_many_steps n; _ } ->
    `Violation
      ("divergence", Printf.sprintf "schedule exceeded %d engine events" n)
  | Error f -> `Violation (f.kind, f.detail)

(* --- The DFS driver ---------------------------------------------- *)

let run ?bound ?max_schedules ?(max_steps = 200_000) (scenario : Scenario.t) :
    result =
  let exhaustive = bound = None in
  let stats =
    {
      schedules = 0;
      sleep_blocked = 0;
      sleep_skips = 0;
      bound_pruned = 0;
      races = 0;
      steps_total = 0;
      max_depth = 0;
      distinct_outcomes = 0;
      exhausted = false;
    }
  in
  let nodes : node Vec.t = Vec.create () in
  (* per-run state *)
  let steps : step Vec.t = Vec.create () in
  let depth = ref 0 in
  let cur_sleep : (int * objs) list ref = ref [] in
  let prev_fib = ref (-1) in
  let preempts = ref 0 in
  let pending_node = ref (-1) in
  let outcomes_seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let slept f sleep = List.exists (fun (sf, _) -> sf = f) sleep in

  let pick ~now:_ (ready : Hw.Engine.ready_task array) =
    if Array.length ready = 1 then begin
      (* No choice — but if the lone enabled fibre is asleep, every
         continuation of this run is covered by an already-explored
         reordering. *)
      if exhaustive && slept ready.(0).Hw.Engine.rt_fib !cur_sleep then
        raise Sleep_blocked;
      pending_node := -1;
      0
    end
    else begin
      let fibs =
        Array.map (fun (r : Hw.Engine.ready_task) -> r.Hw.Engine.rt_fib) ready
      in
      let d = !depth in
      incr depth;
      let n =
        if d < Vec.length nodes then begin
          (* replaying the DFS prefix *)
          let n = Vec.get nodes d in
          if n.n_ready <> fibs then
            failwith
              "Check.Explore: nondeterministic replay (ready set changed)";
          n
        end
        else begin
          let sleep = !cur_sleep in
          let chosen =
            if exhaustive then
              match Array.find_opt (fun f -> not (slept f sleep)) fibs with
              | Some f -> f
              | None -> raise Sleep_blocked
            else if Array.exists (fun f -> f = !prev_fib) fibs then
              !prev_fib (* non-preemptive default *)
            else fibs.(0)
          in
          let n =
            {
              n_ready = fibs;
              n_preempts = !preempts;
              n_prev_fib = !prev_fib;
              n_sleep0 = sleep;
              n_chosen = chosen;
              n_chosen_objs = [||];
              n_done = [];
              n_backtrack = [];
            }
          in
          Vec.push nodes n;
          n
        end
      in
      (* retired siblings sleep until something dependent runs *)
      if exhaustive then cur_sleep := n.n_done @ n.n_sleep0;
      preempts := n.n_preempts + preemption n n.n_chosen;
      pending_node := d;
      Option.get (Array.find_index (fun f -> f = n.n_chosen) fibs)
    end
  in

  let on_step ~fib ~accesses =
    let objs = canon accesses in
    Vec.push steps { st_fib = fib; st_objs = objs; st_node = !pending_node };
    (match !pending_node with
    | -1 -> ()
    | d -> (Vec.get nodes d).n_chosen_objs <- objs);
    pending_node := -1;
    if exhaustive then
      cur_sleep :=
        List.filter
          (fun (f, o) -> f <> fib && not (conflict o objs))
          !cur_sleep;
    prev_fib := fib;
    if Vec.length steps > max_steps then raise (Too_many_steps max_steps)
  in

  let scheduler = { Hw.Engine.sched_pick = pick; sched_step = on_step } in

  let run_once () =
    depth := 0;
    Vec.clear steps;
    cur_sleep := [];
    prev_fib := -1;
    preempts := 0;
    pending_node := -1;
    verdict
      (Harness.run ~scheduler ~every_event:true ~instrument:false scenario)
  in

  let current_schedule () =
    List.init !depth (fun i -> (Vec.get nodes i).n_chosen)
  in

  (* Vector-clock race analysis over the just-completed schedule
     (Flanagan–Godefroid): for every slice j and every immediate
     conflicting predecessor i from another fibre, the pair is a
     reversible race when j does not depend on i through any OTHER
     path — then running j's fibre instead of i at i's choice point
     realizes a different trace, so it goes into that node's backtrack
     set (or, when j's fibre was not ready there, conservatively every
     ready fibre does). *)
  let analyze_races () =
    let nsteps = Vec.length steps in
    let fib_idx : (int, int) Hashtbl.t = Hashtbl.create 8 in
    for k = 0 to nsteps - 1 do
      let f = (Vec.get steps k).st_fib in
      if not (Hashtbl.mem fib_idx f) then
        Hashtbl.add fib_idx f (Hashtbl.length fib_idx)
    done;
    let nf = Hashtbl.length fib_idx in
    let fidx f = Hashtbl.find fib_idx f in
    let join dst src =
      Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src
    in
    let clocks = Array.make nsteps [||] in
    let fib_clock = Array.init nf (fun _ -> Array.make nf (-1)) in
    (* Per-object dependence frontier: a read depends on the last
       write; a write depends on the last write AND every read since
       it (it must not overtake either). *)
    let last_write : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
    let reads_since : (int * int, int list) Hashtbl.t = Hashtbl.create 256 in
    for j = 0 to nsteps - 1 do
      let sj = Vec.get steps j in
      let fj = fidx sj.st_fib in
      let deps =
        Array.fold_left
          (fun acc (o, w) ->
            let add acc i = if List.mem i acc then acc else i :: acc in
            let acc =
              match Hashtbl.find_opt last_write o with
              | Some i -> add acc i
              | None -> acc
            in
            if w then
              List.fold_left add acc
                (Option.value ~default:[] (Hashtbl.find_opt reads_since o))
            else acc)
          [] sj.st_objs
      in
      List.iter
        (fun i ->
          let si = Vec.get steps i in
          if si.st_fib <> sj.st_fib then begin
            let c_minus = Array.copy fib_clock.(fj) in
            List.iter
              (fun i' -> if i' <> i then join c_minus clocks.(i'))
              deps;
            if c_minus.(fidx si.st_fib) < i then begin
              stats.races <- stats.races + 1;
              match si.st_node with
              | -1 -> () (* no alternative existed before slice i *)
              | d ->
                let n = Vec.get nodes d in
                let tried f =
                  f = n.n_chosen
                  || List.mem f n.n_backtrack
                  || List.exists (fun (df, _) -> df = f) n.n_done
                in
                if Array.exists (fun f -> f = sj.st_fib) n.n_ready then begin
                  if not (tried sj.st_fib) then
                    n.n_backtrack <- sj.st_fib :: n.n_backtrack
                end
                else
                  Array.iter
                    (fun f ->
                      if not (tried f) then n.n_backtrack <- f :: n.n_backtrack)
                    n.n_ready
            end
          end)
        deps;
      let c = Array.copy fib_clock.(fj) in
      List.iter (fun i -> join c clocks.(i)) deps;
      c.(fj) <- j;
      clocks.(j) <- c;
      fib_clock.(fj) <- c;
      Array.iter
        (fun (o, w) ->
          if w then begin
            Hashtbl.replace last_write o j;
            Hashtbl.remove reads_since o
          end
          else
            Hashtbl.replace reads_since o
              (j :: Option.value ~default:[] (Hashtbl.find_opt reads_since o)))
        sj.st_objs
    done
  in

  (* Retire the deepest node's current branch and move to the next
     unexplored one, popping exhausted nodes.  False when the whole
     tree is done. *)
  let rec backtrack () =
    if Vec.length nodes = 0 then false
    else begin
      let d = Vec.length nodes - 1 in
      let n = Vec.get nodes d in
      n.n_done <- (n.n_chosen, n.n_chosen_objs) :: n.n_done;
      let retired f = List.exists (fun (df, _) -> df = f) n.n_done in
      let next =
        match bound with
        | None ->
          (* DPOR: only branches the race analysis demanded, minus
             those the sleep set already proves redundant *)
          let rec go = function
            | [] -> None
            | f :: rest ->
              if retired f then go rest
              else (
                match List.find_opt (fun (sf, _) -> sf = f) n.n_sleep0 with
                | Some (_, o) ->
                  stats.sleep_skips <- stats.sleep_skips + 1;
                  n.n_done <- (f, o) :: n.n_done;
                  go rest
                | None -> Some f)
          in
          go n.n_backtrack
        | Some k ->
          (* bounded DFS: every ready fibre within the budget *)
          let cand = ref None in
          Array.iter
            (fun f ->
              if !cand = None && not (retired f) then
                if n.n_preempts + preemption n f <= k then cand := Some f
                else begin
                  stats.bound_pruned <- stats.bound_pruned + 1;
                  n.n_done <- (f, [||]) :: n.n_done
                end)
            n.n_ready;
          !cand
      in
      match next with
      | Some f ->
        n.n_chosen <- f;
        n.n_chosen_objs <- [||];
        true
      | None ->
        Vec.truncate nodes d;
        backtrack ()
    end
  in

  let violation = ref None in
  let found (v_kind, v_detail) v_digest =
    violation :=
      Some { v_kind; v_detail; v_schedule = current_schedule (); v_digest }
  in
  (* the first completed schedule is every later one's reference *)
  let reference = ref None in
  let judge obs =
    if Option.is_none !reference then reference := Some obs;
    Harness.judge scenario ~reference:(Option.get !reference) obs
  in
  let budget_left () =
    match max_schedules with
    | None -> true
    | Some m -> stats.schedules + stats.sleep_blocked < m
  in
  let rec drive () =
    let outcome = run_once () in
    stats.steps_total <- stats.steps_total + Vec.length steps;
    if !depth > stats.max_depth then stats.max_depth <- !depth;
    match outcome with
    | `Done (obs : Harness.obs) -> (
      stats.schedules <- stats.schedules + 1;
      let digest = obs.observed in
      Hashtbl.replace outcomes_seen digest
        (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes_seen digest));
      match judge obs with
      | Some kd -> found kd (Some digest)
      | None ->
        if exhaustive then analyze_races ();
        if not (budget_left ()) then ()
        else if backtrack () then drive ()
        else stats.exhausted <- true)
    | `Sleep ->
      stats.sleep_blocked <- stats.sleep_blocked + 1;
      if not (budget_left ()) then ()
      else if backtrack () then drive ()
      else stats.exhausted <- true
    | `Violation kd -> found kd None
  in
  drive ();
  stats.distinct_outcomes <- Hashtbl.length outcomes_seen;
  { r_stats = stats; r_violation = !violation; r_outcomes = outcomes_seen }

(* --- Replay ------------------------------------------------------ *)

type forced = {
  f_verdict : [ `Done of string | `Sleep | `Violation of string * string ];
  f_run : Harness.t;
}

(* Re-run [v]'s schedule: at the d-th choice point take the fibre the
   schedule names (falling back to seq order if it is absent — the
   schedule then no longer matches the binary, but the run stays
   legal).  An oracle violation is a completed run, so ending on the
   digest the oracle rejected IS the violation. *)
let run_forced ?domains ?(instrument = false) ?(max_steps = 200_000) scenario v
    =
  let rest = ref v.v_schedule and nsteps = ref 0 in
  let pick ~now:_ (ready : Hw.Engine.ready_task array) =
    if Array.length ready = 1 then 0
    else
      let want = match !rest with f :: tl -> rest := tl; f | [] -> min_int in
      Option.value ~default:0
        (Array.find_index (fun (r : Hw.Engine.ready_task) -> r.rt_fib = want) ready)
  in
  let on_step ~fib:_ ~accesses:_ =
    incr nsteps;
    if !nsteps > max_steps then raise (Too_many_steps max_steps)
  in
  let f_run =
    Harness.run ?domains
      ~scheduler:{ sched_pick = pick; sched_step = on_step }
      ~every_event:true ~instrument scenario
  in
  let f_verdict =
    match verdict f_run with
    | `Done obs when v.v_digest = Some obs.Harness.observed ->
      `Violation (v.v_kind, v.v_detail)
    | `Done obs -> `Done obs.observed
    | (`Sleep | `Violation _) as verdict -> verdict
  in
  { f_verdict; f_run }

(* --- Reporting --------------------------------------------------- *)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<v>schedules explored: %d@ distinct outcomes: %d@ reversible races: \
     %d@ sleep-set pruned: %d runs abandoned, %d backtracks skipped@ \
     preemption-bound pruned: %d branches@ engine events: %d@ deepest choice \
     stack: %d@ state space: %s@]"
    s.schedules s.distinct_outcomes s.races s.sleep_blocked s.sleep_skips
    s.bound_pruned s.steps_total s.max_depth
    (if s.exhausted then "exhausted" else "NOT exhausted (budget hit)")

let pp_violation ppf (v : violation) =
  Format.fprintf ppf "@[<v>%s violation on schedule [%s]:@ %s@]" v.v_kind
    (String.concat ";" (List.map string_of_int v.v_schedule))
    v.v_detail

(* --- Fault injection re-exports ---------------------------------- *)

(* The mutation tests flip these to reintroduce two historical races
   and assert the explorer finds each within a bounded number of
   schedules.  Aliased here so tests depend on one module. *)
module For_testing = struct
  let evict_claim_late = Core.Pager.For_testing.evict_claim_late
  let skip_insert_probe = Core.Install.For_testing.skip_insert_probe
end
