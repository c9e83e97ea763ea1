(* Contention accounting for one OS-level mutex.

   The parallel engine synchronises with real mutexes (the pool lock,
   the per-PVM mm-lock, the global-map shard locks); none of them
   advance the simulated clock, so contention on them is invisible to
   the cost model.  A [Lockstat.t] wraps a mutex's lock/unlock pair
   with two tiers of accounting:

   - counts (acquisitions, how many had to wait) are always on;
   - wait/hold *times* are wall-clock and only measured when a caller
     has installed a clock via {!enable_timing} — observability must
     not put a syscall on every lock acquisition by default.

   Every counter is a plain mutable int updated only while holding the
   instrumented mutex, so the lock it counts is also the lock that
   guards it: no atomic read-modify-write on a line every contending
   domain writes.  The counts are exact at quiescence, the only time
   they are read ({!snapshot} after the domains are drained or
   joined); a read during a parallel run may be stale.

   Wall-clock, not sim-clock, deliberately: a domain blocked on a
   mutex does not advance the virtual clock at all, so the only
   meaningful measure of the blocking is host time.  The numbers are
   machine-dependent and are reported, never gated on.

   A failed [try_lock] does not park straight away: the critical
   sections behind these mutexes are sub-microsecond, shorter than a
   futex sleep and wake, so the acquirer first retries for a bounded
   spin ([spin_rounds]) and only then blocks.  Either way the
   acquisition counts once in [ls_waits].

   A third, normally-off tier records *order witnesses*: each lockstat
   carries a lock-class tag ("pool", "mm", "shard", "cond"), and when
   witnessing is enabled every acquisition records which classes the
   acquiring domain already held.  The witness matrix is the observed
   may-hold-while-acquiring relation; [chorus crossval] asserts it is
   a subset of the hierarchy the static lint declares in
   [Lint.Lock_order], so the catalogue can never silently drift from
   runtime reality.  (The registration mutex inside
   [Hw.Engine.Cond] is a raw [Mutex.t], not Lockstat-instrumented, so
   the cond class appears in the static analysis only — it is a strict
   leaf with three-line critical sections.) *)

(* The lock classes of Lint.Lock_order plus a bucket for everything
   else.  Kept as a fixed array: witness recording must be a couple of
   array operations, never an allocation or a table probe. *)
let cls_names = [| "pool"; "mm"; "shard"; "cond"; "other" |]
let n_cls = Array.length cls_names

let cls_index name =
  let rec go i =
    if i >= n_cls - 1 then n_cls - 1
    else if cls_names.(i) = name then i
    else go (i + 1)
  in
  go 0

(* All mutable fields are guarded by the instrumented mutex. *)
type t = {
  ls_name : string;
  ls_cls : int; (* index into [cls_names] *)
  mutable ls_acquires : int;
  mutable ls_waits : int; (* acquisitions that found the lock held *)
  mutable ls_wait_ns : int;
  mutable ls_hold_ns : int;
  mutable ls_max_wait_ns : int;
  mutable ls_max_hold_ns : int;
  mutable ls_since : int; (* clock () at acquire *)
}

(* Installed clock, ns.  [None] = timing off (the default): lock and
   unlock make no syscalls. *)
let clock : (unit -> int) option ref = ref None
let timing = Atomic.make false

let enable_timing ~clock:c =
  clock := Some c;
  Atomic.set timing true

let disable_timing () = Atomic.set timing false

let now_ns () = match !clock with Some c -> c () | None -> 0

(* --- order witnesses ---------------------------------------------- *)

let witnessing = Atomic.make false

(* witness.(held).(acquired): acquisitions of class [acquired] made
   while the acquiring domain already held a lock of class [held]. *)
let witness =
  Array.init n_cls (fun _ -> Array.init n_cls (fun _ -> Atomic.make 0))

(* Per-domain counts of held locks by class; DLS so recording is two
   array ops with no synchronisation of its own. *)
let held_key : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make n_cls 0)

let enable_witnessing () = Atomic.set witnessing true
let disable_witnessing () = Atomic.set witnessing false

let reset_witnesses () =
  Array.iter (Array.iter (fun c -> Atomic.set c 0)) witness

let witness_pairs () =
  let acc = ref [] in
  for h = n_cls - 1 downto 0 do
    for a = n_cls - 1 downto 0 do
      let n = Atomic.get witness.(h).(a) in
      if n > 0 then acc := (cls_names.(h), cls_names.(a), n) :: !acc
    done
  done;
  !acc

let witness_acquired st =
  if Atomic.get witnessing then begin
    let held = Domain.DLS.get held_key in
    for h = 0 to n_cls - 1 do
      if held.(h) > 0 then Atomic.incr witness.(h).(st.ls_cls)
    done;
    held.(st.ls_cls) <- held.(st.ls_cls) + 1
  end

let witness_released st =
  if Atomic.get witnessing then begin
    let held = Domain.DLS.get held_key in
    if held.(st.ls_cls) > 0 then held.(st.ls_cls) <- held.(st.ls_cls) - 1
  end

(* --- construction and the lock/unlock pair ------------------------ *)

let create ?(cls = "other") name =
  {
    ls_name = name;
    ls_cls = cls_index cls;
    ls_acquires = 0;
    ls_waits = 0;
    ls_wait_ns = 0;
    ls_hold_ns = 0;
    ls_max_wait_ns = 0;
    ls_max_hold_ns = 0;
    ls_since = 0;
  }

(* [try_lock] retries before a contended acquirer parks.  On the
   2-domain storm (2-core host), 200, 500 and 1000 rounds measured
   alike. *)
let spin_rounds = 500

(* Take [m] by spinning, at most [n] more rounds; [false] if it stayed
   held throughout.  [Domain.cpu_relax] also services stop-the-world
   requests, so a spinning domain never stalls a minor collection. *)
let rec spin_acquire m n =
  if n = 0 then false
  else begin
    Domain.cpu_relax ();
    Mutex.try_lock m || spin_acquire m (n - 1)
  end

(* The blocked path of {!lock}: cold by construction (the fast path
   already failed to take the mutex). *)
let lock_blocked st m =
  (if Atomic.get timing then begin
     let t0 = now_ns () in
     if not (spin_acquire m spin_rounds) then Mutex.lock m;
     let waited = now_ns () - t0 in
     st.ls_wait_ns <- st.ls_wait_ns + waited;
     if waited > st.ls_max_wait_ns then st.ls_max_wait_ns <- waited;
     st.ls_since <- now_ns ()
   end
   else if not (spin_acquire m spin_rounds) then Mutex.lock m);
  st.ls_acquires <- st.ls_acquires + 1;
  st.ls_waits <- st.ls_waits + 1;
  witness_acquired st
[@@chorus.balanced
  "this IS the acquire half of the locking primitive: it takes the \
   mutex and deliberately returns holding it"]

let lock st m =
  if Mutex.try_lock m then begin
    st.ls_acquires <- st.ls_acquires + 1;
    if Atomic.get timing then st.ls_since <- now_ns ();
    witness_acquired st
  end
  else lock_blocked st m
[@@chorus.balanced
  "this IS the acquire half of the locking primitive: it takes the \
   mutex and deliberately returns holding it"]

(* Flush the hold-time of the current critical section; must be called
   with the mutex held. *)
let note_hold st =
  if Atomic.get timing then begin
    let held = now_ns () - st.ls_since in
    if held > 0 then begin
      st.ls_hold_ns <- st.ls_hold_ns + held;
      if held > st.ls_max_hold_ns then st.ls_max_hold_ns <- held
    end
  end

let unlock st m =
  note_hold st;
  witness_released st;
  Mutex.unlock m
[@@chorus.balanced
  "this IS the release half of the locking primitive: it is called \
   holding the mutex and deliberately returns without it"]

(* Condition-variable wait on the instrumented mutex.  The wait
   releases and re-acquires the mutex internally, so the critical
   section's hold time is split around it; the re-acquire inside
   [Condition.wait] is not counted as a contended acquisition, and the
   held-count is dipped around it so a parked domain does not witness
   as holding the lock. *)
let wait st cond m =
  note_hold st;
  witness_released st;
  Condition.wait cond m;
  (if Atomic.get witnessing then begin
     (* Re-acquire: restore the held-count without recording an order
        pair — the wait protocol requires every *other* lock to have
        been dropped already, so there is no pair to record. *)
     let held = Domain.DLS.get held_key in
     held.(st.ls_cls) <- held.(st.ls_cls) + 1
   end);
  if Atomic.get timing then st.ls_since <- now_ns ()

type snapshot = {
  name : string;
  acquires : int;
  waits : int;
  wait_ns : int;
  hold_ns : int;
  max_wait_ns : int;
  max_hold_ns : int;
}

let snapshot st =
  {
    name = st.ls_name;
    acquires = st.ls_acquires;
    waits = st.ls_waits;
    wait_ns = st.ls_wait_ns;
    hold_ns = st.ls_hold_ns;
    max_wait_ns = st.ls_max_wait_ns;
    max_hold_ns = st.ls_max_hold_ns;
  }

let name st = st.ls_name
let acquires st = st.ls_acquires
let waits st = st.ls_waits

let reset st =
  st.ls_acquires <- 0;
  st.ls_waits <- 0;
  st.ls_wait_ns <- 0;
  st.ls_hold_ns <- 0;
  st.ls_max_wait_ns <- 0;
  st.ls_max_hold_ns <- 0
