(* The layers' public counters, read at the edges of a round's timed
   phase.  A reading is a flat int array, so the phase's work is the
   elementwise difference of two readings. *)

(* Fault resolution kinds, in [Core.Fault.hist_index] order, with the
   metric spelling ("zero-fill" -> "zero_fill"). *)
let kinds =
  Array.map
    (fun h ->
      let k = String.sub h 6 (String.length h - 6) (* drop "fault." *) in
      String.map (fun c -> if c = '-' then '_' else c) k)
    Core.Fault.hist_names

let n_kinds = Array.length kinds
let kind_mixed = n_kinds (* an access that moved several kinds *)

let kind_index name =
  let rec go i = if kinds.(i) = name then i else go (i + 1) in
  go 0

(* Resolution counts by kind, straight from the PVM's fault-latency
   histograms (one per kind).  Fills [dst.(0 .. n_kinds-1)]. *)
let read_kinds (pvm : Core.Pvm.t) dst =
  Array.iteri
    (fun i h -> dst.(i) <- (Obs.Metrics.histogram_stats h).count)
    pvm.Core.Types.fault_hist

(* How one call moved the resolution counters: [-1] when it took no
   fault, the kind's index when it moved exactly one kind by one, and
   [kind_mixed] otherwise.  Exact only where no other fibre can fault
   during the call, i.e. on the sequential engine. *)
let classify before after =
  let moved = ref 0 and kind = ref (-1) in
  for i = 0 to n_kinds - 1 do
    let d = after.(i) - before.(i) in
    if d > 0 then begin
      moved := !moved + d;
      kind := i
    end
  done;
  if !moved = 0 then -1 else if !moved = 1 then !kind else kind_mixed

let shards = 8

(* Slot layout of a reading: the fault kinds first, at their indices. *)
let faults = n_kinds
let zero_fills = faults + 1
let cow_copies = faults + 2
let pull_ins = faults + 3
let push_outs = faults + 4
let evictions = faults + 5
let tree_lookups = faults + 6
let history_created = faults + 7
let stub_resolves = faults + 8
let eager_pages = faults + 9
let moved_pages = faults + 10
let gmap_probes = faults + 11
let gmap_lock_waits = faults + 12
let mm_acquires = faults + 13
let mm_waits = faults + 14
let mm_wait_ns = faults + 15
let mm_hold_ns = faults + 16
let pool_acquires = faults + 17
let pool_waits = faults + 18
let pool_wait_ns = faults + 19
let pool_hold_ns = faults + 20
let cpu_busy_ns = faults + 21
let shard0 = faults + 22 (* per-shard probes: [shard0 .. shard0 + shards - 1] *)
let size = shard0 + shards

let lock_into dst ~acq ~waits ~wait_ns ~hold_ns (s : Obs.Lockstat.snapshot) =
  dst.(acq) <- dst.(acq) + s.acquires;
  dst.(waits) <- dst.(waits) + s.waits;
  dst.(wait_ns) <- dst.(wait_ns) + s.wait_ns;
  dst.(hold_ns) <- dst.(hold_ns) + s.hold_ns

let read pvm =
  let r = Array.make size 0 in
  read_kinds pvm r;
  let s = Core.Pvm.stats pvm in
  r.(faults) <- s.n_faults;
  r.(zero_fills) <- s.n_zero_fills;
  r.(cow_copies) <- s.n_cow_copies;
  r.(pull_ins) <- s.n_pull_ins;
  r.(push_outs) <- s.n_push_outs;
  r.(evictions) <- s.n_evictions;
  r.(tree_lookups) <- s.n_tree_lookups;
  r.(history_created) <- s.n_history_created;
  r.(stub_resolves) <- s.n_stub_resolves;
  r.(eager_pages) <- s.n_eager_pages;
  r.(moved_pages) <- s.n_moved_pages;
  List.iter
    (fun (name, v) ->
      match name with
      | "gmap.probes" -> r.(gmap_probes) <- v
      | "gmap.lock_waits" -> r.(gmap_lock_waits) <- v
      | _ -> (
        match Scanf.sscanf_opt name "gmap.shard%d.probes%!" Fun.id with
        | Some i when i < shards -> r.(shard0 + i) <- v
        | _ -> ()))
    (Obs.Metrics.counters (Core.Pvm.metrics pvm));
  List.iter
    (fun (l : Obs.Lockstat.snapshot) ->
      if l.name = "pvm/mm" then
        lock_into r ~acq:mm_acquires ~waits:mm_waits ~wait_ns:mm_wait_ns
          ~hold_ns:mm_hold_ns l)
    (Core.Pvm.lock_stats pvm);
  let eng = Core.Pvm.engine pvm in
  List.iter
    (lock_into r ~acq:pool_acquires ~waits:pool_waits ~wait_ns:pool_wait_ns
       ~hold_ns:pool_hold_ns)
    (Hw.Engine.pool_lock_stats eng);
  r.(cpu_busy_ns) <- Array.fold_left ( + ) 0 (Hw.Engine.cpu_busy eng);
  r

let diff ~before ~after = Array.mapi (fun i a -> a - before.(i)) after
let add acc d = Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) d

(* The simulated statistics a deterministic run must reproduce exactly:
   resolution counts by kind and the pager/copy counters. *)
let fingerprint d ~sim_ns =
  String.concat ","
    (string_of_int sim_ns
    :: List.map string_of_int (Array.to_list (Array.sub d 0 gmap_probes)))
