open Types

type t = Types.pvm
type context = Types.context
type region = Types.region
type cache = Types.cache

let create ?(page_size = 8192) ?(cost = Hw.Cost.chorus_sun360) ~frames ~engine
    () =
  let mem = Hw.Phys_mem.create ~page_size ~frames () in
  let obs = Obs.Metrics.create ~prims:Hw.Cost.prim_names () in
  {
    mem;
    mmu = Hw.Mmu.create ~page_size;
    cost;
    engine;
    gmap = Frag_map.create ~capacity:frames ();
    stub_sources = Frag_map.create ();
    page_of_frame = Array.make frames None;
    newest_context = None;
    newest_cache = None;
    current = None;
    next_id = 1;
    reclaim = Reclaim.create ~frames;
    stub_sleeps = 0;
    segment_create_hook = None;
    zombie_reaper = None;
    stats = fresh_stats ();
    obs;
    fault_hist = Array.map (Obs.Metrics.histogram obs) Fault.hist_names;
  }
  |> Cache.install_reaper

let engine pvm = pvm.engine
let memory pvm = pvm.mem
let page_size = Types.page_size
let stats pvm = snapshot_stats pvm.stats
let tracer pvm = Hw.Engine.tracer pvm.engine
let[@chorus.spanned
     "re-export of the charge primitive for upper layers; L3's subjects are \
      its callers"] charge_prim = Types.charge

(* Publish the legacy stats counters into the registry before handing
   it out, so one report carries everything: the registry subsumes
   [Types.stats] rather than replacing it. *)
let[@chorus.noted
     "read-only reporting snapshot taken between runs, not from engine-task \
      code: the counters it copies are never part of a slice footprint"]
    metrics pvm =
  let s = snapshot_stats pvm.stats and m = pvm.obs in
  let set name v = Obs.Metrics.set (Obs.Metrics.counter m name) v in
  set "pvm.faults" s.n_faults;
  set "pvm.zero_fills" s.n_zero_fills;
  set "pvm.cow_copies" s.n_cow_copies;
  set "pvm.pull_ins" s.n_pull_ins;
  set "pvm.push_outs" s.n_push_outs;
  set "pvm.evictions" s.n_evictions;
  set "pvm.tree_lookups" s.n_tree_lookups;
  set "pvm.history_created" s.n_history_created;
  set "pvm.stub_resolves" s.n_stub_resolves;
  set "pvm.eager_pages" s.n_eager_pages;
  set "pvm.moved_pages" s.n_moved_pages;
  (* Global-map health: point probes, and how many fibres parked on
     sync stubs. *)
  set "gmap.probes" (Frag_map.probes pvm.gmap);
  set "gmap.stub_sources.probes" (Frag_map.probes pvm.stub_sources);
  set "gmap.stub_sleeps" pvm.stub_sleeps;
  (* Per-simulated-CPU utilization (lanes only): busy is the
     charge time placed on that CPU, idle is its slack against the
     makespan reached so far. *)
  let busy = Hw.Engine.cpu_busy pvm.engine in
  if Array.length busy > 0 then begin
    let makespan = Hw.Engine.now pvm.engine in
    Array.iteri
      (fun i b ->
        set (Printf.sprintf "engine.cpu%d.busy_ns" i) b;
        set (Printf.sprintf "engine.cpu%d.idle_ns" i) (max 0 (makespan - b)))
      busy
  end;
  m

let reset_stats pvm = Types.reset_stats pvm.stats

(* perfbench is its only caller. *)
let lock_stats _ = []

let set_segment_create_hook pvm hook = pvm.segment_create_hook <- Some hook

(* Note the fragment of every live region of [regions] covering
   [addr]: the footprint of a program access for the schedule
   explorer. *)
let[@chorus.noted "access_frame notes the topology before the walk"] rec note_regions
    pvm ~addr ~write = function
  | [] -> ()
  | (r : region) :: rest ->
    if r.r_alive && addr >= r.r_addr && addr < r.r_addr + r.r_size then begin
      let off = page_align_down pvm (r.r_offset + (addr - r.r_addr)) in
      if write then note_frag pvm r.r_cache ~off
      else note_frag ~write:false pvm r.r_cache ~off
    end;
    note_regions pvm ~addr ~write rest

(* Simulated program access. *)
let[@chorus.hot] access_frame pvm (ctx : context) ~addr ~access =
  (* MMU hits never probe the global map, so the schedule explorer
     would not see this access; note the touched fragment here so
     conflicting program reads/writes never classify as independent. *)
  if Hw.Engine.tracking pvm.engine then begin
    note_structure ~write:false pvm;
    note_regions pvm ~addr ~write:(access = `Write) ctx.ctx_regions
  end;
  Fault.translate pvm ctx ~addr ~access

let touch pvm ctx ~addr ~access = ignore (access_frame pvm ctx ~addr ~access)

let[@chorus.hot] rec read_into pvm ctx ~addr out ~pos ~len =
  if pos < len then begin
    let ps = Types.page_size pvm in
    let a = addr + pos in
    let in_page = a mod ps in
    let chunk = min (len - pos) (ps - in_page) in
    let frame = access_frame pvm ctx ~addr:a ~access:`Read in
    Bytes.blit frame.Hw.Phys_mem.bytes in_page out pos chunk;
    read_into pvm ctx ~addr out ~pos:(pos + chunk) ~len
  end

let[@chorus.hot] read pvm ctx ~addr ~len =
  let out = Bytes.create len in
  read_into pvm ctx ~addr out ~pos:0 ~len;
  out

let[@chorus.hot] rec write_from pvm ctx ~addr bytes ~pos =
  let len = Bytes.length bytes in
  if pos < len then begin
    let ps = Types.page_size pvm in
    let a = addr + pos in
    let in_page = a mod ps in
    let chunk = min (len - pos) (ps - in_page) in
    let frame = access_frame pvm ctx ~addr:a ~access:`Write in
    Bytes.blit bytes pos frame.Hw.Phys_mem.bytes in_page chunk;
    write_from pvm ctx ~addr bytes ~pos:(pos + chunk)
  end

let[@chorus.hot] write pvm ctx ~addr bytes = write_from pvm ctx ~addr bytes ~pos:0

let pp_history_tree = History.pp_tree

let start_pageout_daemon ?(period = Hw.Sim_time.ms 20) pvm ~low_water
    ~high_water =
  Pager.start_daemon pvm ~low_water ~high_water ~period
