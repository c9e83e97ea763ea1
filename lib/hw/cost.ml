type profile = {
  name : string;
  t_bzero_page : Sim_time.span;
  t_bcopy_page : Sim_time.span;
  t_region_create : Sim_time.span;
  t_region_destroy : Sim_time.span;
  t_invalidate_page : Sim_time.span;
  t_fault_dispatch : Sim_time.span;
  t_map_lookup : Sim_time.span;
  t_frame_alloc : Sim_time.span;
  t_frame_free : Sim_time.span;
  t_mmu_map : Sim_time.span;
  t_mmu_protect : Sim_time.span;
  t_tree_setup : Sim_time.span;
  t_tree_lookup : Sim_time.span;
  t_stub_insert : Sim_time.span;
  t_copy_setup : Sim_time.span;
  t_cache_create : Sim_time.span;
  t_ipc_fixed : Sim_time.span;
}

let us = Sim_time.us
let ns = Sim_time.ns

(* Derivation (paper §5.3.2, all on the Sun-3/60):
   - bcopy of one 8 KB page: 1.4 ms; bzero: 0.87 ms.
   - A tiny region create+destroy costs 0.350 ms (Table 6, 8 KB / 0
     pages); split evenly between create and destroy.
   - Region destroy additionally invalidates the virtual range:
     0.390 ms - 0.350 ms over 128 pages ~ 0.3 us/page.
   - Demand zero-fill of a page costs 0.27 ms of structure + bzero
     ((145.9 - 0.39)/128 - 0.87); we split the 0.27 ms into fault
     dispatch 120 us, global-map lookup 20 us, frame alloc 60 us, MMU
     map 50 us, and frame free 20 us paid when the region dies.
   - Deferred-copy initiation: 0.03 ms of history-tree setup plus
     ~16 us/page of read-protection ((2.4 - 0.4)/127, Table 7).
   - COW resolution overhead is 0.31 ms + bcopy; the extra 40 us over
     the zero-fill structure cost is the history-tree lookup (20 us)
     and making the faulting page writable (20 us = t_mmu_protect). *)
let chorus_sun360 =
  {
    name = "Chorus/PVM (Sun-3/60)";
    t_bzero_page = us 870;
    t_bcopy_page = us 1_400;
    t_region_create = us 175;
    t_region_destroy = us 175;
    t_invalidate_page = ns 300;
    t_fault_dispatch = us 120;
    t_map_lookup = us 20;
    t_frame_alloc = us 60;
    t_frame_free = us 20;
    t_mmu_map = us 50;
    t_mmu_protect = us 16;
    t_tree_setup = us 30;
    t_tree_lookup = us 20;
    t_stub_insert = us 10;
    t_copy_setup = us 0;
    t_cache_create = us 20;
    t_ipc_fixed = us 100;
  }

(* Calibrated against the Mach columns of Tables 6 and 7:
   - region create+destroy: 1.57 ms; range invalidation
     (1.89 - 1.57)/127 ~ 2.5 us/page.
   - zero-fill structure: (180.8 - 1.89)/128 - 0.87 ~ 0.53 ms/page
     (frame free + invalidation are paid at teardown, so the
     fault-time structure is dispatch 240 + map 40 + alloc 120 +
     mmu map 120 = 520 us).
   - copy initiation: 2.7 - 1.57 ~ 1.1 ms (allocation of the two
     shadow memory objects and remapping), ~3 us/page protection.
   - COW resolution: (256.41 - 3.08)/128 - 1.4 ~ 0.58 ms/page of
     structure. *)
let mach_sun360 =
  {
    name = "Mach 4.3 baseline (Sun-3/60)";
    t_bzero_page = us 870;
    t_bcopy_page = us 1_400;
    t_region_create = us 785;
    t_region_destroy = us 785;
    t_invalidate_page = us 2 + ns 500;
    t_fault_dispatch = us 240;
    t_map_lookup = us 40;
    t_frame_alloc = us 120;
    t_frame_free = us 30;
    t_mmu_map = us 120;
    t_mmu_protect = us 3;
    t_tree_setup = us 550;
    t_tree_lookup = us 30;
    t_stub_insert = us 20;
    t_copy_setup = us 0;
    t_cache_create = us 50;
    t_ipc_fixed = us 200;
  }

let free =
  {
    name = "free";
    t_bzero_page = 0;
    t_bcopy_page = 0;
    t_region_create = 0;
    t_region_destroy = 0;
    t_invalidate_page = 0;
    t_fault_dispatch = 0;
    t_map_lookup = 0;
    t_frame_alloc = 0;
    t_frame_free = 0;
    t_mmu_map = 0;
    t_mmu_protect = 0;
    t_tree_setup = 0;
    t_tree_lookup = 0;
    t_stub_insert = 0;
    t_copy_setup = 0;
    t_cache_create = 0;
    t_ipc_fixed = 0;
  }

(* The primitives as first-class values, so charges can be attributed
   (per-primitive counters, trace events) and not just slept away. *)
type prim =
  | Bzero_page
  | Bcopy_page
  | Region_create
  | Region_destroy
  | Invalidate_page
  | Fault_dispatch
  | Map_lookup
  | Frame_alloc
  | Frame_free
  | Mmu_map
  | Mmu_protect
  | Tree_setup
  | Tree_lookup
  | Stub_insert
  | Copy_setup
  | Cache_create
  | Ipc_fixed

let all_prims =
  [
    Bzero_page; Bcopy_page; Region_create; Region_destroy; Invalidate_page;
    Fault_dispatch; Map_lookup; Frame_alloc; Frame_free; Mmu_map; Mmu_protect;
    Tree_setup; Tree_lookup; Stub_insert; Copy_setup; Cache_create; Ipc_fixed;
  ]

let prim_index = function
  | Bzero_page -> 0
  | Bcopy_page -> 1
  | Region_create -> 2
  | Region_destroy -> 3
  | Invalidate_page -> 4
  | Fault_dispatch -> 5
  | Map_lookup -> 6
  | Frame_alloc -> 7
  | Frame_free -> 8
  | Mmu_map -> 9
  | Mmu_protect -> 10
  | Tree_setup -> 11
  | Tree_lookup -> 12
  | Stub_insert -> 13
  | Copy_setup -> 14
  | Cache_create -> 15
  | Ipc_fixed -> 16

let prim_name = function
  | Bzero_page -> "bzero_page"
  | Bcopy_page -> "bcopy_page"
  | Region_create -> "region_create"
  | Region_destroy -> "region_destroy"
  | Invalidate_page -> "invalidate_page"
  | Fault_dispatch -> "fault_dispatch"
  | Map_lookup -> "map_lookup"
  | Frame_alloc -> "frame_alloc"
  | Frame_free -> "frame_free"
  | Mmu_map -> "mmu_map"
  | Mmu_protect -> "mmu_protect"
  | Tree_setup -> "tree_setup"
  | Tree_lookup -> "tree_lookup"
  | Stub_insert -> "stub_insert"
  | Copy_setup -> "copy_setup"
  | Cache_create -> "cache_create"
  | Ipc_fixed -> "ipc_fixed"

let prim_names = Array.of_list (List.map prim_name all_prims)

let span_of p = function
  | Bzero_page -> p.t_bzero_page
  | Bcopy_page -> p.t_bcopy_page
  | Region_create -> p.t_region_create
  | Region_destroy -> p.t_region_destroy
  | Invalidate_page -> p.t_invalidate_page
  | Fault_dispatch -> p.t_fault_dispatch
  | Map_lookup -> p.t_map_lookup
  | Frame_alloc -> p.t_frame_alloc
  | Frame_free -> p.t_frame_free
  | Mmu_map -> p.t_mmu_map
  | Mmu_protect -> p.t_mmu_protect
  | Tree_setup -> p.t_tree_setup
  | Tree_lookup -> p.t_tree_lookup
  | Stub_insert -> p.t_stub_insert
  | Copy_setup -> p.t_copy_setup
  | Cache_create -> p.t_cache_create
  | Ipc_fixed -> p.t_ipc_fixed

let charge span = if span > 0 then Engine.sleep span

(* Attributed variant of [charge]: the trace event is recorded at the
   instant the charge begins, before the clock advances, so a span
   enclosing several charges shows them at their start offsets. *)
let charge_traced ~tracer ~prim span =
  if span > 0 then begin
    if Obs.Trace.enabled tracer then
      Obs.Trace.charge tracer ~prim:(prim_name prim) ~span;
    Engine.sleep span
  end
