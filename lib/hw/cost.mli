(** Calibrated cost model for memory-management primitives.

    The paper's evaluation (§5.3) was run on a Sun-3/60 (MC68020 at
    20 MHz, 8 KB pages).  §5.3.2 decomposes the measured times into
    per-primitive structural costs; we invert that decomposition: each
    hardware-level primitive the memory managers execute charges the
    simulated clock with a constant from a profile, and the table
    values of the paper must then {e emerge} from the number of
    primitives the algorithms actually perform.

    Two calibrated profiles ship: {!chorus_sun360} for the PVM and
    {!mach_sun360} for the Mach-style shadow-object baseline (the
    paper's comparison columns).  {!free} makes every primitive free,
    for functional tests that do not care about time. *)

type profile = {
  name : string;
  t_bzero_page : Sim_time.span;  (** zero-fill one page frame (0.87 ms) *)
  t_bcopy_page : Sim_time.span;  (** copy one page frame (1.4 ms) *)
  t_region_create : Sim_time.span;  (** allocate + link a region descriptor *)
  t_region_destroy : Sim_time.span;  (** unlink + free a region descriptor *)
  t_invalidate_page : Sim_time.span;
      (** per virtual page of MMU invalidation at region destroy *)
  t_fault_dispatch : Sim_time.span;
      (** trap entry + context/region lookup (§4.1.2) *)
  t_map_lookup : Sim_time.span;  (** one global-map probe *)
  t_frame_alloc : Sim_time.span;  (** take a frame off the free list *)
  t_frame_free : Sim_time.span;
  t_mmu_map : Sim_time.span;  (** install one PTE *)
  t_mmu_protect : Sim_time.span;  (** change protection of one PTE *)
  t_tree_setup : Sim_time.span;
      (** insert a history (or shadow) object into the copy structure *)
  t_tree_lookup : Sim_time.span;  (** traverse one level of the copy structure *)
  t_stub_insert : Sim_time.span;  (** place a stub in the global map *)
  t_copy_setup : Sim_time.span;
      (** fixed part of initiating a deferred copy (beyond tree setup) *)
  t_cache_create : Sim_time.span;  (** allocate a local-cache descriptor *)
  t_ipc_fixed : Sim_time.span;  (** fixed per-message IPC cost *)
}

val chorus_sun360 : profile
(** Calibrated so that the PVM reproduces the Chorus halves of
    Tables 6 and 7 (see EXPERIMENTS.md for the derivation). *)

val mach_sun360 : profile
(** Calibrated so that the shadow-object baseline reproduces the Mach
    halves of Tables 6 and 7. *)

val free : profile
(** All primitives cost zero; for functional tests. *)

(** The hardware-level primitives, as first-class values: each names
    one [t_*] slot of {!profile}, so that a charge can be attributed —
    to the per-primitive table of an {!Obs.Metrics.t} registry and to
    trace events — rather than silently slept away.  This is what lets
    §5.3.2-style cost decompositions fall out of a trace. *)
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

val all_prims : prim list

val prim_index : prim -> int
(** Dense index of the primitive, in [all_prims] order. *)

val prim_name : prim -> string

val prim_names : string array
(** All primitive names, indexed by {!prim_index} — the slot table to
    pass to {!Obs.Metrics.create}. *)

val span_of : profile -> prim -> Sim_time.span
(** The calibrated cost of one primitive under a profile. *)

val charge_traced : tracer:Obs.Trace.t -> prim:prim -> Sim_time.span -> unit
(** [charge_traced ~tracer ~prim span] advances the current fibre's
    simulated clock by [span] ({!Engine.sleep}) when it is positive,
    and when [tracer] is enabled first records a per-primitive cost
    event at the instant the charge begins.  Must run inside
    {!Engine.run}. *)
