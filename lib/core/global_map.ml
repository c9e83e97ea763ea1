(* The single global map of the PVM (paper §4.1.1): real page
   descriptors hashed by (cache, offset in segment).  An entry may
   also be a synchronization page stub (page in transit, §4.1.2) or a
   per-virtual-page copy-on-write stub (§4.3). *)

open Types

(* Every probe or update of a (cache, offset) entry is part of the
   running slice's footprint: the explorer's independence relation is
   fragment-granular, so two slices conflict exactly when they meet
   here on the same key (or on a coarse object class, see Types). *)

(* Lookup without charging the simulated clock, for internal
   bookkeeping that a real implementation would do with direct
   pointers rather than a map probe. *)
let[@chorus.hot][@inline] peek pvm cache ~off =
  note_frag ~write:false pvm cache ~off;
  Frag_map.find_opt pvm.gmap cache.c_id off

let[@chorus.hot] [@inline] set pvm cache ~off entry =
  note_frag pvm cache ~off;
  Frag_map.replace pvm.gmap cache.c_id off entry

let[@chorus.hot] [@inline] remove pvm cache ~off =
  note_frag pvm cache ~off;
  Frag_map.remove pvm.gmap cache.c_id off

(* Probe-and-install in one probe: peek+set fused, with the same
   footprint note. *)
let[@chorus.hot] try_install pvm cache ~off entry =
  let installed = Frag_map.add_if_absent pvm.gmap cache.c_id off entry in
  (* a lost race only observed the slot — note it as the read it was,
     so the explorer's independence relation matches the historical
     peek-then-set footprint exactly (branched so both [?write]
     arguments stay static data on this hot path) *)
  if installed then note_frag ~write:true pvm cache ~off
  else note_frag ~write:false pvm cache ~off;
  installed

(* Wait until no synchronization stub covers (cache, off); returns the
   current entry, if any.  Loops because a woken fibre may find a new
   stub installed by a concurrent operation. *)
let rec wait_not_in_transit pvm cache ~off =
  match peek pvm cache ~off with
  | Some (Sync_stub cond) ->
    Hw.Engine.declare_wait pvm.engine ~on:"transfer"
      ~owner:(Hw.Engine.Cond.owner cond) ();
    pvm.stub_sleeps <- pvm.stub_sleeps + 1;
    Hw.Engine.Cond.await_unfinished cond;
    wait_not_in_transit pvm cache ~off
  | other -> other

(* Install a synchronization stub for a page about to be pulled in or
   pushed out; any future access to the page sleeps until [finish] is
   called (paper §4.1.2).  The stub goes into the map BEFORE the
   insertion cost is charged: charging is a scheduling point, and the
   fragment must already read as in-transit when another fibre runs —
   otherwise two fibres can both elect it for pull-in or eviction. *)
let claim_sync_stub pvm cache ~off =
  let cond = Hw.Engine.Cond.create () in
  (* the inserting fibre drives the transfer: waiters blocked on this
     stub are blocked on it, and the watchdog walks that edge *)
  Hw.Engine.Cond.set_owner cond (Hw.Engine.current_fibre pvm.engine);
  set pvm cache ~off (Sync_stub cond);
  cond

let[@chorus.spanned
     "runs under the pullIn/pushOut span opened by the transfer \
      initiator"] insert_sync_stub pvm cache ~off =
  let cond = claim_sync_stub pvm cache ~off in
  charge pvm Hw.Cost.Stub_insert;
  cond

let finish_sync_stub pvm cache ~off cond replacement =
  (match replacement with
  | Some entry -> set pvm cache ~off entry
  | None -> remove pvm cache ~off);
  Hw.Engine.Cond.finish cond
