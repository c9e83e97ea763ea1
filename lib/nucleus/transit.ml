let slot_size = 64 * 1024

type t = {
  site : Site.t;
  t_cache : Core.Pvm.cache;
  slots : int;
  mutable free : int list;
  freed : Hw.Engine.Cond.t;
}

let create (site : Site.t) ?(slots = 8) () =
  {
    site;
    t_cache = Seg.Segment_manager.create_temporary site.segd;
    slots;
    free = List.init slots (fun i -> i);
    freed = Hw.Engine.Cond.create ();
  }

(* The slot free-list is shared by every fibre moving data through the
   transit segment: note it as one footprint class so the explorer sees
   allocations conflict, and record the last taker as the condition's
   owner so exhausted-pool waiters declare a blocked-on edge the
   watchdog can chase across libraries. *)
let rec alloc t =
  Hw.Engine.note_ambient (-3) 0;
  match t.free with
  | slot :: rest ->
    t.free <- rest;
    Hw.Engine.Cond.set_owner t.freed
      (Hw.Engine.current_fibre t.site.Site.engine);
    slot
  | [] ->
    Hw.Engine.declare_wait t.site.Site.engine ~on:"transit-slot"
      ~owner:(Hw.Engine.Cond.owner t.freed) ();
    Hw.Engine.Cond.wait t.freed;
    alloc t

let slot_offset _t slot = slot * slot_size

let release t slot =
  Hw.Engine.note_ambient (-3) 0;
  if List.mem slot t.free then invalid_arg "Transit.release: slot is free";
  (* Drop leftover pages so a parked slot holds no real memory. *)
  Core.Cache.invalidate t.site.pvm t.t_cache ~offset:(slot * slot_size)
    ~size:slot_size;
  t.free <- slot :: t.free;
  Hw.Engine.Cond.broadcast t.freed

let cache t = t.t_cache

let free_slots t =
  Hw.Engine.note_ambient ~write:false (-3) 0;
  List.length t.free
