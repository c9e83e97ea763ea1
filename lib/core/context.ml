(* Context (address space) operations of the GMI (Table 2). *)

open Types

(* contextCreate: an empty protected address space. *)
let[@chorus.hot] create pvm =
  let ctx =
    {
      ctx_id = next_id pvm;
      ctx_pvm = pvm;
      ctx_space = Hw.Mmu.create_space pvm.mmu;
      ctx_regions = [];
      ctx_alive = true;
      ctx_newer = None;
      ctx_older = None;
    }
    [@chorus.alloc_ok "the context descriptor the PVM keeps"]
  in
  note_structure pvm;
  link_context pvm ctx;
  ctx

(* context.switch: set the current user context. *)
let[@chorus.guarded
     "pvm.current is written only on the owning process's serial-class \
      fibre (context switches are serialised by construction); parallel \
      slices read the context they were handed, not pvm.current"] switch pvm
    (ctx : context) =
  check_context_alive ctx;
  note_structure pvm;
  pvm.current <- Some ctx

let current pvm =
  note_structure ~write:false pvm;
  pvm.current

(* context.getRegionList *)
let region_list (ctx : context) =
  check_context_alive ctx;
  note_structure ~write:false ctx.ctx_pvm;
  ctx.ctx_regions

(* context.findRegion: used by the Chorus rgn*FromActor operations. *)
let find_region (ctx : context) ~addr =
  check_context_alive ctx;
  Fault.find_region ctx ~addr

(* Destroy every region of a (snapshot of the) region list; each
   destroy takes its region out of the context's current list. *)
let[@chorus.hot] rec destroy_regions pvm = function
  | [] -> ()
  | r :: rest ->
    Region.destroy pvm r;
    destroy_regions pvm rest

(* context.destroy *)
let[@chorus.hot] [@chorus.guarded
     "context destruction runs on the owning process's serial-class fibre \
      or at pool quiescence; the parallel fault path never dereferences a \
      context being destroyed"] destroy pvm (ctx : context) =
  check_context_alive ctx;
  destroy_regions pvm ctx.ctx_regions;
  Hw.Mmu.destroy_space ctx.ctx_space;
  note_structure pvm;
  unlink_context pvm ctx;
  (match pvm.current with
  | Some c when c == ctx -> pvm.current <- None
  | Some _ | None -> ());
  ctx.ctx_alive <- false
