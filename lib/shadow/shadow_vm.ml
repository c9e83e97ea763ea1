(* The shadow-object comparison VM never attaches a tracer: its
   charges feed the cost model only, so there is no span tree for L3
   to conserve. *)
[@@@chorus.spanned
  "the shadow baseline has no tracer; charges feed the cost model only"]

type stats = {
  mutable n_faults : int;
  mutable n_zero_fills : int;
  mutable n_cow_copies : int;
  mutable n_shadows_created : int;
  mutable n_collapses : int;
  mutable n_chain_walks : int;
}

type obj = {
  o_id : int;
  o_pages : (int, Hw.Phys_mem.frame) Hashtbl.t; (* offset -> frame *)
  mutable o_shadow : obj option; (* towards the original data *)
  mutable o_refs : int; (* entries + shadows above us *)
  mutable o_read_only : bool; (* pages shared below a copy *)
}

type entry = {
  e_space : space;
  mutable e_addr : int;
  mutable e_size : int;
  mutable e_prot : Hw.Prot.t;
  mutable e_obj : obj; (* top of this mapping's chain *)
  mutable e_offset : int;
  mutable e_alive : bool;
}

and space = {
  sp_id : int;
  sp_mmu : Hw.Mmu.space;
  mutable sp_entries : entry list;
  mutable sp_alive : bool;
}

type t = {
  mem : Hw.Phys_mem.t;
  mmu : Hw.Mmu.t;
  cost : Hw.Cost.profile;
  engine : Hw.Engine.t;
  stats : stats;
  obs : Obs.Metrics.t;
  mutable next_id : int;
}

exception Segmentation_fault of int
exception Protection_fault of int

let fresh_stats () =
  {
    n_faults = 0;
    n_zero_fills = 0;
    n_cow_copies = 0;
    n_shadows_created = 0;
    n_collapses = 0;
    n_chain_walks = 0;
  }

let create ?(page_size = 8192) ?(cost = Hw.Cost.mach_sun360) ~frames ~engine
    () =
  {
    mem = Hw.Phys_mem.create ~page_size ~frames ();
    mmu = Hw.Mmu.create ~page_size;
    cost;
    engine;
    stats = fresh_stats ();
    obs = Obs.Metrics.create ~prims:Hw.Cost.prim_names ();
    next_id = 1;
  }

let stats t = t.stats

let reset_stats t =
  let s = t.stats in
  s.n_faults <- 0;
  s.n_zero_fills <- 0;
  s.n_cow_copies <- 0;
  s.n_shadows_created <- 0;
  s.n_collapses <- 0;
  s.n_chain_walks <- 0

let page_size t = Hw.Phys_mem.page_size t.mem
let memory t = t.mem

(* Attributed charging, mirroring [Core.Types.charge]: every simulated
   charge lands in the per-primitive table of [t.obs] and (when a
   tracer is enabled) in the trace as a "cost" instant, so the Mach
   baseline profiles exactly like the PVM. *)
let charge_span t prim span =
  Obs.Metrics.charge t.obs ~idx:(Hw.Cost.prim_index prim) ~ns:span;
  Hw.Cost.charge_traced ~tracer:(Hw.Engine.tracer t.engine) ~prim span

let charge t prim = charge_span t prim (Hw.Cost.span_of t.cost prim)

(* Publish the legacy stats record as counters, then hand out the
   registry (same pattern as [Pvm.metrics]). *)
let metrics t =
  let s = t.stats and m = t.obs in
  let set name v = Obs.Metrics.set (Obs.Metrics.counter m name) v in
  set "shadow.faults" s.n_faults;
  set "shadow.zero_fills" s.n_zero_fills;
  set "shadow.cow_copies" s.n_cow_copies;
  set "shadow.shadows_created" s.n_shadows_created;
  set "shadow.collapses" s.n_collapses;
  set "shadow.chain_walks" s.n_chain_walks;
  m

let next_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let new_obj t ?shadow () =
  (match shadow with Some s -> s.o_refs <- s.o_refs + 1 | None -> ());
  {
    o_id = next_id t;
    o_pages = Hashtbl.create 16;
    o_shadow = shadow;
    o_refs = 1;
    o_read_only = false;
  }

let space_create t =
  { sp_id = next_id t; sp_mmu = Hw.Mmu.create_space t.mmu;
    sp_entries = []; sp_alive = true }

(* --- shadow-chain garbage collection ------------------------------ *)

(* Drop one reference to [obj]; free unreferenced objects and merge an
   interior shadow into its sole referent — the collapse the paper
   calls "a major complication of the Mach algorithm" (§4.2.5). *)
let rec deref t (obj : obj) =
  obj.o_refs <- obj.o_refs - 1;
  if obj.o_refs = 0 then begin
    Hashtbl.iter
      (fun _ frame ->
        charge t Hw.Cost.Frame_free;
        Hw.Phys_mem.free t.mem frame)
      obj.o_pages;
    Hashtbl.reset obj.o_pages;
    match obj.o_shadow with
    | Some below ->
      obj.o_shadow <- None;
      deref t below
    | None -> ()
  end

(* Merge [below] into [obj] when [obj] is [below]'s only referent:
   pages missing from [obj] move up, the chain shortens. *)
let try_collapse t (obj : obj) =
  match obj.o_shadow with
  | Some below when below.o_refs = 1 ->
    Hashtbl.iter
      (fun off frame ->
        if Hashtbl.mem obj.o_pages off then Hw.Phys_mem.free t.mem frame
        else Hashtbl.replace obj.o_pages off frame)
      below.o_pages;
    Hashtbl.reset below.o_pages;
    obj.o_shadow <- below.o_shadow;
    below.o_shadow <- None;
    t.stats.n_collapses <- t.stats.n_collapses + 1;
    true
  | Some _ | None -> false

(* Collapse every mergeable link in the chain, not just the top one:
   after a child exits, the singly-referenced object usually sits in
   the middle of the surviving chain. *)
let rec collapse_chain t (obj : obj) =
  while try_collapse t obj do
    ()
  done;
  match obj.o_shadow with
  | Some below -> collapse_chain t below
  | None -> ()

(* --- mappings ------------------------------------------------------ *)

let aligned t n = n mod page_size t = 0

let allocate t (space : space) ~addr ~size ~prot =
  if not (space.sp_alive) then invalid_arg "Shadow_vm.allocate: dead space";
  if not (aligned t addr && aligned t size) then
    invalid_arg "Shadow_vm.allocate: unaligned";
  if
    List.exists
      (fun e -> addr < e.e_addr + e.e_size && e.e_addr < addr + size)
      space.sp_entries
  then invalid_arg "Shadow_vm.allocate: overlap";
  charge t Hw.Cost.Region_create;
  charge t Hw.Cost.Cache_create;
  let entry =
    {
      e_space = space;
      e_addr = addr;
      e_size = size;
      e_prot = prot;
      e_obj = new_obj t ();
      e_offset = 0;
      e_alive = true;
    }
  in
  space.sp_entries <- entry :: space.sp_entries;
  entry

let entry_destroy t (entry : entry) =
  if entry.e_alive then begin
    entry.e_alive <- false;
    charge t Hw.Cost.Region_destroy;
    let ps = page_size t in
    charge_span t Hw.Cost.Invalidate_page
      (t.cost.t_invalidate_page * (entry.e_size / ps));
    ignore
      (Hw.Mmu.invalidate_range entry.e_space.sp_mmu
         ~vpn:(entry.e_addr / ps) ~count:(entry.e_size / ps)
         (fun () ~vpn:_ _ _ -> ())
         ());
    entry.e_space.sp_entries <-
      List.filter (fun e -> not (e == entry)) entry.e_space.sp_entries;
    (* Dereference the chain; a shadow that becomes singly referenced
       by another chain top is merged at that chain's next fault. *)
    deref t entry.e_obj
  end

let space_destroy t (space : space) =
  List.iter (fun e -> entry_destroy t e) space.sp_entries;
  Hw.Mmu.destroy_space space.sp_mmu;
  space.sp_alive <- false

(* vm_copy: read-protect the source object's resident pages and
   interpose two fresh shadows (§4.2.5: "two new memory objects, the
   shadow objects, are created"). *)
let copy_entry t (entry : entry) ~(dst_space : space) ~dst_addr =
  if not entry.e_alive then invalid_arg "Shadow_vm.copy_entry: dead entry";
  let tr = Hw.Engine.tracer t.engine in
  let traced = Obs.Trace.enabled tr in
  if traced then Obs.Trace.span_begin tr ~cat:"vm" "copy";
  Fun.protect
    ~finally:(fun () ->
      if traced then
        Obs.Trace.span_end tr
          ~args:
            [
              ("size", Obs.Trace.Int entry.e_size);
              ("strategy", Obs.Trace.Str "shadow");
            ])
  @@ fun () ->
  charge t Hw.Cost.Region_create;
  let original = entry.e_obj in
  original.o_read_only <- true;
  (* protect every resident page of the chain top *)
  Hashtbl.iter
    (fun off _frame ->
      charge t Hw.Cost.Mmu_protect;
      let vpn = (entry.e_addr + off - entry.e_offset) / page_size t in
      match Hw.Mmu.query entry.e_space.sp_mmu ~vpn with
      | Pte { frame; prot; _ } ->
        ignore
          (Hw.Mmu.map entry.e_space.sp_mmu ~vpn frame
             (Hw.Prot.remove_write prot))
      | No_pte -> ())
    original.o_pages;
  charge t Hw.Cost.Tree_setup;
  (* shadow for the source side *)
  let s_src = new_obj t ~shadow:original () in
  t.stats.n_shadows_created <- t.stats.n_shadows_created + 1;
  charge t Hw.Cost.Tree_setup;
  (* shadow for the copy side *)
  let s_dst = new_obj t ~shadow:original () in
  t.stats.n_shadows_created <- t.stats.n_shadows_created + 1;
  (* the source mapping now references its shadow: "the actual
     reference of a particular cache changes dynamically" *)
  entry.e_obj <- s_src;
  deref t original;
  (* original had the entry's ref; now held by the two shadows *)
  let copy =
    {
      e_space = dst_space;
      e_addr = dst_addr;
      e_size = entry.e_size;
      e_prot = entry.e_prot;
      e_obj = s_dst;
      e_offset = entry.e_offset;
      e_alive = true;
    }
  in
  dst_space.sp_entries <- copy :: dst_space.sp_entries;
  copy

(* --- faults -------------------------------------------------------- *)

let find_entry (space : space) ~addr =
  List.find_opt
    (fun e -> addr >= e.e_addr && addr < e.e_addr + e.e_size)
    space.sp_entries

let rec chain_lookup t (obj : obj) ~off =
  match Hashtbl.find_opt obj.o_pages off with
  | Some frame -> Some (obj, frame)
  | None -> (
    match obj.o_shadow with
    | Some below ->
      charge t Hw.Cost.Tree_lookup;
      t.stats.n_chain_walks <- t.stats.n_chain_walks + 1;
      chain_lookup t below ~off
    | None -> None)

(* Resolution labels shared with the PVM's fault handler, so a profile
   of the Mach baseline folds under the same ["fault:<kind>"] keys. *)
let resolution_name = function
  | `Hit -> "hit"
  | `Zero_fill -> "zero-fill"
  | `Cow_copy -> "cow-copy"
  | `Borrow -> "borrow"

let hist_name = function
  | `Hit -> "fault.hit"
  | `Zero_fill -> "fault.zero-fill"
  | `Cow_copy -> "fault.cow-copy"
  | `Borrow -> "fault.borrow"

let access_name = function
  | `Read -> "read"
  | `Write -> "write"
  | `Execute -> "execute"

let fault t (space : space) ~addr ~(access : Hw.Mmu.access) =
  t.stats.n_faults <- t.stats.n_faults + 1;
  let tr = Hw.Engine.tracer t.engine in
  let traced = Obs.Trace.enabled tr in
  if traced then Obs.Trace.span_begin tr ~cat:"vm" "fault";
  let t0 = Hw.Engine.now t.engine in
  let target = ref [] in
  match
    charge t Hw.Cost.Fault_dispatch;
    match find_entry space ~addr with
    | None -> raise (Segmentation_fault addr)
    | Some entry ->
      if not (Hw.Prot.allows entry.e_prot access) then
        raise (Protection_fault addr);
      let ps = page_size t in
      let off = (addr - entry.e_addr + entry.e_offset) / ps * ps in
      let vpn = addr / ps in
      charge t Hw.Cost.Map_lookup;
      let top = entry.e_obj in
      if traced then
        target :=
          [
            ("cache", Obs.Trace.Int top.o_id); ("off", Obs.Trace.Int off);
          ];
      let kind =
        match chain_lookup t top ~off with
        | Some (owner, frame) ->
          if owner == top && not top.o_read_only then begin
            (* our own page: map it with full rights *)
            charge t Hw.Cost.Mmu_map;
            ignore (Hw.Mmu.map space.sp_mmu ~vpn frame entry.e_prot);
            `Hit
          end
          else if access = `Write then begin
            (* copy the page up into the chain top *)
            let fresh = Hw.Phys_mem.alloc t.mem in
            charge t Hw.Cost.Frame_alloc;
            charge t Hw.Cost.Bcopy_page;
            Hw.Phys_mem.bcopy ~src:frame ~dst:fresh;
            t.stats.n_cow_copies <- t.stats.n_cow_copies + 1;
            Hashtbl.replace top.o_pages off fresh;
            charge t Hw.Cost.Mmu_map;
            ignore (Hw.Mmu.map space.sp_mmu ~vpn fresh entry.e_prot);
            `Cow_copy
          end
          else begin
            charge t Hw.Cost.Mmu_map;
            ignore
              (Hw.Mmu.map space.sp_mmu ~vpn frame
                 (Hw.Prot.remove_write entry.e_prot));
            `Borrow
          end
        | None ->
          (* zero-fill in the top object *)
          let fresh = Hw.Phys_mem.alloc t.mem in
          charge t Hw.Cost.Frame_alloc;
          charge t Hw.Cost.Bzero_page;
          Hw.Phys_mem.bzero fresh;
          t.stats.n_zero_fills <- t.stats.n_zero_fills + 1;
          Hashtbl.replace top.o_pages off fresh;
          charge t Hw.Cost.Mmu_map;
          ignore
            (Hw.Mmu.map space.sp_mmu ~vpn fresh
               (if top.o_read_only then Hw.Prot.remove_write entry.e_prot
                else entry.e_prot));
          `Zero_fill
      in
      (* opportunistic chain collapse, as Mach performs during faults *)
      collapse_chain t top;
      kind
  with
  | kind ->
    Obs.Metrics.observe
      (Obs.Metrics.histogram t.obs (hist_name kind))
      (Hw.Engine.now t.engine - t0);
    if traced then
      Obs.Trace.span_end tr
        ~args:
          ([
             ("addr", Obs.Trace.Int addr);
             ("access", Obs.Trace.Str (access_name access));
             ("resolution", Obs.Trace.Str (resolution_name kind));
           ]
          @ !target)
  | exception e ->
    if traced then
      Obs.Trace.span_end tr
        ~args:
          ([ ("addr", Obs.Trace.Int addr); ("resolution", Obs.Trace.Str "error") ]
          @ !target);
    raise e

let access_frame t (space : space) ~addr ~access =
  let rec go retries =
    if retries > 8 then failwith "Shadow_vm: fault loop did not converge";
    match Hw.Mmu.translate space.sp_mmu ~addr ~access with
    | Ok frame -> frame
    | Error _ ->
      fault t space ~addr ~access;
      go (retries + 1)
  in
  go 0

let touch t space ~addr ~access = ignore (access_frame t space ~addr ~access)

let read t space ~addr ~len =
  let ps = page_size t in
  let out = Bytes.create len in
  let rec go done_ =
    if done_ < len then begin
      let a = addr + done_ in
      let in_page = a mod ps in
      let chunk = min (len - done_) (ps - in_page) in
      let frame = access_frame t space ~addr:a ~access:`Read in
      Bytes.blit frame.Hw.Phys_mem.bytes in_page out done_ chunk;
      go (done_ + chunk)
    end
  in
  go 0;
  out

let write t space ~addr bytes =
  let ps = page_size t in
  let len = Bytes.length bytes in
  let rec go done_ =
    if done_ < len then begin
      let a = addr + done_ in
      let in_page = a mod ps in
      let chunk = min (len - done_) (ps - in_page) in
      let frame = access_frame t space ~addr:a ~access:`Write in
      Bytes.blit bytes done_ frame.Hw.Phys_mem.bytes in_page chunk;
      go (done_ + chunk)
    end
  in
  go 0

let chain_depth (entry : entry) =
  let rec go obj acc =
    match obj.o_shadow with None -> acc | Some below -> go below (acc + 1)
  in
  go entry.e_obj 0

let entry_obj_id (entry : entry) = entry.e_obj.o_id
