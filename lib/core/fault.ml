(* Page-fault handling (paper §4.1.2) and the write-violation
   algorithms of §4.2.2/§4.2.3.

   [handle] is the trap handler: it finds the faulting region,
   computes the offset in the segment, consults the global map and
   resolves.  The MMU mapping installed at the end is what makes the
   retried access succeed. *)

open Types

(* The region of [regions] covering [addr]; raises [Not_found] when
   none does, so the fault path finds its region with no option
   around it. *)
let[@chorus.hot] rec region_at addr = function
  | [] -> raise Not_found
  | (r : region) :: rest ->
    if addr >= r.r_addr && addr < r.r_addr + r.r_size then r
    else region_at addr rest

let find_region (ctx : context) ~addr =
  note_structure ~write:false ctx.ctx_pvm;
  match region_at addr ctx.ctx_regions with
  | r -> Some r
  | exception Not_found -> None

(* Install a fresh, dirty copy or zero page for (cache, off) — unless a
   concurrent fibre resolved the same miss first: the frame allocation
   and copy/zero charges before it are scheduling points (§3.3.3). *)
let[@chorus.hot] install_fresh pvm (cache : cache) ~off frame =
  match
    Install.try_insert_fresh pvm cache ~off frame ~pulled_prot:Hw.Prot.all
      ~cow_protected:false
  with
  | Some page as inserted ->
    page.p_dirty <- true;
    inserted
  | None -> None

(* [child_copy]'s copy from a resident source page, pinned (the
   allocations below must not reclaim it).  When the cache has its own
   history object still missing that offset, the history also receives
   a copy of the (pre-divergence) value — the complication of §4.2.3:
   at the time the history was created, its value was logically taken
   from the same source. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the fault span opened by handle, or the copy/move span of \
      the eager paths"] copy_from_source pvm (cache : cache) ~off
    (sp : page) =
  Pervpage.wire sp;
  match
    (match History.covered_and_missing pvm cache ~off with
    | Some (h, h_off) -> History.store_original pvm ~src_page:sp ~h ~h_off
    | None -> ());
    let frame = Pager.alloc_frame pvm in
    charge pvm Hw.Cost.Bcopy_page;
    Hw.Phys_mem.bcopy ~src:sp.p_frame ~dst:frame;
    bump pvm.stats sc_cow_copies;
    install_fresh pvm cache ~off frame
  with
  | inserted ->
    Pervpage.unwire sp;
    inserted
  | exception e ->
    Pervpage.unwire sp;
    raise e

(* [child_copy] of a zero value: the history, if it misses the offset,
   gets its own zero page first. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the fault span opened by handle, or the copy/move span of \
      the eager paths"] copy_zero pvm (cache : cache) ~off =
  (match History.covered_and_missing pvm cache ~off with
  | Some (h, h_off) -> (
    let frame = Pager.alloc_frame pvm in
    charge pvm Hw.Cost.Bzero_page;
    Hw.Phys_mem.bzero frame;
    match
      Install.try_insert_fresh pvm h ~off:h_off frame ~pulled_prot:Hw.Prot.all
        ~cow_protected:(History.is_covered h ~off:h_off)
    with
    | Some hp -> hp.p_dirty <- true
    | None -> ())
  | None -> ());
  let frame = Pager.alloc_frame pvm in
  charge pvm Hw.Cost.Bzero_page;
  Hw.Phys_mem.bzero frame;
  bump pvm.stats sc_zero_fills;
  install_fresh pvm cache ~off frame

(* Give [cache] its own copy of the value currently visible at [off]
   (a write miss in a copy, or a copy-on-reference read miss). *)
let[@chorus.hot] rec child_copy pvm (cache : cache) ~off =
  let inserted =
    match Value.source_value pvm cache ~off with
    | `Page sp -> copy_from_source pvm cache ~off sp
    | `Zero -> copy_zero pvm cache ~off
  in
  match inserted with
  | Some page -> page
  | None -> (
    (* Lost the race: settle on the concurrent fibre's resolution. *)
    match Global_map.wait_not_in_transit pvm cache ~off with
    | Some (Resident p) -> p
    | Some (Cow_stub s) -> Pervpage.resolve_write pvm s
    | Some (Sync_stub _) -> assert false
    | None -> child_copy pvm cache ~off)

(* Clear everything that makes writing [p] unsafe.  Every branch of
   [own_writable_page] funnels through it, including pages freshly
   created by [child_copy] or zero-fill, which may have had pending
   stubs re-threaded onto them at insertion.  [p] is pinned meanwhile:
   flushing stubs and saving originals allocate frames, which must not
   reclaim [p] itself. *)
let[@chorus.hot] prepare_writable pvm (cache : cache) ~off (p : page) =
  Pervpage.wire p;
  match
    if p.p_cow_stubs <> [] then begin
      Pervpage.flush_stubs pvm p;
      Pmap.refresh_prot pvm p
    end;
    if p.p_cow_protected then History.resolve_source_write pvm p;
    if not (Hw.Prot.allows p.p_pulled_prot `Write) then begin
      (match cache.c_backing with
      | Some b -> b.b_get_write_access ~offset:off ~size:(page_size pvm)
      | None -> ());
      p.p_pulled_prot <- Hw.Prot.read_write;
      Pmap.refresh_prot pvm p
    end;
    p.p_dirty <- true
  with
  | () ->
    Pervpage.unwire p;
    p
  | exception e ->
    Pervpage.unwire p;
    raise e

(* Make sure [cache] owns a resident page at [off] that is safe to
   write: originals pushed to the history, per-page stubs flushed,
   write access obtained from the segment if the data was pulled
   read-only.  Used by the fault handler and by the explicit copy
   operations of Table 1. *)
let[@chorus.hot] rec own_writable_page pvm (cache : cache) ~off =
  match Global_map.wait_not_in_transit pvm cache ~off with
  | Some (Resident p) -> prepare_writable pvm cache ~off p
  | Some (Cow_stub s) ->
    let p = Pervpage.resolve_write pvm s in
    prepare_writable pvm cache ~off p
  | Some (Sync_stub _) -> assert false
  | None ->
    if Value.has_swapped cache ~off then begin
      ignore (Value.pull_in_page pvm cache ~off ~prot:Hw.Prot.all);
      own_writable_page pvm cache ~off
    end
    else if Parents.find_covering cache ~off <> None then
      prepare_writable pvm cache ~off (child_copy pvm cache ~off)
    else if cache.c_backing <> None && not cache.c_anonymous then begin
      ignore (Value.pull_in_page pvm cache ~off ~prot:Hw.Prot.read_write);
      own_writable_page pvm cache ~off
    end
    else prepare_writable pvm cache ~off (Value.zero_fill_page pvm cache ~off)

(* The §4.1.2 resolution a fault took — the attribution key of the
   paper's §5.3.2 decomposition.  [`Cow_copy] covers both the
   history-walk copy of a child and the original-saving write on a
   read-protected source; [`Borrow] is a read serviced by mapping an
   ancestor's page read-only; [`Upgrade] re-obtains write access for
   data pulled read-only (or re-dirties a clean page). *)
type resolution =
  [ `Hit
  | `Upgrade
  | `Zero_fill
  | `Pull_in
  | `Cow_copy
  | `Stub_resolve
  | `Borrow ]

let resolution_name : resolution -> string = function
  | `Hit -> "hit"
  | `Upgrade -> "upgrade"
  | `Zero_fill -> "zero-fill"
  | `Pull_in -> "pull-in"
  | `Cow_copy -> "cow-copy"
  | `Stub_resolve -> "stub-resolve"
  | `Borrow -> "borrow"

(* Indexes into [pvm.fault_hist], the histogram handles pre-registered
   at PVM creation ([hist_names] order): the per-fault update goes
   straight to the histogram with no registry lookup. *)
let hist_index : resolution -> int = function
  | `Hit -> 0
  | `Upgrade -> 1
  | `Zero_fill -> 2
  | `Pull_in -> 3
  | `Cow_copy -> 4
  | `Stub_resolve -> 5
  | `Borrow -> 6

let hist_names =
  [|
    "fault.hit";
    "fault.upgrade";
    "fault.zero-fill";
    "fault.pull-in";
    "fault.cow-copy";
    "fault.stub-resolve";
    "fault.borrow";
  |]

(* Resolve a fault against (region, cache, off), install the MMU
   mapping at [vpn], and report which resolution was taken. *)
let rec resolve pvm (region : region) (cache : cache) ~off ~vpn ~access :
    resolution =
  match Global_map.wait_not_in_transit pvm cache ~off with
  | Some (Resident p) ->
    (* Classify before resolving: [own_writable_page] erases the
       evidence (saves originals, flushes stubs, upgrades rights). *)
    let kind : resolution =
      match access with
      | `Write ->
        if p.p_cow_protected || p.p_cow_stubs <> [] then `Cow_copy
        else if not (Hw.Prot.allows p.p_pulled_prot `Write) || not p.p_dirty
        then `Upgrade
        else `Hit
      | `Read | `Execute -> `Hit
    in
    (match access with
    | `Write -> ignore (own_writable_page pvm cache ~off)
    | `Read | `Execute -> ());
    (* own_writable_page may have replaced structures; re-fetch. *)
    (match Global_map.peek pvm cache ~off with
    | Some (Resident p') ->
      Pmap.enter pvm p' region ~vpn;
      kind
    | _ ->
      let deeper = resolve pvm region cache ~off ~vpn ~access in
      if kind = `Hit then deeper else kind)
  | Some (Cow_stub s) -> (
    match access with
    | `Write ->
      let p = own_writable_page pvm cache ~off in
      Pmap.enter pvm p region ~vpn;
      `Stub_resolve
    | `Read | `Execute -> (
      match Pervpage.resolve_read pvm s with
      | `Borrow p ->
        Pmap.enter pvm p region ~vpn;
        `Borrow
      | `Own p ->
        Pmap.enter pvm p region ~vpn;
        `Stub_resolve))
  | Some (Sync_stub _) -> assert false
  | None -> (
    match access with
    | `Write ->
      (* Mirror [own_writable_page]'s dispatch to name the path it
         will take; the probes are pure lookups, charged nothing. *)
      let kind : resolution =
        if Value.has_swapped cache ~off then `Pull_in
        else if Parents.find_covering cache ~off <> None then `Cow_copy
        else if cache.c_backing <> None && not cache.c_anonymous then `Pull_in
        else `Zero_fill
      in
      let p = own_writable_page pvm cache ~off in
      Pmap.enter pvm p region ~vpn;
      kind
    | `Read | `Execute -> (
      if Value.has_swapped cache ~off then begin
        ignore (Value.pull_in_page pvm cache ~off ~prot:Hw.Prot.all);
        let _deeper = resolve pvm region cache ~off ~vpn ~access in
        `Pull_in
      end
      else
        match Parents.find_covering cache ~off with
        | Some frag -> (
          match frag.f_policy with
          | `Copy_on_reference ->
            let p = child_copy pvm cache ~off in
            Pmap.enter pvm p region ~vpn;
            `Cow_copy
          | `Copy_on_write -> (
            match Value.source_value pvm cache ~off with
            | `Page p ->
              (* Borrowed read-only mapping of the ancestor's page. *)
              Pmap.enter pvm p region ~vpn;
              `Borrow
            | `Zero ->
              let p = Value.zero_fill_page pvm cache ~off in
              Pmap.enter pvm p region ~vpn;
              `Zero_fill))
        | None ->
          if cache.c_backing <> None && not cache.c_anonymous then begin
            (* Cached data carries the rights of pullIn's accessMode
               (§3.3.3): a read fault pulls read-only; a later write
               upgrades through getWriteAccess. *)
            ignore (Value.pull_in_page pvm cache ~off ~prot:Hw.Prot.read_only);
            let _deeper = resolve pvm region cache ~off ~vpn ~access in
            `Pull_in
          end
          else begin
            let p = Value.zero_fill_page pvm cache ~off in
            Pmap.enter pvm p region ~vpn;
            `Zero_fill
          end))

let access_name = function
  | `Read -> "read"
  | `Write -> "write"
  | `Execute -> "execute"

(* The target of an untraced fault: never written. *)
let no_target : Obs.Trace.args ref = ref []

let[@chorus.hot] handle pvm (ctx : context) ~addr ~(access : Hw.Mmu.access)
    =
  check_context_alive ctx;
  bump pvm.stats sc_faults;
  let tr = Hw.Engine.tracer pvm.engine in
  let traced = Obs.Trace.enabled tr in
  if traced then Obs.Trace.span_begin tr ~cat:"vm" "fault";
  let t0 = Hw.Engine.now pvm.engine in
  (* (cache, off) of the faulted fragment, once the region lookup has
     identified it: lets the §3.3.3 blocking checker correlate fault
     spans with the pullIn/pushOut transit spans of the pager. *)
  let target = if traced then ref [] else no_target in
  match
    charge pvm Hw.Cost.Fault_dispatch;
    note_structure ~write:false ctx.ctx_pvm;
    let region =
      match region_at addr ctx.ctx_regions with
      | r -> r
      | exception Not_found ->
        raise
          (Gmi.Segmentation_fault addr
          [@chorus.alloc_ok "the error path's exception"])
    in
    if not (Hw.Prot.allows region.r_prot access) then
      raise
        (Gmi.Protection_fault addr
        [@chorus.alloc_ok "the error path's exception"]);
    let off = page_align_down pvm (region.r_offset + (addr - region.r_addr)) in
    if traced then
      target :=
        [
          ("cache", Obs.Trace.Int region.r_cache.c_id);
          ("off", Obs.Trace.Int off);
        ]
        [@chorus.alloc_ok "trace arguments, built only when tracing is on"];
    let vpn = addr / page_size pvm in
    charge pvm Hw.Cost.Map_lookup;
    resolve pvm region region.r_cache ~off ~vpn ~access
  with
  | kind ->
    Obs.Metrics.observe
      pvm.fault_hist.(hist_index kind)
      (Hw.Engine.now pvm.engine - t0);
    if traced then
      Obs.Trace.span_end tr
        ~args:
          (([
              ("addr", Int addr);
              ("access", Str (access_name access));
              ("resolution", Str (resolution_name kind));
            ]
             : Obs.Trace.args)
          @ !target)
        [@chorus.alloc_ok "trace arguments, built only when tracing is on"]
  | exception e ->
    if traced then
      Obs.Trace.span_end tr
        ~args:
          (([ ("addr", Int addr); ("resolution", Str "error") ]
             : Obs.Trace.args)
          @ !target)
        [@chorus.alloc_ok "trace arguments, built only when tracing is on"];
    raise e
