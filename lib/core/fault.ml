(* Page-fault handling (paper §4.1.2) and the write-violation
   algorithms of §4.2.2/§4.2.3.

   [handle] is the trap handler: it finds the faulting region,
   computes the offset in the segment, consults the global map and
   resolves.  The MMU mapping installed at the end is what makes the
   retried access succeed.  An empty row is decided by [Value.miss],
   and a pull takes [Value.pull_own]'s rights: this module acts on
   their answers and makes neither decision. *)

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

(* A page made for [cache] was not kept because the cache died during
   the maker's charges: the access ends as it would after the destroy
   (no region maps a destroyed cache, so [resolve_mapped] raises the
   segmentation fault). *)
let fail_if_dead (cache : cache) =
  if not cache.c_alive then raise Pmap.Page_died

(* [child_copy]'s copy of [value], a source page pinned meanwhile (the
   allocations below must not reclaim it).  When the cache has its own
   history object still missing that offset, the history first gets
   its own copy of the (pre-divergence) value, unless it dies
   meanwhile — the complication of §4.2.3: when the history was
   created, its value was logically taken from the same source. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the fault span opened by handle, or the copy/move span of \
      the eager paths"] copy_value pvm (cache : cache) ~off
    (value : [ `Page of page | `Zero ]) =
  (match value with `Page sp -> Pervpage.wire sp | `Zero -> ());
  match
    History.save_original pvm cache ~off value;
    let made =
      Pager.make_page pvm cache ~off Pager.Vacant
        (value :> Pager.source)
        ~prot:Hw.Prot.all ~protect:false ~dirty:true
    in
    bump pvm.stats
      (match value with `Page _ -> sc_cow_copies | `Zero -> sc_zero_fills);
    made
  with
  | made ->
    (match value with `Page sp -> Pervpage.unwire sp | `Zero -> ());
    made
  | exception e ->
    (match value with `Page sp -> Pervpage.unwire sp | `Zero -> ());
    raise e

(* A zero-filled page owned by [cache] at an offset its caller found
   empty. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the fault span of handle or the copy span of the eager \
      paths"] rec zero_fill_page pvm (cache : cache) ~off =
  match
    Pager.make_page pvm cache ~off Pager.Vacant `Zero ~prot:Hw.Prot.all
      ~protect:true ~dirty:false
  with
  | Some page ->
    bump pvm.stats sc_zero_fills;
    page
  | None -> settle pvm cache ~off `Zero

(* Give [cache] its own copy of [value], the value visible at [off]
   (a write miss in a copy, or a copy-on-reference read miss). *)
and[@chorus.hot] child_copy pvm (cache : cache) ~off value =
  match copy_value pvm cache ~off value with
  | Some page -> page
  | None -> settle pvm cache ~off `Copy

(* Lost the race: settle on what the concurrent fibre left in the slot
   instead of orphaning it — its page, or its per-page stub
   materialised — or make the page again when the slot is empty. *)
and settle pvm (cache : cache) ~off remake =
  fail_if_dead cache;
  match Global_map.wait_not_in_transit pvm cache ~off with
  | Some (Resident p) -> p
  | Some (Cow_stub s) -> (
    match Pervpage.resolve_write pvm s with
    | Some p -> p
    | None -> settle pvm cache ~off remake)
  | Some (Sync_stub _) -> assert false
  | None -> (
    match remake with
    | `Zero -> zero_fill_page pvm cache ~off
    | `Copy ->
      child_copy pvm cache ~off (Value.source_value_at pvm cache ~off None))

(* The page a miss makes for a write, by the branch [Value.miss] took:
   the cache's own data pulled read-write, its own copy of the value
   its fragment gives it, or a zero fill. *)
let[@chorus.hot] write_miss_page pvm (cache : cache) ~off :
    Value.miss -> page = function
  | Own -> Value.pull_own pvm cache ~off ~write:true
  | Inherited ->
    child_copy pvm cache ~off
      (Value.inherited_value pvm ~off (Parents.covering cache ~off))
  | Fresh -> zero_fill_page pvm cache ~off

(* Clear everything that makes writing [p] unsafe, a page made for a
   miss included (pending stubs may be re-threaded onto it at
   insertion).  [p] is pinned meanwhile: flushing stubs and saving
   originals allocate frames, which must not reclaim [p] itself. *)
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

(* A resident page of [cache] at [off] safe to write (fault.mli). *)
let[@chorus.hot] rec own_writable_page pvm (cache : cache) ~off =
  own_writable_at pvm cache ~off (Global_map.wait_not_in_transit pvm cache ~off)

(* [own_writable_page] from the entry of (cache, off) its caller last
   read, with no scheduling point since: the row is not probed
   again. *)
and[@chorus.hot] own_writable_at pvm (cache : cache) ~off = function
  | Some (Resident p) -> prepare_writable pvm cache ~off p
  | Some (Cow_stub s) -> (
    match Pervpage.resolve_write pvm s with
    | Some p -> prepare_writable pvm cache ~off p
    | None ->
      fail_if_dead cache;
      own_writable_page pvm cache ~off)
  | Some (Sync_stub _) -> assert false
  | None ->
    prepare_writable pvm cache ~off
      (write_miss_page pvm cache ~off (Value.miss cache ~off))

(* The §4.1.2 resolution a fault took (see fault.mli).  [`Cow_copy]
   covers both the history-walk copy of a child and the
   original-saving write on a read-protected source. *)
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
  let names = Array.make 7 "" in
  List.iter
    (fun k -> names.(hist_index k) <- "fault." ^ resolution_name k)
    [ `Hit; `Upgrade; `Zero_fill; `Pull_in; `Cow_copy; `Stub_resolve; `Borrow ];
  names

(* Map [p] at [vpn] and report the fault as [kind]. *)
let[@inline] mapped pvm region ~vpn p (kind : resolution) =
  Pmap.enter pvm p region ~vpn;
  kind

(* Resolve a fault against (region, cache, off), install the MMU
   mapping at [vpn], and report which resolution was taken.  A miss
   acts on the page [Value.miss]'s branch made or pulled. *)
let rec resolve pvm (region : region) (cache : cache) ~off ~vpn ~access :
    resolution =
  match Global_map.wait_not_in_transit pvm cache ~off with
  | Some (Resident p) as entry -> (
    match access with
    | `Read | `Execute -> mapped pvm region ~vpn p `Hit
    | `Write -> (
      (* Classify before resolving: [own_writable_at] erases the
         evidence (saves originals, flushes stubs, upgrades rights). *)
      let kind : resolution =
        if p.p_cow_protected || p.p_cow_stubs <> [] then `Cow_copy
        else if not (Hw.Prot.allows p.p_pulled_prot `Write) || not p.p_dirty
        then `Upgrade
        else `Hit
      in
      ignore (own_writable_at pvm cache ~off entry);
      (* its charges may have replaced structures; re-fetch *)
      match Global_map.peek pvm cache ~off with
      | Some (Resident p') -> mapped pvm region ~vpn p' kind
      | _ ->
        let deeper = resolve pvm region cache ~off ~vpn ~access in
        if kind = `Hit then deeper else kind))
  | Some (Cow_stub s) as entry -> (
    match access with
    | `Write ->
      let p = own_writable_at pvm cache ~off entry in
      mapped pvm region ~vpn p `Stub_resolve
    | `Read | `Execute -> (
      match Pervpage.resolve_read pvm s with
      | `Borrow p -> mapped pvm region ~vpn p `Borrow
      | `Zero -> (
        match Pervpage.resolve_write pvm s with
        | Some p -> mapped pvm region ~vpn p `Stub_resolve
        | None -> raise Pmap.Page_died)))
  | Some (Sync_stub _) -> assert false
  | None -> (
    match (access, Value.miss cache ~off) with
    | `Write, miss ->
      mapped pvm region ~vpn
        (prepare_writable pvm cache ~off (write_miss_page pvm cache ~off miss))
        (match miss with
        | Own -> `Pull_in
        | Inherited -> `Cow_copy
        | Fresh -> `Zero_fill)
    | (`Read | `Execute), Own ->
      let p = Value.pull_own pvm cache ~off ~write:false in
      mapped pvm region ~vpn p `Pull_in
    | (`Read | `Execute), Inherited -> (
      let f = Parents.covering cache ~off in
      match (f.f_policy, Value.inherited_value pvm ~off f) with
      | `Copy_on_reference, value ->
        mapped pvm region ~vpn (child_copy pvm cache ~off value) `Cow_copy
      | `Copy_on_write, `Page p ->
        (* Borrowed read-only mapping of the ancestor's page. *)
        mapped pvm region ~vpn p `Borrow
      | `Copy_on_write, `Zero ->
        mapped pvm region ~vpn (zero_fill_page pvm cache ~off) `Zero_fill)
    | (`Read | `Execute), Fresh ->
      mapped pvm region ~vpn (zero_fill_page pvm cache ~off) `Zero_fill)

(* [resolve] again, from the top, while the page it resolved dies
   before it is mapped (during [Pmap.enter]'s charge, or with its cache
   while it was made); the fault records the resolution that finally
   maps.  A fault whose region died meanwhile ends as the same access
   after the destroy would.  A top-level recursion: the retry allocates
   nothing. *)
let rec resolve_mapped pvm (region : region) cache ~addr ~off ~vpn ~access =
  match resolve pvm region cache ~off ~vpn ~access with
  | kind -> kind
  | exception Pmap.Page_died ->
    if not region.r_alive then
      raise
        (Gmi.Segmentation_fault addr
        [@chorus.alloc_ok "the error path's exception"]);
    resolve_mapped pvm region cache ~addr ~off ~vpn ~access

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
    resolve_mapped pvm region region.r_cache ~addr ~off ~vpn ~access
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

(* Hardware translation with the fault handler in the loop.  The retry
   bound turns a resolution bug into a failure rather than a hang. *)
let[@chorus.hot] rec translate_from pvm (ctx : context) ~addr ~access retries =
  if retries > 32 then failwith "PVM: page fault resolution did not converge";
  match Hw.Mmu.translate ctx.ctx_space ~addr ~access with
  | Ok frame -> frame
  | Error _ ->
    handle pvm ctx ~addr ~access;
    translate_from pvm ctx ~addr ~access (retries + 1)

let[@chorus.hot] translate pvm ctx ~addr ~access =
  translate_from pvm ctx ~addr ~access 0
