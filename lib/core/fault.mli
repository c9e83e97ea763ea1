(** Page-fault handling: the paper's §4.1.2 algorithm plus the
    write-violation resolutions of §4.2.2/§4.2.3.

    [handle] is the trap handler: find the faulting region in the
    current context, compute the offset in the segment, consult the
    global map, resolve (zero-fill, pullIn, history walk, stub
    resolution, original-saving) and install the MMU translation that
    makes the retried access succeed. *)

val find_region : Types.context -> addr:int -> Types.region option

val own_writable_page : Types.pvm -> Types.cache -> off:int -> Types.page
(** Ensure the cache owns a resident page at [off] that is safe to
    write: stubs flushed, originals saved, write access obtained from
    the segment if the data was pulled read-only, page dirty.  Used by
    the fault handler and by the explicit copy operations of
    Table 1.
    @raise Pmap.Page_died if the cache is destroyed meanwhile. *)

type resolution =
  [ `Hit
  | `Upgrade
  | `Zero_fill
  | `Pull_in
  | `Cow_copy
  | `Stub_resolve
  | `Borrow ]
(** Which §4.1.2 path serviced the fault — the attribution key of the
    §5.3.2-style decompositions.  [`Hit]: the page was resident and
    usable (e.g. a racing fibre resolved it first); [`Upgrade]: write
    access re-obtained for data pulled read-only, or a clean page
    re-dirtied; [`Borrow]: read serviced by mapping an ancestor's page
    read-only. *)

val hist_index : resolution -> int
(** Index of a resolution's latency histogram in [pvm.fault_hist] —
    the handles are pre-registered at PVM creation so the per-fault
    update needs no registry lookup. *)

val hist_names : string array
(** Histogram names in [hist_index] order ("fault.hit", ...). *)

val handle : Types.pvm -> Types.context -> addr:int -> access:Hw.Mmu.access -> unit
(** The trap handler.  Records one "fault" trace span (when tracing is
    enabled) tagged with the resolution kind, and observes the fault's
    simulated latency in the "fault.<kind>" histogram of the PVM's
    metrics registry.
    @raise Gmi.Segmentation_fault if no region covers [addr].
    @raise Gmi.Protection_fault if the region forbids the access. *)

val translate :
  Types.pvm -> Types.context -> addr:int -> access:Hw.Mmu.access ->
  Hw.Phys_mem.frame
(** The MMU's translation of [addr], with {!handle} run on every miss
    until the access succeeds.
    @raise Failure if 32 faults in a row leave the access failing. *)
