(** Frame allocation, page making and page-out.

    The data-management policy (page-in / page-out decisions) belongs
    to the memory manager below the GMI (paper §3.3.3).  Reclaim is
    FIFO; a victim's data is saved with a [pushOut] upcall, anonymous
    caches first being declared to the upper layer through the
    [segmentCreate] hook so they can be given swap (§5.1.2). *)

(** Test-only fault injection for the schedule explorer's mutation
    suite ({!Check.Explore}): setting [evict_claim_late] makes
    {!evict} pay a charge (a scheduling point) before claiming its
    victim, reintroducing the double-eviction race.  Never set outside
    tests. *)
module For_testing : sig
  val evict_claim_late : bool ref
end

val can_evict : Types.pvm -> Types.page -> bool
(** Unpinned, not in transit, and either clean or saveable. *)

val push_out : Types.pvm -> Types.page -> unit
(** Save a dirty page to its segment, keeping it resident ([sync]
    semantics).  The page is a synchronization stub while in transit;
    afterwards its mappings return to read-only so the next store
    re-dirties (software dirty bits). *)

val evict : Types.pvm -> Types.page -> unit
(** Steal the page's frame, saving dirty contents first (from a
    snapshot, so allocation latency does not wait on segment I/O
    twice). *)

val start_daemon :
  Types.pvm ->
  low_water:int ->
  high_water:int ->
  period:Hw.Sim_time.span ->
  unit
(** The asynchronous page-out daemon: below [low_water] free frames it
    evicts FIFO victims until [high_water] are free. *)

(** {2 Making pages} *)

type source = [ `Zero | `Page of Types.page | `Data of Bytes.t * int ]
(** What a new page holds: zeros, a copy of a resident page (pinned
    while the frame is allocated), or a segment's data from a position
    in its buffer. *)

(** The destination slot as the caller last read it. *)
type slot =
  | Vacant  (** empty: the probe that installs the page checks it *)
  | Original
      (** empty, in a history object: saving an original also pays a
          stub insert *)
  | Peeked of Types.entry option
      (** still what the caller peeked: nothing, or its sync stub *)
  | Stub of Types.cow_stub
      (** the live per-page stub the page replaces, still destined
          there *)

val make_page :
  Types.pvm ->
  Types.cache ->
  off:int ->
  slot ->
  source ->
  prot:Hw.Prot.t ->
  protect:bool ->
  dirty:bool ->
  Types.page option
(** The one maker of pages: pin the source, allocate a frame, pay the
    zero or copy charge, fill, unpin.  After the last charge, read the
    destination (the cache alive, the slot as [slot] says) and insert
    the page with access mode [prot], read-protected when [protect]
    and a history covers the offset, and marked [dirty].  Otherwise
    free the frame, charged as a lost race, and return [None].
    @raise Gmi.No_memory when nothing can be evicted. *)
