(** Simulated memory-management unit.

    One {!space} per protected address space (paper "context").  The
    page table is sparse, so the structure size depends on mapped pages
    only — matching the paper's requirement that management structures
    not scale with the size of the address space (§4.1).

    {b The table.}  Two levels.  A leaf holds the entries of one chunk
    of 64 consecutive vpns ([vpn asr 6]), indexed by the vpn's low
    bits; a space's directory maps chunk numbers to leaves by open
    addressing over int keys (linear probing, power-of-two capacity at
    load at most ½, backward-shift deletion, no tombstones).  Mapping
    the first page of a chunk allocates its 65-word leaf, and a leaf
    goes when its last entry goes, so the size follows the mapped pages.
    Only the directory doubles, and it moves leaves, never entries: no
    single {!map} rehashes the table.  A new space starts with a
    4-slot directory; it is released by {!destroy_space}.  An entry
    holds its frame and protection inline: mapping a page allocates the
    entry and the [Ok frame] block {!translate} returns, re-mapping it
    to another frame a new [Ok frame], and nothing else ({!protect}
    and a re-map to the same frame allocate nothing).

    {b Cost per operation.}  [translate], [query], [mapped_frame_index],
    [map], [unmap] and [protect] are one expected-O(1) directory probe
    of int keys — no polymorphic hash or compare — plus one leaf index.
    [translate], [query] and [mapped_frame_index] allocate nothing:
    [translate] returns the [Ok frame] block stored in the entry,
    [query] the entry itself.  [iter_range] and [invalidate_range]
    visit only the leaves that overlap the range, in ascending vpn
    order: one probe per chunk when the range spans at most the
    directory's capacity in chunks, else one scan of the directory, so
    tearing down a huge, sparsely mapped range costs what is mapped.
    [next_mapped] searches the rest of its vpn's leaf, then finds the
    next leaf as a range walk does: by one probe per chunk, or by a
    directory scan when the chunks left outnumber the slots.  [iter]
    sorts and is meant for inspection only.

    {b Concurrency.}  Every mutation ([map], [unmap], [protect],
    [invalidate_range], [destroy_space]) runs under the owning memory
    manager's lock.  [translate] and the other lookups take no lock;
    they are safe only for a space that one engine lane uses at a time,
    so that no mutation of the same space runs concurrently.

    [translate] is the hardware walk: it either yields the frame or
    reports the fault a real MMU would raise; the memory manager above
    is responsible for resolving faults and retrying, exactly like a
    trap handler. *)

type t
(** The MMU: a factory for address spaces sharing one page size. *)

type space

type fault =
  | Unmapped  (** no PTE for the virtual page *)
  | Protection  (** PTE present but access not allowed *)

type access = [ `Read | `Write | `Execute ]

(** A page-table slot, as {!query} returns it. *)
type pte = private
  | No_pte  (** no entry for the page *)
  | Pte of {
      vpn : int;
      mutable frame : Phys_mem.frame;
      mutable prot : Prot.t;
      mutable ok : (Phys_mem.frame, fault) result;
          (** [Ok frame]: what {!translate} returns on a hit *)
    }

val create : page_size:int -> t
val page_size : t -> int

val create_space : t -> space
val destroy_space : space -> unit

val vpn_of_addr : t -> int -> int
(** Virtual page number containing a virtual address. *)

val map : space -> vpn:int -> Phys_mem.frame -> Prot.t -> int
(** Installs (or replaces) the PTE for [vpn] and returns the index of
    the frame it mapped before, or [-1] when it was unmapped: one probe
    serves the caller's bookkeeping of the translation it replaced. *)

val unmap : space -> vpn:int -> unit
(** Removes the PTE for [vpn]; no-op if not mapped. *)

val protect : space -> vpn:int -> Prot.t -> unit
(** Changes the protection of an existing PTE.
    @raise Invalid_argument if [vpn] is not mapped. *)

val query : space -> vpn:int -> pte
(** The PTE for [vpn], or [No_pte].  It is the table's own entry, so a
    lookup allocates nothing; read it before the space's next mutation,
    which may update it in place. *)

val mapped_frame_index : space -> vpn:int -> int
(** Index of the frame [vpn] maps, or [-1] when unmapped; allocates
    nothing. *)

val translate :
  space -> addr:int -> access:access -> (Phys_mem.frame, fault) result
(** The hardware walk; allocates nothing. *)

val invalidate_range :
  space ->
  vpn:int ->
  count:int ->
  ('a -> vpn:int -> Phys_mem.frame -> Prot.t -> unit) ->
  'a ->
  int
(** [invalidate_range space ~vpn ~count f x] removes all PTEs in
    [vpn, vpn+count), calling [f x] on each entry just before it is
    removed, once per entry, in the order of {!iter_range}; returns how
    many entries were removed.  Each overlapping leaf is found once,
    and its entries in range are reported and removed there.  [f] must
    not mutate the space.  A caller whose [f] needs one value of its
    own passes it as [x] instead of capturing it, so the walk builds no
    closure.  Used at region destruction. *)

val iter_range :
  space ->
  vpn:int ->
  count:int ->
  (vpn:int -> Phys_mem.frame -> Prot.t -> unit) ->
  unit
(** Calls the function on every PTE in [vpn, vpn+count), in ascending
    vpn order, visiting only the leaves that overlap the range.  The
    function must not mutate the space. *)

val next_mapped : space -> vpn:int -> limit:int -> int
(** The least mapped vpn in [vpn, limit), or [-1] when there is none.
    It probes each chunk it passes while the chunks left span at most
    the directory's capacity, and scans the directory for the next leaf
    otherwise; it allocates nothing.
    @raise Invalid_argument if [vpn] is negative. *)

val mapped_pages : space -> int
(** Number of PTEs currently installed. *)

val iter : space -> (vpn:int -> Phys_mem.frame -> Prot.t -> unit) -> unit
(** Calls the function on every PTE in ascending vpn order, over a
    snapshot taken first (so the function may mutate the space). *)
