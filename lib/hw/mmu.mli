(** Simulated memory-management unit.

    One {!space} per protected address space (paper "context").  The
    page table is sparse, so the structure size depends on mapped pages
    only — matching the paper's requirement that management structures
    not scale with the size of the address space (§4.1).

    {b The table.}  An open-addressing hash table over int vpns: one
    array of entry pointers, linear probing, power-of-two capacity at
    load at most ½, backward-shift deletion (no tombstones).  A new
    space starts with 16 slots; the capacity doubles as pages are
    mapped and follows the peak number of mapped pages (it is released
    by {!destroy_space}).  One array rather than parallel key and value
    arrays keeps a growing table to one fresh block per doubling.  An
    entry holds its frame and protection inline: mapping a page
    allocates the entry and the [Ok frame] block {!translate} returns,
    re-mapping it to another frame a new [Ok frame], and nothing else
    ({!protect} and a re-map to the same frame allocate nothing).

    {b Cost per operation.}  [translate], [query], [mapped_frame_index],
    [map], [unmap] and [protect] are one expected-O(1) probe of int
    keys — no polymorphic hash or compare.  [translate], [query] and
    [mapped_frame_index] allocate nothing: [translate] returns the
    [Ok frame] block stored in the entry, [query] the entry itself.  [iter_range] and
    [invalidate_range] cost at most [min count capacity] slots, so
    tearing down a huge, sparsely mapped range costs what is mapped.
    [iter] sorts and is meant for inspection only.

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
    many entries were removed.  One probe finds, reports and removes an
    entry, at a cost of at most [min count capacity] slots.  [f] must
    not mutate the space.  A caller whose [f] needs one value of its
    own passes it as [x] instead of capturing it, so the walk builds no
    closure.  Used at region destruction. *)

val iter_range :
  space ->
  vpn:int ->
  count:int ->
  (vpn:int -> Phys_mem.frame -> Prot.t -> unit) ->
  unit
(** Calls the function on every PTE in [vpn, vpn+count), at a cost of
    at most [min count capacity] slots.  Ascending vpn order when
    [count] is at most the capacity, table order otherwise.  The
    function must not mutate the space. *)

val mapped_pages : space -> int
(** Number of PTEs currently installed. *)

val iter : space -> (vpn:int -> Phys_mem.frame -> Prot.t -> unit) -> unit
(** Calls the function on every PTE in ascending vpn order, over a
    snapshot taken first (so the function may mutate the space). *)
