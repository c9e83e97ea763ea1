(** History objects: deferred copy of large data (paper §4.2).

    As copies take place between segments, their caches form trees
    rooted at the source of a copy.  The {e shape invariant}: the tree
    is binary, and each source of a copy operation has a single
    immediate descendant — its {e history object} — which receives the
    original version of pages the source modifies.  Cache misses walk
    upwards through the {!Types.frag} lists; §4.2.4's generalisation
    to per-fragment parents is what [c_parents] implements.

    Two implementation refinements over the paper's prose (see
    DESIGN.md): the fresh copy serves directly as the source's history
    only when source and destination offsets coincide (originals are
    stored at source offsets), and working caches cover the whole
    source window with one identity fragment. *)

val whole_window : int
(** Fragment size used by working caches: effectively unbounded. *)

val covering_history : Types.cache -> off:int -> (Types.cache * int) option
(** The history object responsible for [off] in this source, along
    with [off] translated into the history's offsets — derived from
    the fragments of the history that name the source as parent, so no
    separate "copied ranges" bookkeeping exists. *)

val covered_and_missing :
  Types.pvm -> Types.cache -> off:int -> (Types.cache * int) option
(** Like {!covering_history}, but only when the history does not yet
    hold its own version of the page — resident, deferred, in transit
    or swapped out.  This is exactly the §4.2.2 test for "must the
    original be saved before this write proceeds". *)

val is_covered : Types.cache -> off:int -> bool

val store_original :
  Types.pvm -> src_page:Types.page -> h:Types.cache -> h_off:int -> unit
(** Copy [src_page]'s current (original) value into history [h].  The
    stored page is dirty — its value exists nowhere else — and itself
    read-protected when [h] has a covering history.  A no-op when a
    concurrent writer saved the original first. *)

val resolve_source_write : Types.pvm -> Types.page -> unit
(** The §4.2.2 write-violation algorithm for a copy source: save the
    original into the history if it is still missing there, then let
    the page go writable (borrowed read mappings are invalidated so
    descendants re-fault onto the saved copy). *)

val insert_working_cache : Types.pvm -> Types.cache -> Types.cache
(** Interpose a fresh working cache between a source and its previous
    history (§4.2.3, Figures 3.c/3.d), preserving the shape
    invariant. *)

val protect_source_range : Types.pvm -> Types.cache -> off:int -> size:int -> unit
(** Read-protect the source's resident pages over a copied range.
    Pages the source itself inherits are already protected (they were
    protected when their own cache was copied). *)

val record_copy :
  Types.pvm ->
  src:Types.cache ->
  src_off:int ->
  dst:Types.cache ->
  dst_off:int ->
  size:int ->
  policy:Gmi.copy_policy ->
  unit
(** Record a deferred copy: build or extend the history tree and
    read-protect the source.  The caller must have purged the
    destination range first. *)

val child_detached : Types.cache -> Types.cache -> unit
(** Called when [child] stops referencing [parent]: if it was the
    parent's history object, the parent stops saving originals (its
    copy-protection flags flip lazily, costing nothing now). *)

val reachable : from:Types.cache -> Types.cache -> bool
(** Can a value lookup starting at [from] reach the target, through
    parent fragments or per-page stub sources?  [Cache.copy] refuses
    to defer a copy onto one of the source's own ancestors (it would
    close a cycle) and copies eagerly instead.  Stub edges are read
    from each visited cache's destination index, so the cost is the
    visited caches' own fragments and stubs. *)

val root_of : Types.cache -> Types.cache
val depth_to_root : Types.cache -> int

val check_invariant : Types.pvm -> string list
(** Structural invariants (empty = healthy): well-formed fragment
    lists, history back-fragments, the binary-tree child limits, and
    acyclicity through {e every} fragment. *)

val pp_tree : Format.formatter -> Types.cache -> unit
(** Render the history tree containing a cache (Figure 3); [*] marks
    read-protected frames. *)
