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

val save_original :
  Types.pvm -> Types.cache -> off:int -> [ `Page of Types.page | `Zero ] ->
  unit
(** The §4.2.2 save before a write at [off] of a copy source: when its
    history covers [off] and does not yet hold its own version there
    (resident, deferred, in transit or swapped out), the history gets a
    dirty copy of the value, read-protected when the history has a
    covering history itself.  A no-op when a concurrent writer saved
    it first, or when the history died meanwhile. *)

val resolve_source_write : Types.pvm -> Types.page -> unit
(** The §4.2.2 write-violation algorithm for a copy source: save the
    original into the history if it is still missing there, then let
    the page go writable (borrowed read mappings are invalidated so
    descendants re-fault onto the saved copy). *)

val insert_working_cache : Types.pvm -> Types.cache -> Types.cache
(** Interpose a fresh working cache, the source's new history, between
    a source and its previous history (§4.2.3, Figure 3.c/3.d). *)

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

val depth_to_root : Types.cache -> int

val pp_tree : Format.formatter -> Types.cache -> unit
(** Render the history tree containing a cache (Figure 3); [*] marks
    read-protected frames. *)
