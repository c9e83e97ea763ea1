(** Introspection: render the PVM's live data structures (the paper's
    Figure 2) for debugging, teaching and the examples.

    The formats are stable enough to grep in tests but meant for
    humans: one line per cache with its history pointer, parent
    fragments, resident pages (with frame numbers, read-protection
    marks and stub counts), deferred-copy stubs and swap coverage. *)

val pp_state : Format.formatter -> Types.pvm -> unit
(** Every cache on the PVM (hidden history nodes included), the frame
    pool and the counters. *)

val pp_context : Format.formatter -> Types.context -> unit
(** A context's regions with their cache windows and resident MMU
    translations. *)

val frames_held : Types.pvm -> int
(** Frames referenced by page descriptors (must equal the pool's used
    count; checked by tests). *)

(** {1 Residency / pressure snapshot}

    A structured counterpart to {!pp_state} for the profiler: how many
    pages each cache holds (and how many are read-protected, deferred
    or swapped), how deep the history tree has grown, and how much
    pressure the frame pool is under. *)

type cache_residency = {
  cr_id : int;
  cr_is_history : bool;
  cr_alive : bool;
  cr_resident : int;  (** resident pages *)
  cr_protected : int;  (** of which read-protected (COW sources) *)
  cr_stubs : int;  (** deferred per-virtual-page stubs targeting it *)
  cr_swapped : int;  (** offsets pushed to a swap segment *)
  cr_depth : int;  (** distance to the history-tree root *)
}

type residency = {
  rs_caches : cache_residency list;  (** by cache id *)
  rs_depth_histogram : (int * int) list;  (** (depth, live caches) *)
  rs_free_frames : int;
  rs_used_frames : int;
  rs_reclaim_len : int;
  rs_sync_in_flight : int;
}

val residency : Types.pvm -> residency
val pp_residency : Format.formatter -> residency -> unit
val residency_json : residency -> Obs.Json.t

val digest : Types.pvm -> string
(** A stable hex digest of the PVM's observable state: resident page
    contents and copy-protection per cache (sorted by offset), parent
    fragments, deferred-copy stubs, swap coverage, contexts with their
    region windows, and the frame-pool level.  Allocator bookkeeping a
    client cannot observe — frame indices, reclaim-queue order — is
    excluded, so two runs that agree on everything a program could
    read digest equal.  Used by [chorus check] to assert deterministic
    scenarios are schedule-independent, and by the schedule explorer's
    refinement oracle. *)

val state_json : Types.pvm -> Obs.Json.t
(** The full observable state — every field {!digest} hashes, kept
    structured — plus a ["digest"] field and a nested ["residency"]
    snapshot.  Page contents appear as MD5 hex, so the object is
    compact yet compares exactly.  This is the state section of a
    crash bundle; round-tripping it through {!Obs.Json} is lossless
    (integers only), so a bundle's recorded digest can be checked
    against a replayed run's. *)

val pages : Types.pvm -> Types.page list
(** Every resident page descriptor, across all caches. *)

val locked_regions : Types.pvm -> Types.region list
(** Regions pinned by lockInMemory, across all contexts. *)
