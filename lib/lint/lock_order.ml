(* The declared lock hierarchy of the multicore PVM — the catalogue
   the prose comment in lib/core/types.ml used to carry, now in a form
   both the static lockset analysis (L6-L9) and the runtime order
   witnesses ({!Obs.Lockstat}, validated by [chorus crossval]) check
   against.

   Classes, in acquisition order (a holder of an earlier class may
   acquire a later one, never the reverse):

     pool   the engine pool lock ([p_lock]): run queues, lanes, fibre
            bookkeeping of the parallel engine.  Held only for queue
            surgery; never across user code.
     mm     the per-PVM memory-management lock ([mm_lock]): frame
            pool, reclaim queue, page lists, frame-to-page index, MMU
            mappings.  Reentrant (owner + depth), so mm -> mm
            self-edges are legal.
     shard  one Shard_map shard lock ([s_lock]): a single shard's
            hash table.  Leaf Hashtbl accesses only — a shard section
            never calls back into the PVM, so no two shard locks ever
            nest.
     cond   the registration mutex inside an {!Hw.Engine.Cond}
            ([cv_lock]): guards the parked-resume list and the
            finished flag for a few loads/stores.  A strict leaf.

   The pool lock never wraps user code and the mm lock is only taken
   from inside engine-task slices, so pool < mm is vacuous today; it
   is declared anyway so the hierarchy stays total when a future
   engine change makes the pair reachable.

   Read-side note: the copy-tree topology fields (c_parents,
   c_children, ctx_regions, ...) are *written* only under the mm lock
   or from serial-class code at pool quiescence; parallel slices read
   them lock-free against that barrier.  L7 therefore requires the
   guard on writes ([w_on_read = false]); the read side is the
   coordinator's quiescence contract, checked dynamically by crossval
   rather than by lockset inclusion. *)

type cls = Pool | Mm | Shard | Cond

let all = [ Pool; Mm; Shard; Cond ]
let rank = function Pool -> 0 | Mm -> 1 | Shard -> 2 | Cond -> 3
let name = function Pool -> "pool" | Mm -> "mm" | Shard -> "shard" | Cond -> "cond"

let of_name = function
  | "pool" -> Some Pool
  | "mm" -> Some Mm
  | "shard" -> Some Shard
  | "cond" -> Some Cond
  | _ -> None

(* Only the mm lock is reentrant (owner + depth in Types); the others
   are plain [Mutex.t] and self-nesting is a self-deadlock. *)
let reentrant = function Mm -> true | Pool | Shard | Cond -> false

(* May a holder of [held] acquire [acq]?  The edge relation the
   may-hold-while-acquiring graph must stay inside. *)
let allows ~held ~acq =
  rank held < rank acq || (held = acq && reentrant held)

let pp ppf c = Format.pp_print_string ppf (name c)

(* --- static classification ---------------------------------------- *)

(* The lockset analysis classifies a mutex (or its Lockstat) by the
   record field it is read from: the lock fields of the engine pool,
   the PVM bundle, the shard record and the Cond record are uniquely
   named across the repo, so the field name is the class.  A mutex
   reached any other way is tracked for balance (L9) but carries no
   rank. *)
let cls_of_field = function
  | "p_lock" | "p_stat" -> Some Pool
  | "mm_lock" | "mm_stat" -> Some Mm
  | "s_lock" | "s_stat" -> Some Shard
  | "cv_lock" -> Some Cond
  | _ -> None

(* --- the L7 guarded-field catalogue ------------------------------- *)

(* Which lock guards each *mutable* shared field of the L1 catalogue
   (Atomic-typed fields are auto-satisfied and never reach this
   table).  [w_guard = None] marks state with no lock of its own: the
   nucleus/mix/dsm/seg server tables, serialised by their owning
   fibre's affinity lane rather than a mutex — every write needs a
   reasoned [@chorus.guarded] waiver naming that discipline.
   [w_on_read] extends the requirement to reads; the topology fields
   keep it off (see the read-side note above). *)
type guard = { w_guard : cls option; w_on_read : bool }

let guarded_fields : ((string * string) * guard) list =
  let mm = { w_guard = Some Mm; w_on_read = false } in
  let lane = { w_guard = None; w_on_read = false } in
  [
    (* Core.Types.pvm — structure lists hanging off the bundle *)
    (("pvm", "contexts"), mm);
    (("pvm", "caches"), mm);
    (("pvm", "current"), mm);
    (* the copy-tree topology: written under mm (or at quiescence),
       read lock-free against the quiescence barrier *)
    (("cache", "c_parents"), mm);
    (("cache", "c_children"), mm);
    (("cache", "c_history"), mm);
    (("cache", "c_mappings"), mm);
    (("context", "ctx_regions"), mm);
    (* the per-cache stub indexes: parallel faults materialise and
       re-thread stubs, so their tables change under mm.  The fields
       themselves are immutable (L7 sees no [<-] on them); the entries
       record the guard that Install's index helpers take *)
    (("cache", "c_dest_stubs"), mm);
    (("cache", "c_pending_offs"), mm);
    (* Nucleus: transit-segment slot pool and port queues *)
    (("t", "free"), lane);
    (("t", "queue"), lane);
    (* DSM: directory of per-site page modes, site list, home copy *)
    (("site", "s_modes"), lane);
    (("t", "sites"), lane);
    (("t", "master"), lane);
    (* Mix: process table and VFS/image stores *)
    (("t", "processes"), lane);
    (("t", "files"), lane);
    (("t", "images"), lane);
    (* Seg: segment-manager port table and backing store *)
    (("t", "mappers"), lane);
    (("t", "segments"), lane);
  ]

let guard_of_field ~ty ~field = List.assoc_opt (ty, field) guarded_fields
