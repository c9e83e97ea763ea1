(* Internal shard bookkeeping is this module's own private state, not
   a PVM shared object: callers note the fragment footprint at the
   Global_map level. *)
[@@@chorus.noted "shard-internal state; footprints are noted by callers"]

(* One binding, both key ints inline.  Immutable once published:
   writers build new chains and publish them, so a reader walking a
   chain it loaded sees one consistent version of it.  [found] is the
   [Some v] that [find_opt] returns, built once when the binding is
   written so that a probe allocates nothing. *)
type 'v bucket =
  | Nil
  | Cons of { cid : int; off : int; found : 'v option; next : 'v bucket }

type 'v shard = {
  s_lock : Mutex.t; (* serialises writers; readers never take it *)
  s_tab : 'v bucket Atomic.t array Atomic.t;
      (* the bucket array (power-of-two length).  A resize builds and
         publishes a new array; the old one is never written again *)
  mutable s_len : int; (* bindings; written under [s_lock] only *)
  s_stat : Obs.Lockstat.t;
      (* acquires/waits per shard, wait/hold wall-clock when Lockstat
         timing is enabled; [lock_waits] reads its wait counts *)
}

type 'v t = {
  shards : 'v shard array;
  probes : Obs.Cells.t; (* per-domain point-operation counts, by shard *)
}

let initial_buckets = 16

(* [n] empty buckets, [n] a power of two.  A longer array than the
   largest young block (256 words) is built by concatenating young
   chunks: [Array.init] would first fill it with the young atomic for
   slot 0, and the runtime forces a minor collection (a stop-the-world
   pause on the parallel engine) for every such array. *)
let young_chunk = 256
let empty_chunk n = Array.init n (fun _ -> Atomic.make Nil)

let empty_buckets n =
  if n <= young_chunk then empty_chunk n
  else Array.concat (List.init (n / young_chunk) (fun _ -> empty_chunk young_chunk))

(* Buckets per shard for [capacity] bindings: a power of two, at least
   [initial_buckets] and at least the shard's share of [capacity], as
   [Hashtbl.create] sizes its table.  A full map is then at load <= 1,
   half the load that doubles a shard (see [insert]), so filling it to
   [capacity] copies no chain on the way even when the keys spread
   unevenly over the shards. *)
let buckets_for ~shards ~capacity =
  let share = (capacity + shards - 1) / shards in
  let rec up n = if n >= share then n else up (2 * n) in
  up initial_buckets

let create ?(name = "gmap") ?(shards = 8) ?(capacity = 0) () =
  if shards < 1 then invalid_arg "Shard_map.create: shard count < 1";
  let buckets = buckets_for ~shards ~capacity in
  {
    shards =
      Array.init shards (fun i ->
          {
            s_lock = Mutex.create ();
            s_tab = Atomic.make (empty_buckets buckets);
            s_len = 0;
            s_stat = Obs.Lockstat.create ~cls:"shard" (Printf.sprintf "%s/shard%d" name i);
          });
    probes = Obs.Cells.create (Array.make shards 0);
  }

let shard_count t = Array.length t.shards

(* Mix the cache id and the page index (offsets are page-granular in
   practice, so dropping the low 12 bits spreads consecutive pages of
   one cache over all shards).  Fibonacci-style multiply keeps the
   cheap sequential ids from clustering.  The shard takes the low bits
   of the mix, the bucket within it bits 32 and up. *)
let[@inline] hash cid off =
  ((cid + 1) * 0x9E3779B97F4A7C1) lxor ((off lsr 12) * 0x85EBCA77)

let[@inline] shard_index t h = (h land max_int) mod Array.length t.shards
let shard_of t cid off = shard_index t (hash cid off)
let[@inline] bucket tab h = Array.unsafe_get tab ((h lsr 32) land (Array.length tab - 1))

(* Count one point operation in the calling domain's row. *)
let[@inline] probe t i =
  let r = Obs.Cells.mine t.probes in
  r.(i) <- r.(i) + 1

let rec find_in cid off = function
  | Nil -> None
  | Cons c -> if c.cid = cid && c.off = off then c.found else find_in cid off c.next

(* --- readers: one bucket load, no lock ----------------------------- *)

let[@chorus.hot] find_opt t cid off =
  let h = hash cid off in
  let i = shard_index t h in
  probe t i;
  find_in cid off (Atomic.get (bucket (Atomic.get t.shards.(i).s_tab) h))

let[@chorus.hot] mem t cid off = Option.is_some (find_opt t cid off)

(* --- writers: under the shard lock --------------------------------- *)

(* The lock is taken only inside parallel slices: on the zero-worker
   engine and on the coordinator no other domain can write (the
   coordinator barriers on pool quiescence), so skipping it keeps the
   oracle path free of locking artefacts.  Acquisition goes through
   the shard's Lockstat: an acquisition that would block is counted
   as a lock wait, and wall-clock wait/hold timing rides along when
   enabled.  A section between the halves must not raise. *)
let[@chorus.balanced
     "this IS the acquire half of the shard-lock primitive: it \
      deliberately returns holding the lock; L9 audits its callers, which \
      pair it with shard_exit on every path"] shard_enter s =
  if Hw.Engine.in_parallel_slice () then Obs.Lockstat.lock s.s_stat s.s_lock

let[@chorus.balanced
     "this IS the release half of the shard-lock primitive: it is entered \
      holding the lock and deliberately returns without it"] shard_exit s =
  if Hw.Engine.in_parallel_slice () then Obs.Lockstat.unlock s.s_stat s.s_lock

(* [chain] with the binding for the key dropped, sharing the suffix
   after it.  Only called when the key is bound in [chain]. *)
let rec without cid off = function
  | Nil -> Nil
  | Cons c ->
    if c.cid = cid && c.off = off then c.next
    else Cons { c with next = without cid off c.next }

(* Double the bucket array once the load passes 2 (Hashtbl's rule).
   The new array gets fresh chains; the old array and its chains stay
   as they were, so a reader still walking them sees the last state
   before the resize. *)
let rec rehash tab = function
  | Nil -> ()
  | Cons c ->
    let b = bucket tab (hash c.cid c.off) in
    Atomic.set b (Cons { c with next = Atomic.get b });
    rehash tab c.next

let grow s =
  let old = Atomic.get s.s_tab in
  let tab = empty_buckets (2 * Array.length old) in
  Array.iter (fun b -> rehash tab (Atomic.get b)) old;
  Atomic.set s.s_tab tab

(* Bind a key known to be unbound: the one insertion path. *)
let insert s h cid off v =
  let b = bucket (Atomic.get s.s_tab) h in
  Atomic.set b (Cons { cid; off; found = Some v; next = Atomic.get b });
  s.s_len <- s.s_len + 1;
  if s.s_len > 2 * Array.length (Atomic.get s.s_tab) then grow s

let replace t cid off v =
  let h = hash cid off in
  let i = shard_index t h in
  let s = t.shards.(i) in
  probe t i;
  shard_enter s;
  let b = bucket (Atomic.get s.s_tab) h in
  let chain = Atomic.get b in
  (match find_in cid off chain with
  | None -> insert s h cid off v
  | Some _ ->
    Atomic.set b (Cons { cid; off; found = Some v; next = without cid off chain }));
  shard_exit s

let remove t cid off =
  let h = hash cid off in
  let i = shard_index t h in
  let s = t.shards.(i) in
  probe t i;
  shard_enter s;
  let b = bucket (Atomic.get s.s_tab) h in
  let chain = Atomic.get b in
  (match find_in cid off chain with
  | None -> ()
  | Some _ ->
    Atomic.set b (without cid off chain);
    s.s_len <- s.s_len - 1);
  shard_exit s

(* The linearisation point of a racing install: the probe and the
   insert happen under one shard lock. *)
let add_if_absent t cid off v =
  let h = hash cid off in
  let i = shard_index t h in
  let s = t.shards.(i) in
  probe t i;
  shard_enter s;
  let installed =
    match find_in cid off (Atomic.get (bucket (Atomic.get s.s_tab) h)) with
    | None ->
      insert s h cid off v;
      true
    | Some _ -> false
  in
  shard_exit s;
  installed

(* --- whole-map views ---------------------------------------------- *)

let rec fold_chain f acc = function
  | Nil -> acc
  | Cons { cid; off; found = Some v; next } -> fold_chain f (f cid off v acc) next
  | Cons { found = None; next; _ } -> fold_chain f acc next

let fold f t acc =
  Array.fold_left
    (fun acc s ->
      Array.fold_left
        (fun acc b -> fold_chain f acc (Atomic.get b))
        acc (Atomic.get s.s_tab))
    acc t.shards

let iter f t = fold (fun cid off v () -> f cid off v) t ()
let occupancy t = Array.map (fun s -> s.s_len) t.shards
let length t = Array.fold_left (fun acc s -> acc + s.s_len) 0 t.shards
let probes_per_shard t = Array.init (shard_count t) (Obs.Cells.sum t.probes)
let probes t = Array.fold_left ( + ) 0 (probes_per_shard t)

let lock_waits_per_shard t =
  Array.map (fun s -> Obs.Lockstat.waits s.s_stat) t.shards

let lock_waits t = Array.fold_left ( + ) 0 (lock_waits_per_shard t)

let lock_stats t =
  Array.to_list (Array.map (fun s -> Obs.Lockstat.snapshot s.s_stat) t.shards)
