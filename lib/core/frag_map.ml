(* The map's bookkeeping is this module's own private state, not a
   PVM shared object: callers note the fragment footprint at the
   Global_map level. *)
[@@@chorus.noted "map-internal state; footprints are noted by callers"]

(* One binding, both key ints inline.  [found] is the [Some v] that
   [find_opt] returns, built once when the binding is written so that
   a probe allocates nothing. *)
type 'v bucket =
  | Nil
  | Cons of { cid : int; off : int; found : 'v option; next : 'v bucket }

type 'v t = {
  mutable tab : 'v bucket array; (* power-of-two length *)
  mutable len : int;
  mutable probes : int; (* point operations served *)
}

let initial_buckets = 16

(* Buckets for [capacity] bindings: a power of two, at least
   [initial_buckets] and at least [capacity], as [Hashtbl.create] sizes
   its table.  A full map is then at load <= 1, half the load that
   doubles it (see [insert]), so filling it to [capacity] copies no
   chain on the way. *)
let buckets_for capacity =
  let rec up n = if n >= capacity then n else up (2 * n) in
  up initial_buckets

let create ?(capacity = 0) () =
  { tab = Array.make (buckets_for capacity) Nil; len = 0; probes = 0 }

(* Mix the cache id and the page index (offsets are page-granular in
   practice, so dropping the low 12 bits spreads consecutive pages of
   one cache).  Fibonacci-style multiply keeps the cheap sequential
   ids from clustering; the bucket takes bits 32 and up of the mix. *)
let[@inline] hash cid off =
  ((cid + 1) * 0x9E3779B97F4A7C1) lxor ((off lsr 12) * 0x85EBCA77)

let[@inline] slot tab h = (h lsr 32) land (Array.length tab - 1)

let rec find_in cid off = function
  | Nil -> None
  | Cons c -> if c.cid = cid && c.off = off then c.found else find_in cid off c.next

let[@chorus.hot][@inline] find_opt t cid off =
  t.probes <- t.probes + 1;
  find_in cid off (Array.unsafe_get t.tab (slot t.tab (hash cid off)))

let[@chorus.hot] mem t cid off = Option.is_some (find_opt t cid off)

(* [chain] with the binding for the key dropped, sharing the suffix
   after it.  Only called when the key is bound in [chain]. *)
let rec without cid off = function
  | Nil -> Nil
  | Cons c ->
    if c.cid = cid && c.off = off then c.next
    else Cons { c with next = without cid off c.next }

(* Double the bucket array once the load passes 2 (Hashtbl's rule). *)
let rec rehash tab = function
  | Nil -> ()
  | Cons c ->
    let i = slot tab (hash c.cid c.off) in
    tab.(i) <- Cons { c with next = tab.(i) };
    rehash tab c.next

let grow t =
  let tab = Array.make (2 * Array.length t.tab) Nil in
  Array.iter (rehash tab) t.tab;
  t.tab <- tab

(* Bind a key known to be unbound: the one insertion path. *)
let[@inline] insert t i cid off v =
  t.tab.(i) <- Cons { cid; off; found = Some v; next = t.tab.(i) };
  t.len <- t.len + 1;
  if t.len > 2 * Array.length t.tab then grow t

let[@inline] replace t cid off v =
  t.probes <- t.probes + 1;
  let i = slot t.tab (hash cid off) in
  let chain = t.tab.(i) in
  match find_in cid off chain with
  | None -> insert t i cid off v
  | Some _ -> t.tab.(i) <- Cons { cid; off; found = Some v; next = without cid off chain }

let[@inline] remove t cid off =
  t.probes <- t.probes + 1;
  let i = slot t.tab (hash cid off) in
  let chain = t.tab.(i) in
  match find_in cid off chain with
  | None -> ()
  | Some _ ->
    t.tab.(i) <- without cid off chain;
    t.len <- t.len - 1

let add_if_absent t cid off v =
  t.probes <- t.probes + 1;
  let i = slot t.tab (hash cid off) in
  match find_in cid off t.tab.(i) with
  | None ->
    insert t i cid off v;
    true
  | Some _ -> false

(* --- whole-map views ---------------------------------------------- *)

let rec fold_chain f acc = function
  | Nil -> acc
  | Cons { cid; off; found = Some v; next } -> fold_chain f (f cid off v acc) next
  | Cons { found = None; next; _ } -> fold_chain f acc next

let fold f t acc = Array.fold_left (fold_chain f) acc t.tab
let iter f t = fold (fun cid off v () -> f cid off v) t ()
let length t = t.len
let probes t = t.probes
