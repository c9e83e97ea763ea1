type t = { page_size : int }

type fault = Unmapped | Protection
type access = [ `Read | `Write | `Execute ]

(* A slot of a leaf: empty, or an entry holding its frame and
   protection inline.  [ok] is the very block [translate] returns on a
   hit, built only when the entry gets a new frame: a lookup allocates
   nothing, and neither does a re-protect. *)
type pte =
  | No_pte
  | Pte of {
      vpn : int;
      mutable frame : Phys_mem.frame;
      mutable prot : Prot.t;
      mutable ok : (Phys_mem.frame, fault) result;
    }

(* The page table has two levels.  A leaf holds the entries of one
   chunk of [leaf_size] consecutive vpns, indexed by the vpn's low
   bits; the chunk number is [vpn asr leaf_bits].  A space's directory
   maps chunk numbers to leaves: open addressing with linear probing,
   power-of-two capacity and load <= 1/2, over three parallel arrays (a
   slot's chunk, its leaf and the leaf's entry count).  A leaf exists
   while it holds an entry, so a growing directory moves leaves, never
   entries.  A resize publishes a fresh [dir]; the arrays of one
   directory never change length. *)
let leaf_bits = 6
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1

type dir = {
  chunks : int array;  (* a slot's chunk number, or [no_chunk] *)
  leaves : pte array array;  (* a slot's leaf, or [no_leaf] *)
  used : int array;  (* the entries a slot's leaf holds *)
  mask : int;
  shift : int;  (* the hash keeps the top [63 - shift] bits *)
}

type space = {
  mmu : t;
  mutable dir : dir;
  mutable nleaves : int;
  mutable size : int;
  mutable alive : bool;
}

(* No vpn's chunk: [vpn asr leaf_bits] never reaches [min_int]. *)
let no_chunk = min_int
let no_leaf : pte array = [||]

let unmapped = Error Unmapped
let protection = Error Protection

let initial_bits = 2

let create ~page_size =
  if page_size <= 0 then invalid_arg "Mmu.create: page_size <= 0";
  { page_size }

let page_size t = t.page_size

let make_dir bits =
  let cap = 1 lsl bits in
  {
    chunks = Array.make cap no_chunk;
    leaves = Array.make cap no_leaf;
    used = Array.make cap 0;
    mask = cap - 1;
    shift = Sys.int_size - bits;
  }

let create_space mmu =
  { mmu; dir = make_dir initial_bits; nleaves = 0; size = 0; alive = true }

(* A destroyed space's directory: one empty slot, never written (every
   mutation checks [alive] first). *)
let dead = make_dir 0

let destroy_space space =
  space.alive <- false;
  space.dir <- dead;
  space.nleaves <- 0;
  space.size <- 0

let check_alive space =
  if not space.alive then invalid_arg "Mmu: space destroyed"

let vpn_of_addr t addr = addr / t.page_size

(* Multiplicative (Fibonacci) hashing: the top bits of [chunk * odd
   constant], so the chunks of regions whose bases agree modulo the
   capacity still spread over the directory. *)
let[@inline] home dir chunk = (chunk * 0x278DDE6E5FD29F05) lsr dir.shift

(* The slot holding [chunk], or [lnot i] (negative) where [i] is the
   empty slot that ends its probe run. *)
let[@chorus.hot] rec probe dir chunk i =
  let c = dir.chunks.(i) in
  if c = chunk then i
  else if c = no_chunk then lnot i
  else probe dir chunk ((i + 1) land dir.mask)

let[@chorus.hot] [@inline] find dir chunk = probe dir chunk (home dir chunk)

(* The slot for [vpn] in its leaf: the entry, or [No_pte]. *)
let[@chorus.hot] [@inline] lookup space vpn =
  let dir = space.dir in
  let i = find dir (vpn asr leaf_bits) in
  if i < 0 then No_pte else dir.leaves.(i).(vpn land leaf_mask)

let mapped_pages space = space.size

(* --- mutation ------------------------------------------------------ *)

let grow space =
  let old = space.dir in
  let nd = make_dir (Sys.int_size - old.shift + 1) in
  for i = 0 to Array.length old.chunks - 1 do
    let c = old.chunks.(i) in
    if c <> no_chunk then begin
      let j = lnot (find nd c) in
      nd.chunks.(j) <- c;
      nd.leaves.(j) <- old.leaves.(i);
      nd.used.(j) <- old.used.(i)
    end
  done;
  space.dir <- nd

(* A fresh leaf for [chunk], which has none; returns its slot. *)
let add_leaf space chunk =
  if 2 * (space.nleaves + 1) > Array.length space.dir.chunks then grow space;
  let dir = space.dir in
  let i = lnot (find dir chunk) in
  dir.chunks.(i) <- chunk;
  dir.leaves.(i) <-
    (Array.make leaf_size No_pte
    [@chorus.alloc_ok "the leaf that holds the chunk's entries"]);
  space.nleaves <- space.nleaves + 1;
  i

let[@chorus.hot] map space ~vpn frame prot =
  check_alive space;
  let chunk = vpn asr leaf_bits in
  let i = find space.dir chunk in
  let i = if i < 0 then add_leaf space chunk else i in
  let dir = space.dir in
  let leaf = dir.leaves.(i) in
  let k = vpn land leaf_mask in
  match leaf.(k) with
  | No_pte ->
    leaf.(k) <-
      Pte { vpn; frame; prot; ok = Ok frame }
      [@chorus.alloc_ok "the page-table entry the space keeps, with its hit result"];
    dir.used.(i) <- dir.used.(i) + 1;
    space.size <- space.size + 1;
    -1
  | Pte e ->
    let old = e.frame.Phys_mem.index in
    if not (e.frame == frame) then begin
      e.frame <- frame;
      e.ok <- (Ok frame [@chorus.alloc_ok "the hit result for the new frame"])
    end;
    e.prot <- prot;
    old

(* Backward-shift deletion: empty [hole], then walk its probe run and
   move back every slot whose home does not lie cyclically in
   (hole, j] — it would otherwise be cut off from its home by the new
   empty slot. *)
let rec close_hole dir hole j =
  let c = dir.chunks.(j) in
  if c = no_chunk then begin
    dir.chunks.(hole) <- no_chunk;
    dir.leaves.(hole) <- no_leaf;
    dir.used.(hole) <- 0
  end
  else
    let next = (j + 1) land dir.mask in
    if (j - home dir c) land dir.mask >= (j - hole) land dir.mask then begin
      dir.chunks.(hole) <- c;
      dir.leaves.(hole) <- dir.leaves.(j);
      dir.used.(hole) <- dir.used.(j);
      close_hole dir j next
    end
    else close_hole dir hole next

(* [removed] entries of the leaf in slot [i] are gone: count them, and
   drop the leaf when it holds nothing more. *)
let release space i removed =
  let dir = space.dir in
  let left = dir.used.(i) - removed in
  space.size <- space.size - removed;
  if left > 0 then dir.used.(i) <- left
  else begin
    close_hole dir i ((i + 1) land dir.mask);
    space.nleaves <- space.nleaves - 1
  end

let unmap space ~vpn =
  check_alive space;
  let i = find space.dir (vpn asr leaf_bits) in
  if i >= 0 then begin
    let leaf = space.dir.leaves.(i) in
    let k = vpn land leaf_mask in
    match leaf.(k) with
    | Pte _ ->
      leaf.(k) <- No_pte;
      release space i 1
    | No_pte -> ()
  end

let[@chorus.hot] protect space ~vpn prot =
  check_alive space;
  match lookup space vpn with
  | Pte e -> e.prot <- prot
  | No_pte -> invalid_arg "Mmu.protect: page not mapped"

(* --- range walks ---------------------------------------------------- *)

(* A range walk visits the leaves of the chunks [c0, c1] that the range
   [vpn, last] overlaps, in ascending chunk order: by one probe per
   chunk when there are at most as many chunks as directory slots,
   else by a scan of the directory for the chunks in range, sorted.
   Within a leaf it visits the slots in range, ascending. *)
let rec chunks_in dir c0 c1 i acc =
  if i < 0 then List.sort Int.compare acc
  else
    let c = dir.chunks.(i) in
    chunks_in dir c0 c1 (i - 1)
      (if c <> no_chunk && c >= c0 && c <= c1 then c :: acc else acc)

(* The leaf slots of chunk [c] that lie in [vpn, last]. *)
let[@inline] first_slot c ~vpn = max 0 (vpn - (c lsl leaf_bits))
let[@inline] last_slot c ~last = min leaf_mask (last - (c lsl leaf_bits))

(* Removes the entries of chunk [c] in [vpn, last], calling [f x] on
   each just before; returns how many it removed. *)
let remove_chunk space ~vpn ~last f x c =
  let i = find space.dir c in
  if i < 0 then 0
  else begin
    let leaf = space.dir.leaves.(i) in
    let removed = ref 0 in
    for k = first_slot c ~vpn to last_slot c ~last do
      match leaf.(k) with
      | Pte e ->
        f x ~vpn:e.vpn e.frame e.prot;
        leaf.(k) <- No_pte;
        incr removed
      | No_pte -> ()
    done;
    if !removed > 0 then release space i !removed;
    !removed
  end

let rec remove_chunks space ~vpn ~last f x c c1 removed =
  if c > c1 then removed
  else
    remove_chunks space ~vpn ~last f x (c + 1) c1
      (removed + remove_chunk space ~vpn ~last f x c)

let rec remove_listed space ~vpn ~last f x chunks removed =
  match chunks with
  | [] -> removed
  | c :: rest ->
    remove_listed space ~vpn ~last f x rest
      (removed + remove_chunk space ~vpn ~last f x c)

let invalidate_range space ~vpn ~count f x =
  check_alive space;
  if count <= 0 then 0
  else begin
    let last = vpn + count - 1 in
    let c0 = vpn asr leaf_bits and c1 = last asr leaf_bits in
    let dir = space.dir in
    if c1 - c0 < Array.length dir.chunks then
      remove_chunks space ~vpn ~last f x c0 c1 0
    else
      remove_listed space ~vpn ~last f x
        (chunks_in dir c0 c1 (Array.length dir.chunks - 1) [])
        0
  end

let iter_chunk dir ~vpn ~last f c =
  let i = find dir c in
  if i >= 0 then begin
    let leaf = dir.leaves.(i) in
    for k = first_slot c ~vpn to last_slot c ~last do
      match leaf.(k) with
      | Pte e -> f ~vpn:e.vpn e.frame e.prot
      | No_pte -> ()
    done
  end

let iter_range space ~vpn ~count f =
  if count > 0 then begin
    let last = vpn + count - 1 in
    let c0 = vpn asr leaf_bits and c1 = last asr leaf_bits in
    let dir = space.dir in
    if c1 - c0 < Array.length dir.chunks then
      for c = c0 to c1 do
        iter_chunk dir ~vpn ~last f c
      done
    else
      List.iter (iter_chunk dir ~vpn ~last f)
        (chunks_in dir c0 c1 (Array.length dir.chunks - 1) [])
  end

(* The first mapped slot of [leaf] in [k, hi), or -1. *)
let rec first_mapped leaf k hi =
  if k >= hi then -1
  else match leaf.(k) with Pte _ -> k | No_pte -> first_mapped leaf (k + 1) hi

(* The least chunk in [c, c1] that has a leaf, or [no_chunk]: one scan
   of the directory. *)
let least_chunk dir c c1 =
  let least = ref no_chunk in
  for i = 0 to Array.length dir.chunks - 1 do
    let x = dir.chunks.(i) in
    if x >= c && x <= c1 && (!least = no_chunk || x < !least) then least := x
  done;
  !least

(* The first mapped vpn in [vpn, limit) from [vpn]'s own leaf on.  Past
   that leaf the next chunk is probed while the chunks left span at most
   the directory's capacity, as a range walk does, and found by a scan
   otherwise, so a scan is paid once per leaf the walk moves to. *)
let rec next_in space ~vpn ~limit =
  let dir = space.dir in
  let c = vpn asr leaf_bits in
  let base = c lsl leaf_bits in
  let i = find dir c in
  let k =
    if i < 0 then -1
    else
      first_mapped dir.leaves.(i) (vpn - base) (min leaf_size (limit - base))
  in
  if k >= 0 then base + k
  else if limit - base <= leaf_size then -1
  else begin
    let c1 = (limit - 1) asr leaf_bits in
    if c1 - c <= Array.length dir.chunks then
      next_in space ~vpn:(base + leaf_size) ~limit
    else
      let c = least_chunk dir (c + 1) c1 in
      if c = no_chunk then -1 else next_in space ~vpn:(c lsl leaf_bits) ~limit
  end

let next_mapped space ~vpn ~limit =
  if vpn < 0 then invalid_arg "Mmu.next_mapped: negative vpn";
  if vpn >= limit then -1 else next_in space ~vpn ~limit

(* --- lookup (allocation-free) --------------------------------------- *)

let[@chorus.hot] query space ~vpn = lookup space vpn

let[@chorus.hot] mapped_frame_index space ~vpn =
  match lookup space vpn with Pte e -> e.frame.Phys_mem.index | No_pte -> -1

let[@chorus.hot] [@inline] translate space ~addr ~access =
  check_alive space;
  match lookup space (vpn_of_addr space.mmu addr) with
  | Pte e -> if Prot.allows e.prot access then e.ok else protection
  | No_pte -> unmapped

let iter space f =
  let dir = space.dir in
  let entries = ref [] in
  List.iter
    (fun c ->
      Array.iter
        (function
          | Pte e -> entries := (e.vpn, e.frame, e.prot) :: !entries
          | No_pte -> ())
        dir.leaves.(find dir c))
    (chunks_in dir min_int max_int (Array.length dir.chunks - 1) []);
  List.iter (fun (vpn, frame, prot) -> f ~vpn frame prot) (List.rev !entries)
