type t = { page_size : int }

type fault = Unmapped | Protection
type access = [ `Read | `Write | `Execute ]

(* A slot of the page table: empty, or an entry holding its frame and
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

(* The page table: open addressing with linear probing, power-of-two
   capacity and load <= 1/2.  A slot holds its entry, or [No_pte].  A
   resize publishes a fresh [table]; the slots array of one table never
   changes length. *)
type table = {
  slots : pte array;
  mask : int;
  shift : int;  (* the hash keeps the top [63 - shift] bits *)
}

type space = {
  mmu : t;
  mutable tab : table;
  mutable size : int;
  mutable alive : bool;
}

let unmapped = Error Unmapped
let protection = Error Protection

let initial_bits = 4

let create ~page_size =
  if page_size <= 0 then invalid_arg "Mmu.create: page_size <= 0";
  { page_size }

let page_size t = t.page_size

let make_table bits =
  let cap = 1 lsl bits in
  { slots = Array.make cap No_pte; mask = cap - 1; shift = Sys.int_size - bits }

let create_space mmu =
  { mmu; tab = make_table initial_bits; size = 0; alive = true }

(* A destroyed space's table: one empty slot, never written (every
   mutation checks [alive] first). *)
let dead = make_table 0

let destroy_space space =
  space.alive <- false;
  space.tab <- dead;
  space.size <- 0

let check_alive space =
  if not space.alive then invalid_arg "Mmu: space destroyed"

let vpn_of_addr t addr = addr / t.page_size

(* Multiplicative (Fibonacci) hashing: the top bits of [vpn * odd
   constant], so the pages of regions whose bases agree modulo the
   capacity still spread over the table. *)
let[@inline] home tab vpn = (vpn * 0x278DDE6E5FD29F05) lsr tab.shift

(* The slot holding [vpn], or [lnot i] (negative) where [i] is the
   empty slot that ends its probe run. *)
let[@chorus.hot] rec probe tab vpn i =
  match tab.slots.(i) with
  | No_pte -> lnot i
  | Pte e -> if e.vpn = vpn then i else probe tab vpn ((i + 1) land tab.mask)

let[@chorus.hot] find tab vpn = probe tab vpn (home tab vpn)

let mapped_pages space = space.size

(* --- mutation ------------------------------------------------------ *)

let rehash nt = function
  | No_pte -> ()
  | Pte e as slot -> nt.slots.(lnot (find nt e.vpn)) <- slot

let grow space =
  let old = space.tab.slots in
  let nt = make_table (Sys.int_size - space.tab.shift + 1) in
  Array.iter (rehash nt) old;
  space.tab <- nt

(* A new entry for an unmapped [vpn]. *)
let[@chorus.hot] add space ~vpn frame prot =
  if 2 * (space.size + 1) > Array.length space.tab.slots then grow space;
  let tab = space.tab in
  tab.slots.(lnot (find tab vpn)) <-
    Pte { vpn; frame; prot; ok = Ok frame }
    [@chorus.alloc_ok "the page-table entry the space keeps, with its hit result"];
  space.size <- space.size + 1

let[@chorus.hot] map space ~vpn frame prot =
  check_alive space;
  let i = find space.tab vpn in
  if i < 0 then begin
    add space ~vpn frame prot;
    -1
  end
  else
    match space.tab.slots.(i) with
    | Pte e ->
      let old = e.frame.Phys_mem.index in
      if not (e.frame == frame) then begin
        e.frame <- frame;
        e.ok <- (Ok frame [@chorus.alloc_ok "the hit result for the new frame"])
      end;
      e.prot <- prot;
      old
    | No_pte -> -1

(* Backward-shift deletion: empty [hole], then walk its probe run and
   move back every entry whose home does not lie cyclically in
   (hole, j] — the entry would otherwise be cut off from its home by
   the new empty slot. *)
let rec close_hole tab hole j =
  match tab.slots.(j) with
  | No_pte -> tab.slots.(hole) <- No_pte
  | Pte e as slot ->
    let next = (j + 1) land tab.mask in
    if (j - home tab e.vpn) land tab.mask >= (j - hole) land tab.mask then begin
      tab.slots.(hole) <- slot;
      close_hole tab j next
    end
    else close_hole tab hole next

let remove_slot space i =
  close_hole space.tab i ((i + 1) land space.tab.mask);
  space.size <- space.size - 1

let unmap space ~vpn =
  check_alive space;
  let i = find space.tab vpn in
  if i >= 0 then remove_slot space i

let[@chorus.hot] protect space ~vpn prot =
  check_alive space;
  let i = find space.tab vpn in
  if i < 0 then invalid_arg "Mmu.protect: page not mapped";
  match space.tab.slots.(i) with Pte e -> e.prot <- prot | No_pte -> ()

(* Slot-order scan deleting every vpn in [vpn, vpn+count).  A deletion
   back-shifts later entries into slot [i], so [i] is examined again
   before moving on; entries shifted across the wrap into the table's
   tail were already examined once and are simply seen twice. *)
let rec scan_remove space ~vpn ~count i removed =
  if i >= Array.length space.tab.slots then removed
  else
    match space.tab.slots.(i) with
    | Pte e when e.vpn >= vpn && e.vpn - vpn < count ->
      remove_slot space i;
      scan_remove space ~vpn ~count i (removed + 1)
    | Pte _ | No_pte -> scan_remove space ~vpn ~count (i + 1) removed

let invalidate_range space ~vpn ~count =
  check_alive space;
  if count > Array.length space.tab.slots then scan_remove space ~vpn ~count 0 0
  else begin
    let removed = ref 0 in
    for p = vpn to vpn + count - 1 do
      let i = find space.tab p in
      if i >= 0 then begin
        remove_slot space i;
        incr removed
      end
    done;
    !removed
  end

(* --- lookup (allocation-free) --------------------------------------- *)

let[@chorus.hot] query space ~vpn =
  let tab = space.tab in
  let i = find tab vpn in
  if i < 0 then No_pte else tab.slots.(i)

let[@chorus.hot] mapped_frame_index space ~vpn =
  let tab = space.tab in
  let i = find tab vpn in
  if i < 0 then -1
  else match tab.slots.(i) with Pte e -> e.frame.Phys_mem.index | No_pte -> -1

let[@chorus.hot] translate space ~addr ~access =
  check_alive space;
  let tab = space.tab in
  let i = find tab (vpn_of_addr space.mmu addr) in
  if i < 0 then unmapped
  else
    match tab.slots.(i) with
    | Pte e -> if Prot.allows e.prot access then e.ok else protection
    | No_pte -> unmapped

let[@chorus.hot] iter_range_with space ~vpn ~count f x =
  let tab = space.tab in
  if count > Array.length tab.slots then
    for i = 0 to Array.length tab.slots - 1 do
      match tab.slots.(i) with
      | Pte e when e.vpn >= vpn && e.vpn - vpn < count ->
        f x ~vpn:e.vpn e.frame e.prot
      | Pte _ | No_pte -> ()
    done
  else
    for p = vpn to vpn + count - 1 do
      let i = find tab p in
      if i >= 0 then
        match tab.slots.(i) with
        | Pte e -> f x ~vpn:p e.frame e.prot
        | No_pte -> ()
    done

let apply f ~vpn frame prot = f ~vpn frame prot
let iter_range space ~vpn ~count f = iter_range_with space ~vpn ~count apply f

let iter space f =
  let entries = ref [] in
  Array.iter
    (function
      | Pte e -> entries := (e.vpn, e.frame, e.prot) :: !entries
      | No_pte -> ())
    space.tab.slots;
  List.iter
    (fun (vpn, frame, prot) -> f ~vpn frame prot)
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !entries)
