(* Per-domain cell rows.  The write path is [mine] plus plain array
   arithmetic; everything that synchronises (slot claims, row
   registration, reads) is off it. *)

(* --- dense domain slots ------------------------------------------- *)

(* Guards [free_slots], [next_slot] and every cell set's row
   registration: all rare, none on the write path. *)
let lock = Mutex.create ()
let free_slots = ref []
let next_slot = ref 0

(* -1 until this domain first writes a cell.  The claim cannot run in
   the DLS initialiser: it registers a [Domain.at_exit] release, which
   itself goes through DLS. *)
let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let release_slot s () =
  Mutex.lock lock;
  free_slots := s :: !free_slots;
  Mutex.unlock lock

let[@inline never] claim_slot () =
  Mutex.lock lock;
  let s =
    match !free_slots with
    | s :: rest ->
      free_slots := rest;
      s
    | [] ->
      let s = !next_slot in
      next_slot := s + 1;
      s
  in
  Mutex.unlock lock;
  Domain.at_exit (release_slot s);
  Domain.DLS.set slot_key s;
  s

let[@inline] slot () =
  let s = Domain.DLS.get slot_key in
  if s >= 0 then s else claim_slot ()

(* --- cell sets ---------------------------------------------------- *)

type t = {
  init : int array;
  rows : int array array Atomic.t;
      (* by slot; [absent] where that slot never wrote.  Grown by
         copying, so an older array still holds every row registered
         before it was replaced *)
}

(* Marks an unregistered slot.  Compared physically, so a zero-width
   row (a registry without primitives) is still a registered row. *)
let absent : int array = [| 0 |]

let create init = { init = Array.copy init; rows = Atomic.make [||] }

let[@inline never] register t s =
  Mutex.lock lock;
  let rows = Atomic.get t.rows in
  let rows =
    if s < Array.length rows then rows
    else begin
      let grown = Array.make (max (s + 1) (2 * Array.length rows)) absent in
      Array.blit rows 0 grown 0 (Array.length rows);
      Atomic.set t.rows grown;
      grown
    end
  in
  let row = Array.copy t.init in
  rows.(s) <- row;
  Mutex.unlock lock;
  row

let[@inline] [@chorus.hot] mine t =
  let s = slot () in
  let rows = Atomic.get t.rows in
  if s < Array.length rows then
    let row = Array.unsafe_get rows s in
    if row != absent then row else register t s
  else register t s

let fold t f acc =
  Array.fold_left
    (fun acc row -> if row == absent then acc else f acc row)
    acc (Atomic.get t.rows)

let sum t i = fold t (fun acc row -> acc + row.(i)) 0

let reset t =
  fold t (fun () row -> Array.blit t.init 0 row 0 (Array.length row)) ()
