type frame = { index : int; bytes : Bytes.t }

(* The free list is a Treiber stack: a CAS on the head cell pops or
   pushes, so frames move in and out of the pool on any domain without
   a lock.  Every push allocates a fresh cons cell, so a successful CAS
   proves the head is the very cell that was read (the GC rules out
   ABA).  [allocated.(i)] is set after the pop and cleared before the
   push: a frame is marked allocated only while exactly one owner holds
   it. *)
type t = {
  page_size : int;
  frames : frame array;
  allocated : bool array;
  free_list : int list Atomic.t;
  used : int Atomic.t;
}

exception Out_of_memory

let create ?(page_size = 8192) ~frames () =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames <= 0";
  if page_size <= 0 then invalid_arg "Phys_mem.create: page_size <= 0";
  let make_frame index = { index; bytes = Bytes.create page_size } in
  {
    page_size;
    frames = Array.init frames make_frame;
    allocated = Array.make frames false;
    free_list = Atomic.make (List.init frames (fun i -> i));
    used = Atomic.make 0;
  }

let page_size t = t.page_size
let total_frames t = Array.length t.frames
let used_frames t = Atomic.get t.used
let free_frames t = total_frames t - used_frames t

let rec alloc_index t =
  match Atomic.get t.free_list with
  | [] -> -1
  | i :: rest as head ->
    if Atomic.compare_and_set t.free_list head rest then begin
      t.allocated.(i) <- true;
      Atomic.incr t.used;
      i
    end
    else alloc_index t

let frame t i = t.frames.(i)

let alloc_opt t =
  let i = alloc_index t in
  if i < 0 then None else Some t.frames.(i)

let alloc t =
  match alloc_opt t with Some f -> f | None -> raise Out_of_memory

let rec push t i =
  let head = Atomic.get t.free_list in
  if not (Atomic.compare_and_set t.free_list head (i :: head)) then push t i

let free t frame =
  if not t.allocated.(frame.index) then
    invalid_arg "Phys_mem.free: frame already free";
  t.allocated.(frame.index) <- false;
  Atomic.decr t.used;
  push t frame.index

let is_allocated t frame = t.allocated.(frame.index)
let bzero frame = Bytes.fill frame.bytes 0 (Bytes.length frame.bytes) '\000'

let bcopy ~src ~dst =
  if Bytes.length src.bytes <> Bytes.length dst.bytes then
    invalid_arg "Phys_mem.bcopy: page size mismatch";
  Bytes.blit src.bytes 0 dst.bytes 0 (Bytes.length src.bytes)

let read frame ~off ~len = Bytes.sub frame.bytes off len
let write frame ~off data = Bytes.blit data 0 frame.bytes off (Bytes.length data)
let fill frame c = Bytes.fill frame.bytes 0 (Bytes.length frame.bytes) c

let pp_stats ppf t =
  Format.fprintf ppf "frames: %d total, %d used, %d free (%d B pages)"
    (total_frames t) (used_frames t) (free_frames t) t.page_size
