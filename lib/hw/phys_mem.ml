type frame = { index : int; bytes : Bytes.t }

(* The free list is a LIFO stack of frame indices: [stack.(0 ..
   top - 1)], the top last.  It starts holding every frame with frame
   0 on top, so frames are first handed out in index order. *)
type t = {
  page_size : int;
  frames : frame array;
  allocated : bool array;
  stack : int array;
  mutable top : int;
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
    stack = Array.init frames (fun i -> frames - 1 - i);
    top = frames;
  }

let page_size t = t.page_size
let total_frames t = Array.length t.frames
let free_frames t = t.top
let used_frames t = total_frames t - t.top

let alloc_index t =
  if t.top = 0 then -1
  else begin
    t.top <- t.top - 1;
    let i = t.stack.(t.top) in
    t.allocated.(i) <- true;
    i
  end

let frame t i = t.frames.(i)

let alloc_opt t =
  let i = alloc_index t in
  if i < 0 then None else Some t.frames.(i)

let alloc t =
  match alloc_opt t with Some f -> f | None -> raise Out_of_memory

let free t frame =
  if not t.allocated.(frame.index) then
    invalid_arg "Phys_mem.free: frame already free";
  t.allocated.(frame.index) <- false;
  t.stack.(t.top) <- frame.index;
  t.top <- t.top + 1

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
