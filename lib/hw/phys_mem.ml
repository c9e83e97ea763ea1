(* The free list is a LIFO stack of frame indices: [stack.(0 ..
   top - 1)], the top last.  It starts holding every frame with frame
   0 on top, so frames are first handed out in index order.  [frames]
   is mutable only to tie the knot with each frame's [pool]. *)
type t = {
  page_size : int;
  mutable frames : frame array;
  allocated : bool array;
  stack : int array;
  mutable top : int;
}

and frame = { index : int; bytes : Bytes.t; pool : t }

exception Out_of_memory

(* The newest dead pool of one page size: [create] takes its buffers
   from [next] on.  Only one is kept: the OCaml GC lets garbage grow in
   proportion to live data, and the spare is live. *)
type dead = { dead : frame array; mutable next : int }

let spares : (int * dead option ref) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let spare_of page_size =
  let spares = Domain.DLS.get spares in
  try List.assoc page_size !spares
  with Not_found ->
    let spare = ref None in
    spares := (page_size, spare) :: !spares;
    spare

(* Allocation-free from the read of [spare] to its update, so the
   finaliser that replaces it cannot run in between. *)
let take spare page_size =
  match !spare with
  | Some d when d.next < Array.length d.dead ->
    d.next <- d.next + 1;
    if d.next = Array.length d.dead then spare := None;
    d.dead.(d.next - 1).bytes
  | _ -> Bytes.create page_size

let create ?(page_size = 8192) ~frames () =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames <= 0";
  if page_size <= 0 then invalid_arg "Phys_mem.create: page_size <= 0";
  let spare = spare_of page_size in
  let t =
    {
      page_size;
      frames = [||];
      allocated = Array.make frames false;
      stack = Array.init frames (fun i -> frames - 1 - i);
      top = frames;
    }
  in
  t.frames <-
    Array.init frames (fun index ->
        { index; bytes = take spare page_size; pool = t });
  Gc.finalise (fun t -> spare := Some { dead = t.frames; next = 0 }) t;
  t

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
