(* [data] is the store's capacity, grown geometrically; [length] is the
   segment's logical size.  Every byte of [data] past [length] is zero,
   so growth within the capacity needs no clearing. *)
type segment = { mutable data : Bytes.t; mutable length : int }

type t = {
  name : string;
  seek_time : Hw.Sim_time.span;
  transfer_time_per_page : Hw.Sim_time.span;
  page_size : int;
  segments : (int64, segment) Hashtbl.t;
  mutable reads : int;
  mutable writes : int;
}

let create ?(seek_time = 0) ?(transfer_time_per_page = 0) ?(page_size = 8192)
    ~name () =
  {
    name;
    seek_time;
    transfer_time_per_page;
    page_size;
    segments = Hashtbl.create 64;
    reads = 0;
    writes = 0;
  }

(* The backing-store segment table is shared by every fibre whose
   pullIn/pushOut lands on this mapper. *)
let segment_count t =
  Hw.Engine.note_ambient ~write:false (-7) 0;
  Hashtbl.length t.segments
let reads t = t.reads
let writes t = t.writes

let find t key =
  Hw.Engine.note_ambient ~write:false (-7) 0;
  match Hashtbl.find_opt t.segments key with
  | Some s -> s
  | None -> raise Mapper.Bad_capability

let device_delay t ~size =
  let pages = (size + t.page_size - 1) / t.page_size in
  let span = t.seek_time + (pages * t.transfer_time_per_page) in
  if span > 0 then Hw.Engine.sleep span

(* A resize (here or in [truncate]) allocates a new store and leaves
   the old one untouched, so a range [read] handed out stays intact
   (see [Mapper.read]). *)
let grow seg size =
  if size > seg.length then begin
    if size > Bytes.length seg.data then begin
      let bigger = Bytes.make (max size (2 * Bytes.length seg.data)) '\000' in
      Bytes.blit seg.data 0 bigger 0 seg.length;
      seg.data <- bigger
    end;
    seg.length <- size
  end

let read t ~key ~offset ~size =
  let seg = find t key in
  t.reads <- t.reads + 1;
  device_delay t ~size;
  let available = seg.length - offset in
  if available >= size then (seg.data, offset)
  else begin
    (* past the end of the segment reads as zeroes *)
    let out = Bytes.make size '\000' in
    if available > 0 then Bytes.blit seg.data offset out 0 available;
    (out, 0)
  end

let write t ~key ~offset bytes =
  let seg = find t key in
  t.writes <- t.writes + 1;
  device_delay t ~size:(Bytes.length bytes);
  grow seg (offset + Bytes.length bytes);
  Bytes.blit bytes 0 seg.data offset (Bytes.length bytes)

let truncate t ~key ~size =
  let seg = find t key in
  if seg.length > size then begin
    seg.data <- Bytes.sub seg.data 0 size;
    seg.length <- size
  end

let segment_size t ~key = (find t key).length

let create_segment t ?initial () =
  Hw.Engine.note_ambient (-7) 0;
  let key = Capability.next_key () in
  let data = match initial with Some b -> Bytes.copy b | None -> Bytes.create 0 in
  Hashtbl.replace t.segments key { data; length = Bytes.length data };
  key

let destroy_segment t ~key =
  Hw.Engine.note_ambient (-7) 0;
  Hashtbl.remove t.segments key

let mapper t =
  {
    Mapper.name = t.name;
    read = read t;
    write = write t;
    truncate = truncate t;
    segment_size = segment_size t;
    create_temporary = Some (fun () -> create_segment t ());
    destroy_segment = (fun ~key -> destroy_segment t ~key);
  }
