type segment = { mutable data : Bytes.t }

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

let grow seg size =
  if Bytes.length seg.data < size then begin
    let bigger = Bytes.make size '\000' in
    Bytes.blit seg.data 0 bigger 0 (Bytes.length seg.data);
    seg.data <- bigger
  end

let read t ~key ~offset ~size =
  let seg = find t key in
  t.reads <- t.reads + 1;
  device_delay t ~size;
  let available = Bytes.length seg.data - offset in
  if available >= size then Bytes.sub seg.data offset size
  else begin
    (* past the end of the segment reads as zeroes *)
    let out = Bytes.make size '\000' in
    if available > 0 then Bytes.blit seg.data offset out 0 available;
    out
  end

let write t ~key ~offset bytes =
  let seg = find t key in
  t.writes <- t.writes + 1;
  device_delay t ~size:(Bytes.length bytes);
  grow seg (offset + Bytes.length bytes);
  Bytes.blit bytes 0 seg.data offset (Bytes.length bytes)

let truncate t ~key ~size =
  let seg = find t key in
  if Bytes.length seg.data > size then seg.data <- Bytes.sub seg.data 0 size

let segment_size t ~key = Bytes.length (find t key).data

let create_segment t ?initial () =
  Hw.Engine.note_ambient (-7) 0;
  let key = Capability.next_key () in
  let data = match initial with Some b -> Bytes.copy b | None -> Bytes.create 0 in
  Hashtbl.replace t.segments key { data };
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
