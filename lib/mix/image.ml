type t = {
  name : string;
  text_cap : Seg.Capability.t;
  data_cap : Seg.Capability.t;
  text_size : int;
  data_size : int;
  bss_size : int;
}

type store = {
  site : Nucleus.Site.t;
  files : Seg.Mem_mapper.t;
  port : int;
  images : (string, t) Hashtbl.t;
  page_size : int;
}

let create_store (site : Nucleus.Site.t) =
  let files = Seg.Mem_mapper.create ~name:"file-mapper" () in
  let port = Nucleus.Site.register_mapper site (Seg.Mem_mapper.mapper files) in
  { site; files; port; images = Hashtbl.create 16;
    page_size = Nucleus.Site.page_size site }

let round_up ps n = (n + ps - 1) / ps * ps

(* Whole pages, at least one.  An image already in that shape is
   returned as is: [create_segment] makes the store's one copy. *)
let pad store bytes =
  let size = max store.page_size (round_up store.page_size (Bytes.length bytes)) in
  if size = Bytes.length bytes then bytes
  else begin
    let out = Bytes.make size '\000' in
    Bytes.blit bytes 0 out 0 (Bytes.length bytes);
    out
  end

let add_image store ~name ~text ~data ?(bss_size = 0) () =
  let text = pad store text and data = pad store data in
  let text_key = Seg.Mem_mapper.create_segment store.files ~initial:text () in
  let data_key = Seg.Mem_mapper.create_segment store.files ~initial:data () in
  let image =
    {
      name;
      text_cap = Seg.Capability.make ~port:store.port ~key:text_key;
      data_cap = Seg.Capability.make ~port:store.port ~key:data_key;
      text_size = Bytes.length text;
      data_size = Bytes.length data;
      bss_size = round_up store.page_size bss_size;
    }
  in
  Hashtbl.replace store.images name image;
  image

let find store name =
  match Hashtbl.find_opt store.images name with
  | Some image -> image
  | None -> raise Not_found

let mapper_reads store = Seg.Mem_mapper.reads store.files
