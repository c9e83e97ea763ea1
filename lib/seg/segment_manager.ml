type stats = {
  mutable binds : int;
  mutable bind_hits : int;
  mutable retention_hits : int;
  mutable retention_evictions : int;
  mutable swap_segments : int;
}

type binding = {
  b_cap : Capability.t;
  b_cache : Core.Pvm.cache;
  mutable b_refs : int;
  mutable b_lru : int; (* generation of last unbind, for retention LRU *)
}

type t = {
  pvm : Core.Pvm.t;
  mappers : (int, Mapper.t) Hashtbl.t;
  bindings : binding Capability.Table.t;
  mutable next_port : int;
  retention_capacity : int;
  mutable generation : int;
  mutable unreferenced : int;
      (* bindings with no reference: the retained caches, counted so
         that unbind walks the table only when retention must evict *)
  default_mapper_port : int;
  stats : stats;
}

let stats t = t.stats

(* Segment-manager decisions as instant trace events, category "seg".
   Callers test [tracing] first, so a disabled tracer costs no
   argument list. *)
let tracing t = Obs.Trace.enabled (Core.Pvm.tracer t.pvm)

let mark t name args =
  Obs.Trace.instant (Core.Pvm.tracer t.pvm) ~cat:"seg" name ~args

(* The port table is shared by every fibre binding or faulting on a
   capability of this segment manager. *)
let mapper_of_port t port =
  Hw.Engine.note_ambient ~write:false (-8) 0;
  match Hashtbl.find_opt t.mappers port with
  | Some m -> m
  | None -> raise Mapper.Bad_capability

(* Build the GMI upcall record for a segment: the translation of
   Table 3 upcalls into mapper read/write requests (§5.1.2). *)
let backing_of t (cap : Capability.t) =
  let mapper = mapper_of_port t cap.port in
  {
    Core.Gmi.b_name =
      Printf.sprintf "%s:%Lx" mapper.Mapper.name cap.key;
    b_pull_in =
      (fun ~offset ~size ~prot:_ ~fill_up ->
        let store, pos = mapper.Mapper.read ~key:cap.key ~offset ~size in
        fill_up ~offset ~pos ~len:size store);
    b_get_write_access = (fun ~offset:_ ~size:_ -> ());
    b_push_out =
      (fun ~offset ~size ~copy_back ->
        mapper.Mapper.write ~key:cap.key ~offset (copy_back ~offset ~size));
  }

let register_mapper t mapper =
  Hw.Engine.note_ambient (-8) 0;
  let port = t.next_port in
  t.next_port <- port + 1;
  Hashtbl.replace t.mappers port mapper;
  port

let retained_count t = t.unreferenced

(* The least recently unbound retained binding (generations are
   unique, so it is one). *)
let oldest_retained t =
  Capability.Table.fold
    (fun _ b acc ->
      if b.b_refs <> 0 then acc
      else
        match acc with
        | Some (o : binding) when o.b_lru < b.b_lru -> acc
        | Some _ | None -> Some b)
    t.bindings None

let drop_binding t (b : binding) =
  (* Save modified data before the local cache disappears. *)
  Core.Cache.sync_all t.pvm b.b_cache;
  Core.Cache.destroy t.pvm b.b_cache;
  if b.b_refs = 0 then t.unreferenced <- t.unreferenced - 1;
  Capability.Table.remove t.bindings b.b_cap

let rec enforce_retention t =
  if t.unreferenced > t.retention_capacity then
    match oldest_retained t with
    | Some oldest ->
      t.stats.retention_evictions <- t.stats.retention_evictions + 1;
      if tracing t then
        mark t "retention-evict"
          [
            ("cache", Obs.Trace.Int oldest.b_cache.Core.Types.c_id);
            ("lru", Obs.Trace.Int oldest.b_lru);
          ];
      drop_binding t oldest;
      enforce_retention t
    | None -> ()

let bind t cap =
  t.stats.binds <- t.stats.binds + 1;
  (* check the capability is valid before binding *)
  let _ = (mapper_of_port t cap.Capability.port).Mapper.segment_size
            ~key:cap.Capability.key
  in
  match Capability.Table.find_opt t.bindings cap with
  | Some b ->
    if b.b_refs = 0 then begin
      t.stats.retention_hits <- t.stats.retention_hits + 1;
      t.unreferenced <- t.unreferenced - 1
    end
    else t.stats.bind_hits <- t.stats.bind_hits + 1;
    if tracing t then
      mark t "bind"
        [
          ( "kind",
            Obs.Trace.Str (if b.b_refs = 0 then "retention-hit" else "hit") );
          ("cache", Obs.Trace.Int b.b_cache.Core.Types.c_id);
        ];
    b.b_refs <- b.b_refs + 1;
    b.b_cache
  | None ->
    let cache = Core.Cache.create t.pvm ~backing:(backing_of t cap) () in
    Capability.Table.replace t.bindings cap
      { b_cap = cap; b_cache = cache; b_refs = 1; b_lru = 0 };
    if tracing t then
      mark t "bind"
        [
          ("kind", Obs.Trace.Str "miss");
          ("cache", Obs.Trace.Int cache.Core.Types.c_id);
        ];
    cache

let[@chorus.hot] unbind t cap =
  match Capability.Table.find_opt t.bindings cap with
  | None -> invalid_arg "Segment_manager.unbind: not bound"
  | Some b ->
    if b.b_refs <= 0 then invalid_arg "Segment_manager.unbind: not referenced";
    b.b_refs <- b.b_refs - 1;
    if b.b_refs = 0 then begin
      t.generation <- t.generation + 1;
      b.b_lru <- t.generation;
      t.unreferenced <- t.unreferenced + 1;
      if t.retention_capacity = 0 then drop_binding t b
      else enforce_retention t
    end

let create_temporary t = Core.Cache.create t.pvm ()

let destroy_temporary t cache = Core.Cache.destroy t.pvm cache

(* The segmentCreate upcall (§5.1.2): give an anonymous cache a swap
   segment from the default mapper the first time it must page out. *)
let segment_create_hook t (_cache : Core.Pvm.cache) =
  let mapper = mapper_of_port t t.default_mapper_port in
  match mapper.Mapper.create_temporary with
  | None -> None
  | Some alloc ->
    let key = alloc () in
    t.stats.swap_segments <- t.stats.swap_segments + 1;
    if tracing t then
      mark t "swap-create"
        [
          ("cache", Obs.Trace.Int _cache.Core.Types.c_id);
          ("key", Obs.Trace.Int (Int64.to_int key));
        ];
    let cap = Capability.make ~port:t.default_mapper_port ~key in
    Some (backing_of t cap)

let create ?(retention_capacity = 64) ~pvm ~default_mapper_port () =
  let t =
    {
      pvm;
      mappers = Hashtbl.create 8;
      bindings = Capability.Table.create 64;
      next_port = default_mapper_port;
      retention_capacity;
      generation = 0;
      unreferenced = 0;
      default_mapper_port;
      stats =
        {
          binds = 0;
          bind_hits = 0;
          retention_hits = 0;
          retention_evictions = 0;
          swap_segments = 0;
        };
    }
  in
  Core.Pvm.set_segment_create_hook pvm (segment_create_hook t);
  t
