open Types

(* Forensics / debugger reads: run between slices (crash bundles,
   post-mortem dumps, REPL inspection), never from a competing fibre. *)
[@@@chorus.noted
  "inspection reads run between slices (crash bundles, dumps); no \
   concurrent fibre can race them"]

let pp_frag pvm ppf (f : frag) =
  let ps = page_size pvm in
  if f.f_size >= History.whole_window then
    Format.fprintf ppf "*->%d@%d" f.f_parent.c_id (f.f_parent_off / ps)
  else
    Format.fprintf ppf "%d+%d->%d@%d" (f.f_off / ps) (f.f_size / ps)
      f.f_parent.c_id (f.f_parent_off / ps)

let pp_page pvm ppf (p : page) =
  let ps = page_size pvm in
  Format.fprintf ppf "p%d[f%d]%s%s" (p.p_offset / ps)
    p.p_frame.Hw.Phys_mem.index
    (if p.p_cow_protected then "*" else "")
    (match List.length p.p_cow_stubs with
    | 0 -> ""
    | n -> Printf.sprintf "{%d}" n)

(* The cache's stubs, by offset (the map's own order is unspecified). *)
let stub_entries pvm (cache : cache) =
  let ps = page_size pvm in
  Frag_map.fold
    (fun cid o entry acc ->
      if cid = cache.c_id then
        match entry with
        | Cow_stub s ->
          let src =
            match s.cs_source with
            | Src_page p ->
              Printf.sprintf "pg(%d,%d)" p.p_cache.c_id (p.p_offset / ps)
            | Src_cache (c, so) -> Printf.sprintf "(%d,%d)" c.c_id (so / ps)
          in
          (o, Printf.sprintf "s%d<-%s" (o / ps) src) :: acc
        | Sync_stub _ -> (o, Printf.sprintf "sync%d" (o / ps)) :: acc
        | Resident _ -> acc
      else acc)
    cache.c_pvm.gmap []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let pp_cache ppf (cache : cache) =
  let pvm = cache.c_pvm in
  let pages =
    List.sort (fun a b -> compare a.p_offset b.p_offset) cache.c_pages
  in
  Format.fprintf ppf "cache %d%s%s hist=%s parents=[%s] pages=[%a]%s%s"
    cache.c_id
    (if cache.c_is_history then " (hidden)" else "")
    (if not cache.c_alive then " (dead)" else "")
    (match cache.c_history with
    | Some h -> string_of_int h.c_id
    | None -> "-")
    (String.concat ","
       (List.map (Format.asprintf "%a" (pp_frag pvm)) cache.c_parents))
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (pp_page pvm))
    pages
    (match stub_entries pvm cache with
    | [] -> ""
    | stubs -> " stubs=[" ^ String.concat "," stubs ^ "]")
    (match Hashtbl.length cache.c_backed_offs with
    | 0 -> ""
    | n -> Printf.sprintf " swapped=%d" n)

let pp_state ppf (pvm : pvm) =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun c -> Format.fprintf ppf "%a@," pp_cache c)
    (List.sort (fun a b -> compare a.c_id b.c_id) (Types.caches pvm));
  Format.fprintf ppf "%a@,%a@]" Hw.Phys_mem.pp_stats pvm.mem pp_stats
    (snapshot_stats pvm.stats)

let pp_context ppf (ctx : context) =
  let pvm = ctx.ctx_pvm in
  let ps = page_size pvm in
  Format.fprintf ppf "@[<v>context %d:@," ctx.ctx_id;
  List.iter
    (fun (r : region) ->
      let base = r.r_addr / ps in
      let mapped = ref [] in
      Hw.Mmu.iter_range ctx.ctx_space ~vpn:base ~count:(r.r_size / ps)
        (fun ~vpn frame prot -> mapped := (vpn - base, frame, prot) :: !mapped);
      let mapped =
        List.map
          (fun (i, frame, prot) ->
            Printf.sprintf "v%d->f%d(%s)" i frame.Hw.Phys_mem.index
              (Hw.Prot.to_string prot))
          (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !mapped)
      in
      Format.fprintf ppf "  region @%x +%dK %a cache=%d@%d  [%s]@," r.r_addr
        (r.r_size / 1024) Hw.Prot.pp r.r_prot r.r_cache.c_id
        (r.r_offset / ps)
        (String.concat " " mapped))
    ctx.ctx_regions;
  Format.fprintf ppf "@]"

let frames_held (pvm : pvm) =
  List.fold_left (fun acc c -> acc + List.length c.c_pages) 0 (Types.caches pvm)

(* --- Residency / pressure snapshot ------------------------------- *)

type cache_residency = {
  cr_id : int;
  cr_is_history : bool;
  cr_alive : bool;
  cr_resident : int;
  cr_protected : int;
  cr_stubs : int;
  cr_swapped : int;
  cr_depth : int;
}

type residency = {
  rs_caches : cache_residency list;
  rs_depth_histogram : (int * int) list;
  rs_free_frames : int;
  rs_used_frames : int;
  rs_reclaim_len : int;
  rs_sync_in_flight : int;
}

let residency (pvm : pvm) : residency =
  let stub_count (cache : cache) =
    Frag_map.fold
      (fun cid _ entry acc ->
        match entry with
        | Cow_stub _ when cid = cache.c_id -> acc + 1
        | _ -> acc)
      pvm.gmap 0
  in
  let caches =
    (Types.caches pvm)
    |> List.sort (fun a b -> compare a.c_id b.c_id)
    |> List.map (fun (c : cache) ->
           {
             cr_id = c.c_id;
             cr_is_history = c.c_is_history;
             cr_alive = c.c_alive;
             cr_resident = List.length c.c_pages;
             cr_protected =
               List.length (List.filter (fun p -> p.p_cow_protected) c.c_pages);
             cr_stubs = stub_count c;
             cr_swapped = Hashtbl.length c.c_backed_offs;
             cr_depth = History.depth_to_root c;
           })
  in
  let depth_hist = Hashtbl.create 8 in
  List.iter
    (fun cr ->
      if cr.cr_alive then
        Hashtbl.replace depth_hist cr.cr_depth
          (1 + Option.value ~default:0 (Hashtbl.find_opt depth_hist cr.cr_depth)))
    caches;
  {
    rs_caches = caches;
    rs_depth_histogram =
      Hashtbl.fold (fun d n acc -> (d, n) :: acc) depth_hist []
      |> List.sort compare;
    rs_free_frames = Hw.Phys_mem.free_frames pvm.mem;
    rs_used_frames = frames_held pvm;
    rs_reclaim_len = Reclaim.length pvm.reclaim;
    rs_sync_in_flight =
      Frag_map.fold
        (fun _ _ entry acc ->
          match entry with
          | Sync_stub _ -> acc + 1
          | Resident _ | Cow_stub _ -> acc)
        pvm.gmap 0;
  }

let pp_residency ppf (r : residency) =
  Format.fprintf ppf "@[<v>residency snapshot:@,";
  Format.fprintf ppf "  %-8s %6s %8s %9s %6s %7s %6s@," "cache" "depth"
    "resident" "protected" "stubs" "swapped" "state";
  List.iter
    (fun cr ->
      Format.fprintf ppf "  %-8s %6d %8d %9d %6d %7d %6s@,"
        (Printf.sprintf "%s%d" (if cr.cr_is_history then "w" else "c") cr.cr_id)
        cr.cr_depth cr.cr_resident cr.cr_protected cr.cr_stubs cr.cr_swapped
        (if cr.cr_alive then "live" else "dead"))
    r.rs_caches;
  Format.fprintf ppf "  history-tree depth histogram: %s@,"
    (String.concat ", "
       (List.map
          (fun (d, n) -> Printf.sprintf "depth %d: %d" d n)
          r.rs_depth_histogram));
  Format.fprintf ppf
    "  frames: %d free / %d held; reclaim queue %d; in transit %d@]"
    r.rs_free_frames r.rs_used_frames r.rs_reclaim_len r.rs_sync_in_flight

let residency_json (r : residency) : Obs.Json.t =
  let num n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ( "caches",
        Obs.Json.List
          (List.map
             (fun cr ->
               Obs.Json.Obj
                 [
                   ("id", num cr.cr_id);
                   ("history", Obs.Json.Bool cr.cr_is_history);
                   ("alive", Obs.Json.Bool cr.cr_alive);
                   ("depth", num cr.cr_depth);
                   ("resident", num cr.cr_resident);
                   ("protected", num cr.cr_protected);
                   ("stubs", num cr.cr_stubs);
                   ("swapped", num cr.cr_swapped);
                 ])
             r.rs_caches) );
      ( "depth_histogram",
        Obs.Json.Obj
          (List.map
             (fun (d, n) -> (string_of_int d, num n))
             r.rs_depth_histogram) );
      ("free_frames", num r.rs_free_frames);
      ("used_frames", num r.rs_used_frames);
      ("reclaim_queue", num r.rs_reclaim_len);
      ("in_transit", num r.rs_sync_in_flight);
    ]

(* --- Observable-state digest ------------------------------------- *)

(* A stable hash of everything a GMI client can observe: logical
   segment contents (resident page bytes and their copy-protection),
   deferred-copy stubs, swap coverage, the copy-tree shape, region
   windows and the frame-pool level.  Deliberately EXCLUDED: frame
   indices, reclaim-queue order and any other allocator bookkeeping a
   client cannot see — two states that differ only there must digest
   equal, so the digest can witness schedule independence. *)
let digest (pvm : pvm) : string =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let ps = page_size pvm in
  List.iter
    (fun (c : cache) ->
      add "cache %d hist=%b alive=%b zombie=%b anon=%b;" c.c_id c.c_is_history
        c.c_alive c.c_zombie c.c_anonymous;
      List.iter
        (fun (f : frag) ->
          add "par %d+%d->%d@%d %s;" f.f_off f.f_size f.f_parent.c_id
            f.f_parent_off
            (match f.f_policy with
            | `Copy_on_write -> "cow"
            | `Copy_on_reference -> "cor"))
        c.c_parents;
      List.iter
        (fun (p : page) ->
          add "page %d cowp=%b %s;" p.p_offset p.p_cow_protected
            (Digest.to_hex (Digest.subbytes p.p_frame.Hw.Phys_mem.bytes 0 ps)))
        (List.sort (fun a b -> compare a.p_offset b.p_offset) c.c_pages);
      Frag_map.fold
        (fun cid o entry acc ->
          if cid <> c.c_id then acc
          else
            match entry with
            | Cow_stub s ->
              let src =
                match s.cs_source with
                | Src_page p ->
                  Printf.sprintf "pg(%d,%d)" p.p_cache.c_id p.p_offset
                | Src_cache (sc, so) -> Printf.sprintf "(%d,%d)" sc.c_id so
              in
              Printf.sprintf "stub %d<-%s;" o src :: acc
            | Sync_stub _ -> Printf.sprintf "sync %d;" o :: acc
            | Resident _ -> acc)
        pvm.gmap []
      |> List.sort compare
      |> List.iter (Buffer.add_string b);
      Hashtbl.fold (fun o () acc -> o :: acc) c.c_backed_offs []
      |> List.sort compare
      |> List.iter (fun o -> add "swapped %d;" o))
    (List.sort (fun a b -> compare a.c_id b.c_id) (Types.caches pvm));
  List.iter
    (fun (ctx : context) ->
      add "context %d alive=%b;" ctx.ctx_id ctx.ctx_alive;
      List.iter
        (fun (r : region) ->
          add "region @%d +%d %s cache=%d@%d locked=%b alive=%b;" r.r_addr
            r.r_size
            (Hw.Prot.to_string r.r_prot)
            r.r_cache.c_id r.r_offset r.r_locked r.r_alive)
        ctx.ctx_regions)
    (List.sort (fun a b -> compare a.ctx_id b.ctx_id) (Types.contexts pvm));
  add "frames free=%d held=%d reclaim=%d"
    (Hw.Phys_mem.free_frames pvm.mem)
    (frames_held pvm)
    (Reclaim.length pvm.reclaim);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- Full-state JSON (crash bundles) ------------------------------ *)

(* The same observable state the digest hashes, kept structured: what
   a crash bundle stores so a human can read the failure state and a
   replay can be checked against it field by field.  Page contents are
   carried as MD5 hex (like the digest), not raw bytes — bundles stay
   small and the comparison is still exact. *)
let state_json (pvm : pvm) : Obs.Json.t =
  let num n = Obs.Json.Num (float_of_int n) in
  let ps = page_size pvm in
  let cache_json (c : cache) =
    let parents =
      List.map
        (fun (f : frag) ->
          Obs.Json.Obj
            [
              ("off", num f.f_off);
              ("size", num f.f_size);
              ("parent", num f.f_parent.c_id);
              ("parent_off", num f.f_parent_off);
              ( "policy",
                Obs.Json.Str
                  (match f.f_policy with
                  | `Copy_on_write -> "cow"
                  | `Copy_on_reference -> "cor") );
            ])
        c.c_parents
    in
    let pages =
      List.sort (fun (a : page) b -> compare a.p_offset b.p_offset) c.c_pages
      |> List.map (fun (p : page) ->
             Obs.Json.Obj
               [
                 ("off", num p.p_offset);
                 ("cow_protected", Obs.Json.Bool p.p_cow_protected);
                 ( "md5",
                   Obs.Json.Str
                     (Digest.to_hex
                        (Digest.subbytes p.p_frame.Hw.Phys_mem.bytes 0 ps)) );
               ])
    in
    let stubs =
      Frag_map.fold
        (fun cid o entry acc ->
          if cid <> c.c_id then acc
          else
            match entry with
            | Cow_stub s ->
              let source =
                match s.cs_source with
                | Src_page p ->
                  Obs.Json.Obj
                    [
                      ("kind", Obs.Json.Str "page");
                      ("cache", num p.p_cache.c_id);
                      ("off", num p.p_offset);
                    ]
                | Src_cache (sc, so) ->
                  Obs.Json.Obj
                    [
                      ("kind", Obs.Json.Str "cache");
                      ("cache", num sc.c_id);
                      ("off", num so);
                    ]
              in
              (o, Obs.Json.Obj [ ("off", num o); ("source", source) ]) :: acc
            | Sync_stub _ ->
              ( o,
                Obs.Json.Obj [ ("off", num o); ("sync", Obs.Json.Bool true) ] )
              :: acc
            | Resident _ -> acc)
        pvm.gmap []
      |> List.sort compare |> List.map snd
    in
    let swapped =
      Hashtbl.fold (fun o () acc -> o :: acc) c.c_backed_offs []
      |> List.sort compare |> List.map num
    in
    Obs.Json.Obj
      [
        ("id", num c.c_id);
        ("history", Obs.Json.Bool c.c_is_history);
        ("alive", Obs.Json.Bool c.c_alive);
        ("zombie", Obs.Json.Bool c.c_zombie);
        ("anonymous", Obs.Json.Bool c.c_anonymous);
        ("parents", Obs.Json.List parents);
        ("pages", Obs.Json.List pages);
        ("stubs", Obs.Json.List stubs);
        ("swapped", Obs.Json.List swapped);
      ]
  in
  let context_json (ctx : context) =
    Obs.Json.Obj
      [
        ("id", num ctx.ctx_id);
        ("alive", Obs.Json.Bool ctx.ctx_alive);
        ( "regions",
          Obs.Json.List
            (List.map
               (fun (r : region) ->
                 Obs.Json.Obj
                   [
                     ("addr", num r.r_addr);
                     ("size", num r.r_size);
                     ("prot", Obs.Json.Str (Hw.Prot.to_string r.r_prot));
                     ("cache", num r.r_cache.c_id);
                     ("off", num r.r_offset);
                     ("locked", Obs.Json.Bool r.r_locked);
                     ("alive", Obs.Json.Bool r.r_alive);
                   ])
               ctx.ctx_regions) );
      ]
  in
  Obs.Json.Obj
    [
      ("digest", Obs.Json.Str (digest pvm));
      ( "caches",
        Obs.Json.List
          (List.map cache_json
             (List.sort (fun a b -> compare a.c_id b.c_id) (Types.caches pvm))) );
      ( "contexts",
        Obs.Json.List
          (List.map context_json
             (List.sort (fun a b -> compare a.ctx_id b.ctx_id) (Types.contexts pvm)))
      );
      ( "frames",
        Obs.Json.Obj
          [
            ("free", num (Hw.Phys_mem.free_frames pvm.mem));
            ("held", num (frames_held pvm));
            ("reclaim", num (Reclaim.length pvm.reclaim));
          ] );
      ("residency", residency_json (residency pvm));
    ]

(* --- Invariant accessors (used by the Check.Sanitizer sweep) ----- *)

let pages (pvm : pvm) = List.concat_map (fun c -> c.c_pages) (Types.caches pvm)

let sync_stubs_in_flight (pvm : pvm) =
  Frag_map.fold
    (fun _ _ entry acc ->
      match entry with Sync_stub _ -> acc + 1 | Resident _ | Cow_stub _ -> acc)
    pvm.gmap 0

let locked_regions (pvm : pvm) =
  List.concat_map
    (fun ctx -> List.filter (fun r -> r.r_locked) ctx.ctx_regions)
    (Types.contexts pvm)
