(* Whole-state invariant sweep over a live PVM (see the .mli for the
   two-tier design).  Everything here is a pure read of the Figure 2
   structures: no global-map probes through the charging API, no
   effects, no clock perturbation — the sweep can run from an engine
   event hook between any two tasks. *)

open Core.Types

(* The sweep runs stop-the-world from an engine event hook between two
   slices: no fibre is mid-operation, so its reads need no DPOR
   footprint (L1). *)
[@@@chorus.noted
  "sanitizers run stop-the-world between slices; no concurrent fibre can \
   race their reads"]

type violation = { rule : string; detail : string }

let rules =
  [
    ( "gmap",
      "global map <-> descriptor bijection: every Resident entry at \
       (cache, offset) is an alive page of exactly that cache and offset, \
       and every cached page is reachable under its own key (§4.1.1, \
       Figure 2)" );
    ( "frames",
      "frame accounting: Inspect.frames_held equals the pool's used count \
       at quiescence (never exceeds it mid-operation), each frame is owned \
       by at most one descriptor, and the frame -> page registry matches" );
    ( "history",
      "history trees: fragment lists canonical, binary-tree child limits \
       (one child, two for working caches), history back-links, and the \
       parent relation acyclic (§4.2, Figure 3)" );
    ( "zombie",
      "hidden-node marks: zombie caches are exactly the hidden history \
       nodes, are never mapped by a region, and at quiescence each is still \
       read, through fragment parents or live stub sources, from some \
       visible cache (§4.2.5)" );
    ( "stubs",
      "per-virtual-page deferred copy: every live stub is threaded on its \
       resident source page or indexed under its (cache, offset) source, \
       and vice versa; each cache's destination and pending indexes equal \
       a full scan of the global map and the pending-stub table (§4.3)" );
    ( "regions",
      "region windows: context region lists sorted and non-overlapping, \
       page-aligned, positive-sized, and mirrored by the cache's mapping \
       lists (Table 2)" );
    ( "reclaim",
      "reclaim queue: exactly the resident pages, each once (FIFO \
       page-out policy below the GMI, §3.3.3)" );
    ( "mmu",
      "protection coherence: every MMU translation points at a registered \
       frame, is recorded on the page's pmap, and is never more permissive \
       than the descriptor-derived effective protection (§4.1.2)" );
    ( "transit",
      "quiescence: no synchronization stubs (pages in transit, §4.1.2) \
       remain when no operation is in progress" );
    ( "wires",
      "wire counts: never negative; zero once no region is locked" );
    ( "swap",
      "swap coverage: only anonymous caches record pushed-out offsets, \
       page-aligned (Table 3, segmentCreate)" );
  ]

(* --- the sweep --------------------------------------------------- *)

let run ?(strict = true) (pvm : pvm) : violation list =
  let errs = ref [] in
  let err rule fmt =
    Format.kasprintf (fun detail -> errs := { rule; detail } :: !errs) fmt
  in
  let ps = page_size pvm in
  let aligned off = off mod ps = 0 in
  let cache_tbl = Hashtbl.create 32 in
  List.iter
    (fun (c : cache) ->
      Hashtbl.replace cache_tbl c.c_id c
      [@chorus.impure_ok "sanitizer-local scratch table, not PVM state"])
    pvm.caches;
  let known_cache cid = Hashtbl.find_opt cache_tbl cid in

  (* cache list sanity *)
  List.iter
    (fun (c : cache) ->
      if not c.c_alive then err "gmap" "cache %d: dead but listed" c.c_id)
    pvm.caches;

  (* global map entries; per-page stub rows are counted per destination
     so the caches' indexes can be compared with them exactly *)
  let stub_rows = Hashtbl.create 32 and pending_rows = Hashtbl.create 32 in
  let count tbl cid =
    Hashtbl.replace tbl cid
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cid))
    [@chorus.impure_ok "sanitizer-local scratch table, not PVM state"]
  in
  Core.Shard_map.iter
    (fun ((cid, off) : gkey) entry ->
      match known_cache cid with
      | None -> err "gmap" "entry (%d,%d): unknown cache" cid off
      | Some c -> (
        if not (aligned off) then
          err "gmap" "entry (%d,%d): unaligned offset" cid off;
        match entry with
        | Resident p ->
          if not p.p_alive then
            err "gmap" "entry (%d,%d): dead resident page" cid off;
          if not (p.p_cache == c) then
            err "gmap" "entry (%d,%d): page owned by cache %d" cid off
              p.p_cache.c_id;
          if p.p_offset <> off then
            err "gmap" "entry (%d,%d): page claims offset %d" cid off
              p.p_offset;
          if not (List.memq p c.c_pages) then
            err "gmap" "entry (%d,%d): page missing from its cache's list"
              cid off
        | Cow_stub s ->
          if not s.cs_alive then
            err "stubs" "entry (%d,%d): dead deferred-copy stub" cid off;
          if s.cs_cache.c_id <> cid || s.cs_offset <> off then
            err "stubs" "entry (%d,%d): stub claims destination (%d,%d)" cid
              off s.cs_cache.c_id s.cs_offset;
          count stub_rows cid;
          (match Hashtbl.find_opt c.c_dest_stubs off with
          | Some s' when s' == s -> ()
          | Some _ ->
            err "stubs" "entry (%d,%d): destination index names another stub"
              cid off
          | None ->
            err "stubs" "entry (%d,%d): stub missing from the destination \
                         index" cid off)
        | Sync_stub _ ->
          if strict then
            err "transit" "entry (%d,%d): page in transit at quiescence" cid
              off))
    pvm.gmap;

  (* per-cache pages; frame ownership *)
  let frame_owner = Hashtbl.create 64 in
  List.iter
    (fun (c : cache) ->
      let offs = Hashtbl.create 8 in
      List.iter
        (fun (p : page) ->
          if not p.p_alive then
            err "gmap" "cache %d: dead page at offset %d" c.c_id p.p_offset;
          if not (p.p_cache == c) then
            err "gmap" "cache %d: page at offset %d claims cache %d" c.c_id
              p.p_offset p.p_cache.c_id;
          if not (aligned p.p_offset) then
            err "gmap" "cache %d: page at unaligned offset %d" c.c_id
              p.p_offset;
          if Hashtbl.mem offs p.p_offset then
            err "gmap" "cache %d: two pages at offset %d" c.c_id p.p_offset;
          Hashtbl.replace offs p.p_offset ()
          [@chorus.impure_ok "sanitizer-local scratch table, not PVM state"];
          (match Core.Shard_map.find_opt pvm.gmap (c.c_id, p.p_offset) with
          | Some (Resident p') when p' == p -> ()
          | Some (Sync_stub _) when not strict -> () (* pushOut in flight *)
          | Some _ ->
            err "gmap" "cache %d: offset %d maps to a different entry" c.c_id
              p.p_offset
          | None ->
            err "gmap" "cache %d: page at offset %d not in the global map"
              c.c_id p.p_offset);
          let idx = p.p_frame.Hw.Phys_mem.index in
          if not (Hw.Phys_mem.is_allocated pvm.mem p.p_frame) then
            err "frames" "cache %d offset %d: frame %d not allocated" c.c_id
              p.p_offset idx;
          (match Hashtbl.find_opt frame_owner idx with
          | Some (other : page) ->
            err "frames" "frame %d owned by (%d,%d) and (%d,%d)" idx
              other.p_cache.c_id other.p_offset c.c_id p.p_offset
          | None ->
            Hashtbl.replace frame_owner idx p
            [@chorus.impure_ok "sanitizer-local scratch table, not PVM state"]);
          (match pvm.page_of_frame.(idx) with
          | Some p' when p' == p -> ()
          | Some _ ->
            err "frames" "frame %d: registry names another page" idx
          | None -> err "frames" "frame %d: not in the frame registry" idx);
          if p.p_wire_count < 0 then
            err "wires" "cache %d offset %d: wire count %d" c.c_id p.p_offset
              p.p_wire_count)
        c.c_pages)
    pvm.caches;

  (* frame registry, reverse direction *)
  Array.iteri
    (fun idx owner ->
      match owner with
      | None -> ()
      | Some (p : page) ->
        if not (Hashtbl.mem frame_owner idx) then
          err "frames" "frame %d: registered to (%d,%d) but not cached" idx
            p.p_cache.c_id p.p_offset)
    pvm.page_of_frame;

  (* frame accounting *)
  let held = Core.Inspect.frames_held pvm in
  let used = Hw.Phys_mem.used_frames pvm.mem in
  if strict && held <> used then
    err "frames" "frames held %d <> pool used %d" held used;
  if (not strict) && held > used then
    err "frames" "frames held %d > pool used %d" held used;

  (* history trees *)
  List.iter
    (fun (c : cache) ->
      if not (Core.Parents.check_invariant c) then
        err "history" "cache %d: fragment list not canonical" c.c_id;
      List.iter
        (fun (f : frag) ->
          if not f.f_parent.c_alive then
            err "history" "cache %d: fragment names dead parent %d" c.c_id
              f.f_parent.c_id;
          if known_cache f.f_parent.c_id = None then
            err "history" "cache %d: fragment parent %d not on the PVM"
              c.c_id f.f_parent.c_id;
          if not (List.memq c f.f_parent.c_children) then
            err "history" "cache %d: not registered as child of %d" c.c_id
              f.f_parent.c_id)
        c.c_parents;
      List.iter
        (fun (child : cache) ->
          if not child.c_alive then
            err "history" "cache %d: dead child %d" c.c_id child.c_id;
          if
            not
              (List.exists (fun f -> f.f_parent == c) child.c_parents)
          then
            err "history" "cache %d: child %d has no fragment back" c.c_id
              child.c_id)
        c.c_children;
      (match c.c_history with
      | Some h ->
        if not h.c_alive then
          err "history" "cache %d: dead history %d" c.c_id h.c_id;
        if not (List.exists (fun f -> f.f_parent == c) h.c_parents) then
          err "history" "cache %d: history %d has no fragment back" c.c_id
            h.c_id
      | None -> ());
      let limit = if c.c_is_history then 2 else 1 in
      let n = List.length c.c_children in
      if n > limit then
        err "history" "cache %d: %d children (limit %d)" c.c_id n limit;
      (* acyclicity of the parent relation *)
      let visited = Hashtbl.create 8 in
      let rec climb stack (node : cache) =
        if List.memq node stack then
          err "history" "cache %d: cycle through %d" c.c_id node.c_id
        else if not (Hashtbl.mem visited node.c_id) then begin
          Hashtbl.replace visited node.c_id ()
          [@chorus.impure_ok "sanitizer-local scratch table, not PVM state"];
          List.iter (fun f -> climb (node :: stack) f.f_parent) node.c_parents
        end
      in
      climb [] c;
      (* hidden-node marks *)
      if c.c_zombie && not c.c_is_history then
        err "zombie" "cache %d: zombie but not a hidden history node" c.c_id;
      if c.c_is_history && not c.c_zombie then
        err "zombie" "cache %d: hidden history node not marked zombie" c.c_id;
      if c.c_zombie && c.c_mappings <> [] then
        err "zombie" "cache %d: zombie still mapped by %d region(s)" c.c_id
          (List.length c.c_mappings);
      (* swap coverage *)
      if Hashtbl.length c.c_backed_offs > 0 && not c.c_anonymous then
        err "swap" "cache %d: swap offsets on a segment-backed cache" c.c_id;
      Hashtbl.iter
        (fun off () ->
          if not (aligned off) then
            err "swap" "cache %d: unaligned swap offset %d" c.c_id off)
        c.c_backed_offs)
    pvm.caches;

  (* regions *)
  List.iter
    (fun (ctx : context) ->
      if not ctx.ctx_alive then err "regions" "context %d: dead" ctx.ctx_id;
      let rec pairwise = function
        | (a : region) :: (b : region) :: rest ->
          if a.r_addr > b.r_addr then
            err "regions" "context %d: regions out of order at %#x" ctx.ctx_id
              b.r_addr;
          if a.r_addr + a.r_size > b.r_addr then
            err "regions" "context %d: regions overlap at %#x" ctx.ctx_id
              b.r_addr;
          pairwise (b :: rest)
        | _ -> ()
      in
      pairwise ctx.ctx_regions;
      List.iter
        (fun (r : region) ->
          if not r.r_alive then
            err "regions" "context %d: dead region at %#x" ctx.ctx_id r.r_addr;
          if not (r.r_context == ctx) then
            err "regions" "context %d: region at %#x claims context %d"
              ctx.ctx_id r.r_addr r.r_context.ctx_id;
          if r.r_size <= 0 then
            err "regions" "context %d: empty region at %#x" ctx.ctx_id
              r.r_addr;
          if
            not (aligned r.r_addr && aligned r.r_size && aligned r.r_offset)
          then
            err "regions" "context %d: unaligned region at %#x" ctx.ctx_id
              r.r_addr;
          if not r.r_cache.c_alive then
            err "regions" "context %d: region at %#x maps dead cache %d"
              ctx.ctx_id r.r_addr r.r_cache.c_id;
          if not (List.memq r r.r_cache.c_mappings) then
            err "regions"
              "context %d: region at %#x missing from cache %d's mappings"
              ctx.ctx_id r.r_addr r.r_cache.c_id)
        ctx.ctx_regions)
    pvm.contexts;
  List.iter
    (fun (c : cache) ->
      List.iter
        (fun (r : region) ->
          if not r.r_alive then
            err "regions" "cache %d: mapping list holds dead region" c.c_id;
          if not (r.r_cache == c) then
            err "regions" "cache %d: mapping list holds region of cache %d"
              c.c_id r.r_cache.c_id;
          if not (List.memq r.r_context pvm.contexts) then
            err "regions" "cache %d: mapping from unknown context %d" c.c_id
              r.r_context.ctx_id)
        c.c_mappings)
    pvm.caches;

  (* reclaim queue = resident pages, each exactly once *)
  let seen = Hashtbl.create 64 in
  Core.Fifo.iter
    (fun (p : page) ->
      if not p.p_alive then
        err "reclaim" "dead page (%d,%d) in the reclaim queue" p.p_cache.c_id
          p.p_offset;
      if known_cache p.p_cache.c_id = None then
        err "reclaim" "reclaim page of unknown cache %d" p.p_cache.c_id
      else if not (List.memq p p.p_cache.c_pages) then
        err "reclaim" "reclaim page (%d,%d) not cached" p.p_cache.c_id
          p.p_offset;
      let idx = p.p_frame.Hw.Phys_mem.index in
      if Hashtbl.mem seen idx then
        err "reclaim" "page (%d,%d) queued twice" p.p_cache.c_id p.p_offset;
      Hashtbl.replace seen idx ()
      [@chorus.impure_ok "sanitizer-local scratch table, not PVM state"])
    pvm.reclaim;
  List.iter
    (fun (c : cache) ->
      List.iter
        (fun (p : page) ->
          if not (Core.Fifo.mem_phys pvm.reclaim p) then
            err "reclaim" "cached page (%d,%d) missing from the reclaim queue"
              c.c_id p.p_offset)
        c.c_pages)
    pvm.caches;

  (* pending stub index: structural part *)
  Core.Shard_map.iter
    (fun ((cid, off) : gkey) stubs ->
      (match known_cache cid with
      | None -> err "stubs" "pending stubs keyed on unknown cache %d" cid
      | Some c ->
        count pending_rows cid;
        if not (Hashtbl.mem c.c_pending_offs off) then
          err "stubs" "pending row (%d,%d) missing from the pending index" cid
            off);
      if stubs = [] then err "stubs" "empty pending list at (%d,%d)" cid off;
      List.iter
        (fun (s : cow_stub) ->
          if not s.cs_alive then
            err "stubs" "dead stub pending at (%d,%d)" cid off;
          match s.cs_source with
          | Src_cache (c, o) when c.c_id = cid && o = off -> ()
          | Src_cache (c, o) ->
            err "stubs" "stub at (%d,%d) pending under key (%d,%d)" c.c_id o
              cid off
          | Src_page _ ->
            err "stubs" "page-sourced stub pending at (%d,%d)" cid off)
        stubs)
    pvm.stub_sources;
  (* every row is in its cache's index; equal sizes make them equal *)
  List.iter
    (fun (c : cache) ->
      let rows tbl = Option.value ~default:0 (Hashtbl.find_opt tbl c.c_id) in
      if Hashtbl.length c.c_dest_stubs <> rows stub_rows then
        err "stubs" "cache %d: destination index holds %d stub(s), the map %d"
          c.c_id
          (Hashtbl.length c.c_dest_stubs)
          (rows stub_rows);
      if Hashtbl.length c.c_pending_offs <> rows pending_rows then
        err "stubs" "cache %d: pending index holds %d offset(s), the table %d"
          c.c_id
          (Hashtbl.length c.c_pending_offs)
          (rows pending_rows))
    pvm.caches;

  if strict then begin
    (* every hidden node is still read by a visible cache: mark forward
       from the visible caches through fragment parents and the sources
       of live stubs — the whole-map oracle for Cache.sweep_zombies,
       which decides the same thing backwards from each zombie *)
    let stub_edges = Hashtbl.create 32 in
    Core.Shard_map.iter
      (fun _ entry ->
        match entry with
        | Cow_stub s when s.cs_alive ->
          Hashtbl.add stub_edges s.cs_cache.c_id
            (Core.Pervpage.source_cache_of s)
          [@chorus.impure_ok "sanitizer-local scratch table, not PVM state"]
        | _ -> ())
      pvm.gmap;
    let marked = Hashtbl.create 32 in
    let rec mark (c : cache) =
      if not (Hashtbl.mem marked c.c_id) then begin
        Hashtbl.replace marked c.c_id ()
        [@chorus.impure_ok "sanitizer-local scratch table, not PVM state"];
        List.iter (fun f -> mark f.f_parent) c.c_parents;
        List.iter mark (Hashtbl.find_all stub_edges c.c_id)
      end
    in
    List.iter (fun (c : cache) -> if not c.c_zombie then mark c) pvm.caches;
    List.iter
      (fun (c : cache) ->
        if c.c_zombie && not (Hashtbl.mem marked c.c_id) then
          err "zombie" "cache %d: hidden node no visible cache reads" c.c_id)
      pvm.caches;

    (* stub threading, both directions *)
    Core.Shard_map.iter
      (fun ((cid, off) : gkey) entry ->
        match entry with
        | Cow_stub s -> (
          match s.cs_source with
          | Src_page p ->
            if not p.p_alive then
              err "stubs" "stub (%d,%d): dead source page" cid off;
            if not (List.memq s p.p_cow_stubs) then
              err "stubs" "stub (%d,%d): not threaded on source page (%d,%d)"
                cid off p.p_cache.c_id p.p_offset
          | Src_cache (c, o) -> (
            match Core.Shard_map.find_opt pvm.stub_sources (c.c_id, o) with
            | Some stubs when List.memq s stubs -> ()
            | _ ->
              err "stubs" "stub (%d,%d): not pending under source (%d,%d)"
                cid off c.c_id o))
        | Resident _ | Sync_stub _ -> ())
      pvm.gmap;
    List.iter
      (fun (c : cache) ->
        List.iter
          (fun (p : page) ->
            List.iter
              (fun (s : cow_stub) ->
                if not s.cs_alive then
                  err "stubs" "dead stub threaded on page (%d,%d)" c.c_id
                    p.p_offset;
                (match s.cs_source with
                | Src_page p' when p' == p -> ()
                | _ ->
                  err "stubs"
                    "stub threaded on page (%d,%d) names another source"
                    c.c_id p.p_offset);
                match Core.Shard_map.find_opt pvm.gmap (s.cs_cache.c_id, s.cs_offset)
                with
                | Some (Cow_stub s') when s' == s -> ()
                | _ ->
                  err "stubs"
                    "stub threaded on (%d,%d) absent from the global map at \
                     (%d,%d)"
                    c.c_id p.p_offset s.cs_cache.c_id s.cs_offset)
              p.p_cow_stubs)
          c.c_pages)
      pvm.caches;
    Core.Shard_map.iter
      (fun ((cid, off) : gkey) stubs ->
        ignore cid;
        ignore off;
        List.iter
          (fun (s : cow_stub) ->
            match Core.Shard_map.find_opt pvm.gmap (s.cs_cache.c_id, s.cs_offset) with
            | Some (Cow_stub s') when s' == s -> ()
            | _ ->
              err "stubs"
                "pending stub absent from the global map at (%d,%d)"
                s.cs_cache.c_id s.cs_offset)
          stubs)
      pvm.stub_sources;

    (* MMU <-> descriptor protection coherence *)
    List.iter
      (fun (ctx : context) ->
        Hw.Mmu.iter ctx.ctx_space (fun ~vpn frame prot ->
            let addr = vpn * ps in
            let region =
              List.find_opt
                (fun (r : region) ->
                  addr >= r.r_addr && addr < r.r_addr + r.r_size)
                ctx.ctx_regions
            in
            match region with
            | None ->
              err "mmu" "context %d: translation at %#x outside any region"
                ctx.ctx_id addr
            | Some r -> (
              match pvm.page_of_frame.(frame.Hw.Phys_mem.index) with
              | None ->
                err "mmu"
                  "context %d: translation at %#x to unregistered frame %d"
                  ctx.ctx_id addr frame.Hw.Phys_mem.index
              | Some page ->
                if
                  not
                    (List.exists
                       (fun (r', v) -> r' == r && v = vpn)
                       page.p_mappings)
                then
                  err "mmu"
                    "context %d: translation at %#x not recorded on page \
                     (%d,%d)"
                    ctx.ctx_id addr page.p_cache.c_id page.p_offset;
                let eff = Core.Pmap.effective_prot page r in
                if not (Hw.Prot.subsumes eff prot) then
                  err "mmu"
                    "context %d: translation at %#x is %s but the descriptor \
                     allows only %s"
                    ctx.ctx_id addr (Hw.Prot.to_string prot)
                    (Hw.Prot.to_string eff);
                if
                  r.r_cache == page.p_cache
                  && r.r_offset + (addr - r.r_addr) <> page.p_offset
                then
                  err "mmu"
                    "context %d: translation at %#x reaches offset %d through \
                     a window expecting %d"
                    ctx.ctx_id addr page.p_offset
                    (r.r_offset + (addr - r.r_addr)))))
      pvm.contexts;
    (* pmap records, reverse direction *)
    List.iter
      (fun (p : page) ->
        List.iter
          (fun ((r : region), vpn) ->
            if not (r.r_alive && r.r_context.ctx_alive) then
              err "mmu" "page (%d,%d): pmap record through a dead region"
                p.p_cache.c_id p.p_offset
            else begin
              let addr = vpn * ps in
              if addr < r.r_addr || addr >= r.r_addr + r.r_size then
                err "mmu" "page (%d,%d): pmap record outside region at %#x"
                  p.p_cache.c_id p.p_offset r.r_addr;
              match Hw.Mmu.query r.r_context.ctx_space ~vpn with
              | Some (frame, _)
                when frame.Hw.Phys_mem.index = p.p_frame.Hw.Phys_mem.index ->
                ()
              | Some _ ->
                err "mmu"
                  "page (%d,%d): pmap record at vpn %d maps another frame"
                  p.p_cache.c_id p.p_offset vpn
              | None ->
                err "mmu" "page (%d,%d): pmap record at vpn %d has no \
                           translation"
                  p.p_cache.c_id p.p_offset vpn
            end)
          p.p_mappings)
      (Core.Inspect.pages pvm);

    (* wire counts at quiescence *)
    if Core.Inspect.locked_regions pvm = [] then
      List.iter
        (fun (p : page) ->
          if p.p_wire_count <> 0 then
            err "wires" "page (%d,%d): wired (%d) with no locked region"
              p.p_cache.c_id p.p_offset p.p_wire_count)
        (Core.Inspect.pages pvm)
  end;
  List.rev !errs

(* --- reporting --------------------------------------------------- *)

let pp_violation ppf { rule; detail } =
  Format.fprintf ppf "[%s] %s" rule detail

exception Failed of string

let report ppf (pvm : pvm) violations =
  Format.fprintf ppf "@[<v>sanitizer: %d invariant violation(s)@,"
    (List.length violations);
  List.iter (fun v -> Format.fprintf ppf "  %a@," pp_violation v) violations;
  Format.fprintf ppf "state:@,%a@]" Core.Inspect.pp_state pvm

let assert_ok ?strict ?(label = "sanitizer") pvm =
  match run ?strict pvm with
  | [] -> ()
  | violations ->
    raise
      (Failed (Format.asprintf "%s: %a" label (fun ppf () ->
           report ppf pvm violations) ()))
