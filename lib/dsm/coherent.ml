type mode = Invalid | Reading | Writing

type stats = {
  mutable page_transfers : int;
  mutable invalidations : int;
  mutable downgrades : int;
  mutable write_grants : int;
}

type site = {
  s_id : int;
  s_pvm : Core.Pvm.t;
  s_seg : t;
  mutable s_cache : Core.Pvm.cache option; (* set right after attach *)
  s_modes : (int, mode) Hashtbl.t; (* page index -> mode *)
}

and t = {
  master : Bytes.t; (* the home copy *)
  page_size : int;
  latency : Hw.Sim_time.span;
  mutable sites : site list;
  mutable next_site : int;
  stats : stats;
}

let create ?(latency = 0) ~size ~page_size () =
  if size mod page_size <> 0 then invalid_arg "Coherent.create: unaligned size";
  {
    master = Bytes.make size '\000';
    page_size;
    latency;
    sites = [];
    next_site = 1;
    stats =
      { page_transfers = 0; invalidations = 0; downgrades = 0; write_grants = 0 };
  }

let stats t = t.stats
let message t = if t.latency > 0 then Hw.Engine.sleep t.latency

let cache (site : site) =
  match site.s_cache with Some c -> c | None -> assert false

(* The DSM directory — per-site mode tables, the site list and the
   home copy — is one shared object to the explorer: coherence actions
   on any page order against each other through the directory walk. *)
let mode (site : site) ~page =
  Hw.Engine.note_ambient ~write:false (-5) 0;
  Option.value ~default:Invalid (Hashtbl.find_opt site.s_modes page)

let set_mode site ~page m =
  Hw.Engine.note_ambient (-5) 0;
  if m = Invalid then Hashtbl.remove site.s_modes page
  else Hashtbl.replace site.s_modes page m

(* Sync a writer's page back to the home copy. *)
let collect t (owner : site) ~page =
  let off = page * t.page_size in
  message t;
  Core.Cache.sync owner.s_pvm (cache owner) ~offset:off ~size:t.page_size

(* Demote the current writer (if any, other than [except]) to reader. *)
let downgrade_writer t ~page ~except =
  Hw.Engine.note_ambient (-5) 0;
  List.iter
    (fun s ->
      if (not (s == except)) && mode s ~page = Writing then begin
        collect t s ~page;
        (* cap the cached page's access: the next local write will
           re-request it through getWriteAccess *)
        Core.Cache.set_protection s.s_pvm (cache s)
          ~offset:(page * t.page_size) ~size:t.page_size Hw.Prot.read_only;
        set_mode s ~page Reading;
        t.stats.downgrades <- t.stats.downgrades + 1
      end)
    t.sites

(* Invalidate every other site's copy of the page. *)
let invalidate_others t ~page ~except =
  Hw.Engine.note_ambient (-5) 0;
  List.iter
    (fun s ->
      if not (s == except) then begin
        (match mode s ~page with
        | Invalid -> ()
        | Writing ->
          collect t s ~page;
          message t;
          Core.Cache.invalidate s.s_pvm (cache s) ~offset:(page * t.page_size)
            ~size:t.page_size;
          t.stats.invalidations <- t.stats.invalidations + 1
        | Reading ->
          message t;
          Core.Cache.invalidate s.s_pvm (cache s) ~offset:(page * t.page_size)
            ~size:t.page_size;
          t.stats.invalidations <- t.stats.invalidations + 1);
        set_mode s ~page Invalid
      end)
    t.sites

let acquire_read t (site : site) ~page =
  downgrade_writer t ~page ~except:site;
  if mode site ~page = Invalid then set_mode site ~page Reading

let acquire_write t (site : site) ~page =
  invalidate_others t ~page ~except:site;
  set_mode site ~page Writing;
  t.stats.write_grants <- t.stats.write_grants + 1

let backing_of t (site : site) =
  {
    Core.Gmi.b_name = Printf.sprintf "dsm-site-%d" site.s_id;
    b_pull_in =
      (fun ~offset ~size ~prot ~fill_up ->
        Hw.Engine.note_ambient (-5) 0;
        let first = offset / t.page_size
        and last = (offset + size - 1) / t.page_size in
        for page = first to last do
          if Hw.Prot.allows prot `Write then acquire_write t site ~page
          else acquire_read t site ~page
        done;
        message t;
        t.stats.page_transfers <- t.stats.page_transfers + (last - first + 1);
        (* A private copy, not a view of the master: another site's
           pushOut may rewrite the master while fillUp allocates the
           frame. *)
        fill_up ~offset (Bytes.sub t.master offset size));
    b_get_write_access =
      (fun ~offset ~size ->
        Hw.Engine.note_ambient (-5) 0;
        let first = offset / t.page_size
        and last = (offset + size - 1) / t.page_size in
        for page = first to last do
          acquire_write t site ~page
        done);
    b_push_out =
      (fun ~offset ~size ~copy_back ->
        Hw.Engine.note_ambient (-5) 0;
        message t;
        Bytes.blit (copy_back ~offset ~size) 0 t.master offset size);
  }

let attach t pvm =
  Hw.Engine.note_ambient (-5) 0;
  let site =
    {
      s_id = t.next_site;
      s_pvm = pvm;
      s_seg = t;
      s_cache = None;
      s_modes = Hashtbl.create 32;
    }
  in
  t.next_site <- t.next_site + 1;
  let cache = Core.Cache.create pvm ~backing:(backing_of t site) () in
  site.s_cache <- Some cache;
  t.sites <- site :: t.sites;
  site

let master_read t ~offset ~len =
  Hw.Engine.note_ambient ~write:false (-5) 0;
  let first = offset / t.page_size and last = (offset + len - 1) / t.page_size in
  List.iter
    (fun s ->
      for page = first to last do
        if mode s ~page = Writing then collect t s ~page
      done)
    t.sites;
  Bytes.sub t.master offset len
