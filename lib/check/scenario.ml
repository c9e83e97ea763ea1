(* The scenario registry (see scenario.mli).

   The kernel workloads run under the calibrated Sun-3/60 profile (the
   [create] default), so traced spans carry durations and the
   per-primitive attribution is populated. *)

type oracle =
  | Schedule_independent
  | Outcomes of (string, unit) Hashtbl.t Lazy.t
  | No_oracle

type t = {
  name : string;
  oracle : oracle;
  run : Hw.Engine.t -> register:(Core.Types.pvm -> unit) -> unit -> string;
}

let ps = 8192
let digest pvms = String.concat "+" (List.map Core.Inspect.digest pvms)

let exec engine s =
  let pvms = ref [] in
  let observe =
    Hw.Engine.run_fn engine (fun () ->
        s.run engine ~register:(fun pvm -> pvms := pvm :: !pvms))
  in
  (List.rev !pvms, fun () -> Hw.Engine.run_fn engine observe)

let contents engine pvms =
  Hw.Engine.run_fn engine (fun () ->
      let b = Buffer.create 4096 in
      List.iter
        (fun pvm ->
          Core.Types.note_structure pvm;
          List.iter
            (fun (ctx : Core.Types.context) ->
              if ctx.Core.Types.ctx_alive then
                List.iter
                  (fun (r : Core.Types.region) ->
                    if r.Core.Types.r_alive && Hw.Prot.allows r.r_prot `Read
                    then begin
                      Buffer.add_string b
                        (Printf.sprintf "|%d@%x:" ctx.ctx_id r.r_addr);
                      Buffer.add_bytes b
                        (Core.Pvm.read pvm ctx ~addr:r.r_addr ~len:r.r_size)
                    end)
                  ctx.ctx_regions)
            (List.sort
               (fun (a : Core.Types.context) (b : Core.Types.context) ->
                 compare a.ctx_id b.ctx_id)
               (Core.Types.contexts pvm)))
        pvms;
      Digest.to_hex (Digest.string (Buffer.contents b)))

(* Spawn fibre [f] running [body f] for each [f < n]; the returned
   join parks its caller until every one has finished. *)
let spawn_all engine ~name ~affinity n body =
  let remaining = ref n in
  let all_done = Hw.Engine.Cond.create () in
  for f = 0 to n - 1 do
    Hw.Engine.spawn engine ~name:(name f) ~affinity:(affinity f) (fun () ->
        body f;
        decr remaining;
        if !remaining = 0 then Hw.Engine.Cond.broadcast all_done)
  done;
  fun () ->
    while !remaining > 0 do
      Hw.Engine.declare_wait_ambient ~on:"all-done" ();
      Hw.Engine.Cond.wait all_done
    done

(* --- Kernel workloads --------------------------------------------- *)

(* The paper's Figure 3 (§4.2), sub-figures 3.a-3.d: a source with
   three written pages is history-copied three times, with writes into
   the source, the first copy and that copy's own copy in between.
   [on_figure] sees each sub-figure's caption and the source cache as
   soon as the sub-figure is complete. *)
let fig3 ?(on_figure = fun _ _ -> ()) () =
  let run engine ~register =
    let pvm = Core.Pvm.create ~frames:512 ~engine () in
    register pvm;
    let ctx = Core.Context.create pvm in
    let mapped base =
      let cache = Core.Cache.create pvm () in
      let _ =
        Core.Region.create pvm ctx ~addr:base ~size:(5 * ps)
          ~prot:Hw.Prot.read_write cache ~offset:0
      in
      cache
    in
    let wr base page c =
      Core.Pvm.write pvm ctx ~addr:(base + (page * ps)) (Bytes.make ps c)
    in
    let copy src dst =
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
        ~size:(5 * ps) ()
    in
    let src = mapped 0 and cpy1 = mapped (1024 * ps) in
    List.iter (fun (p, c) -> wr 0 p c) [ (1, '1'); (2, '2'); (3, '3') ];
    copy src cpy1;
    wr 0 2 'X';
    wr (1024 * ps) 3 'Y';
    on_figure "3.a  src copied once; src wrote page 2, cpy1 wrote page 3:" src;
    copy cpy1 (mapped (2048 * ps));
    wr (1024 * ps) 3 'Z';
    on_figure "3.b  cpy1 copied to copyOfCpy1; cpy1 wrote page 3 again:" src;
    copy src (mapped (3072 * ps));
    wr 0 3 'S';
    on_figure "3.c  second copy of src: working object w inserted:" src;
    copy src (mapped (4096 * ps));
    wr 0 1 'T';
    on_figure "3.d  third copy of src: second working object:" src;
    fun () -> digest [ pvm ]
  in
  { name = "fig3"; oracle = Schedule_independent; run }

(* A Chorus/MIX site with its image store and an init process. *)
type mix_site = {
  pvm : Core.Types.pvm;
  images : Mix.Image.store;
  procs : Mix.Process.manager;
  init : Mix.Process.t;
}

(* [images] as (name, (text pages, fill), (data pages, fill), bss
   pages). *)
let mix_site engine ~register ~frames ?retention images ~init =
  let site =
    Nucleus.Site.create ~frames ?retention_capacity:retention ~engine ()
  in
  let pvm = site.Nucleus.Site.pvm in
  register pvm;
  let store = Mix.Image.create_store site in
  List.iter
    (fun (name, (text, t), (data, d), bss) ->
      ignore
        (Mix.Image.add_image store ~name
           ~text:(Bytes.make (text * ps) t)
           ~data:(Bytes.make (data * ps) d)
           ~bss_size:(bss * ps) ()))
    images;
  let procs = Mix.Process.create_manager site store in
  let init = Mix.Process.spawn_init procs ~image:init in
  { pvm; images = store; procs; init }

(* The shell pattern on Chorus/MIX: four fork / write / exit / wait
   rounds. *)
let fork =
  let run engine ~register =
    let { pvm; procs = m; init = shell; _ } =
      mix_site engine ~register ~frames:2048
        [ ("sh", (4, 'T'), (4, 'D'), 0) ]
        ~init:"sh"
    in
    for i = 1 to 4 do
      let child = Mix.Process.fork m shell in
      Mix.Process.write shell ~addr:Mix.Process.data_base
        (Bytes.make 32 (Char.chr (65 + (i mod 26))));
      Mix.Process.exit_ m child ~status:0;
      ignore (Mix.Process.wait m shell)
    done;
    fun () -> digest [ pvm ]
  in
  { name = "fork"; oracle = Schedule_independent; run }

(* Two sites sharing one coherent segment over 2 ms links. *)
type dsm_sites = {
  seg : Dsm.Coherent.t;
  sites : (Core.Types.pvm * Core.Types.context) array;
  pages : int;
}

let dsm_setup ?cost engine ~register ~pages =
  let seg =
    Dsm.Coherent.create ~latency:(Hw.Sim_time.ms 2) ~size:(pages * ps)
      ~page_size:ps ()
  in
  let mk _ =
    let pvm = Core.Pvm.create ~frames:32 ?cost ~engine () in
    register pvm;
    let site = Dsm.Coherent.attach seg pvm in
    let ctx = Core.Context.create pvm in
    let _ =
      Core.Region.create pvm ctx ~addr:0 ~size:(pages * ps)
        ~prot:Hw.Prot.read_write (Dsm.Coherent.cache site) ~offset:0
    in
    (pvm, ctx)
  in
  { seg; sites = Array.init 2 mk; pages }

let dsm_rounds { sites; pages; _ } ~pattern ~rounds =
  let write i ~addr r =
    let pvm, ctx = sites.(i) in
    Core.Pvm.write pvm ctx ~addr (Bytes.of_string (Printf.sprintf "round-%d" r))
  in
  let read i =
    let pvm, ctx = sites.(i) in
    ignore (Core.Pvm.read pvm ctx ~addr:0 ~len:8)
  in
  match pattern with
  | `Read_mostly ->
    write 0 ~addr:0 0;
    for _ = 1 to rounds do
      read 0;
      read 1
    done
  | `Partitioned ->
    for r = 1 to rounds do
      write 0 ~addr:0 r;
      write 1 ~addr:(pages / 2 * ps) r
    done
  | `Ping_pong ->
    for r = 1 to rounds do
      write (r mod 2) ~addr:0 r
    done

(* Two sites ping-ponging one coherent page: ten alternating writes. *)
let dsm =
  let run engine ~register =
    let d = dsm_setup engine ~register ~pages:4 in
    dsm_rounds d ~pattern:`Ping_pong ~rounds:10;
    fun () -> digest (Array.to_list (Array.map fst d.sites))
  in
  { name = "dsm"; oracle = Schedule_independent; run }

(* A sender and a receiver actor on a 256-frame site with a 4-slot
   transit segment; the sender has written a [len]-byte message at
   [addr]. *)
type ipc_pair = {
  site : Nucleus.Site.t;
  transit : Nucleus.Transit.t;
  sender : Nucleus.Actor.t;
  receiver : Nucleus.Actor.t;
  endpoint : Nucleus.Ipc.endpoint;
  addr : int;
  len : int;
}

let ipc_setup engine ~register ~addr ~len =
  let site = Nucleus.Site.create ~frames:256 ~engine () in
  register site.Nucleus.Site.pvm;
  let transit = Nucleus.Transit.create site ~slots:4 () in
  let sender = Nucleus.Actor.create site in
  let receiver = Nucleus.Actor.create site in
  let _ =
    Nucleus.Actor.rgn_allocate sender ~addr:0 ~size:(16 * ps)
      ~prot:Hw.Prot.read_write
  in
  let _ =
    Nucleus.Actor.rgn_allocate receiver ~addr:0 ~size:(16 * ps)
      ~prot:Hw.Prot.read_write
  in
  let endpoint = Nucleus.Ipc.make_endpoint () in
  Nucleus.Actor.write sender ~addr (Bytes.make len 'i');
  { site; transit; sender; receiver; endpoint; addr; len }

let ipc_round p =
  Nucleus.Ipc.send p.sender p.transit ~dst:p.endpoint ~addr:p.addr ~len:p.len;
  ignore (Nucleus.Ipc.receive p.receiver p.transit p.endpoint ~addr:p.addr)

(* Four 4-page messages through a 4-slot transit segment. *)
let ipc =
  let run engine ~register =
    let p = ipc_setup engine ~register ~addr:0 ~len:(4 * ps) in
    for _ = 1 to 4 do
      ipc_round p
    done;
    fun () -> digest [ p.site.Nucleus.Site.pvm ]
  in
  { name = "ipc"; oracle = Schedule_independent; run }

(* Several fibres hammering overlapping pages of one cache through a
   frame pool too small to hold them, over a swap store with real seek
   latency: every fault may find its page mid-pullIn or mid-pushOut on
   another fibre, which is exactly the §3.3.3 blocking discipline the
   checkers perturb.  The writers store constant bytes at disjoint
   offsets, so memory contents converge whatever the schedule; stats
   and state legitimately do not. *)
let contend =
  let run engine ~register =
    let site =
      Nucleus.Site.create ~frames:6 ~swap_seek_time:(Hw.Sim_time.ms 4)
        ~swap_transfer_time_per_page:(Hw.Sim_time.ms 1) ~engine ()
    in
    let pvm = site.Nucleus.Site.pvm in
    register pvm;
    let ctx = Core.Context.create pvm in
    let cache = Core.Cache.create pvm () in
    let pages = 8 in
    let _ =
      Core.Region.create pvm ctx ~addr:0 ~size:(pages * ps)
        ~prot:Hw.Prot.read_write cache ~offset:0
    in
    let join =
      spawn_all engine ~name:(Printf.sprintf "worker-%d")
        ~affinity:(Fun.const 0) 4
        (fun f ->
          for round = 0 to 5 do
            for i = 0 to pages - 1 do
              let page = (i + f + round) mod pages in
              Core.Pvm.write pvm ctx
                ~addr:((page * ps) + (f * 64))
                (Bytes.make 16 (Char.chr (65 + f)));
              ignore
                (Core.Pvm.read pvm ctx
                   ~addr:((page + (pages / 2)) mod pages * ps)
                   ~len:8)
            done
          done)
    in
    fun () ->
      join ();
      digest [ pvm ]
  in
  { name = "contend"; oracle = No_oracle; run }

(* The contended many-context fault workload.  Every worker owns its
   context and a private anonymous cache, so the racing traffic
   (zero-fill faults, frame allocation, map installs, pmap entries on
   the shared cache) runs in every worker's lane while the final state
   stays a pure function of the parameters. *)
let storm ?(workers = 8) ?(pages = 16) ?(rounds = 4) () =
  let run engine ~register =
    (* every private page + the shared pages resident at once, with
       slack: the workload measures fault throughput, not eviction *)
    let frames = (workers * pages) + pages + 16 in
    let pvm = Core.Pvm.create ~frames ~engine () in
    register pvm;
    let shared_base = 1 lsl 30 in
    (* Pre-fill the shared cache through a setup context, then drop
       the writable window; workers see it read-only. *)
    let shared = Core.Cache.create pvm () in
    let setup_ctx = Core.Context.create pvm in
    let setup =
      Core.Region.create pvm setup_ctx ~addr:0 ~size:(pages * ps)
        ~prot:Hw.Prot.read_write shared ~offset:0
    in
    for p = 0 to pages - 1 do
      Core.Pvm.write pvm setup_ctx ~addr:(p * ps)
        (Bytes.make 32 (Char.chr (p land 0xff)))
    done;
    Core.Region.destroy pvm setup;
    let ctxs =
      Array.init workers (fun _ ->
          let ctx = Core.Context.create pvm in
          let cache = Core.Cache.create pvm () in
          let _ =
            Core.Region.create pvm ctx ~addr:0 ~size:(pages * ps)
              ~prot:Hw.Prot.read_write cache ~offset:0
          in
          let _ =
            Core.Region.create pvm ctx ~addr:shared_base ~size:(pages * ps)
              ~prot:Hw.Prot.read_only shared ~offset:0
          in
          ctx)
    in
    let join =
      spawn_all engine ~name:(Printf.sprintf "storm-%d") ~affinity:succ
        workers (fun w ->
          let ctx = ctxs.(w) in
          for r = 0 to rounds - 1 do
            for i = 0 to pages - 1 do
              (* worker-skewed page order: workers meet on the frame
                 pool and the global map at staggered offsets *)
              let p = (i + w + r) mod pages in
              Core.Pvm.write pvm ctx ~addr:(p * ps)
                (Bytes.make 16 (Char.chr (((w * 31) + p) land 0xff)));
              ignore
                (Core.Pvm.read pvm ctx ~addr:(shared_base + (p * ps)) ~len:8)
            done
          done)
    in
    fun () ->
      join ();
      digest [ pvm ]
  in
  { name = "storm"; oracle = Schedule_independent; run }

let storm_faults ~workers ~pages = workers * pages

(* make -j2 on Chorus/MIX: a make process forks compiler children
   that exec cc, read their whole text, scribble over data and heap,
   pipe an 8-page object back to make and exit, two at a time. *)
let make_setup engine ~register ~retention =
  let site =
    mix_site engine ~register ~frames:4096 ~retention
      [ ("make", (8, 'M'), (2, 'm'), 8); ("cc", (48, 'C'), (8, 'c'), 8) ]
      ~init:"make"
  in
  Mix.Process.write site.init ~addr:Mix.Process.data_base
    (Bytes.make (2 * ps) 'S');
  site

let make_jobs { procs = m; init = make; _ } =
  let pipe = Mix.Pipe.create m in
  for _ = 1 to 12 / 2 do
    let children =
      List.init 2 (fun _ ->
          let cc = Mix.Process.fork m make in
          Mix.Process.exec m cc ~image:"cc";
          cc)
    in
    List.iter
      (fun cc ->
        (* compile: read the text, fill data/heap, emit an 8-page object
           through the pipe *)
        ignore
          (Mix.Process.read cc ~addr:Mix.Process.text_base ~len:(48 * ps));
        Mix.Process.write cc ~addr:Mix.Process.data_base
          (Bytes.make (4 * ps) 'o');
        let heap = Mix.Process.sbrk m cc (8 * ps) in
        Mix.Process.write cc ~addr:heap (Bytes.make (8 * ps) 'h');
        Mix.Pipe.write m cc pipe ~addr:heap ~len:(8 * ps);
        Mix.Process.exit_ m cc ~status:0;
        ignore (Mix.Process.wait m make))
      children;
    (* make collects the objects into its bss *)
    List.iter
      (fun _ ->
        ignore (Mix.Pipe.read m make pipe ~addr:Mix.Process.bss_base))
      children
  done

let make =
  let run engine ~register =
    let site = make_setup engine ~register ~retention:64 in
    make_jobs site;
    fun () -> digest [ site.pvm ]
  in
  { name = "make"; oracle = Schedule_independent; run }

(* --- The paper's Table 6/7 steps ---------------------------------- *)

let copy_base = 0x4000_0000

let touch_pages pvm ctx ~base ~pages =
  for p = 0 to pages - 1 do
    Core.Pvm.touch pvm ctx ~addr:(base + (p * ps)) ~access:`Write
  done

let zero_fill pvm ctx ~size ~pages =
  let cache = Core.Cache.create pvm () in
  let region =
    Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write cache
      ~offset:0
  in
  touch_pages pvm ctx ~base:0 ~pages;
  (cache, region)

let diverge ?(strategy = `History) ?(writer = `Source) pvm ctx ~src ~size
    ~pages =
  let copy = Core.Cache.create pvm () in
  Core.Cache.copy pvm ~strategy ~src ~src_off:0 ~dst:copy ~dst_off:0 ~size ();
  let region =
    Core.Region.create pvm ctx ~addr:copy_base ~size ~prot:Hw.Prot.read_write
      copy ~offset:0
  in
  touch_pages pvm ctx
    ~base:(match writer with `Source -> 0 | `Copy -> copy_base)
    ~pages;
  (copy, region)

let teardown pvm (cache, region) =
  Core.Region.destroy pvm region;
  Core.Cache.destroy pvm cache

let mach_zero_fill vm sp ~size ~pages =
  let entry =
    Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
  in
  for p = 0 to pages - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  entry

let mach_diverge vm sp ~src ~pages =
  let copy =
    Shadow.Shadow_vm.copy_entry vm src ~dst_space:sp ~dst_addr:copy_base
  in
  for p = 0 to pages - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  copy

(* The 1024 Kb / 128-page cells, everything torn down so teardown
   frees balance fault-time allocations. *)
let decomp_size = 1024 * 1024
let decomp_pages = 128

let decomp =
  let run engine ~register =
    let size = decomp_size and pages = decomp_pages in
    let pvm = Core.Pvm.create ~frames:600 ~engine () in
    register pvm;
    let ctx = Core.Context.create pvm in
    teardown pvm (zero_fill pvm ctx ~size ~pages);
    let src = zero_fill pvm ctx ~size ~pages:(size / ps) in
    teardown pvm (diverge pvm ctx ~src:(fst src) ~size ~pages);
    teardown pvm src;
    fun () -> digest [ pvm ]
  in
  { name = "decomp"; oracle = Schedule_independent; run }

let decomp_mach engine =
  Hw.Engine.run_fn engine (fun () ->
      let size = decomp_size and pages = decomp_pages in
      let vm = Shadow.Shadow_vm.create ~frames:900 ~engine () in
      let sp = Shadow.Shadow_vm.space_create vm in
      Shadow.Shadow_vm.entry_destroy vm (mach_zero_fill vm sp ~size ~pages);
      let src = mach_zero_fill vm sp ~size ~pages:(size / ps) in
      Shadow.Shadow_vm.entry_destroy vm (mach_diverge vm sp ~src ~pages);
      Shadow.Shadow_vm.entry_destroy vm src;
      vm)

(* The Mach values are recomputed from its Table 6/7 cells by the
   paper's own formulas: demand = (t(1024K,128) - t(1024K,0))/128 -
   bzero; cow = (c(1024K,128) - c(1024K,0))/128 - bcopy; tree =
   c(8K,0) - z(8K,0); protect = (c(1024K,0) - c(8K,0))/127. *)
let paper_decomp =
  [
    ("chorus", "demand-alloc", 0.27);
    ("chorus", "protect", 0.016);
    ("chorus", "tree-setup", 0.03);
    ("chorus", "cow", 0.31);
    ("mach", "demand-alloc", 0.5277);
    ("mach", "protect", 0.003);
    ("mach", "tree-setup", 1.13);
    ("mach", "cow", 0.5792);
  ]

(* --- Bench's ablations A-C ---------------------------------------- *)

(* The shell's fork (§4.2.5): history-copy the parent's [src] into a
   child cache, the parent writes its first two pages, the child
   exits. *)
let fork_cycle pvm ctx ~src ~size =
  let child = Core.Cache.create pvm () in
  Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst:child ~dst_off:0
    ~size ();
  touch_pages pvm ctx ~base:0 ~pages:2;
  Core.Cache.destroy pvm child

let mach_fork_cycle vm sp ~src =
  Shadow.Shadow_vm.entry_destroy vm (mach_diverge vm sp ~src ~pages:2)

(* Four forks of a written 16-page parent. *)
let chains =
  let run engine ~register =
    let pvm = Core.Pvm.create ~frames:900 ~engine () in
    register pvm;
    let ctx = Core.Context.create pvm in
    let size = 16 * ps in
    let src, _ = zero_fill pvm ctx ~size ~pages:16 in
    for _ = 1 to 4 do
      fork_cycle pvm ctx ~src ~size
    done;
    fun () -> digest [ pvm ]
  in
  { name = "chains"; oracle = Schedule_independent; run }

(* Repeated exec of one 32-page compiler image (§5.1.3): the site keeps
   [retention] unreferenced segment caches. *)
let segcache_setup engine ~register ~retention =
  mix_site engine ~register ~frames:1200 ~retention
    [ ("cc", (32, 'T'), (8, 'D'), 0) ]
    ~init:"cc"

let exec_loop { procs; init; _ } ~execs =
  for _ = 1 to execs do
    Mix.Process.exec procs init ~image:"cc";
    ignore (Mix.Process.read init ~addr:Mix.Process.text_base ~len:(32 * ps))
  done

let segcache =
  let run engine ~register =
    let site = segcache_setup engine ~register ~retention:64 in
    exec_loop site ~execs:3;
    fun () -> digest [ site.pvm ]
  in
  { name = "segcache"; oracle = Schedule_independent; run }

(* An 8-page written source copied by each deferred-copy technique
   (§4.3), the copy writing a quarter of its pages. *)
let pervpage =
  let run engine ~register =
    let pvm = Core.Pvm.create ~frames:900 ~engine () in
    register pvm;
    let ctx = Core.Context.create pvm in
    let size = 8 * ps in
    let src, _ = zero_fill pvm ctx ~size ~pages:8 in
    List.iter
      (fun strategy ->
        teardown pvm
          (diverge ~strategy ~writer:`Copy pvm ctx ~src ~size ~pages:2))
      [ `History; `Per_page; `Eager ];
    fun () -> digest [ pvm ]
  in
  { name = "pervpage"; oracle = Schedule_independent; run }

(* Two hidden caches that read each other, built from the public GMI
   alone (§4.2.5): [b] history-copies [a]'s first two pages and writes
   its first, a per-page copy of that page goes to [c], and [move]
   carries [c]'s stub onto [a] at page 4 — so [a] reads [b] through the
   stub while [b] reads [a] through its fragment.  [d] history-copies
   [b].  [on_cycle] sees [a] and [b] once the cycle is closed; then
   [c], [a] and [b] are destroyed, leaving [d] the pair's one visible
   reader. *)
let orphan_pair ?(on_cycle = fun _ _ -> ()) pvm =
  let a = Core.Cache.create pvm () and b = Core.Cache.create pvm () in
  let c = Core.Cache.create pvm () and d = Core.Cache.create pvm () in
  Core.Cache.write_through pvm a ~offset:0 (Bytes.make (2 * ps) 'a');
  Core.Cache.copy pvm ~strategy:`History ~src:a ~src_off:0 ~dst:b ~dst_off:0
    ~size:(2 * ps) ();
  Core.Cache.write_through pvm b ~offset:0 (Bytes.make 8 'b');
  Core.Cache.copy pvm ~strategy:`Per_page ~src:b ~src_off:0 ~dst:c ~dst_off:0
    ~size:ps ();
  Core.Cache.move pvm ~src:c ~src_off:0 ~dst:a ~dst_off:(4 * ps) ~size:ps ();
  Core.Cache.copy pvm ~strategy:`History ~src:b ~src_off:0 ~dst:d ~dst_off:0
    ~size:(2 * ps) ();
  on_cycle a b;
  List.iter (Core.Cache.destroy pvm) [ c; a; b ];
  d

(* The pair loses its last visible reader once by a destroy, once by a
   history copy onto the reader's range. *)
let orphans =
  let run engine ~register =
    let pvm = Core.Pvm.create ~frames:64 ~engine () in
    register pvm;
    Core.Cache.destroy pvm (orphan_pair pvm);
    let d = orphan_pair pvm and e = Core.Cache.create pvm () in
    Core.Cache.copy pvm ~strategy:`History ~src:e ~src_off:0 ~dst:d ~dst_off:0
      ~size:(2 * ps) ();
    fun () -> digest [ pvm ]
  in
  { name = "orphans"; oracle = Schedule_independent; run }

(* --- Model programs ----------------------------------------------- *)

let site_setup ~frames ~pages engine =
  let site =
    Nucleus.Site.create ~frames ~swap_seek_time:(Hw.Sim_time.ms 4)
      ~swap_transfer_time_per_page:(Hw.Sim_time.ms 1) ~engine ()
  in
  let pvm = site.Nucleus.Site.pvm in
  let ctx = Core.Context.create pvm in
  let cache = Core.Cache.create pvm () in
  ignore
    (Core.Region.create pvm ctx ~addr:0 ~size:(pages * ps)
       ~prot:Hw.Prot.read_write cache ~offset:0);
  (pvm, ctx)

(* One fibre per row, executing its reads and writes through the full
   PVM; the observation is Model.digest_outcome over the final
   contents (read back through the GMI once every row is done) and the
   per-fibre read results — directly comparable against
   Model.outcomes. *)
let of_program ~name ~frames ~pages (prog : Model.prog) =
  let size = pages * ps in
  let run eng ~register =
    let pvm, ctx = site_setup ~frames ~pages eng in
    register pvm;
    Array.iter
      (Array.iter (fun (op : Model.op) ->
           let addr, len =
             match op with
             | Model.Write { addr; data } -> (addr, String.length data)
             | Model.Read { addr; len } -> (addr, len)
           in
           if len <= 0 || addr / ps <> (addr + len - 1) / ps then
             invalid_arg "Scenario.of_program: op must stay within one page"))
      prog;
    let reads = Array.make (Array.length prog) [] in
    let join =
      spawn_all eng ~name:(Printf.sprintf "%s-w%d" name)
        ~affinity:(Fun.const 0) (Array.length prog) (fun f ->
          Array.iter
            (fun (op : Model.op) ->
              match op with
              | Model.Write { addr; data } ->
                Core.Pvm.write pvm ctx ~addr (Bytes.of_string data)
              | Model.Read { addr; len } ->
                reads.(f) <-
                  Bytes.to_string (Core.Pvm.read pvm ctx ~addr ~len)
                  :: reads.(f))
            prog.(f))
    in
    fun () ->
      join ();
      let contents =
        Bytes.to_string (Core.Pvm.read pvm ctx ~addr:0 ~len:size)
      in
      Model.digest_outcome ~contents ~reads:(Array.map List.rev reads)
  in
  { name; oracle = Outcomes (lazy (Model.outcomes ~size prog)); run }

(* Each fibre writes 16 bytes of its letter to page (f + r) mod 3 and
   reads 8 bytes of the next page, for two rounds [r]. *)
let pressure_program ~name ~workers =
  let pages = 3 in
  of_program ~name ~frames:workers ~pages
    (Array.init workers (fun f ->
         Array.concat
           (List.init 2 (fun r ->
                let p = (f + r) mod pages in
                [|
                  Model.Write
                    {
                      addr = p * ps;
                      data = String.make 16 (Char.chr (65 + f));
                    };
                  Model.Read { addr = (p + 1) mod pages * ps; len = 8 };
                |]))))

let pressure = pressure_program ~name:"pressure" ~workers:2

(* --- The registry -------------------------------------------------- *)

let all =
  [
    fig3 ();
    fork;
    dsm;
    ipc;
    contend;
    storm ();
    make;
    decomp;
    chains;
    segcache;
    pervpage;
    orphans;
    pressure;
    pressure_program ~name:"contend-model" ~workers:3;
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
