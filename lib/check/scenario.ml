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
               pvm.Core.Types.contexts))
        pvms;
      Digest.to_hex (Digest.string (Buffer.contents b)))

(* Spawn fibre [f] running [body f] for each [f < n]; the returned
   join parks its caller until every one has finished. *)
let spawn_all engine ~name ~affinity n body =
  let remaining = Atomic.make n in
  let all_done = Hw.Engine.Cond.create () in
  for f = 0 to n - 1 do
    Hw.Engine.spawn engine ~name:(name f) ~affinity:(affinity f) (fun () ->
        body f;
        if Atomic.fetch_and_add remaining (-1) = 1 then
          Hw.Engine.Cond.broadcast all_done)
  done;
  fun () ->
    while Atomic.get remaining > 0 do
      Hw.Engine.declare_wait_ambient ~on:"all-done" ();
      Hw.Engine.Cond.wait all_done
    done

(* --- Kernel workloads --------------------------------------------- *)

(* The paper's Figure 3: two history copies of a source cache with a
   write between them, then a write into the first copy. *)
let fig3 =
  let run engine ~register =
    let pvm = Core.Pvm.create ~frames:256 ~engine () in
    register pvm;
    let ctx = Core.Context.create pvm in
    let mk base =
      let cache = Core.Cache.create pvm () in
      let _ =
        Core.Region.create pvm ctx ~addr:base ~size:(4 * ps)
          ~prot:Hw.Prot.read_write cache ~offset:0
      in
      cache
    in
    let src = mk 0 and cpy1 = mk (1024 * ps) and cpy2 = mk (2048 * ps) in
    Core.Pvm.write pvm ctx ~addr:ps (Bytes.make ps '1');
    let copy dst =
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
        ~size:(4 * ps) ()
    in
    copy cpy1;
    Core.Pvm.write pvm ctx ~addr:ps (Bytes.make ps 'X');
    copy cpy2;
    Core.Pvm.write pvm ctx ~addr:(1024 * ps) (Bytes.make ps 'c');
    fun () -> digest [ pvm ]
  in
  { name = "fig3"; oracle = Schedule_independent; run }

(* The shell pattern on Chorus/MIX: four fork / write / exit / wait
   rounds. *)
let fork =
  let run engine ~register =
    let site = Nucleus.Site.create ~frames:2048 ~engine () in
    let pvm = site.Nucleus.Site.pvm in
    register pvm;
    let images = Mix.Image.create_store site in
    let _ =
      Mix.Image.add_image images ~name:"sh"
        ~text:(Bytes.make (4 * ps) 'T')
        ~data:(Bytes.make (4 * ps) 'D')
        ()
    in
    let m = Mix.Process.create_manager site images in
    let shell = Mix.Process.spawn_init m ~image:"sh" in
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

(* Two sites ping-ponging one coherent page: ten alternating writes. *)
let dsm =
  let run engine ~register =
    let seg =
      Dsm.Coherent.create ~latency:(Hw.Sim_time.ms 2) ~size:(4 * ps)
        ~page_size:ps ()
    in
    let mk () =
      let pvm = Core.Pvm.create ~frames:32 ~engine () in
      register pvm;
      let site = Dsm.Coherent.attach seg pvm in
      let ctx = Core.Context.create pvm in
      let _ =
        Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
          ~prot:Hw.Prot.read_write (Dsm.Coherent.cache site) ~offset:0
      in
      (pvm, ctx)
    in
    let a = mk () and b = mk () in
    for i = 1 to 10 do
      let pvm, ctx = if i mod 2 = 0 then a else b in
      Core.Pvm.write pvm ctx ~addr:0
        (Bytes.of_string (Printf.sprintf "round-%d" i))
    done;
    fun () -> digest [ fst a; fst b ]
  in
  { name = "dsm"; oracle = Schedule_independent; run }

(* Four 4-page messages through a 4-slot transit segment. *)
let ipc =
  let run engine ~register =
    let site = Nucleus.Site.create ~frames:256 ~engine () in
    let pvm = site.Nucleus.Site.pvm in
    register pvm;
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
    Nucleus.Actor.write sender ~addr:0 (Bytes.make (4 * ps) 'i');
    for _ = 1 to 4 do
      Nucleus.Ipc.send sender transit ~dst:endpoint ~addr:0 ~len:(4 * ps);
      ignore (Nucleus.Ipc.receive receiver transit endpoint ~addr:0)
    done;
    fun () -> digest [ pvm ]
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
   the shared cache) exercises every parallel seam while the final
   state stays a pure function of the parameters. *)
let storm ?(workers = 8) ?(pages = 16) ?(rounds = 4) ?shards () =
  let run engine ~register =
    (* every private page + the shared pages resident at once, with
       slack: the workload measures fault throughput, not eviction *)
    let frames = (workers * pages) + pages + 16 in
    let pvm = Core.Pvm.create ?shards ~frames ~engine () in
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
                 pool and the shard locks at staggered offsets *)
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
type make_site = {
  pvm : Core.Types.pvm;
  procs : Mix.Process.manager;
  make_proc : Mix.Process.t;
}

let make_setup engine ~register ~retention =
  let site =
    Nucleus.Site.create ~frames:4096 ~retention_capacity:retention ~engine ()
  in
  let pvm = site.Nucleus.Site.pvm in
  register pvm;
  let images = Mix.Image.create_store site in
  let _ =
    Mix.Image.add_image images ~name:"make"
      ~text:(Bytes.make (8 * ps) 'M')
      ~data:(Bytes.make (2 * ps) 'm')
      ~bss_size:(8 * ps) ()
  in
  let _ =
    Mix.Image.add_image images ~name:"cc"
      ~text:(Bytes.make (48 * ps) 'C')
      ~data:(Bytes.make (8 * ps) 'c')
      ~bss_size:(8 * ps) ()
  in
  let procs = Mix.Process.create_manager site images in
  let make_proc = Mix.Process.spawn_init procs ~image:"make" in
  Mix.Process.write make_proc ~addr:Mix.Process.data_base
    (Bytes.make (2 * ps) 'S');
  { pvm; procs; make_proc }

let make_jobs { procs = m; make_proc = make; _ } =
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

(* --- The paper's Table 6/7 cycles ---------------------------------- *)

let copy_base = 0x4000_0000

let zero_fill_cycle pvm ctx ~size ~pages =
  let cache = Core.Cache.create pvm () in
  let region =
    Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write cache
      ~offset:0
  in
  for p = 0 to pages - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  Core.Region.destroy pvm region;
  Core.Cache.destroy pvm cache

let cow_source pvm ctx ~size =
  let src = Core.Cache.create pvm () in
  let region =
    Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write src
      ~offset:0
  in
  for p = 0 to (size / ps) - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  (src, region)

let cow_cycle pvm ctx ~src ~size ~pages =
  let copy = Core.Cache.create pvm () in
  Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst:copy ~dst_off:0
    ~size ();
  let region =
    Core.Region.create pvm ctx ~addr:copy_base ~size ~prot:Hw.Prot.read_write
      copy ~offset:0
  in
  (* writes to the source force the real copies *)
  for p = 0 to pages - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  Core.Region.destroy pvm region;
  Core.Cache.destroy pvm copy

let mach_zero_fill_cycle vm sp ~size ~pages =
  let entry =
    Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
  in
  for p = 0 to pages - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  Shadow.Shadow_vm.entry_destroy vm entry

let mach_cow_source vm sp ~size =
  let src =
    Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
  in
  for p = 0 to (size / ps) - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  src

let mach_cow_cycle vm sp ~src ~pages =
  let copy =
    Shadow.Shadow_vm.copy_entry vm src ~dst_space:sp ~dst_addr:copy_base
  in
  for p = 0 to pages - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  Shadow.Shadow_vm.entry_destroy vm copy

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
    zero_fill_cycle pvm ctx ~size ~pages;
    let src, src_region = cow_source pvm ctx ~size in
    cow_cycle pvm ctx ~src ~size ~pages;
    Core.Region.destroy pvm src_region;
    Core.Cache.destroy pvm src;
    fun () -> digest [ pvm ]
  in
  { name = "decomp"; oracle = Schedule_independent; run }

let decomp_mach engine =
  Hw.Engine.run_fn engine (fun () ->
      let size = decomp_size and pages = decomp_pages in
      let vm = Shadow.Shadow_vm.create ~frames:900 ~engine () in
      let sp = Shadow.Shadow_vm.space_create vm in
      mach_zero_fill_cycle vm sp ~size ~pages;
      let src = mach_cow_source vm sp ~size in
      mach_cow_cycle vm sp ~src ~pages;
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
    fig3;
    fork;
    dsm;
    ipc;
    contend;
    storm ();
    make;
    decomp;
    pressure;
    pressure_program ~name:"contend-model" ~workers:3;
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
