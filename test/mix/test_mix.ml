(* Chorus/MIX tests: the Unix process model built on the rgn*
   operations — exec layout, fork COW semantics, text sharing, wait,
   pipes, and the fork-heavy shell pattern the history-object design
   targets. *)

open Mix

let ps = 8192

let with_mix ?(frames = 512) ?(retention_capacity = 64) f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let site =
        Nucleus.Site.create ~frames ~retention_capacity ~cost:Hw.Cost.free
          ~engine ()
      in
      let images = Image.create_store site in
      let _sh =
        Image.add_image images ~name:"sh"
          ~text:(Bytes.of_string "SH TEXT: exec loop")
          ~data:(Bytes.of_string "SH DATA: prompt=$ ")
          ~bss_size:ps ()
      in
      let _cc =
        Image.add_image images ~name:"cc"
          ~text:(Bytes.make (4 * ps) 'C')
          ~data:(Bytes.make (2 * ps) 'd')
          ()
      in
      let m = Process.create_manager site images in
      f ~site ~images ~m)

let test_exec_layout () =
  with_mix (fun ~site:_ ~images:_ ~m ->
      let p = Process.spawn_init m ~image:"sh" in
      Alcotest.(check string) "text mapped" "SH TEXT"
        (Bytes.to_string (Process.read p ~addr:Process.text_base ~len:7));
      Alcotest.(check string) "data mapped" "SH DATA"
        (Bytes.to_string (Process.read p ~addr:Process.data_base ~len:7));
      (* bss and stack are zero *)
      Alcotest.(check char) "bss zero" '\000'
        (Bytes.get (Process.read p ~addr:Process.bss_base ~len:1) 0);
      Alcotest.(check char) "stack zero" '\000'
        (Bytes.get (Process.read p ~addr:Process.stack_base ~len:1) 0);
      (* text is not writable *)
      Alcotest.check_raises "text write faults"
        (Core.Gmi.Protection_fault Process.text_base) (fun () ->
          Process.write p ~addr:Process.text_base (Bytes.of_string "x")))

let test_data_writes_private () =
  with_mix (fun ~site ~images:_ ~m ->
      let p1 = Process.spawn_init m ~image:"sh" in
      let p2 = Process.spawn_init m ~image:"sh" in
      Process.write p1 ~addr:Process.data_base (Bytes.of_string "CHANGED");
      Alcotest.(check string) "other instance unaffected" "SH DATA"
        (Bytes.to_string (Process.read p2 ~addr:Process.data_base ~len:7));
      ignore site)

let test_fork_cow () =
  with_mix (fun ~site:_ ~images:_ ~m ->
      let parent = Process.spawn_init m ~image:"sh" in
      Process.write parent ~addr:Process.data_base
        (Bytes.of_string "parent-data");
      Process.write parent ~addr:Process.stack_base
        (Bytes.of_string "parent-stack");
      let child = Process.fork m parent in
      Alcotest.(check string) "child sees parent data" "parent-data"
        (Bytes.to_string (Process.read child ~addr:Process.data_base ~len:11));
      Alcotest.(check string) "child sees parent stack" "parent-stack"
        (Bytes.to_string
           (Process.read child ~addr:Process.stack_base ~len:12));
      (* divergence both ways *)
      Process.write parent ~addr:Process.data_base (Bytes.of_string "PARENT!");
      Process.write child ~addr:Process.stack_base (Bytes.of_string "CHILD!!");
      Alcotest.(check string) "child keeps data snapshot" "parent-data"
        (Bytes.to_string (Process.read child ~addr:Process.data_base ~len:11));
      Alcotest.(check string) "parent keeps stack" "parent-stack"
        (Bytes.to_string
           (Process.read parent ~addr:Process.stack_base ~len:12));
      Alcotest.(check string) "parent sees own write" "PARENT!"
        (Bytes.to_string (Process.read parent ~addr:Process.data_base ~len:7)))

let test_fork_shares_text () =
  with_mix (fun ~site ~images:_ ~m ->
      let parent = Process.spawn_init m ~image:"sh" in
      Process.read parent ~addr:Process.text_base ~len:1 |> ignore;
      let frames_after_parent =
        Hw.Phys_mem.used_frames (Core.Pvm.memory site.Nucleus.Site.pvm)
      in
      let child = Process.fork m parent in
      Process.read child ~addr:Process.text_base ~len:1 |> ignore;
      (* no new frame for the text page: same local cache *)
      Alcotest.(check int) "text page shared, no new frame"
        frames_after_parent
        (Hw.Phys_mem.used_frames (Core.Pvm.memory site.Nucleus.Site.pvm)))

let test_fork_exit_wait () =
  with_mix (fun ~site:_ ~images:_ ~m ->
      let parent = Process.spawn_init m ~image:"sh" in
      let child = Process.fork m parent in
      Alcotest.(check int) "two live processes" 2 (Process.live_processes m);
      Alcotest.(check bool) "nothing to reap yet" true
        (Process.wait m parent = None);
      Process.write child ~addr:Process.data_base (Bytes.of_string "bye");
      Process.exit_ m child ~status:42;
      (match Process.wait m parent with
      | Some (reaped, status) ->
        Alcotest.(check int) "right child" (Process.pid child)
          (Process.pid reaped);
        Alcotest.(check int) "status" 42 status
      | None -> Alcotest.fail "expected a zombie child");
      Alcotest.(check int) "one live process" 1 (Process.live_processes m);
      (* parent data untouched by child's writes *)
      Alcotest.(check string) "parent data intact" "SH DATA"
        (Bytes.to_string (Process.read parent ~addr:Process.data_base ~len:7)))

(* The paper's §4.2.2 normal case: the parent exits while the child
   continues; remaining unmodified parent data must survive. *)
let test_parent_exits_first () =
  with_mix (fun ~site:_ ~images:_ ~m ->
      let parent = Process.spawn_init m ~image:"sh" in
      Process.write parent ~addr:Process.data_base
        (Bytes.of_string "inheritance");
      let child = Process.fork m parent in
      Process.exit_ m parent ~status:0;
      Alcotest.(check string) "child still reads inherited data" "inheritance"
        (Bytes.to_string (Process.read child ~addr:Process.data_base ~len:11)))

let test_exec_replaces_image () =
  with_mix (fun ~site:_ ~images:_ ~m ->
      let p = Process.spawn_init m ~image:"sh" in
      Process.write p ~addr:Process.data_base (Bytes.of_string "old-state");
      Process.exec m p ~image:"cc";
      Alcotest.(check char) "new text" 'C'
        (Bytes.get (Process.read p ~addr:Process.text_base ~len:1) 0);
      Alcotest.(check char) "new data" 'd'
        (Bytes.get (Process.read p ~addr:Process.data_base ~len:1) 0);
      Alcotest.(check string) "image name updated" "cc" (Process.image_name p))

(* Repeated exec of the same image: segment caching (§5.1.3) keeps the
   text/data caches warm, so the file mapper is not re-read. *)
let test_segment_caching_on_exec () =
  with_mix (fun ~site:_ ~images ~m ->
      let p = Process.spawn_init m ~image:"cc" in
      (* touch the whole text once *)
      ignore (Process.read p ~addr:Process.text_base ~len:(4 * ps));
      let reads_after_first = Image.mapper_reads images in
      for _ = 1 to 5 do
        Process.exec m p ~image:"cc";
        ignore (Process.read p ~addr:Process.text_base ~len:(4 * ps))
      done;
      Alcotest.(check int)
        "no further file reads thanks to segment caching" reads_after_first
        (Image.mapper_reads images))

(* Steady-state pull-ins of an image copy the file mapper's store
   straight into the frame: no page-sized buffer per pull-in reaches
   the major heap.  32 text pages cycle through 8 frames, so every
   read of a sweep is a pull-in. *)
let test_pull_in_allocates_no_page () =
  with_mix ~frames:8 (fun ~site ~images ~m:_ ->
      let pages = 32 in
      let image =
        Image.add_image images ~name:"big" ~text:(Bytes.make (pages * ps) 'T')
          ~data:(Bytes.make ps 'D') ()
      in
      let actor = Nucleus.Actor.create site in
      let _ =
        Nucleus.Actor.rgn_map actor ~addr:0 ~size:(pages * ps)
          ~prot:Hw.Prot.read_only image.Image.text_cap ~offset:0
      in
      let sweep () =
        for i = 0 to pages - 1 do
          if Bytes.get (Nucleus.Actor.read actor ~addr:(i * ps) ~len:1) 0 <> 'T'
          then Alcotest.failf "page %d: wrong byte" i
        done
      in
      let pull_ins () = (Core.Pvm.stats site.Nucleus.Site.pvm).n_pull_ins in
      sweep ();
      sweep ();
      let pulled = pull_ins () in
      let _, _, major = Gc.counters () in
      for _ = 1 to 10 do
        sweep ()
      done;
      let _, _, major' = Gc.counters () in
      let n = pull_ins () - pulled in
      Alcotest.(check int) "every read pulls in" (10 * pages) n;
      let page_words = (ps / (Sys.word_size / 8)) + 1 in
      let per_pull_in = (major' -. major) /. float n in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f major words per pull-in, under a page's %d"
           per_pull_in page_words)
        true
        (per_pull_in < float page_words);
      Nucleus.Actor.destroy actor)

(* Shell-like pattern: fork, child execs and exits, repeatedly.  This
   is the §4.2.5 scenario where Mach's shadow chains need GC; history
   trees keep the parent's structure flat. *)
let test_shell_pattern () =
  with_mix (fun ~site ~images:_ ~m ->
      let shell = Process.spawn_init m ~image:"sh" in
      Process.write shell ~addr:Process.data_base
        (Bytes.of_string "shell-state-0");
      for i = 1 to 8 do
        let child = Process.fork m shell in
        Process.exec m child ~image:"cc";
        Process.write child ~addr:Process.data_base (Bytes.make 64 'x');
        Process.exit_ m child ~status:0;
        ignore (Process.wait m shell);
        (* the shell keeps mutating its own data *)
        Process.write shell ~addr:Process.data_base
          (Bytes.of_string (Printf.sprintf "shell-state-%d" i))
      done;
      Alcotest.(check string) "shell state correct after 8 children"
        "shell-state-8"
        (Bytes.to_string (Process.read shell ~addr:Process.data_base ~len:13));
      Check.Sanitizer.assert_ok ~label:"history invariants hold"
        site.Nucleus.Site.pvm)

(* Unix sbrk: heap growth, inheritance across fork, reset on exec. *)
let test_sbrk () =
  with_mix (fun ~site:_ ~images:_ ~m ->
      let p = Process.spawn_init m ~image:"sh" in
      let brk0 = Process.brk p in
      let old = Process.sbrk m p (3 * ps) in
      Alcotest.(check int) "sbrk returns old break" brk0 old;
      Alcotest.(check int) "break advanced" (brk0 + (3 * ps)) (Process.brk p);
      Process.write p ~addr:old (Bytes.of_string "heap!");
      Alcotest.(check string) "heap usable" "heap!"
        (Bytes.to_string (Process.read p ~addr:old ~len:5));
      (* unaligned growth rounds up *)
      let old2 = Process.sbrk m p 100 in
      Alcotest.(check int) "rounded to a page" (old2 + ps) (Process.brk p);
      (* fork copies the heap *)
      Process.write p ~addr:old (Bytes.of_string "PARNT");
      let child = Process.fork m p in
      Alcotest.(check int) "child inherits break" (Process.brk p)
        (Process.brk child);
      Alcotest.(check string) "child sees heap" "PARNT"
        (Bytes.to_string (Process.read child ~addr:old ~len:5));
      Process.write child ~addr:old (Bytes.of_string "CHILD");
      Alcotest.(check string) "heap is COW" "PARNT"
        (Bytes.to_string (Process.read p ~addr:old ~len:5));
      (* exec resets the break *)
      Process.exec m p ~image:"cc";
      Alcotest.(check int) "exec resets break" brk0 (Process.brk p);
      Alcotest.check_raises "old heap unmapped after exec"
        (Core.Gmi.Segmentation_fault old) (fun () ->
          ignore (Process.read p ~addr:old ~len:1)))

let test_pipe () =
  with_mix (fun ~site:_ ~images:_ ~m ->
      let producer = Process.spawn_init m ~image:"sh" in
      let consumer = Process.fork m producer in
      let pipe = Pipe.create m in
      Process.write producer ~addr:Process.bss_base
        (Bytes.of_string "pipe payload!");
      Pipe.write m producer pipe ~addr:Process.bss_base ~len:13;
      Alcotest.(check int) "one message queued" 1 (Pipe.pending pipe);
      let len = Pipe.read m consumer pipe ~addr:Process.bss_base in
      Alcotest.(check int) "length preserved" 13 len;
      Alcotest.(check string) "payload transported" "pipe payload!"
        (Bytes.to_string (Process.read consumer ~addr:Process.bss_base ~len:13)))

let test_pipe_large_write_splits () =
  with_mix (fun ~site:_ ~images:_ ~m ->
      let producer = Process.spawn_init m ~image:"sh" in
      let consumer = Process.fork m producer in
      let pipe = Pipe.create m in
      (* 20 pages > 64 KB: must split into 3 messages *)
      let total = 20 * ps in
      let big =
        Bytes.init total (fun i -> Char.chr (65 + (i / ps mod 26)))
      in
      (* enlarge bss for the payload *)
      let mapping =
        Nucleus.Actor.rgn_allocate (Process.actor producer)
          ~addr:0x3000_0000 ~size:total ~prot:Hw.Prot.read_write
      in
      ignore mapping;
      let sink =
        Nucleus.Actor.rgn_allocate (Process.actor consumer)
          ~addr:0x3000_0000 ~size:total ~prot:Hw.Prot.read_write
      in
      ignore sink;
      Process.write producer ~addr:0x3000_0000 big;
      Pipe.write m producer pipe ~addr:0x3000_0000 ~len:total;
      Alcotest.(check int) "three messages" 3 (Pipe.pending pipe);
      let received = ref 0 in
      while Pipe.pending pipe > 0 do
        received :=
          !received
          + Pipe.read m consumer pipe ~addr:(0x3000_0000 + !received)
      done;
      Alcotest.(check int) "all bytes received" total !received;
      Alcotest.(check bytes) "payload identical" big
        (Process.read consumer ~addr:0x3000_0000 ~len:total))

let tests = ("mix",
        [
          Alcotest.test_case "exec layout" `Quick test_exec_layout;
          Alcotest.test_case "data writes private" `Quick
            test_data_writes_private;
          Alcotest.test_case "fork COW" `Quick test_fork_cow;
          Alcotest.test_case "fork shares text" `Quick test_fork_shares_text;
          Alcotest.test_case "fork/exit/wait" `Quick test_fork_exit_wait;
          Alcotest.test_case "parent exits first" `Quick
            test_parent_exits_first;
          Alcotest.test_case "exec replaces image" `Quick
            test_exec_replaces_image;
          Alcotest.test_case "segment caching on exec" `Quick
            test_segment_caching_on_exec;
          Alcotest.test_case "pull-in allocates no page" `Quick
            test_pull_in_allocates_no_page;
          Alcotest.test_case "shell pattern" `Quick test_shell_pattern;
          Alcotest.test_case "sbrk" `Quick test_sbrk;
          Alcotest.test_case "pipe" `Quick test_pipe;
          Alcotest.test_case "pipe large write splits" `Quick
            test_pipe_large_write_splits;
        ] )
