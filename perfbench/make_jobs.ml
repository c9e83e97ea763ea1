(* make: a [make -j2] process running batches of compile jobs on the
   sequential engine, with a frame pool smaller than the working set.

   A job is one op: make forks a child, which execs [cc], reads a seeded
   share of its text (pulled in from the file segment, then served from
   the segment cache), dirties a seeded number of data pages (history
   copy-on-write) and sbrk heap pages (zero-fill), pipes an object back
   to make through [Mix.Pipe] and exits; make checks the object and
   reaps the child.  History objects, copy faults, pull-in/push-out and
   reclaim dominate, while the pool and the shard locks are never
   contended.  A job's latency runs from its fork to its reaping. *)

let ps = 8192
let text_pages = 48
let data_pages = 8
let max_heap_pages = 6
let max_obj_pages = 2

type size = { jobs : int; frames : int }

let full = { jobs = 128; frames = 64 }
let quick = { jobs = 8; frames = 64 }

type job = {
  text : int array;  (** text pages read, in order *)
  dirty : int array;  (** data pages written *)
  heap : int;  (** sbrk'd pages, each written *)
  obj : int;  (** object pages piped to make, <= heap *)
  sample : int;  (** in-page offset of the sampled bytes *)
}

let gen st =
  let text = Round.permutation st text_pages in
  let n_text = 8 + Random.State.int st (text_pages - 7) in
  let dirty = Round.permutation st data_pages in
  let n_dirty = 1 + Random.State.int st data_pages in
  let heap = 1 + Random.State.int st max_heap_pages in
  {
    text = Array.sub text 0 n_text;
    dirty = Array.sub dirty 0 n_dirty;
    heap;
    obj = 1 + Random.State.int st (min heap max_obj_pages);
    sample = 16 + Random.State.int st (ps - 48);
  }

(* Image contents: text page k carries tag [100 + k], data page j tag
   [200 + j]; a job stamps what it writes with its own tag. *)
let text_tag k = 100 + k
let data_tag j = 200 + j
let job_tag ~job page = 1_000_000 + (job * 64) + page

let image_bytes pages tag =
  Bytes.init (pages * ps) (fun i -> Round.pattern ~tag:(tag (i / ps)) (i mod ps))

let stamp ~job page = Bytes.init 16 (fun i -> Round.pattern ~tag:(job_tag ~job page) i)

let round ?(size = full) ~seed ~round:r () =
  let start = Span.now_ns () in
  let st = Random.State.make [| seed; 2; r |] in
  let jobs = Array.init size.jobs (fun _ -> gen st) in
  let lat = Array.make size.jobs max_int in
  let ok = Array.make size.jobs true in
  let eng = Hw.Engine.create () in
  let phase = ref None and the_pvm = ref None in
  let t_fork = Array.make size.jobs 0 in
  let op_span = Array.make size.jobs (-1) in
  Hw.Engine.run eng (fun () ->
      let site = Nucleus.Site.create ~frames:size.frames ~engine:eng () in
      let pvm = site.Nucleus.Site.pvm in
      the_pvm := Some pvm;
      let images = Mix.Image.create_store site in
      ignore
        (Mix.Image.add_image images ~name:"make"
           ~text:(Bytes.make (4 * ps) 'M') ~data:(Bytes.make ps 'm') ());
      ignore
        (Mix.Image.add_image images ~name:"cc"
           ~text:(image_bytes text_pages text_tag)
           ~data:(image_bytes data_pages data_tag) ());
      let m = Mix.Process.create_manager site images in
      let make = Mix.Process.spawn_init m ~image:"make" in
      (* Each object lands in a fresh inbox region, freed once the batch
         is reaped: receiving over pages make has already read can
         return stale bytes through a surviving borrowed mapping (see
         Ipc_stream), and make's forks must not copy old inboxes. *)
      let inbox_base = Mix.Process.sbrk m make 0 in
      let make_actor = Mix.Process.actor make in
      let inbox k =
        let addr = inbox_base + (k * max_obj_pages * ps) in
        ( addr,
          Nucleus.Actor.rgn_allocate make_actor ~addr
            ~size:(max_obj_pages * ps) ~prot:Hw.Prot.read_write )
      in
      let pipe = Mix.Pipe.create m in
      let exited : int Nucleus.Port.t = Nucleus.Port.create () in
      let pids = Hashtbl.create 16 in
      (* The benchmark's span around one call into a layer. *)
      let call ~job name f =
        let h = Span.start eng ~name ~op:job ~parent:op_span.(job) in
        let v = f () in
        Span.stop eng h;
        v
      in
      let classified = Array.make Counters.n_kinds 0
      and after = Array.make Counters.n_kinds 0 in
      (* A mapped access: its span is classified by the resolution
         counters it moved (exact here: the engine is sequential). *)
      let access ~job ~parent name f =
        let h = Span.start eng ~name ~op:job ~parent in
        if h >= 0 then Counters.read_kinds pvm classified;
        let v = f () in
        if h >= 0 then begin
          Counters.read_kinds pvm after;
          Span.stop_kind eng h (Counters.classify classified after)
        end;
        v
      in
      let compile job child =
        let j = jobs.(job) in
        let parent = Span.start eng ~name:Span.mix_compile ~op:job ~parent:op_span.(job) in
        let good = ref true in
        let check b = if not b then good := false in
        Array.iter
          (fun k ->
            let b =
              access ~job ~parent Span.mix_read (fun () ->
                  Mix.Process.read child
                    ~addr:(Mix.Process.text_base + (k * ps) + j.sample)
                    ~len:8)
            in
            check (Round.bytes_ok b ~tag:(text_tag k) ~from:j.sample))
          j.text;
        Array.iter
          (fun d ->
            let addr = Mix.Process.data_base + (d * ps) in
            access ~job ~parent Span.mix_write (fun () ->
                Mix.Process.write child ~addr (stamp ~job d));
            let b = Mix.Process.read child ~addr ~len:16 in
            check (Round.bytes_ok b ~tag:(job_tag ~job d) ~from:0);
            (* the rest of the page is still the image's *)
            let b = Mix.Process.read child ~addr:(addr + j.sample) ~len:8 in
            check (Round.bytes_ok b ~tag:(data_tag d) ~from:j.sample))
          j.dirty;
        let heap =
          access ~job ~parent Span.mix_sbrk (fun () ->
              Mix.Process.sbrk m child (j.heap * ps))
        in
        for h = 0 to j.heap - 1 do
          let addr = heap + (h * ps) in
          access ~job ~parent Span.mix_write (fun () ->
              Mix.Process.write child ~addr (stamp ~job (32 + h)));
          check
            (Round.bytes_ok ~tag:(job_tag ~job (32 + h)) ~from:0
               (Mix.Process.read child ~addr ~len:16))
        done;
        Span.stop eng parent;
        (heap, !good)
      in
      let child_body job child () =
        let heap =
          match
            call ~job Span.mix_exec (fun () ->
                Mix.Process.exec m child ~image:"cc");
            compile job child
          with
          | heap, good ->
            if not good then ok.(job) <- false;
            Some heap
          | exception _ ->
            ok.(job) <- false;
            None
        in
        (match heap with
        | Some heap ->
          call ~job Span.mix_pipe (fun () ->
              Mix.Pipe.write m child pipe ~addr:heap ~len:(jobs.(job).obj * ps))
        | None ->
          (* still deliver something, so make is not left waiting *)
          Mix.Pipe.write m child pipe ~addr:Mix.Process.stack_base ~len:16);
        call ~job Span.mix_exit_wait (fun () ->
            Mix.Process.exit_ m child ~status:0);
        Nucleus.Port.send exited job
      in
      (* make's side: whether the object in [inbox] is [job]'s, checked
         through make's mapping, sampled per page *)
      let is_object_of ~inbox ~len job =
        len = jobs.(job).obj * ps
        && List.for_all
             (fun h ->
               Round.bytes_ok ~tag:(job_tag ~job (32 + h)) ~from:0
                 (Mix.Process.read make ~addr:(inbox + (h * ps)) ~len:16))
             (List.init jobs.(job).obj Fun.id)
      in
      phase := Some (Round.begin_timed pvm);
      let batch = ref 0 in
      while !batch < size.jobs do
        let here = List.init (min 2 (size.jobs - !batch)) (fun i -> !batch + i) in
        List.iter
          (fun job ->
            t_fork.(job) <- Span.now_ns ();
            op_span.(job) <- Span.start eng ~name:Span.op ~op:job ~parent:(-1);
            let child = call ~job Span.mix_fork (fun () -> Mix.Process.fork m make) in
            Hashtbl.replace pids (Mix.Process.pid child) job;
            Hw.Engine.spawn eng ~name:(Printf.sprintf "cc-%d" job)
              (child_body job child))
          here;
        (* objects arrive in completion order; each must match one job
           of the batch that has not delivered yet *)
        let pending = ref here in
        let inboxes =
          List.mapi
            (fun k _ ->
              let inbox, rgn = inbox k in
              let h = Span.start eng ~name:Span.mix_pipe ~op:(-1) ~parent:(-1) in
              let len = Mix.Pipe.read m make pipe ~addr:inbox in
              Span.stop eng h;
              (match List.find_opt (is_object_of ~inbox ~len) !pending with
              | Some job -> pending := List.filter (( <> ) job) !pending
              | None -> List.iter (fun job -> ok.(job) <- false) here);
              rgn)
            here
        in
        List.iter
          (fun _ ->
            ignore (Nucleus.Port.receive exited);
            let h =
              Span.start eng ~name:Span.mix_exit_wait ~op:(-1) ~parent:(-1)
            in
            let reaped = Mix.Process.wait m make in
            Span.stop eng h;
            match reaped with
            | Some (child, 0) ->
              let job = Hashtbl.find pids (Mix.Process.pid child) in
              Span.stop eng op_span.(job);
              if ok.(job) then lat.(job) <- Span.now_ns () - t_fork.(job)
            | _ -> List.iter (fun job -> ok.(job) <- false) here)
          here;
        List.iter (Nucleus.Actor.rgn_free make_actor) inboxes;
        batch := !batch + List.length here
      done);
  let pvm = Option.get !the_pvm in
  let failed = Array.fold_left (fun n good -> if good then n else n + 1) 0 ok in
  Array.iteri (fun i good -> if not good then lat.(i) <- max_int) ok;
  Round.end_timed ~start (Option.get !phase) pvm ~lat ~failed
