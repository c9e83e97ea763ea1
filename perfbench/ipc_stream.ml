(* ipc: a producer actor streams messages to a consumer actor through
   the transit segment on the sequential engine, with 4 slots bounding
   how many are in flight.

   The messages are a seeded mix.  Page-aligned 8-page messages use
   per-virtual-page stubs on send and frame reassignment or stub
   retargeting on receive; the producer then rewrites the buffers it
   sent from, so its writes fault on pages that deferred copies still
   read.  Sub-page messages at unaligned offsets take the eager bcopy
   path.  The consumer checks every message through its mapped address
   space (sampled bytes per page).  Per-page stubs, cache.move, the
   transit segment, ports and engine park/resume dominate; history
   objects, the pager, the pool and the shards do nothing.  An op is
   one delivered message; its latency runs from the producer starting
   to write it to the consumer having checked it.

   Sub-page messages are received at addresses no aligned message ever
   used.  Receiving one where an aligned message was received and read
   returns stale bytes through the mapping ([reuse_addr] reproduces
   this; the benchmark's tests count it). *)

let ps = 8192
let msg_pages = 8
let slots = 4

type size = { messages : int }

let full = { messages = 1024 }
let quick = { messages = 32 }

type msg =
  | Aligned  (** 8 pages from a page-aligned buffer slot *)
  | Sub of { off : int; len : int; recv_off : int }
      (** [len] bytes at unaligned offsets on both sides *)

let sub st =
  let len = 16 + Random.State.int st 2000 in
  let off = 1 + Random.State.int st (ps - len - 1) in
  let recv_off = 1 + Random.State.int st (ps - len - 1) in
  Sub { off; len; recv_off }

(* Messages come in bursts of [burst] of one kind, a third of the bursts
   aligned.  A message waits behind the ones in flight, so with the
   kinds interleaved its latency would depend on its neighbours' kinds
   and the median would fall between modes, where it jumps from run to
   run; in bursts each kind has one mode, and the median sits in the
   sub-page one. *)
let burst = 16

let plan st n =
  let aligned = ref false in
  Array.init n (fun i ->
      if i mod burst = 0 then aligned := Random.State.int st 3 = 0;
      if !aligned then Aligned else sub st)

(* Address-space layout of both actors. *)
let prod_aligned = 0 (* [slots] buffers of [msg_pages] pages *)
let prod_sub = 64 * ps
let cons_aligned = 0
let cons_sub = 64 * ps

let msg_tag i page = 2_000_000 + (i * 16) + page

let round ?(size = full) ?(reuse_addr = false) ~seed ~round:r () =
  let start = Span.now_ns () in
  let st = Random.State.make [| seed; 3; r |] in
  let plan = plan st size.messages in
  let lat = Array.make size.messages max_int in
  let ok = Array.make size.messages true in
  let t_start = Array.make size.messages 0 in
  let op_span = Array.make size.messages (-1) in
  let eng = Hw.Engine.create () in
  let phase = ref None and the_pvm = ref None in
  Hw.Engine.run eng (fun () ->
      let site = Nucleus.Site.create ~frames:256 ~engine:eng () in
      let pvm = site.Nucleus.Site.pvm in
      the_pvm := Some pvm;
      let transit = Nucleus.Transit.create site ~slots () in
      let producer = Nucleus.Actor.create site in
      let consumer = Nucleus.Actor.create site in
      List.iter
        (fun a ->
          ignore
            (Nucleus.Actor.rgn_allocate a ~addr:0 ~size:(65 * ps)
               ~prot:Hw.Prot.read_write))
        [ producer; consumer ];
      let endpoint = Nucleus.Ipc.make_endpoint ~name:"stream" () in
      let before = Array.make Counters.n_kinds 0
      and after = Array.make Counters.n_kinds 0 in
      let access ~op name f =
        let h = Span.start eng ~name ~op ~parent:op_span.(op) in
        if h >= 0 then Counters.read_kinds pvm before;
        let v = f () in
        if h >= 0 then begin
          Counters.read_kinds pvm after;
          Span.stop_kind eng h (Counters.classify before after)
        end;
        v
      in
      phase := Some (Round.begin_timed pvm);
      Nucleus.Actor.spawn_thread producer ~name:"producer" (fun () ->
          Array.iteri
            (fun i msg ->
              t_start.(i) <- Span.now_ns ();
              op_span.(i) <- Span.start eng ~name:Span.op ~op:i ~parent:(-1);
              let addr, len =
                match msg with
                | Aligned ->
                  let base = prod_aligned + (i mod slots * msg_pages * ps) in
                  for p = 0 to msg_pages - 1 do
                    let tag = msg_tag i p in
                    access ~op:i Span.nucleus_write (fun () ->
                        Nucleus.Actor.write producer ~addr:(base + (p * ps))
                          (Bytes.init 16 (fun k -> Round.pattern ~tag k)))
                  done;
                  (base, msg_pages * ps)
                | Sub { off; len; _ } ->
                  let tag = msg_tag i 0 in
                  access ~op:i Span.nucleus_write (fun () ->
                      Nucleus.Actor.write producer ~addr:(prod_sub + off)
                        (Bytes.init len (fun k -> Round.pattern ~tag k)));
                  (prod_sub + off, len)
              in
              let h =
                Span.start eng ~name:Span.nucleus_send ~op:i ~parent:op_span.(i)
              in
              Nucleus.Ipc.send producer transit ~dst:endpoint ~addr ~len;
              Span.stop eng h)
            plan);
      Nucleus.Actor.spawn_thread consumer ~name:"consumer" (fun () ->
          Array.iteri
            (fun i msg ->
              let addr =
                match msg with
                | Aligned -> cons_aligned
                | Sub { recv_off; _ } ->
                  (if reuse_addr then cons_aligned else cons_sub) + recv_off
              in
              (* a receive waits for its message before the message's op
                 span opens, so it is a top-level span *)
              let h = Span.start eng ~name:Span.nucleus_receive ~op:i ~parent:(-1) in
              let len = Nucleus.Ipc.receive consumer transit endpoint ~addr in
              Span.stop eng h;
              let read ~addr ~len =
                access ~op:i Span.nucleus_read (fun () ->
                    Nucleus.Actor.read consumer ~addr ~len)
              in
              let good =
                Round.guarded (fun () ->
                    match msg with
                    | Aligned ->
                      len = msg_pages * ps
                      && List.for_all
                           (fun p ->
                             Round.bytes_ok ~tag:(msg_tag i p) ~from:0
                               (read ~addr:(addr + (p * ps)) ~len:16))
                           (List.init msg_pages Fun.id)
                    | Sub { len = want; _ } ->
                      let tag = msg_tag i 0 in
                      len = want
                      && Round.bytes_ok ~tag ~from:0 (read ~addr ~len:8)
                      && Round.bytes_ok ~tag ~from:(want - 8)
                           (read ~addr:(addr + want - 8) ~len:8))
              in
              Span.stop eng op_span.(i);
              if good then lat.(i) <- Span.now_ns () - t_start.(i)
              else ok.(i) <- false)
            plan));
  let pvm = Option.get !the_pvm in
  let failed = Array.fold_left (fun n good -> if good then n else n + 1) 0 ok in
  Round.end_timed ~start (Option.get !phase) pvm ~lat ~failed
