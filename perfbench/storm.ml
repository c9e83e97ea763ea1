(* The storm: contended fault throughput on the domain-parallel engine.

   Sixteen worker fibres, each in its own affinity class, fault once
   through every page of a private anonymous region (demand zero-fill)
   and take one borrowing read fault on every page of their own
   copy-on-write copy of a shared read-only cache, in a seeded
   per-worker page order.  The frame pool holds everything, so nothing
   is evicted: the pool hand-off, the mm-lock, the shard locks, frame
   allocation and the zero-fill path do the work, while history
   objects, the pager and IPC do none.

   An op is one faulting access.  The final state does not depend on
   the page orders, so every round must digest equal to the same
   workload run on the sequential engine (the oracle twin). *)

let workers = 16
let shared_base = 1 lsl 30

type size = { pages : int (* per worker, and pages of the shared cache *) }

let full = { pages = 256 }
let quick = { pages = 16 }

let shared_tag p = 1000 + p
let private_tag w p = (w * 4096) + p

let zero_fill = Counters.kind_index "zero_fill"
let borrow = Counters.kind_index "borrow"

let round ?(domains = 2) size ~seed ~round:r () =
  let start = Span.now_ns () in
  let pages = size.pages in
  let st = Random.State.make [| seed; 1; r |] in
  let orders =
    Array.init workers (fun _ ->
        let priv = Round.permutation st pages in
        (priv, Round.permutation st pages))
  in
  let n_ops = workers * 2 * pages in
  let lat = Array.make n_ops 0 in
  let failed = Array.make workers 0 in
  let eng =
    if domains = 0 then Hw.Engine.create () else Hw.Engine.create ~domains ()
  in
  let phase = ref None and the_pvm = ref None in
  Hw.Engine.run eng (fun () ->
      let ps = 8192 in
      let frames = (workers * pages) + pages + 16 in
      let pvm = Core.Pvm.create ~frames ~engine:eng () in
      the_pvm := Some pvm;
      let shared = Core.Cache.create pvm () in
      let setup_ctx = Core.Context.create pvm in
      let setup =
        Core.Region.create pvm setup_ctx ~addr:0 ~size:(pages * ps)
          ~prot:Hw.Prot.read_write shared ~offset:0
      in
      for p = 0 to pages - 1 do
        let tag = shared_tag p in
        Core.Pvm.write pvm setup_ctx ~addr:(p * ps)
          (Bytes.init 64 (fun i -> Round.pattern ~tag i))
      done;
      Core.Region.destroy pvm setup;
      let ctxs =
        Array.init workers (fun _ ->
            let ctx = Core.Context.create pvm in
            let own = Core.Cache.create pvm () in
            ignore
              (Core.Region.create pvm ctx ~addr:0 ~size:(pages * ps)
                 ~prot:Hw.Prot.read_write own ~offset:0);
            let view = Core.Cache.create pvm () in
            Core.Cache.copy pvm ~src:shared ~src_off:0 ~dst:view ~dst_off:0
              ~size:(pages * ps) ();
            ignore
              (Core.Region.create pvm ctx ~addr:shared_base ~size:(pages * ps)
                 ~prot:Hw.Prot.read_only view ~offset:0);
            ctx)
      in
      let bufs = Array.init workers (fun _ -> Bytes.create 16) in
      phase := Some (Round.begin_timed pvm);
      for w = 0 to workers - 1 do
        Hw.Engine.spawn eng ~name:(Printf.sprintf "storm-%d" w) ~affinity:(w + 1)
          (fun () ->
            let ctx = ctxs.(w) and buf = bufs.(w) in
            let priv, shar = orders.(w) in
            let before = Array.make Counters.n_kinds 0
            and after = Array.make Counters.n_kinds 0 in
            (* On the pool other workers fault concurrently, so a call's
               kind is its expected one; the round checks the totals. *)
            let kind expected =
              if domains > 0 then expected
              else begin
                Counters.read_kinds pvm after;
                Counters.classify before after
              end
            in
            let access ~op ~name f expected =
              let t0 = Span.now_ns () in
              let sp = Span.start eng ~name:Span.op ~op ~parent:(-1) in
              let c = Span.start eng ~name ~op ~parent:sp in
              if c >= 0 && domains = 0 then Counters.read_kinds pvm before;
              let ok = Round.guarded f in
              if c >= 0 then Span.stop_kind eng c (kind expected);
              Span.stop eng sp;
              if ok then lat.(op) <- Span.now_ns () - t0
              else begin
                lat.(op) <- max_int;
                failed.(w) <- failed.(w) + 1
              end
            in
            for i = 0 to pages - 1 do
              let p = priv.(i) and q = shar.(i) in
              let op = (w * 2 * pages) + (2 * i) in
              let tag = private_tag w p in
              for k = 0 to 15 do
                Bytes.unsafe_set buf k (Round.pattern ~tag k)
              done;
              access ~op ~name:Span.core_write
                (fun () ->
                  Core.Pvm.write pvm ctx ~addr:(p * ps) buf;
                  true)
                zero_fill;
              (* sampled check of the page just written, through the
                 mapping: not part of the op's latency *)
              if
                not
                  (Round.guarded (fun () ->
                       Round.bytes_ok ~tag ~from:0
                         (Core.Pvm.read pvm ctx ~addr:(p * ps) ~len:16)))
              then begin
                if lat.(op) <> max_int then failed.(w) <- failed.(w) + 1;
                lat.(op) <- max_int
              end;
              let off = (q * 7) land 31 in
              access ~op:(op + 1) ~name:Span.core_read
                (fun () ->
                  Round.bytes_ok ~tag:(shared_tag q) ~from:off
                    (Core.Pvm.read pvm ctx
                       ~addr:(shared_base + (q * ps) + off)
                       ~len:8))
                borrow
            done)
      done);
  let pvm = Option.get !the_pvm in
  let res =
    Round.end_timed ~start (Option.get !phase) pvm ~lat
      ~failed:(Array.fold_left ( + ) 0 failed)
  in
  (* every op faulted exactly once, by the expected path *)
  let d = res.m.counters in
  let expect = workers * pages in
  if d.(zero_fill) <> expect || d.(borrow) <> expect then begin
    Printf.eprintf "storm: round %d resolved %d zero-fill and %d borrow \
                    faults, expected %d each\n%!" r d.(zero_fill) d.(borrow) expect;
    { res with m = { res.m with failed = Round.attempted res.m } }
  end
  else res
