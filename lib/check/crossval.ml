(* Oracle-twin cross-validation (see crossval.mli).

   The driver is deliberately dumb: build the workload twice from
   scratch — once per engine — and compare the observable digests.
   Nothing is shared between the two runs, so a mismatch can only come
   from the engines executing the same program differently. *)

type scenario = {
  name : string;
  run : Hw.Engine.t -> Core.Types.pvm list;
}

type outcome = {
  o_name : string;
  o_seq : string;
  o_par : string;
  o_domains : int;
  o_ok : bool;
}

(* The contended fault workload.  Every worker owns its context and a
   private anonymous cache, so the racing traffic (zero-fill faults,
   frame allocation, map installs, pmap entries on the shared cache)
   exercises every parallel seam while the final state stays a pure
   function of the parameters. *)
let storm ?(workers = 8) ?(pages = 16) ?(rounds = 4) ?shards () =
  let name = "storm" in
  let run engine =
    let ps = 8192 in
    (* every private page + the shared pages resident at once, with
       slack: the workload measures fault throughput, not eviction *)
    let frames = (workers * pages) + pages + 16 in
    let pvm = Core.Pvm.create ?shards ~frames ~engine () in
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
      Array.init workers (fun w ->
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
          ignore w;
          ctx)
    in
    for w = 0 to workers - 1 do
      Hw.Engine.spawn engine
        ~name:(Printf.sprintf "storm-%d" w)
        ~affinity:(w + 1)
        (fun () ->
          let ctx = ctxs.(w) in
          for r = 0 to rounds - 1 do
            for i = 0 to pages - 1 do
              (* worker-skewed page order: workers meet on the frame
                 pool and the shard locks at staggered offsets *)
              let p = (i + w + r) mod pages in
              Core.Pvm.write pvm ctx ~addr:(p * ps)
                (Bytes.make 16 (Char.chr (((w * 31) + p) land 0xff)));
              ignore
                (Core.Pvm.read pvm ctx
                   ~addr:(shared_base + (p * ps))
                   ~len:8)
            done
          done)
    done;
    [ pvm ]
  in
  { name; run }

let storm_faults ~workers ~pages = workers * pages

let run_on ?(domains = 0) (s : scenario) =
  let engine = Hw.Engine.create ~domains () in
  let pvms = Hw.Engine.run_fn engine (fun () -> s.run engine) in
  String.concat "+" (List.map Core.Inspect.digest pvms)

let run_pair ?(domains = 4) (s : scenario) =
  let o_seq = run_on ~domains:0 s in
  let o_par = run_on ~domains s in
  {
    o_name = s.name;
    o_seq;
    o_par;
    o_domains = domains;
    o_ok = String.equal o_seq o_par;
  }

let pp_outcome ppf (o : outcome) =
  if o.o_ok then
    Format.fprintf ppf "%-10s OK    digest %s (sequential = %d domains)"
      o.o_name o.o_seq o.o_domains
  else
    Format.fprintf ppf
      "%-10s FAIL  sequential %s, %d domains %s — the parallel engine \
       diverged from the oracle"
      o.o_name o.o_seq o.o_domains o.o_par
