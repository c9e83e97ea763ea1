(* The benchmark runner: run rounds of one workload for a fixed host
   time, check them, and turn them into the end-to-end metrics (untraced
   runs) or the per-layer metrics (traced runs). *)

type workload = Storm | Make | Ipc

let workload_of_string = function
  | "storm" -> Some Storm
  | "make" -> Some Make
  | "ipc" -> Some Ipc
  | _ -> None

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;  (** test-sized rounds *)
  reuse_addr : bool;  (** ipc: reproduce the stale-borrow failure *)
}

let run_round o ~round ~oracle =
  match o.workload with
  | Storm ->
    Storm.round
      ~domains:(if oracle then 0 else 2)
      (if o.quick then Storm.quick else Storm.full)
      ~seed:o.seed ~round ()
  | Make ->
    Make_jobs.round
      ~size:(if o.quick then Make_jobs.quick else Make_jobs.full)
      ~seed:o.seed ~round ()
  | Ipc ->
    Ipc_stream.round
      ~size:(if o.quick then Ipc_stream.quick else Ipc_stream.full)
      ~reuse_addr:o.reuse_addr ~seed:o.seed ~round ()

(* Latency samples of the whole run, kept off the OCaml heap so that
   the run's own record of them does not grow its [heap_peak_mb]. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int c_layout 65536; n = 0 }

  (* Append, returning the offset of the first appended sample. *)
  let append t src =
    let len = Array.length src in
    if t.n + len > Array1.dim t.a then begin
      let a = Array1.create int c_layout (2 * (t.n + len)) in
      Array1.blit (Array1.sub t.a 0 t.n) (Array1.sub a 0 t.n);
      t.a <- a
    end;
    Array.iteri (fun i v -> t.a.{t.n + i} <- v) src;
    t.n <- t.n + len;
    t.n - len

  let get t i = t.a.{i}
end

(* A timed round as the run keeps it: its measurements (latencies moved
   to the samples store), whether it was traced, and the host's speed
   just before it ({!Calib}). *)
type kept = {
  m : Round.measure;  (** with [lat] emptied *)
  ops : int;
  lat_at : int;  (** offset of its [ops] latencies in the store *)
  traced : bool;
  calib_ns : int;
}

type result = {
  rounds : kept list;  (** timed rounds, oldest first *)
  samples : Samples.t;
  attempted : int;
  failed : int;
  layers : Layers.t;
  fingerprints : string list;  (** simulated statistics of each check *)
  last_spans : Span.span array;  (** the last traced round's spans *)
}

let complain fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The simulated statistics that must repeat exactly for one input. *)
let fingerprint (r : Round.t) = Counters.fingerprint r.m.counters ~sim_ns:r.m.sim_ns

(* Post-round checks, outside the timed phase: the sanitizer must be
   clean, and the round must agree with its reference — for the storm
   the oracle twin's digest, elsewhere the simulated statistics of the
   same input.  Returns the number of ops the checks fail. *)
let check o ~label (r : Round.t) ~reference =
  let bad = ref false in
  (match Check.Sanitizer.run ~strict:true r.pvm with
  | [] -> ()
  | v :: _ as vs ->
    complain "%s: sanitizer found %d violations, first: %s" label
      (List.length vs)
      (Format.asprintf "%a" Check.Sanitizer.pp_violation v);
    bad := true);
  (match reference with
  | None -> ()
  | Some want ->
    let got =
      if o.workload = Storm then Core.Inspect.digest r.pvm else fingerprint r
    in
    if got <> want then begin
      complain "%s: %s %s differs from the reference %s" label
        (if o.workload = Storm then "digest" else "simulated statistics")
        got want;
      bad := true
    end);
  if !bad then Round.attempted r.m - r.m.failed else 0

let median_f l =
  match List.sort compare l with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

let set_tracing on =
  Span.enabled := on;
  if on then Obs.Lockstat.enable_timing ~clock:Span.now_ns
  else Obs.Lockstat.disable_timing ()

let run o =
  let deadline = Span.now_ns () + int_of_float (o.seconds *. 1e9) in
  (* Untimed warm-up on the first round's inputs: the first round in a
     process pays for heap growth.  For the storm it runs on the
     sequential engine and is the oracle twin every round must digest
     equal to; elsewhere its simulated statistics are the reference the
     first timed round must reproduce. *)
  let warm = run_round o ~round:0 ~oracle:true in
  let warm_bad = check o ~label:"warm-up" warm ~reference:None in
  let reference =
    if o.workload = Storm then Core.Inspect.digest warm.pvm else fingerprint warm
  in
  let layers = Layers.create () and samples = Samples.create () in
  let rounds = ref [] and last = ref None in
  let extra_failed = ref warm_bad and last_spans = ref [||] in
  let fingerprints = ref [ fingerprint warm ] in
  let i = ref 0 in
  while !i < 2 || Span.now_ns () < deadline do
    let traced = o.trace && !i mod 2 = 1 in
    (* Every round starts from a collected heap, outside its timing:
       the previous round's frame pool (and the calibration's garbage)
       would otherwise decide how much GC work its set-up inherits. *)
    let calib_ns = Calib.measure () in
    Gc.full_major ();
    set_tracing traced;
    let r =
      match run_round o ~round:!i ~oracle:false with
      | r -> Some r
      | exception e ->
        set_tracing false;
        complain "round %d raised %s" !i (Printexc.to_string e);
        None
    in
    set_tracing false;
    (match r with
    | None -> extra_failed := !extra_failed + 1
    | Some r ->
      if traced then begin
        let spans, dropped = Span.drain () in
        last_spans := spans;
        Layers.add layers (spans, dropped)
      end;
      if !i = 0 then begin
        fingerprints := fingerprint r :: !fingerprints;
        let bad = check o ~label:"round 0" r ~reference:(Some reference) in
        extra_failed := !extra_failed + bad
      end;
      last := Some r;
      let lat_at = Samples.append samples r.m.lat in
      rounds :=
        { m = { r.m with lat = [||] }; ops = Round.attempted r.m; lat_at;
          traced; calib_ns }
        :: !rounds);
    incr i
  done;
  (* the last round is checked too (for the storm, against the oracle:
     its page orders differ, its final state may not) *)
  (match !last with
  | Some last when !i > 1 ->
    let reference = if o.workload = Storm then Some reference else None in
    extra_failed := !extra_failed + check o ~label:"last round" last ~reference
  | _ -> ());
  if layers.dropped > 0 then
    complain "%d spans did not fit their buffers; per-layer metrics miss them"
      layers.dropped;
  let rounds = List.rev !rounds in
  let attempted = List.fold_left (fun n k -> n + k.ops) 0 rounds in
  let failed = List.fold_left (fun n k -> n + k.m.failed) !extra_failed rounds in
  {
    rounds;
    samples;
    attempted = max attempted 1;
    failed = min failed (max attempted 1);
    layers;
    fingerprints = List.rev !fingerprints;
    last_spans = !last_spans;
  }

(* ---- metrics ---- *)

(* Verified ops per second of timed phase, over a set of rounds. *)
let ops_per_s ks =
  let ops, ns =
    List.fold_left
      (fun (ops, ns) k -> (ops + k.ops - k.m.failed, ns + k.m.wall_ns))
      (0, 0) ks
  in
  if ns = 0 then 0. else float_of_int ops /. (float_of_int ns /. 1e9)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Consecutive rounds split into [windows] groups of (nearly) equal
   count.  Host timings are scaled by how much slower than the reference
   the host ran in their window ({!Calib}). *)
let windows = 20

let split ks =
  let n = List.length ks in
  let k = min windows n in
  List.init k (fun w -> List.filteri (fun i _ -> i * k / n = w) ks)

let slowdown ks =
  median_f (List.map (fun k -> float_of_int k.calib_ns) ks)
  /. float_of_int Calib.reference_ns

(* The median over windows of [f]'s scaled per-window value: [f] gives
   a raw time ([scaled_time]) or a raw rate ([scaled_rate]). *)
let scaled_time f ks = median_f (List.map (fun w -> f w /. slowdown w) (split ks))
let scaled_rate f ks = median_f (List.map (fun w -> f w *. slowdown w) (split ks))

let end_to_end res =
  let heap = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) in
  let ks = List.filter (fun k -> not k.traced) res.rounds in
  (* every op's latency in us, scaled by its window's slowdown, so the
     quantiles are taken over all of the run's samples *)
  let lat =
    Array.concat
      (List.concat_map
         (fun w ->
           let s = slowdown w in
           List.map
             (fun k ->
               Array.init k.ops (fun i ->
                   let v = Samples.get res.samples (k.lat_at + i) in
                   if v = max_int then infinity else float_of_int v /. 1e3 /. s))
             w)
         (split ks))
  in
  Array.sort compare lat;
  let samples = Array.length lat in
  let q p = if samples = 0 then 0. else lat.(min (samples - 1) (int_of_float (p *. float_of_int samples))) in
  let words = List.fold_left (fun w k -> w +. Round.gc_words k.m.gc) 0. ks in
  ( [
      m "setup_s" "s"
        (scaled_time
           (fun w ->
             median_f (List.map (fun k -> float_of_int k.m.setup_ns /. 1e9) w))
           ks);
      m "ops_per_s" "op/s" (scaled_rate ops_per_s ks);
      m "op_p50_us" "us" (q 0.5);
      m "op_p99_us" "us" (q 0.99);
      m "alloc_words_per_op" "words" (words /. float_of_int (max 1 samples));
      m "heap_peak_mb" "MB" (float_of_int heap /. 1048576.);
      m "verified_ops_frac" "ratio"
        (float_of_int (res.attempted - res.failed) /. float_of_int res.attempted);
    ],
    samples )

let per_layer res =
  let traced_ks, plain_ks = List.partition (fun k -> k.traced) res.rounds in
  let traced = List.map (fun k -> k.m) traced_ks in
  let c = Array.make Counters.size 0 in
  List.iter (fun (r : Round.measure) -> Counters.add c r.counters) traced;
  let ops = float_of_int (max 1 (List.fold_left (fun n k -> n + k.ops) 0 traced_ks)) in
  let per_op v = float_of_int v /. ops in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let sum f = List.fold_left (fun n (r : Round.measure) -> n + f r) 0 traced in
  let wall = sum (fun r -> r.wall_ns) and sim = sum (fun r -> r.sim_ns) in
  let domains = List.fold_left (fun d (r : Round.measure) -> max d r.domains) 0 traced in
  let l = res.layers in
  (* host and simulated us of the calls the benchmark made *)
  let call_metrics prefix span =
    let d = l.Layers.by_name.(span) in
    [
      m (prefix ^ ".host_us_p50") "us" (float_of_int (Layers.p50 d.host) /. 1e3);
      m (prefix ^ ".sim_us") "us" (float_of_int (Layers.p50 d.sim) /. 1e3);
    ]
  in
  let kind_metrics name k ~timed =
    let d = l.by_kind.(k) in
    m ("fault." ^ name ^ ".count") "count/op"
      (if k < Counters.n_kinds then per_op c.(k)
       else float_of_int (Layers.count d.host) /. ops)
    ::
    (if timed then
       [
         m ("fault." ^ name ^ ".host_ns_p50") "ns" (float_of_int (Layers.p50 d.host));
         m ("fault." ^ name ^ ".sim_ns") "ns" (float_of_int (Layers.p50 d.sim));
       ]
     else [])
  in
  let shard_total = ref 0 and shard_max = ref 0 in
  for i = 0 to Counters.shards - 1 do
    let v = c.(Counters.shard0 + i) in
    shard_total := !shard_total + v;
    shard_max := max !shard_max v
  done;
  let self layer =
    per_op (Option.value ~default:0 (Hashtbl.find_opt l.self_ns layer)) /. 1e3
  in
  let gc = List.fold_left (fun (a, b, p) (r : Round.measure) ->
      (a + r.gc.minor_collections, b + r.gc.major_collections, p +. r.gc.promoted_words))
      (0, 0, 0.) traced in
  let minor, major, promoted = gc in
  List.concat
    [
      [
        m "engine.pool.acquires_per_op" "count/op" (per_op c.(Counters.pool_acquires));
        m "engine.pool.contended_frac" "ratio" (frac c.(Counters.pool_waits) c.(Counters.pool_acquires));
        m "engine.pool.wait_ns_per_op" "ns/op" (per_op c.(Counters.pool_wait_ns));
        m "engine.pool.hold_ns_per_op" "ns/op" (per_op c.(Counters.pool_hold_ns));
        m "engine.worker_busy_frac" "ratio" (frac l.worker_op_ns (domains * wall));
        m "engine.sim_cpu_util" "ratio" (frac c.(Counters.cpu_busy_ns) (domains * sim));
        m "engine.unattributed_frac" "ratio" (frac (l.op_ns - l.covered_ns) l.op_ns);
      ];
      List.concat_map
        (fun name -> kind_metrics name (Counters.kind_index name) ~timed:true)
        [ "zero_fill"; "borrow"; "cow_copy"; "pull_in"; "stub_resolve" ];
      kind_metrics "mixed" Counters.kind_mixed ~timed:true;
      List.concat_map
        (fun name -> kind_metrics name (Counters.kind_index name) ~timed:false)
        [ "hit"; "upgrade" ];
      [
        m "gmap.probes_per_op" "count/op" (per_op c.(Counters.gmap_probes));
        m "gmap.lock_waits_per_op" "count/op" (per_op c.(Counters.gmap_lock_waits));
        m "gmap.hot_shard_share" "ratio" (frac !shard_max !shard_total);
        m "mm.acquires_per_op" "count/op" (per_op c.(Counters.mm_acquires));
        m "mm.contended_frac" "ratio" (frac c.(Counters.mm_waits) c.(Counters.mm_acquires));
        m "mm.wait_ns_per_op" "ns/op" (per_op c.(Counters.mm_wait_ns));
        m "mm.hold_ns_per_op" "ns/op" (per_op c.(Counters.mm_hold_ns));
        m "pager.evictions_per_op" "count/op" (per_op c.(Counters.evictions));
        m "pager.push_outs_per_op" "count/op" (per_op c.(Counters.push_outs));
        m "seg.pull_ins_per_op" "count/op" (per_op c.(Counters.pull_ins));
        m "history.created_per_op" "count/op" (per_op c.(Counters.history_created));
        m "history.tree_lookups_per_fault" "count/fault"
          (frac c.(Counters.tree_lookups) c.(Counters.faults));
        m "cache.cow_copies_per_op" "count/op" (per_op c.(Counters.cow_copies));
        m "cache.zero_fills_per_op" "count/op" (per_op c.(Counters.zero_fills));
        m "ipc.moved_pages_per_op" "count/op" (per_op c.(Counters.moved_pages));
        m "ipc.eager_pages_per_op" "count/op" (per_op c.(Counters.eager_pages));
        m "ipc.stub_resolves_per_op" "count/op" (per_op c.(Counters.stub_resolves));
      ];
      call_metrics "ipc.send" Span.nucleus_send;
      call_metrics "ipc.receive" Span.nucleus_receive;
      List.concat_map
        (fun (n, s) -> call_metrics ("mix." ^ n) s)
        [ ("fork", Span.mix_fork); ("exec", Span.mix_exec);
          ("compile", Span.mix_compile); ("pipe", Span.mix_pipe);
          ("exit_wait", Span.mix_exit_wait) ];
      [
        m "self.core.us_per_op" "us/op" (self "core");
        m "self.nucleus.us_per_op" "us/op" (self "nucleus");
        m "self.mix.us_per_op" "us/op" (self "mix");
        m "gc.minor_collections_per_op" "count/op" (per_op minor);
        m "gc.major_collections" "count/kop" (per_op major *. 1e3);
        m "gc.promoted_words_per_op" "words/op" (promoted /. ops);
        m "trace.overhead_frac" "ratio"
          (if plain_ks = [] then 0.
           else 1. -. (scaled_rate ops_per_s traced_ks /. scaled_rate ops_per_s plain_ks));
        m "sim.run_ms" "ms"
          (median_f (List.map (fun (r : Round.measure) -> float_of_int r.sim_ns /. 1e6) traced));
      ];
    ]

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e300" (* a failed op's latency: beyond any bound *)

let json_result res metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (res.failed = 0) res.attempted res.failed body

let spans_json (spans : Span.span array) oc =
  Array.iter
    (fun (s : Span.span) ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \"kind\": %S, \
         \"host_ns\": [%d, %d], \"sim_ns\": [%d, %d], \"worker\": %b}\n"
        s.id Span.names.(s.name) s.op_id s.parent
        (if s.kind < 0 then ""
         else if s.kind = Counters.kind_mixed then "mixed"
         else Counters.kinds.(s.kind))
        s.h0 s.h1 s.s0 s.s1 s.worker)
    spans
