(* Races with destruction (§3.3.3): an operation that makes a page
   for a cache blocks in its frame allocation and its copy or zero
   charges, and meanwhile another fibre destroys the cache the page is
   for.  Each case runs two fibres on a 16-frame PVM under the default
   cost profile, with one-page caches and a source [s] written through
   a region first.  Fibre B sleeps [delay] µs before it destroys, for
   every delay from 0 to 4000 µs, which covers every charge the page
   being made pays.  Each run must end in the case's defined outcome
   with a clean strict sweep, within an event budget that a livelock
   exhausts; a sample of delays also sweeps the structural rules after
   every engine event.

   The last cases race a fault with a per-page copy or move onto the
   faulting cache instead: the fault's page and the copy's stub meet
   in one row, whichever goes in first. *)

let ps = 8192
let rw = Hw.Prot.read_write
let delays = List.init 4001 Fun.id
let sampled = List.init 42 (fun i -> i * 97)

(* How fibre A's access ended. *)
type ended = Done | Segfault of int

type world = {
  pvm : Core.Types.pvm;
  ctx : Core.Types.context;
  s : Core.Types.cache;
  rs : Core.Types.region;
}

(* [s] mapped at 0 in [ctx], and written. *)
let world engine =
  let pvm = Core.Pvm.create ~frames:16 ~engine () in
  let ctx = Core.Context.create pvm in
  let s = Core.Cache.create pvm () in
  let rs = Core.Region.create pvm ctx ~addr:0 ~size:ps ~prot:rw s ~offset:0 in
  Core.Pvm.write pvm ctx ~addr:0 (Bytes.make 8 's');
  { pvm; ctx; s; rs }

let copy w strategy d =
  Core.Cache.copy w.pvm ~strategy ~src:w.s ~src_off:0 ~dst:d ~dst_off:0
    ~size:ps ()

(* Fibre A's store into [d], mapped at [d_addr] in a second context. *)
let d_addr = 1024 * ps
let store = d_addr + 64

let write_d w d =
  let ctx2 = Core.Context.create w.pvm in
  let rd =
    Core.Region.create w.pvm ctx2 ~addr:d_addr ~size:ps ~prot:rw d ~offset:0
  in
  ( (fun () -> Core.Pvm.write w.pvm ctx2 ~addr:store (Bytes.make 8 'd')),
    fun () ->
      Core.Region.destroy w.pvm rd;
      Core.Cache.destroy w.pvm d )

(* Run [setup] in the main fibre, then its fibre A at once and its
   fibre B after [delay] µs; return the world and how A ended. *)
let event_budget = 100_000

let race ?(every_event = false) setup delay =
  let engine = Hw.Engine.create () in
  let pvm = ref None in
  let events = ref 0 in
  Hw.Engine.set_event_hook engine (fun () ->
      incr events;
      if !events > event_budget then
        failwith (Printf.sprintf "livelock: %d engine events" event_budget);
      if every_event then
        Option.iter
          (Check.Sanitizer.assert_ok ~strict:false ~label:"per-event sweep")
          !pvm);
  let w, ended =
    Hw.Engine.run_fn engine (fun () ->
        let w = world engine in
        pvm := Some w.pvm;
        let a, b = setup w in
        let ended = ref Done in
        Hw.Engine.spawn engine ~name:"a" (fun () ->
            try a () with Core.Gmi.Segmentation_fault addr ->
              ended := Segfault addr);
        Hw.Engine.spawn engine ~name:"b" (fun () ->
            Hw.Engine.sleep (Hw.Sim_time.us delay);
            b ());
        (w, ended))
  in
  Check.Sanitizer.assert_ok w.pvm;
  (engine, w, !ended)

let contents engine w cache =
  Bytes.to_string
    (Hw.Engine.run_fn engine (fun () ->
         Core.Cache.copy_back w.pvm cache ~offset:0 ~size:8))

(* (a) Per-page copy s -> d; A destroys [s], whose teardown gives [d]
   its own copy, while B destroys [d]: nothing is kept. *)
let teardown_copy w =
  let d = Core.Cache.create w.pvm () in
  copy w `Per_page d;
  ( (fun () ->
      Core.Region.destroy w.pvm w.rs;
      Core.Cache.destroy w.pvm w.s),
    fun () -> Core.Cache.destroy w.pvm d )

let keeps_nothing _engine w ended =
  if ended <> Done then failwith "a did not finish";
  if Core.Inspect.pages w.pvm <> [] then failwith "pages kept";
  if Hw.Phys_mem.used_frames (Core.Pvm.memory w.pvm) <> 0 then
    failwith "frames kept"

(* (b) History copy s -> d; A writes [s] again, saving the original
   into [d], while B destroys [d]: the write proceeds. *)
let original w =
  let d = Core.Cache.create w.pvm () in
  copy w `History d;
  ( (fun () -> Core.Pvm.write w.pvm w.ctx ~addr:0 (Bytes.make 8 'S')),
    fun () -> Core.Cache.destroy w.pvm d )

let write_proceeds engine w ended =
  if ended <> Done then failwith "a did not finish";
  if contents engine w w.s <> "SSSSSSSS" then failwith "write lost"

(* (c)-(e) A writes [d] through a region, resolving a per-page stub,
   a zero fill or a history child copy, while B destroys the region
   and [d]: the store either lands first or faults as it would after
   the destroy. *)
let stub_write w =
  let d = Core.Cache.create w.pvm () in
  copy w `Per_page d;
  write_d w d

let zero_write w = write_d w (Core.Cache.create w.pvm ())

let child_write w =
  let d = Core.Cache.create w.pvm () in
  copy w `History d;
  write_d w d


let lands_or_faults engine w ended =
  (match ended with
  | Done -> ()
  | Segfault a when a = store -> ()
  | Segfault a -> failwith (Printf.sprintf "segfault at %#x" a));
  if contents engine w w.s <> "ssssssss" then failwith "source changed"

(* (f)-(h) A reads an empty anonymous [d] through a region while B
   copies [s] onto [d] per page, or moves there a per-page copy of [s]
   (a stub) or a cache whose mapped page holds [s]'s value.  A's zero fill and
   B's stub or page meet in [d]'s row.  When B's goes in first, A's fill
   settles on it (materialising a stub); when A's page does, B purges it
   again before its own goes in.  A ends, having read zeros or [s]'s
   value, and [d] holds [s]'s value. *)
let read_under how =
  let d = ref None and seen = ref "" in
  let setup w =
    let dc = Core.Cache.create w.pvm () in
    d := Some dc;
    let ctx2 = Core.Context.create w.pvm in
    ignore
      (Core.Region.create w.pvm ctx2 ~addr:d_addr ~size:ps ~prot:rw dc
         ~offset:0);
    let m = Core.Cache.create w.pvm () in
    (match how with
    | `Copy -> ()
    | `Stub_move -> copy w `Per_page m
    | `Page_move ->
      ignore
        (Core.Region.create w.pvm w.ctx ~addr:(4 * ps) ~size:ps ~prot:rw m
           ~offset:0);
      Core.Pvm.write w.pvm w.ctx ~addr:(4 * ps) (Bytes.make 8 's'));
    ( (fun () ->
        seen := Bytes.to_string (Core.Pvm.read w.pvm ctx2 ~addr:store ~len:8)),
      fun () ->
        match how with
        | `Copy -> copy w `Per_page dc
        | `Stub_move | `Page_move ->
          Core.Cache.move w.pvm ~src:m ~src_off:0 ~dst:dc ~dst_off:0 ~size:ps () )
  in
  let outcome engine w ended =
    if ended <> Done then failwith "a did not finish";
    if not (List.mem !seen [ String.make 8 '\000'; "ssssssss" ]) then
      failwith (Printf.sprintf "a read %S" !seen);
    if contents engine w (Option.get !d) <> "ssssssss" then
      failwith "copy lost"
  in
  (setup, outcome)

let cases =
  let under_copy, copied = read_under `Copy
  and under_stub_move, stub_moved = read_under `Stub_move
  and under_page_move, page_moved = read_under `Page_move in
  [
    ("(a) teardown materialises a dead copy", teardown_copy, keeps_nothing);
    ("(b) original saved into a dead history", original, write_proceeds);
    ("(c) stub resolved into a dead cache", stub_write, lands_or_faults);
    ("(d) zero fill into a dead cache", zero_write, lands_or_faults);
    ("(e) child copy into a dead cache", child_write, lands_or_faults);
    ("(f) zero fill under a per-page copy", under_copy, copied);
    ("(g) zero fill under a stub move", under_stub_move, stub_moved);
    ("(h) zero fill under a page move", under_page_move, page_moved);
  ]

(* Every delay, each ending as [outcome] says; failures are collected
   so a report names how many delays fail and the first few. *)
let sweep ?every_event setup outcome delays =
  let failed =
    List.filter_map
      (fun delay ->
        match
          let engine, w, ended = race ?every_event setup delay in
          outcome engine w ended
        with
        | () -> None
        | exception e -> Some (delay, Printexc.to_string e))
      delays
  in
  match failed with
  | [] -> ()
  | (delay, e) :: _ ->
    Alcotest.failf "%d of %d delays fail; first at %d us: %s"
      (List.length failed) (List.length delays) delay e

let tests =
  List.concat_map
    (fun (name, setup, outcome) ->
      [
        Alcotest.test_case (name ^ ", delays 0-4000 us") `Quick (fun () ->
            sweep setup outcome delays);
        Alcotest.test_case (name ^ ", swept after every event") `Quick
          (fun () -> sweep ~every_event:true setup outcome sampled);
      ])
    cases
