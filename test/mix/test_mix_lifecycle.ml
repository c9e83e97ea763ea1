(* What fork, exec and exit allocate, and what the process table keeps.
   Words come from [Gc.minor_words], which is exact; each bound is the
   measured figure with a little headroom. *)

open Mix

let ps = 8192

let with_mix f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let site =
        Nucleus.Site.create ~frames:256 ~cost:Hw.Cost.free ~engine ()
      in
      let images = Image.create_store site in
      ignore
        (Image.add_image images ~name:"sh" ~text:(Bytes.make ps 'S')
           ~data:(Bytes.make ps 's') ~bss_size:ps ());
      ignore
        (Image.add_image images ~name:"cc" ~text:(Bytes.make (4 * ps) 'C')
           ~data:(Bytes.make (2 * ps) 'c') ());
      let m = Process.create_manager site images in
      f m (Process.spawn_init m ~image:"sh"))

(* The words of [measured ()] alone, summed over [n] rounds of
   [measured] between the unmeasured [before] and [after]. *)
let words_per_op n ~before ~measured ~after =
  let total = ref 0. in
  for _ = 1 to n do
    let x = before () in
    let w0 = Gc.minor_words () in
    let y = measured x in
    total := !total +. (Gc.minor_words () -. w0);
    after y
  done;
  !total /. float_of_int n

let check_words what ~bound words =
  if words > bound then
    Alcotest.failf "%s allocated %.1f words per operation (bound %.0f)" what
      words bound

let reap m sh child =
  Process.exit_ m child ~status:0;
  ignore (Process.wait m sh)

let n = 32

let test_alloc_rgn () =
  with_mix (fun _ sh ->
      let actor = Process.actor sh in
      let cycle () =
        Nucleus.Actor.rgn_free actor
          (Nucleus.Actor.rgn_allocate actor ~addr:0x5000_0000 ~size:ps
             ~prot:Hw.Prot.read_write)
      in
      cycle ();
      words_per_op n ~before:ignore ~measured:cycle ~after:ignore
      |> check_words "an rgn_allocate+rgn_free" ~bound:80.)

let test_alloc_fork () =
  with_mix (fun m sh ->
      reap m sh (Process.fork m sh);
      words_per_op n ~before:ignore
        ~measured:(fun () -> Process.fork m sh)
        ~after:(reap m sh)
      |> check_words "a fork" ~bound:600.)

let test_alloc_exec () =
  with_mix (fun m sh ->
      Process.exec m sh ~image:"cc";
      words_per_op n ~before:ignore
        ~measured:(fun () -> Process.exec m sh ~image:"cc")
        ~after:ignore
      |> check_words "an exec" ~bound:300.)

let test_alloc_exit () =
  with_mix (fun m sh ->
      reap m sh (Process.fork m sh);
      words_per_op n
        ~before:(fun () -> Process.fork m sh)
        ~measured:(fun child -> Process.exit_ m child ~status:0)
        ~after:(fun () -> ignore (Process.wait m sh))
      |> check_words "an exit" ~bound:80.)

(* A reaped process is forgotten: the manager keeps a live count, not
   the record, its destroyed actor and its context. *)
let test_process_table_forgets_reaped () =
  with_mix (fun m sh ->
      let w = Weak.create 1 in
      let cycle i =
        let child = Process.fork m sh in
        if i = 0 then Weak.set w 0 (Some child);
        reap m sh child
      in
      for i = 0 to 999 do
        cycle i
      done;
      Gc.full_major ();
      Alcotest.(check bool) "a reaped process is collected" true
        (Option.is_none (Weak.get w 0));
      (* after the collection, so the manager is still alive during it *)
      Alcotest.(check int) "live processes" 1 (Process.live_processes m))

let tests =
  ( "lifecycle",
    [
      Alcotest.test_case "alloc: rgn_allocate+rgn_free" `Quick test_alloc_rgn;
      Alcotest.test_case "alloc: fork" `Quick test_alloc_fork;
      Alcotest.test_case "alloc: exec" `Quick test_alloc_exec;
      Alcotest.test_case "alloc: exit" `Quick test_alloc_exit;
      Alcotest.test_case "process table forgets the reaped" `Quick
        test_process_table_forgets_reaped;
    ] )
