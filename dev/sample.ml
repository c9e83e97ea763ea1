(* A call-stack sampler over a registry entry.

   Usage: dune exec dev/sample.exe -- ENTRY [--seconds S]

   Runs the [Check.Scenario] entry ENTRY (on the sequential engine) in a
   loop for S seconds of wall-clock time (default 5).  A SIGPROF timer
   ([Unix.setitimer ITIMER_PROF], every millisecond of process CPU time,
   or the kernel's tick if that is coarser) takes the OCaml call stack
   ([Printexc.get_callstack]) at each expiry.  It prints, per
   function, the share of samples whose stack holds it (inclusive) and
   whose innermost frame it is (self): the 25 functions of largest
   inclusive share, then the 25 of largest self share.

   Three things to know when reading it:
   - OCaml runs a signal handler at the next poll point of OCaml code.
     So time spent in C calls and in GC slices is charged to the
     function that polls next, not to the C code or the allocation that
     caused it: storm's [bzero] (a C fill) shows up under
     [Parents.covering_history].
   - A fibre runs on a stack of its own, which ends at its effect
     handler.  A sample taken in a fibre holds the fibre's frames only,
     not the frames of the engine loop that resumed it.
   - Frames keep their names because every profile builds with -g.
     The default profile inlines calls across modules, and -g records
     each inlined call, so an inlined helper (a map probe, a footprint
     note) still shows as a frame of its own: [Printexc] reports it as
     an inline slot.  What inlining removes is the call's cost, not the
     frame. *)

let usage = "sample.exe ENTRY [--seconds S]"
let top = 25

let () =
  let entry = ref None and seconds = ref 5. in
  Arg.parse
    [ ("--seconds", Arg.Set_float seconds, "S wall-clock seconds to run (default 5)") ]
    (fun a -> entry := Some a)
    usage;
  let scen =
    match Option.bind !entry Check.Scenario.find with
    | Some s -> s
    | None ->
      prerr_endline usage;
      prerr_endline
        ("entries: "
        ^ String.concat ", "
            (List.map (fun (s : Check.Scenario.t) -> s.name) Check.Scenario.all));
      exit 2
  in
  let inclusive = Hashtbl.create 256 and self = Hashtbl.create 256 in
  let samples = ref 0 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  (* The frames of a stack, innermost first, named by function where the
     debug information has a name and by position otherwise.  This
     file's own frames (the handler on top, the loop below) are
     dropped. *)
  let frames stack =
    match Printexc.backtrace_slots stack with
    | None -> []
    | Some slots ->
      Array.to_list slots
      |> List.filter_map (fun slot ->
             match Printexc.Slot.location slot with
             | Some l when Filename.basename l.Printexc.filename = "sample.ml" ->
               None
             | loc -> (
               match (Printexc.Slot.name slot, loc) with
               | Some name, _ -> Some name
               | None, Some l ->
                 Some (Printf.sprintf "%s:%d" l.filename l.line_number)
               | None, None -> None))
  in
  let record _ =
    incr samples;
    match frames (Printexc.get_callstack 256) with
    | [] -> ()
    | innermost :: _ as fs ->
      bump self innermost;
      List.iter (bump inclusive) (List.sort_uniq String.compare fs)
  in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle record);
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  let t0 = Unix.gettimeofday () and runs = ref 0 in
  while Unix.gettimeofday () -. t0 < !seconds do
    ignore (Check.Scenario.exec (Hw.Engine.create ()) scen);
    incr runs
  done;
  ignore (Unix.setitimer Unix.ITIMER_PROF { it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  let n = max 1 !samples in
  let share tbl k =
    100. *. float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl k))
    /. float_of_int n
  in
  Printf.printf "%s: %d runs in %.1f s, %d samples\n" scen.name !runs !seconds
    !samples;
  let table title tbl =
    Printf.printf "\nby %s share:\n%9s %6s  function\n" title "inclusive" "self";
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (ka, a) (kb, b) ->
           if a <> b then Int.compare b a else String.compare ka kb)
    |> List.filteri (fun i _ -> i < top)
    |> List.iter (fun (k, _) ->
           Printf.printf "%8.1f%% %5.1f%%  %s\n" (share inclusive k) (share self k) k)
  in
  table "inclusive" inclusive;
  table "self" self
