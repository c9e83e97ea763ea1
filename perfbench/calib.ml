(* Host-speed calibration.

   The host's speed drifts by tens of percent over seconds (other
   tenants share its cores), and the program slows with it.  Before
   every round the runner times this fixed snippet, which does the
   kinds of work the program does (hashing, small allocations, page
   copies, sorting) but none of its code; a window of rounds is then
   scaled to the speed at which the snippet takes [reference_ns].  A
   change to the program moves the scaled times, a change in the host's
   speed cancels out. *)

(* What the snippet takes on an uncontended core of the 2-core Xeon
   host the benchmark was tuned on. *)
let reference_ns = 490_000

let work () =
  let h = Hashtbl.create 256 in
  for i = 0 to 3_999 do
    Hashtbl.replace h (i * 7919) (Bytes.make 16 (Char.unsafe_chr (i land 0xff)))
  done;
  let acc = ref 0 in
  for i = 0 to 3_999 do
    match Hashtbl.find_opt h (i * 7919) with
    | Some b -> acc := !acc + Char.code (Bytes.get b 3)
    | None -> ()
  done;
  let src = Bytes.make 8192 'x' and dst = Bytes.create 8192 in
  for _ = 1 to 40 do
    Bytes.blit src 0 dst 0 8192
  done;
  let l = List.init 1000 (fun i -> (i * 7919) land 0xffff) in
  acc := !acc + List.hd (List.sort compare l);
  !acc

(* The mean of three passes: the rounds run at the host's average
   speed, not at its best. *)
let measure () =
  let t0 = Span.now_ns () in
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (work ()))
  done;
  (Span.now_ns () - t0) / 3
