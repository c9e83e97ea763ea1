(* Figure 3: the registry's history-object scenario, rendered as trees.

   Prints the history tree of the source after each of the paper's four
   sub-figures (§4.2, Figure 3); page numbers with [*] are hardware
   read-protected frames (grey in the paper's figure). *)

let run () =
  Printf.printf "\nFigure 3 -- history objects for copy-on-write\n";
  Printf.printf "(pages by index; * = read-protected frame)\n\n";
  let on_figure caption src =
    Printf.printf "%s\n%s\n" caption
      (Format.asprintf "%a" Core.Pvm.pp_history_tree src)
  in
  let pvms, _ =
    Check.Scenario.exec (Util.sim_engine ()) (Check.Scenario.fig3 ~on_figure ())
  in
  match Core.Pvm.check_invariant (List.hd pvms) with
  | [] -> Printf.printf "history-tree invariants: OK\n"
  | errs ->
    Printf.printf "history-tree invariants: BROKEN: %s\n"
      (String.concat "; " errs)
