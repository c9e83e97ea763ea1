(* Table 5's line counts, generated at build time from the sources the
   benchmark is built from: [gen_loc FILE...] prints an OCaml module
   binding [counts], the lines of the given files summed per
   directory ([../lib/core/cache.ml] counts for [lib/core]). *)

let lines file =
  let ic = open_in_bin file in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let () =
  let counts = Hashtbl.create 16 in
  for i = 1 to Array.length Sys.argv - 1 do
    let file = Sys.argv.(i) in
    let dir = Filename.dirname file in
    let dir =
      if String.starts_with ~prefix:"../" dir then
        String.sub dir 3 (String.length dir - 3)
      else dir
    in
    let n = Option.value ~default:0 (Hashtbl.find_opt counts dir) in
    Hashtbl.replace counts dir (n + lines file)
  done;
  print_endline "(* generated by gen_loc.exe from the library sources *)";
  print_endline "let counts = [";
  Hashtbl.fold (fun dir n acc -> (dir, n) :: acc) counts []
  |> List.sort compare
  |> List.iter (fun (dir, n) -> Printf.printf "  (%S, %d);\n" dir n);
  print_endline "]"
