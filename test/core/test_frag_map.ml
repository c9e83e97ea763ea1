(* Observational equivalence of the global map's table and a plain hash
   table, under random operation sequences.

   The oracle is a [Hashtbl] with at most one binding per key — exactly
   how the global map uses it.  Each random op is applied to both sides;
   point results must agree op-by-op, the final contents (via [fold] and
   [iter]) must match key-for-key, and every op counts as one probe. *)

type op =
  | Find of int * int
  | Mem of int * int
  | Set of int * int * int (* a Resident/stub stand-in payload *)
  | Remove of int * int
  | Add_if_absent of int * int * int

let pp_op = function
  | Find (c, o) -> Printf.sprintf "find(%d,%d)" c o
  | Mem (c, o) -> Printf.sprintf "mem(%d,%d)" c o
  | Set (c, o, v) -> Printf.sprintf "set(%d,%d)=%d" c o v
  | Remove (c, o) -> Printf.sprintf "remove(%d,%d)" c o
  | Add_if_absent (c, o, v) -> Printf.sprintf "add?(%d,%d)=%d" c o v

(* Mostly few distinct keys, so finds/removes genuinely hit existing
   bindings and keys collide in buckets; a quarter of the keys have
   ids and offsets far past anything the PVM hands out, so both ints
   are exercised over their whole range. *)
let gen_op =
  QCheck.Gen.(
    let small = pair (int_bound 7) (int_bound 15) in
    let large =
      map2
        (fun c o -> (max_int - c, max_int - (o * 8192)))
        (int_bound 7) (int_bound 15)
    in
    let key = frequency [ (3, small); (1, large) ] in
    frequency
      [
        (2, map (fun (c, o) -> Find (c, o)) key);
        (1, map (fun (c, o) -> Mem (c, o)) key);
        (3, map2 (fun (c, o) v -> Set (c, o, v)) key (int_bound 99));
        (2, map (fun (c, o) -> Remove (c, o)) key);
        (2, map2 (fun (c, o) v -> Add_if_absent (c, o, v)) key (int_bound 99));
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 200) gen_op)

let apply_oracle (tbl : (int * int, int) Hashtbl.t) op =
  match op with
  | Find (c, o) ->
    `Found (Hashtbl.find_opt tbl (c, o))
  | Mem (c, o) -> `Mem (Hashtbl.mem tbl (c, o))
  | Set (c, o, v) ->
    Hashtbl.replace tbl (c, o) v;
    `Unit
  | Remove (c, o) ->
    Hashtbl.remove tbl (c, o);
    `Unit
  | Add_if_absent (c, o, v) ->
    if Hashtbl.mem tbl (c, o) then `Installed false
    else begin
      Hashtbl.replace tbl (c, o) v;
      `Installed true
    end

let apply_map (m : int Core.Frag_map.t) op =
  match op with
  | Find (c, o) -> `Found (Core.Frag_map.find_opt m c o)
  | Mem (c, o) -> `Mem (Core.Frag_map.mem m c o)
  | Set (c, o, v) ->
    Core.Frag_map.replace m c o v;
    `Unit
  | Remove (c, o) ->
    Core.Frag_map.remove m c o;
    `Unit
  | Add_if_absent (c, o, v) ->
    `Installed (Core.Frag_map.add_if_absent m c o v)

let contents_of_hashtbl tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let equivalent ops =
  let oracle = Hashtbl.create 64 in
  let m = Core.Frag_map.create () in
  List.iteri
    (fun i op ->
      if apply_oracle oracle op <> apply_map m op then
        QCheck.Test.fail_reportf "op %d (%s): results differ" i (pp_op op))
    ops;
  let want = contents_of_hashtbl oracle in
  let folded =
    List.sort compare (Core.Frag_map.fold (fun c o v acc -> ((c, o), v) :: acc) m [])
  in
  if want <> folded then QCheck.Test.fail_reportf "fold view differs";
  let iterated = ref [] in
  Core.Frag_map.iter (fun c o v -> iterated := ((c, o), v) :: !iterated) m;
  if want <> List.sort compare !iterated then
    QCheck.Test.fail_reportf "iter view differs";
  if Core.Frag_map.length m <> List.length want then
    QCheck.Test.fail_reportf "length differs";
  if Core.Frag_map.probes m <> List.length ops then
    QCheck.Test.fail_reportf "%d probes for %d ops" (Core.Frag_map.probes m)
      (List.length ops);
  true

let tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"map = single table" arb_ops equivalent);
  ]
