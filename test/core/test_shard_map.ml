(* Observational equivalence of the sharded global map and the seed's
   single hash table, under random operation sequences at shard counts
   1, 2 and 8 (ISSUE 8's refactor contract: sharding only changes lock
   granularity, never results).

   The oracle is a plain [Hashtbl] with at most one binding per key —
   exactly how the seed's global map used it.  Each random op is
   applied to both sides; point results must agree op-by-op, and the
   final contents (via [fold]) must match
   key-for-key, with [occupancy] summing to the table size. *)

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

(* Few distinct keys, so finds/removes genuinely hit existing
   bindings and keys collide across shards. *)
let gen_op =
  QCheck.Gen.(
    let key = pair (int_bound 7) (int_bound 15) in
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

let apply_sharded (m : int Core.Shard_map.t) op =
  match op with
  | Find (c, o) -> `Found (Core.Shard_map.find_opt m (c, o))
  | Mem (c, o) -> `Mem (Core.Shard_map.mem m (c, o))
  | Set (c, o, v) ->
    Core.Shard_map.replace m (c, o) v;
    `Unit
  | Remove (c, o) ->
    Core.Shard_map.remove m (c, o);
    `Unit
  | Add_if_absent (c, o, v) ->
    `Installed (Core.Shard_map.add_if_absent m (c, o) v)

let contents_of_hashtbl tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let equivalent_at ~shards ops =
  let oracle = Hashtbl.create 64 in
  let sharded = Core.Shard_map.create ~shards () in
  List.iteri
    (fun i op ->
      let a = apply_oracle oracle op in
      let b = apply_sharded sharded op in
      if a <> b then
        QCheck.Test.fail_reportf "op %d (%s) at %d shard(s): results differ" i
          (pp_op op) shards)
    ops;
  let want = contents_of_hashtbl oracle in
  let folded =
    List.sort compare
      (Core.Shard_map.fold (fun k v acc -> (k, v) :: acc) sharded [])
  in
  if want <> folded then
    QCheck.Test.fail_reportf "fold view differs at %d shard(s)" shards;
  if Core.Shard_map.length sharded <> List.length want then
    QCheck.Test.fail_reportf "length differs at %d shard(s)" shards;
  let occ = Core.Shard_map.occupancy sharded in
  if Array.length occ <> shards then
    QCheck.Test.fail_reportf "occupancy has %d buckets at %d shard(s)"
      (Array.length occ) shards;
  if Array.fold_left ( + ) 0 occ <> List.length want then
    QCheck.Test.fail_reportf "occupancy does not sum to size at %d shard(s)"
      shards;
  true

let prop_equivalence shards =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "sharded map = single table (%d shards)" shards)
    arb_ops
    (fun ops -> equivalent_at ~shards ops)

(* The shard router must agree with where bindings actually land, and
   every key must route identically across calls. *)
let prop_shard_of_stable =
  QCheck.Test.make ~count:100 ~name:"shard_of is stable and in range"
    arb_ops
    (fun ops ->
      let m = Core.Shard_map.create ~shards:8 () in
      List.for_all
        (fun op ->
          match op with
          | Find (c, o) | Mem (c, o) | Set (c, o, _) | Remove (c, o)
          | Add_if_absent (c, o, _) ->
            let s = Core.Shard_map.shard_of m (c, o) in
            s >= 0 && s < 8 && s = Core.Shard_map.shard_of m (c, o))
        ops)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_equivalence 1;
      prop_equivalence 2;
      prop_equivalence 8;
      prop_shard_of_stable;
    ]
