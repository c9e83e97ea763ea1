(* Observational equivalence of the sharded global map and a single
   hash table, under random operation sequences at shard counts 1, 2
   and 8 (sharding only changes lock granularity, never results), and
   a multi-domain hammer on the lock-free readers.

   The oracle is a plain [Hashtbl] with at most one binding per key —
   exactly how a single global map would use it.  Each random op is
   applied to both sides; point results must agree op-by-op, and the
   final contents (via [fold] and [iter]) must match key-for-key, with
   [occupancy] summing to the table size. *)

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
   bindings and keys collide across shards; a quarter of the keys have
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

let apply_sharded (m : int Core.Shard_map.t) op =
  match op with
  | Find (c, o) -> `Found (Core.Shard_map.find_opt m c o)
  | Mem (c, o) -> `Mem (Core.Shard_map.mem m c o)
  | Set (c, o, v) ->
    Core.Shard_map.replace m c o v;
    `Unit
  | Remove (c, o) ->
    Core.Shard_map.remove m c o;
    `Unit
  | Add_if_absent (c, o, v) ->
    `Installed (Core.Shard_map.add_if_absent m c o v)

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
      (Core.Shard_map.fold (fun c o v acc -> ((c, o), v) :: acc) sharded [])
  in
  if want <> folded then
    QCheck.Test.fail_reportf "fold view differs at %d shard(s)" shards;
  let iterated = ref [] in
  Core.Shard_map.iter (fun c o v -> iterated := ((c, o), v) :: !iterated) sharded;
  if want <> List.sort compare !iterated then
    QCheck.Test.fail_reportf "iter view differs at %d shard(s)" shards;
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
            let s = Core.Shard_map.shard_of m c o in
            s >= 0 && s < 8 && s = Core.Shard_map.shard_of m c o)
        ops)

(* --- multi-domain hammer ------------------------------------------ *)

(* A binding carries its own key, so a read can tell another key's
   binding (or a value never stored) from a merely stale one. *)
type binding = { b_cid : int; b_off : int; b_stamp : int }

let ps = 8192
let stable_cid = 1 lsl 40 (* bound before the hammer, never removed *)
let race_cid = (1 lsl 40) + 1 (* every worker races add_if_absent *)
let own_cid d = 100 + d (* one writer per partition *)
let race_keys = 512
let rounds = 20_000

(* [domains] workers, one affinity class each, so every op runs inside
   a parallel slice and writers take their shard locks.  Each worker
   owns one key partition (replace/remove/add_if_absent against a local
   oracle), races every other worker on the shared add_if_absent keys,
   and reads the stable keys and the other partitions throughout.  Two
   shards and thousands of keys force many resizes under the readers. *)
let test_hammer domains () =
  let m : binding Core.Shard_map.t = Core.Shard_map.create ~shards:2 () in
  let bind c o stamp = { b_cid = c; b_off = o; b_stamp = stamp } in
  for i = 0 to 63 do
    Core.Shard_map.replace m stable_cid (i * ps) (bind stable_cid (i * ps) 0)
  done;
  let bad = Atomic.make 0 and arrived = Atomic.make 0 in
  let fail () = Atomic.incr bad in
  let oracles = Array.init domains (fun _ -> Hashtbl.create 1024) in
  let wins = Array.make domains [] in
  let ops = Array.make domains 0 in
  let worker d () =
    (* line the workers up so their loops overlap (bounded: a worker
       the pool has not started yet must not hang the test) *)
    Atomic.incr arrived;
    let spins = ref 0 in
    while Atomic.get arrived < domains && !spins < 50_000_000 do
      incr spins;
      Domain.cpu_relax ()
    done;
    let st = Random.State.make [| 17; d |] in
    let own = oracles.(d) and c = own_cid d in
    let n_ops = ref 0 in
    let op () = incr n_ops in
    for n = 1 to rounds do
      let o = Random.State.int st 4096 * ps in
      (match Random.State.int st 3 with
      | 0 ->
        op ();
        Core.Shard_map.replace m c o (bind c o n);
        Hashtbl.replace own o n
      | 1 ->
        op ();
        Core.Shard_map.remove m c o;
        Hashtbl.remove own o
      | _ ->
        op ();
        let installed = Core.Shard_map.add_if_absent m c o (bind c o n) in
        if installed = Hashtbl.mem own o then fail ();
        if installed then Hashtbl.replace own o n);
      (* the partition's only writer reads its own writes exactly *)
      let o = Random.State.int st 4096 * ps in
      op ();
      (match (Core.Shard_map.find_opt m c o, Hashtbl.find_opt own o) with
      | None, None -> ()
      | Some b, Some stamp when b = bind c o stamp -> ()
      | _ -> fail ());
      (* race: the first add_if_absent per key wins, once *)
      if n <= race_keys then begin
        let o = (n - 1) * ps in
        op ();
        if Core.Shard_map.add_if_absent m race_cid o (bind race_cid o d) then
          wins.(d) <- o :: wins.(d)
      end;
      (* another partition: absent, or a binding of that very key *)
      let c' = own_cid (Random.State.int st domains)
      and o = Random.State.int st 4096 * ps in
      op ();
      (match Core.Shard_map.find_opt m c' o with
      | None -> ()
      | Some b ->
        if b.b_cid <> c' || b.b_off <> o || b.b_stamp < 1 || b.b_stamp > rounds
        then fail ());
      (* a stable key is always there, whatever the resizes *)
      let o = Random.State.int st 64 * ps in
      op ();
      if not (Core.Shard_map.mem m stable_cid o) then fail ()
    done;
    ops.(d) <- !n_ops
  in
  let engine = Hw.Engine.create ~domains () in
  Hw.Engine.run engine (fun () ->
      for d = 0 to domains - 1 do
        Hw.Engine.spawn engine ~affinity:(d + 1) (worker d)
      done);
  Alcotest.(check int) "no foreign or unstored binding read" 0 (Atomic.get bad);
  (* exactly one winner per raced key, and its value is the one bound *)
  let winner = Hashtbl.create race_keys in
  Array.iteri
    (fun d os ->
      List.iter
        (fun o ->
          if Hashtbl.mem winner o then Alcotest.failf "key %d won twice" o;
          Hashtbl.replace winner o d)
        os)
    wins;
  Alcotest.(check int) "every raced key won" race_keys (Hashtbl.length winner);
  let want =
    List.init 64 (fun i -> (stable_cid, i * ps, 0))
    @ Hashtbl.fold (fun o d acc -> (race_cid, o, d) :: acc) winner []
    @ List.concat
        (List.init domains (fun d ->
             Hashtbl.fold (fun o n acc -> (own_cid d, o, n) :: acc) oracles.(d) []))
  in
  let got =
    Core.Shard_map.fold
      (fun c o b acc ->
        if b.b_cid <> c || b.b_off <> o then Alcotest.fail "misfiled binding";
        (c, o, b.b_stamp) :: acc)
      m []
  in
  Alcotest.(check (list (triple int int int)))
    "final contents = oracle" (List.sort compare want) (List.sort compare got);
  Alcotest.(check int) "length" (List.length want) (Core.Shard_map.length m);
  (* probes are per-domain cells: exact once the workers are done *)
  Alcotest.(check int) "probe count exact"
    (64 + Array.fold_left ( + ) 0 ops)
    (Core.Shard_map.probes m);
  let acquires =
    List.fold_left
      (fun acc (s : Obs.Lockstat.snapshot) -> acc + s.acquires)
      0 (Core.Shard_map.lock_stats m)
  in
  Alcotest.(check bool) "writers ran in parallel slices" true (acquires > 0)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_equivalence 1;
      prop_equivalence 2;
      prop_equivalence 8;
      prop_shard_of_stable;
    ]
  @ [
      Alcotest.test_case "2-domain hammer" `Quick (test_hammer 2);
      Alcotest.test_case "4-domain hammer" `Quick (test_hammer 4);
    ]
