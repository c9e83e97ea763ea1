(* Internal shard bookkeeping is this module's own private state, not
   a PVM shared object: callers note the fragment footprint at the
   Global_map level, and the probe counter below is bumped inside the
   shard's own critical section. *)
[@@@chorus.noted "shard-internal state; footprints are noted by callers"]

type key = int * int

type 'v shard = {
  s_lock : Mutex.t;
  s_tbl : (key, 'v) Hashtbl.t;
  mutable s_probes : int;
      (* point operations on this shard; bumped inside [locked], so
         the shard lock guards it (exact at quiescence) *)
  s_stat : Obs.Lockstat.t;
      (* acquires/waits per shard, wait/hold wall-clock when Lockstat
         timing is enabled; [lock_waits] reads its wait counts *)
}

type 'v t = { shards : 'v shard array }

let create ?(name = "gmap") ?(shards = 8) () =
  if shards < 1 then invalid_arg "Shard_map.create: shard count < 1";
  {
    shards =
      Array.init shards (fun i ->
          {
            s_lock = Mutex.create ();
            s_tbl = Hashtbl.create 64;
            s_probes = 0;
            s_stat = Obs.Lockstat.create ~cls:"shard" (Printf.sprintf "%s/shard%d" name i);
          });
  }

let shard_count t = Array.length t.shards

(* Mix the cache id and the page index (offsets are page-granular in
   practice, so dropping the low 12 bits spreads consecutive pages of
   one cache over all shards).  Fibonacci-style multiply keeps the
   cheap sequential ids from clustering. *)
let shard_of t ((cid, off) : key) =
  let h = ((cid + 1) * 0x9E3779B97F4A7C1) lxor ((off lsr 12) * 0x85EBCA77) in
  (h land max_int) mod Array.length t.shards

let shard t k = t.shards.(shard_of t k)

(* Locks are taken only inside parallel slices: on the sequential
   engine and on the parallel coordinator no other domain can hold
   them (the coordinator barriers on pool quiescence), so skipping the
   lock is both safe and what keeps the oracle path byte-identical to
   the seed's single table.  Acquisition goes through the shard's
   Lockstat: an acquisition that would block is counted as a lock
   wait, and wall-clock wait/hold timing rides along when enabled. *)
let[@inline] locked s f =
  if Hw.Engine.in_parallel_slice () then begin
    Obs.Lockstat.lock s.s_stat s.s_lock;
    match f () with
    | v ->
      Obs.Lockstat.unlock s.s_stat s.s_lock;
      v
    | exception e ->
      Obs.Lockstat.unlock s.s_stat s.s_lock;
      raise e
  end
  else f ()

(* Count one point operation; called inside the [locked] closure. *)
let[@inline] probe s = s.s_probes <- s.s_probes + 1

let find_opt t k =
  let s = shard t k in
  locked s (fun () ->
      probe s;
      Hashtbl.find_opt s.s_tbl k)

let mem t k =
  let s = shard t k in
  locked s (fun () ->
      probe s;
      Hashtbl.mem s.s_tbl k)

let replace t k v =
  let s = shard t k in
  locked s (fun () ->
      probe s;
      Hashtbl.replace s.s_tbl k v)

let remove t k =
  let s = shard t k in
  locked s (fun () ->
      probe s;
      Hashtbl.remove s.s_tbl k)

let add_if_absent t k v =
  let s = shard t k in
  locked s (fun () ->
      probe s;
      if Hashtbl.mem s.s_tbl k then false
      else begin
        Hashtbl.replace s.s_tbl k v;
        true
      end)

let length t =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Hashtbl.length s.s_tbl))
    0 t.shards

let iter f t =
  Array.iter (fun s -> locked s (fun () -> Hashtbl.iter f s.s_tbl)) t.shards

let fold f t acc =
  Array.fold_left
    (fun acc s -> locked s (fun () -> Hashtbl.fold f s.s_tbl acc))
    acc t.shards

let occupancy t =
  Array.map (fun s -> locked s (fun () -> Hashtbl.length s.s_tbl)) t.shards

let probes t =
  Array.fold_left (fun acc s -> acc + s.s_probes) 0 t.shards

let lock_waits t =
  Array.fold_left
    (fun acc s -> acc + Obs.Lockstat.waits s.s_stat)
    0 t.shards

let probes_per_shard t = Array.map (fun s -> s.s_probes) t.shards

let lock_waits_per_shard t =
  Array.map (fun s -> Obs.Lockstat.waits s.s_stat) t.shards

let lock_stats t =
  Array.to_list (Array.map (fun s -> Obs.Lockstat.snapshot s.s_stat) t.shards)
