(* Aggregated observability: counters, sim-time histograms and the
   per-primitive attribution table.  Updates never advance the
   simulated clock, and since the parallel engine they must also be
   domain-safe: a fault resolved inside a pool slice observes its
   latency from a worker domain while another worker charges
   primitives concurrently.  The two streams written on every fault
   (histogram observations and primitive charges) live in per-domain
   {!Cells} rows: each domain updates its own row with plain stores,
   so no two workers write one cache line, and readers combine the
   rows, exact at quiescence.  Named counters, published at report
   time rather than per event, stay single [Atomic.t] cells.
   Registration (name -> cell lookup) takes a registry mutex; hot
   paths are expected to register once and keep the handle. *)

type counter = { c_name : string; c_value : int Atomic.t }

(* One per-domain row per histogram: count, sum, min, max. *)
type histogram = { h_name : string; h_cells : Cells.t }

let h_count = 0
let h_sum = 1
let h_min = 2
let h_max = 3
let h_init = [| 0; 0; max_int; 0 |]

type hstats = { count : int; sum : int; min : int; max : int }

type t = {
  lock : Mutex.t; (* guards the two registration tables only *)
  cs : (string, counter) Hashtbl.t;
  hs : (string, histogram) Hashtbl.t;
  prim_names : string array;
  prim : Cells.t; (* per primitive [i]: count at [2i], ns at [2i + 1] *)
}

let create ?(prims = [||]) () =
  {
    lock = Mutex.create ();
    cs = Hashtbl.create 32;
    hs = Hashtbl.create 32;
    prim_names = prims;
    prim = Cells.create (Array.make (2 * Array.length prims) 0);
  }

let reset t =
  Mutex.lock t.lock;
  Hashtbl.reset t.cs;
  Hashtbl.reset t.hs;
  Mutex.unlock t.lock;
  Cells.reset t.prim

let counter t name =
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.cs name with
    | Some c -> c
    | None ->
      let c = { c_name = name; c_value = Atomic.make 0 } in
      Hashtbl.replace t.cs name c;
      c
  in
  Mutex.unlock t.lock;
  c

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_value by)
let set c v = Atomic.set c.c_value v
let value c = Atomic.get c.c_value

let counters t =
  Mutex.lock t.lock;
  let cs =
    Hashtbl.fold (fun _ c acc -> (c.c_name, Atomic.get c.c_value) :: acc) t.cs []
  in
  Mutex.unlock t.lock;
  List.sort compare cs

let histogram t name =
  Mutex.lock t.lock;
  let h =
    match Hashtbl.find_opt t.hs name with
    | Some h -> h
    | None ->
      let h = { h_name = name; h_cells = Cells.create h_init } in
      Hashtbl.replace t.hs name h;
      h
  in
  Mutex.unlock t.lock;
  h

let observe h ns =
  let r = Cells.mine h.h_cells in
  r.(h_count) <- r.(h_count) + 1;
  r.(h_sum) <- r.(h_sum) + ns;
  if ns < r.(h_min) then r.(h_min) <- ns;
  if ns > r.(h_max) then r.(h_max) <- ns

let clear_histogram h = Cells.reset h.h_cells

let histogram_stats h =
  let count, sum, min, max =
    Cells.fold h.h_cells
      (fun (c, s, lo, hi) r ->
        (c + r.(h_count), s + r.(h_sum), Int.min lo r.(h_min), Int.max hi r.(h_max)))
      (0, 0, max_int, 0)
  in
  { count; sum; min = (if count = 0 then 0 else min); max }

let histograms t =
  Mutex.lock t.lock;
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) t.hs [] in
  Mutex.unlock t.lock;
  List.sort compare (List.map (fun h -> (h.h_name, histogram_stats h)) hs)

let charge t ~idx ~ns =
  if idx >= 0 && idx < Array.length t.prim_names then begin
    let r = Cells.mine t.prim in
    r.(2 * idx) <- r.(2 * idx) + 1;
    r.((2 * idx) + 1) <- r.((2 * idx) + 1) + ns
  end

let prim_report t =
  Array.to_list
    (Array.mapi
       (fun i name -> (name, Cells.sum t.prim (2 * i), Cells.sum t.prim ((2 * i) + 1)))
       t.prim_names)

(* --- Reporting ---------------------------------------------------- *)

let to_json t =
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, int v)) (counters t)) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, s) ->
               ( name,
                 Json.Obj
                   [
                     ("count", int s.count);
                     ("sum_ns", int s.sum);
                     ("min_ns", int s.min);
                     ("max_ns", int s.max);
                   ] ))
             (histograms t)) );
      ( "primitives",
        Json.Obj
          (List.filter_map
             (fun (name, count, ns) ->
               if count > 0 then
                 Some
                   (name, Json.Obj [ ("count", int count); ("total_ns", int ns) ])
               else None)
             (prim_report t)) );
    ]

let ms ns = float_of_int ns /. 1e6

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  (match counters t with
  | [] -> ()
  | cs ->
    Format.fprintf ppf "counters:@,";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-28s %10d@," name v) cs);
  (match histograms t with
  | [] -> ()
  | hs ->
    Format.fprintf ppf "sim-time histograms (ms):@,";
    Format.fprintf ppf "  %-28s %8s %10s %10s %10s %10s@," "" "count" "total"
      "mean" "min" "max";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf "  %-28s %8d %10.3f %10.3f %10.3f %10.3f@," name
          s.count (ms s.sum)
          (if s.count = 0 then 0. else ms s.sum /. float_of_int s.count)
          (ms s.min) (ms s.max))
      hs);
  let prims = List.filter (fun (_, c, _) -> c > 0) (prim_report t) in
  (match prims with
  | [] -> ()
  | prims ->
    let total = List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 prims in
    Format.fprintf ppf
      "per-primitive sim-time attribution (\xc2\xa75.3.2 decomposition):@,";
    Format.fprintf ppf "  %-28s %10s %12s %7s@," "" "count" "total ms" "share";
    List.iter
      (fun (name, count, ns) ->
        Format.fprintf ppf "  %-28s %10d %12.3f %6.1f%%@," name count (ms ns)
          (if total = 0 then 0.
           else 100. *. float_of_int ns /. float_of_int total))
      (List.sort (fun (_, _, a) (_, _, b) -> compare b a) prims);
    Format.fprintf ppf "  %-28s %10s %12.3f@," "total" "" (ms total));
  Format.fprintf ppf "@]"
