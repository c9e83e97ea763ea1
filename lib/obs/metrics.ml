(* Aggregated observability: counters, sim-time histograms and the
   per-primitive attribution table.  Updates never advance the
   simulated clock; they are plain integer stores.  Registration
   (name -> cell lookup) is a table probe: hot paths register once and
   keep the handle. *)

type counter = { c_name : string; mutable c_value : int }

(* A histogram's cells: count, sum, min, max. *)
type histogram = { h_name : string; h_cells : int array }

let h_count = 0
let h_sum = 1
let h_min = 2
let h_max = 3
let h_init = [| 0; 0; max_int; 0 |]

type hstats = { count : int; sum : int; min : int; max : int }

type t = {
  cs : (string, counter) Hashtbl.t;
  hs : (string, histogram) Hashtbl.t;
  prim_names : string array;
  prim : int array; (* per primitive [i]: count at [2i], ns at [2i + 1] *)
}

let create ?(prims = [||]) () =
  {
    cs = Hashtbl.create 32;
    hs = Hashtbl.create 32;
    prim_names = prims;
    prim = Array.make (2 * Array.length prims) 0;
  }

let counter t name =
  match Hashtbl.find_opt t.cs name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.cs name c;
    c

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let set c v = c.c_value <- v
let value c = c.c_value

let counters t =
  List.sort compare (Hashtbl.fold (fun _ c acc -> (c.c_name, c.c_value) :: acc) t.cs [])

let histogram t name =
  match Hashtbl.find_opt t.hs name with
  | Some h -> h
  | None ->
    let h = { h_name = name; h_cells = Array.copy h_init } in
    Hashtbl.replace t.hs name h;
    h

let observe h ns =
  let r = h.h_cells in
  r.(h_count) <- r.(h_count) + 1;
  r.(h_sum) <- r.(h_sum) + ns;
  if ns < r.(h_min) then r.(h_min) <- ns;
  if ns > r.(h_max) then r.(h_max) <- ns

let histogram_stats h =
  let r = h.h_cells in
  let count = r.(h_count) in
  { count; sum = r.(h_sum); min = (if count = 0 then 0 else r.(h_min)); max = r.(h_max) }

let histograms t =
  List.sort compare
    (Hashtbl.fold (fun _ h acc -> (h.h_name, histogram_stats h) :: acc) t.hs [])

let[@inline] charge t ~idx ~ns =
  if idx >= 0 && idx < Array.length t.prim_names then begin
    let r = t.prim in
    r.(2 * idx) <- r.(2 * idx) + 1;
    r.((2 * idx) + 1) <- r.((2 * idx) + 1) + ns
  end

let prim_report t =
  Array.to_list
    (Array.mapi (fun i name -> (name, t.prim.(2 * i), t.prim.((2 * i) + 1))) t.prim_names)

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
