(* Cost-attribution profiler: the paper's §5.3.2 decomposition,
   measured instead of restated.

   Folds the trace ring — close-ordered spans plus "cost" charge
   instants — into a hierarchical cost tree: per fault-resolution
   kind, per primitive, per cache.  The §5.3.2 overheads (demand
   allocation, COW break, history-tree setup, per-page protect) are
   then *derived* from the charges the algorithms actually incurred,
   so a change anywhere in the fault or copy paths moves the derived
   numbers — that is the point: this is the layer perf PRs are judged
   by.

   Reconstruction: spans are recorded at close, so the ring holds a
   post-order.  Per fibre, sorting by (ts asc, dur desc) rebuilds the
   nesting — an enclosing span sorts before everything it contains —
   and a single stack sweep attaches each charge instant to the
   innermost span open at its timestamp.  Charges advance the
   simulated clock after recording at their begin instant, so a
   zero-duration span can never contain one and a charge can never
   coincide with its enclosing span's end. *)

type prim_stat = { prim : string; p_count : int; p_ns : int }

type node = {
  label : string;  (** span name; faults are ["fault:<resolution>"] *)
  cat : string;
  count : int;  (** span instances folded into this node *)
  total_ns : int;  (** sum of span durations *)
  charge_ns : int;  (** charges attached directly to this node *)
  prims : prim_stat list;  (** per-primitive charges, ns-descending *)
  marks : (string * int) list;  (** non-cost instants, by name *)
  children : node list;  (** ns-descending *)
}

type series = {
  samples : int;
  first : int;
  last : int;
  s_min : int;
  s_max : int;
}

type t = {
  root : node;  (** synthetic root; charges here were outside any span *)
  total_charge_ns : int;
  unattributed_ns : int;
  per_cache : (int * int) list;  (** (cache id, attributed ns) *)
  counter_series : (string * series) list;
  n_events : int;
  n_spans : int;
  n_dropped : int;
}

(* --- Tree construction -------------------------------------------- *)

type mnode = {
  m_label : string;
  m_cat : string;
  mutable m_count : int;
  mutable m_dur : int;
  mutable m_charge : int;
  m_prims : (string, int ref * int ref) Hashtbl.t;
  m_marks : (string, int ref) Hashtbl.t;
  m_children : (string, mnode) Hashtbl.t;
}

let mk_mnode label cat =
  {
    m_label = label;
    m_cat = cat;
    m_count = 0;
    m_dur = 0;
    m_charge = 0;
    m_prims = Hashtbl.create 8;
    m_marks = Hashtbl.create 4;
    m_children = Hashtbl.create 8;
  }

let child_of parent label cat =
  match Hashtbl.find_opt parent.m_children label with
  | Some n -> n
  | None ->
    let n = mk_mnode label cat in
    Hashtbl.replace parent.m_children label n;
    n

let rec freeze (m : mnode) : node =
  let prims =
    Hashtbl.fold
      (fun prim (c, ns) acc -> { prim; p_count = !c; p_ns = !ns } :: acc)
      m.m_prims []
    |> List.sort (fun a b ->
           let c = compare b.p_ns a.p_ns in
           if c <> 0 then c else compare a.prim b.prim)
  in
  let marks =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) m.m_marks []
    |> List.sort compare
  in
  let children =
    Hashtbl.fold (fun _ c acc -> freeze c :: acc) m.m_children []
    |> List.sort (fun a b ->
           let c = compare b.total_ns a.total_ns in
           if c <> 0 then c else compare a.label b.label)
  in
  {
    label = m.m_label;
    cat = m.m_cat;
    count = m.m_count;
    total_ns = m.m_dur;
    charge_ns = m.m_charge;
    prims;
    marks;
    children;
  }

let span_label name (args : Trace.args) =
  if name <> "fault" then name
  else
    match List.assoc_opt "resolution" args with
    | Some (Trace.Str r) -> "fault:" ^ r
    | _ -> "fault:?"

type frame = { f_node : mnode; f_end : int; f_cache : int option }

let cache_arg (args : Trace.args) =
  match List.assoc_opt "cache" args with
  | Some (Trace.Int id) -> Some id
  | _ -> None

let of_trace (tr : Trace.t) : t =
  let events = Trace.events tr in
  let n_events = List.length events in
  (* Bucket spans/instants per fibre (sequence order preserved);
     counters are fibre-less and summarised globally. *)
  let fibs : (int, (int * Trace.event) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let counters : (string, series ref) Hashtbl.t = Hashtbl.create 8 in
  let n_spans = ref 0 in
  List.iteri
    (fun seq ev ->
      match ev with
      | Trace.Counter { name; value; _ } -> (
        match Hashtbl.find_opt counters name with
        | None ->
          Hashtbl.replace counters name
            (ref
               {
                 samples = 1;
                 first = value;
                 last = value;
                 s_min = value;
                 s_max = value;
               })
        | Some s ->
          s :=
            {
              samples = !s.samples + 1;
              first = !s.first;
              last = value;
              s_min = min !s.s_min value;
              s_max = max !s.s_max value;
            })
      | Trace.Span { fib; _ } | Trace.Instant { fib; _ } ->
        (match ev with Trace.Span _ -> incr n_spans | _ -> ());
        let bucket =
          match Hashtbl.find_opt fibs fib with
          | Some b -> b
          | None ->
            let b = ref [] in
            Hashtbl.replace fibs fib b;
            b
        in
        bucket := (seq, ev) :: !bucket)
    events;
  let root = mk_mnode "" "" in
  let total = ref 0 in
  let unattributed = ref 0 in
  let per_cache : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let sweep_fibre items =
    (* ts asc; at equal ts spans precede instants and longer spans
       precede shorter (containment); ties fall back to ring order. *)
    let arr = Array.of_list items in
    Array.sort
      (fun (s1, e1) (s2, e2) ->
        let ts = function
          | Trace.Span { ts; _ } | Trace.Instant { ts; _ } -> ts
          | Trace.Counter { ts; _ } -> ts
        in
        let rank = function Trace.Span _ -> 0 | _ -> 1 in
        let dur = function Trace.Span { dur; _ } -> dur | _ -> 0 in
        let c = compare (ts e1) (ts e2) in
        if c <> 0 then c
        else
          let c = compare (rank e1) (rank e2) in
          if c <> 0 then c
          else
            let c = compare (dur e2) (dur e1) in
            if c <> 0 then c else compare s1 s2)
      arr;
    let stack = ref [ { f_node = root; f_end = max_int; f_cache = None } ] in
    let pop_until ts =
      let rec go () =
        match !stack with
        | top :: (_ :: _ as rest) when top.f_end <= ts ->
          stack := rest;
          go ()
        | _ -> ()
      in
      go ()
    in
    Array.iter
      (fun (_, ev) ->
        match ev with
        | Trace.Span { name; cat; ts; dur; args; _ } ->
          pop_until ts;
          let top = List.hd !stack in
          let node = child_of top.f_node (span_label name args) cat in
          node.m_count <- node.m_count + 1;
          node.m_dur <- node.m_dur + dur;
          stack :=
            { f_node = node; f_end = ts + dur; f_cache = cache_arg args }
            :: !stack
        | Trace.Instant { name; cat; ts; args; _ } ->
          pop_until ts;
          let top = List.hd !stack in
          if cat = "cost" then begin
            let ns =
              match List.assoc_opt "ns" args with
              | Some (Trace.Int n) -> n
              | _ -> 0
            in
            let c, sum =
              match Hashtbl.find_opt top.f_node.m_prims name with
              | Some cell -> cell
              | None ->
                let cell = (ref 0, ref 0) in
                Hashtbl.replace top.f_node.m_prims name cell;
                cell
            in
            incr c;
            sum := !sum + ns;
            top.f_node.m_charge <- top.f_node.m_charge + ns;
            total := !total + ns;
            if top.f_node == root then unattributed := !unattributed + ns;
            (* attribute to the nearest enclosing span that named a
               cache (fault/pullIn/pushOut spans carry one) *)
            (match
               List.find_map (fun f -> f.f_cache) !stack
             with
            | Some id ->
              let cell =
                match Hashtbl.find_opt per_cache id with
                | Some r -> r
                | None ->
                  let r = ref 0 in
                  Hashtbl.replace per_cache id r;
                  r
              in
              cell := !cell + ns
            | None -> ())
          end
          else begin
            let cell =
              match Hashtbl.find_opt top.f_node.m_marks name with
              | Some r -> r
              | None ->
                let r = ref 0 in
                Hashtbl.replace top.f_node.m_marks name r;
                r
            in
            incr cell
          end
        | Trace.Counter _ -> ())
      arr
  in
  Hashtbl.fold (fun fib items acc -> (fib, !items) :: acc) fibs []
  |> List.sort compare
  |> List.iter (fun (_, items) -> sweep_fibre (List.rev items));
  {
    root = freeze root;
    total_charge_ns = !total;
    unattributed_ns = !unattributed;
    per_cache =
      Hashtbl.fold (fun id ns acc -> (id, !ns) :: acc) per_cache []
      |> List.sort compare;
    counter_series =
      Hashtbl.fold (fun name s acc -> (name, !s) :: acc) counters []
      |> List.sort compare;
    n_events;
    n_spans = !n_spans;
    n_dropped = Trace.dropped tr;
  }

(* --- §5.3.2 derivation -------------------------------------------- *)

type derived = {
  zero_fill_faults : int;
  cow_faults : int;
  copies : int;
  teardown_share_ns : float;
  demand_ns : float option;
  cow_ns : float option;
  tree_setup_ns : float option;
  protect_ns : float option;
}

let fault_kind label =
  if String.length label > 6 && String.sub label 0 6 = "fault:" then
    Some (String.sub label 6 (String.length label - 6))
  else None

(* The accounting rules, mirroring how the paper isolates overheads
   from the base copy costs (§5.3.2):

   - Per-fault *structure* cost of a resolution kind: every charge in
     the fault's subtree except the data movement itself (bzero/bcopy)
     and except work done by the pager fibres (cat "pager": device
     transfers triggered by eviction are not fault structure).
   - The teardown share: frames allocated by faults are released at
     region destroy, outside any fault span.  The paper's per-page
     numbers include that deferred cost, so we spread the frame_free /
     invalidate_page charges recorded outside fault subtrees evenly
     over the frames the faults allocated.
   - Tree setup and per-page protect come from the charges inside
     "copy" spans: tree_setup per copy operation, mmu_protect per
     protected page. *)
let derive (t : t) : derived =
  let struct_ns : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let fault_counts : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let alloc_in_fault = ref 0 in
  let free_outside = ref 0 in
  let copies = ref 0 in
  let tree_in_copy = ref 0 in
  let protect_in_copy_ns = ref 0 in
  let protect_in_copy_count = ref 0 in
  let bump tbl key by =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace tbl key (ref by)
  in
  let rec walk ~fault ~in_pager ~in_copy (n : node) =
    let fault = match fault_kind n.label with Some k -> Some k | None -> fault in
    let in_pager = in_pager || n.cat = "pager" in
    let in_copy = in_copy || n.label = "copy" in
    (match fault_kind n.label with
    | Some k -> bump fault_counts k n.count
    | None -> ());
    if n.label = "copy" then copies := !copies + n.count;
    List.iter
      (fun { prim; p_count; p_ns } ->
        (match fault with
        | Some k when not in_pager ->
          if prim <> "bzero_page" && prim <> "bcopy_page" then
            bump struct_ns k p_ns;
          if prim = "frame_alloc" then alloc_in_fault := !alloc_in_fault + p_count
        | _ ->
          if prim = "frame_free" || prim = "invalidate_page" then
            free_outside := !free_outside + p_ns);
        if in_copy then begin
          if prim = "tree_setup" then tree_in_copy := !tree_in_copy + p_ns;
          if prim = "mmu_protect" then begin
            protect_in_copy_ns := !protect_in_copy_ns + p_ns;
            protect_in_copy_count := !protect_in_copy_count + p_count
          end
        end)
      n.prims;
    List.iter (walk ~fault ~in_pager ~in_copy) n.children
  in
  walk ~fault:None ~in_pager:false ~in_copy:false t.root;
  let count k =
    match Hashtbl.find_opt fault_counts k with Some r -> !r | None -> 0
  in
  let structure k =
    match Hashtbl.find_opt struct_ns k with Some r -> !r | None -> 0
  in
  let share =
    if !alloc_in_fault = 0 then 0.
    else float_of_int !free_outside /. float_of_int !alloc_in_fault
  in
  let per kind =
    let n = count kind in
    if n = 0 then None
    else Some ((float_of_int (structure kind) /. float_of_int n) +. share)
  in
  {
    zero_fill_faults = count "zero-fill";
    cow_faults = count "cow-copy";
    copies = !copies;
    teardown_share_ns = share;
    demand_ns = per "zero-fill";
    cow_ns = per "cow-copy";
    tree_setup_ns =
      (if !copies = 0 then None
       else Some (float_of_int !tree_in_copy /. float_of_int !copies));
    protect_ns =
      (if !protect_in_copy_count = 0 then None
       else
         Some
           (float_of_int !protect_in_copy_ns
           /. float_of_int !protect_in_copy_count));
  }

(* --- Folded stacks ------------------------------------------------- *)

(* One line per (stack, primitive): "a;b;prim ns".  Feed to
   flamegraph.pl / speedscope / inferno as usual. *)
let to_folded (t : t) : string =
  let buf = Buffer.create 4096 in
  let lines = ref [] in
  let rec go path (n : node) =
    let path =
      if n.label = "" then path
      else if path = "" then n.label
      else path ^ ";" ^ n.label
    in
    List.iter
      (fun { prim; p_ns; _ } ->
        if p_ns > 0 then
          lines :=
            Printf.sprintf "%s;%s %d"
              (if path = "" then "(no-span)" else path)
              prim p_ns
            :: !lines)
      n.prims;
    List.iter (go path) n.children
  in
  go "" t.root;
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    (List.sort compare !lines);
  Buffer.contents buf

(* --- JSON ---------------------------------------------------------- *)

let rec node_json (n : node) : Json.t =
  Json.Obj
    ([
       ("label", Json.Str (if n.label = "" then "(root)" else n.label));
     ]
    @ (if n.cat = "" then [] else [ ("cat", Json.Str n.cat) ])
    @ [
        ("count", Json.Num (float_of_int n.count));
        ("total_ns", Json.Num (float_of_int n.total_ns));
        ("charge_ns", Json.Num (float_of_int n.charge_ns));
      ]
    @ (if n.prims = [] then []
       else
         [
           ( "prims",
             Json.List
               (List.map
                  (fun { prim; p_count; p_ns } ->
                    Json.Obj
                      [
                        ("prim", Json.Str prim);
                        ("count", Json.Num (float_of_int p_count));
                        ("ns", Json.Num (float_of_int p_ns));
                      ])
                  n.prims) );
         ])
    @ (if n.marks = [] then []
       else
         [
           ( "marks",
             Json.Obj
               (List.map
                  (fun (k, v) -> (k, Json.Num (float_of_int v)))
                  n.marks) );
         ])
    @
    if n.children = [] then []
    else [ ("children", Json.List (List.map node_json n.children)) ])

let opt_ms = function
  | None -> Json.Null
  | Some ns -> Json.Num (ns /. 1e6)

let derived_json (d : derived) : Json.t =
  Json.Obj
    [
      ("zero_fill_faults", Json.Num (float_of_int d.zero_fill_faults));
      ("cow_faults", Json.Num (float_of_int d.cow_faults));
      ("copies", Json.Num (float_of_int d.copies));
      ("teardown_share_ms", Json.Num (d.teardown_share_ns /. 1e6));
      ("demand_ms", opt_ms d.demand_ns);
      ("cow_ms", opt_ms d.cow_ns);
      ("tree_setup_ms", opt_ms d.tree_setup_ns);
      ("protect_ms", opt_ms d.protect_ns);
    ]

let to_json (t : t) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str "chorus-profile/1");
      ("events", Json.Num (float_of_int t.n_events));
      ("spans", Json.Num (float_of_int t.n_spans));
      ("dropped", Json.Num (float_of_int t.n_dropped));
      ("total_charge_ns", Json.Num (float_of_int t.total_charge_ns));
      ("unattributed_ns", Json.Num (float_of_int t.unattributed_ns));
      ("tree", node_json t.root);
      ( "caches",
        Json.List
          (List.map
             (fun (id, ns) ->
               Json.Obj
                 [
                   ("cache", Json.Num (float_of_int id));
                   ("ns", Json.Num (float_of_int ns));
                 ])
             t.per_cache) );
      ( "counters",
        Json.Obj
          (List.map
             (fun (name, s) ->
               ( name,
                 Json.Obj
                   [
                     ("samples", Json.Num (float_of_int s.samples));
                     ("first", Json.Num (float_of_int s.first));
                     ("last", Json.Num (float_of_int s.last));
                     ("min", Json.Num (float_of_int s.s_min));
                     ("max", Json.Num (float_of_int s.s_max));
                   ] ))
             t.counter_series) );
      ("derived", derived_json (derive t));
    ]

(* --- Text report --------------------------------------------------- *)

let ms ns = float_of_int ns /. 1e6

let pp_derived ppf (d : derived) =
  let line name per = function
    | None -> Format.fprintf ppf "  %-24s        (not exercised)@," name
    | Some ns -> Format.fprintf ppf "  %-24s %8.4f ms/%s@," name (ns /. 1e6) per
  in
  Format.fprintf ppf "derived \xc2\xa75.3.2 decomposition:@,";
  Format.fprintf ppf
    "  (%d zero-fill faults, %d COW faults, %d copies; teardown share \
     %.4f ms/page)@,"
    d.zero_fill_faults d.cow_faults d.copies
    (d.teardown_share_ns /. 1e6);
  line "demand-alloc overhead" "page" d.demand_ns;
  line "COW overhead" "page" d.cow_ns;
  line "tree setup" "copy" d.tree_setup_ns;
  line "protect" "page" d.protect_ns

let pp ppf (t : t) =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "profile: %d events, %d spans, %.3f ms attributed@,"
    t.n_events t.n_spans (ms t.total_charge_ns);
  if t.n_dropped > 0 then
    Format.fprintf ppf
      "WARNING: %d events dropped by the ring buffer; attribution below is \
       incomplete (raise the tracer capacity)@,"
      t.n_dropped;
  Format.fprintf ppf "cost tree (simulated ms):@,";
  Format.fprintf ppf "  %-40s %8s %12s %12s@," "" "count" "total" "charged";
  let rec pr depth (n : node) =
    let indent = String.make (2 * depth) ' ' in
    if n.label <> "" then
      Format.fprintf ppf "  %-40s %8d %12.3f %12.3f@,"
        (indent ^ n.label
        ^ if n.cat = "" then "" else " [" ^ n.cat ^ "]")
        n.count (ms n.total_ns) (ms n.charge_ns);
    List.iter
      (fun { prim; p_count; p_ns } ->
        Format.fprintf ppf "  %-40s %8d %12s %12.3f@,"
          (indent ^ "  \xc2\xb7 " ^ prim)
          p_count "" (ms p_ns))
      n.prims;
    List.iter
      (fun (mark, count) ->
        Format.fprintf ppf "  %-40s %8d@,"
          (indent ^ "  \xe2\x80\xa2 " ^ mark)
          count)
      n.marks;
    List.iter (pr (if n.label = "" then depth else depth + 1)) n.children
  in
  pr 0 t.root;
  if t.unattributed_ns > 0 then
    Format.fprintf ppf "  %-40s %8s %12s %12.3f@," "(outside any span)" "" ""
      (ms t.unattributed_ns);
  (match t.per_cache with
  | [] -> ()
  | caches ->
    Format.fprintf ppf "per-cache attribution:@,";
    List.iter
      (fun (id, ns) ->
        Format.fprintf ppf "  cache %-4d %12.3f ms@," id (ms ns))
      caches);
  (match t.counter_series with
  | [] -> ()
  | series ->
    Format.fprintf ppf "counter series:@,";
    Format.fprintf ppf "  %-28s %8s %10s %10s %10s %10s@," "" "samples"
      "first" "last" "min" "max";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf "  %-28s %8d %10d %10d %10d %10d@," name s.samples
          s.first s.last s.s_min s.s_max)
      series);
  pp_derived ppf (derive t);
  Format.fprintf ppf "@]"

(* --- Per-CPU utilization (simulated CPUs) ------------------------- *)

let pp_utilization ppf ~(busy : int array) ~makespan =
  let n = Array.length busy in
  Format.fprintf ppf "@[<v>per-CPU utilization (simulated time):@,";
  if n = 0 then
    Format.fprintf ppf "  (no simulated CPUs: sequential run)@,"
  else begin
    let ms ns = float_of_int ns /. 1e6 in
    Format.fprintf ppf "  %-6s %12s %12s %7s@," "cpu" "busy ms" "idle ms"
      "util";
    let total_busy = ref 0 in
    Array.iteri
      (fun i b ->
        total_busy := !total_busy + b;
        let idle = max 0 (makespan - b) in
        Format.fprintf ppf "  %-6d %12.3f %12.3f %6.1f%%@," i (ms b) (ms idle)
          (if makespan = 0 then 0.
           else 100. *. float_of_int b /. float_of_int makespan))
      busy;
    Format.fprintf ppf "  %-6s %12.3f %12.3f@," "total" (ms !total_busy)
      (ms ((n * makespan) - !total_busy));
    Format.fprintf ppf
      "  makespan %.3f ms; parallel efficiency %.1f%% (total busy / %d CPUs \
       x makespan)@,"
      (ms makespan)
      (if makespan = 0 then 0.
       else
         100. *. float_of_int !total_busy /. float_of_int (n * makespan))
      n
  end;
  Format.fprintf ppf "@]"
