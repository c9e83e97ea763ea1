(* Tracing sink: a ring buffer of typed events over an injected
   simulated clock.  Everything here is deliberately dependency-free
   (timestamps are plain ns integers) so that the hardware layer — the
   discrete-event engine included — can depend on it.

   Spans are recorded complete, at close, from per-fibre stacks of
   open spans.  A lane slice of the engine (one fibre running on a
   simulated CPU) is placed when it starts, so its records go straight
   into the ring like any other; {!slice_commit} adds one per-CPU
   "slice" span when it ends. *)

type value = Int of int | Str of string
type args = (string * value) list

type event =
  | Span of {
      name : string;
      cat : string;
      ts : int;
      dur : int;
      fib : int;
      args : args;
    }
  | Instant of { name : string; cat : string; ts : int; fib : int; args : args }
  | Counter of { name : string; ts : int; value : int }

type t = {
  capacity : int;
  mutable enabled : bool;
  mutable clock : unit -> int;
  mutable fibre : unit -> int;
  mutable buf : event array;
  mutable start : int; (* index of the oldest event *)
  mutable len : int;
  mutable dropped : int;
  (* per-fibre stacks of open spans: (name, cat, begin ts) *)
  open_spans : (int, (string * string * int) list ref) Hashtbl.t;
  fibre_names : (int, string) Hashtbl.t;
}

let filler = Counter { name = ""; ts = 0; value = 0 }

let create ?(capacity = 262_144) () =
  {
    capacity = max capacity 0;
    enabled = false;
    clock = (fun () -> 0);
    fibre = (fun () -> 0);
    buf = [||];
    start = 0;
    len = 0;
    dropped = 0;
    open_spans = Hashtbl.create 16;
    fibre_names = Hashtbl.create 16;
  }

(* Capacity 0 makes [enable] a no-op: the null sink can never record. *)
let null = create ~capacity:0 ()

let enabled t = t.enabled
let enable t = if t.capacity > 0 then t.enabled <- true

let set_clock t clock = t.clock <- clock
let set_fibre t fibre = t.fibre <- fibre

let name_fibre t fib name =
  if t.capacity > 0 then Hashtbl.replace t.fibre_names fib name

let push t ev =
  if t.buf = [||] then t.buf <- Array.make t.capacity filler;
  if t.len < t.capacity then begin
    t.buf.((t.start + t.len) mod t.capacity) <- ev;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.start) <- ev;
    t.start <- (t.start + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end

let stack_of tbl fib =
  match Hashtbl.find_opt tbl fib with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace tbl fib s;
    s

(* --- Recording entry points --------------------------------------- *)

let span_begin t ?(cat = "") name =
  if t.enabled then begin
    let stack = stack_of t.open_spans (t.fibre ()) in
    stack := (name, cat, t.clock ()) :: !stack
  end

(* Close the current fibre's innermost span; an unbalanced end is
   tolerated and records nothing. *)
let span_end ?(args = []) t =
  if t.enabled then begin
    let fib = t.fibre () and ts = t.clock () in
    let stack = stack_of t.open_spans fib in
    match !stack with
    | [] -> ()
    | (name, cat, ts0) :: rest ->
      stack := rest;
      push t (Span { name; cat; ts = ts0; dur = ts - ts0; fib; args })
  end

(* The engine placed the lane slice that just completed on simulated
   CPU [cpu] over [t0, t1]: one "slice" span (cat ["cpu"]) builds that
   CPU's track of the timeline. *)
let slice_commit t ~cpu ~fib ~t0 ~t1 =
  if t.enabled then
    push t
      (Span
         {
           name = "slice";
           cat = "cpu";
           ts = t0;
           dur = t1 - t0;
           fib = cpu;
           args = [ ("fib", Int fib) ];
         })

let with_span t ?cat name f =
  if not t.enabled then f ()
  else begin
    span_begin t ?cat name;
    match f () with
    | v ->
      span_end t;
      v
    | exception e ->
      span_end ~args:[ ("exception", Str (Printexc.to_string e)) ] t;
      raise e
  end

let instant t ?(cat = "") ?(args = []) name =
  if t.enabled then
    push t (Instant { name; cat; ts = t.clock (); fib = t.fibre (); args })

let counter t name value =
  if t.enabled then push t (Counter { name; ts = t.clock (); value })

(* The cost-attribution fast path: one record per charged primitive
   inside the fault handlers. *)
let[@chorus.hot] [@chorus.alloc_ok
                   "the cost record is the tracer's payload: one block per \
                    charged primitive, by design"] charge t ~prim ~span =
  if t.enabled then
    push t
      (Instant
         {
           name = prim;
           cat = "cost";
           ts = t.clock ();
           fib = t.fibre ();
           args = [ ("ns", Int span) ];
         })

(* --- Reading ------------------------------------------------------ *)

let events t = List.init t.len (fun i -> t.buf.((t.start + i) mod t.capacity))
let length t = t.len
let dropped t = t.dropped

(* --- Export ------------------------------------------------------- *)

let ts_of = function Span { ts; _ } | Instant { ts; _ } | Counter { ts; _ } -> ts
let dur_of = function Span { dur; _ } -> dur | Instant _ | Counter _ -> 0

(* Chronological; an enclosing span sorts before the spans and
   instants it contains (same ts, longer duration first). *)
let sorted_events t =
  List.stable_sort
    (fun a b ->
      let c = compare (ts_of a) (ts_of b) in
      if c <> 0 then c else compare (dur_of b) (dur_of a))
    (events t)

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_json_string buf s =
  Buffer.add_char buf '"';
  json_escape buf s;
  Buffer.add_char buf '"'

let add_us buf ns =
  (* trace_event timestamps are microseconds; keep ns precision in the
     fraction *)
  Buffer.add_string buf (Printf.sprintf "%.3f" (float_of_int ns /. 1e3))

let add_args buf args =
  Buffer.add_string buf "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      match v with
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Str s -> add_json_string buf s)
    args;
  Buffer.add_char buf '}'

(* Events in category "cpu" (the per-slice placement spans of lane
   slices) render as a second Chrome process whose threads are
   the simulated CPUs; everything else keeps pid 1 with one thread per
   fibre. *)
let pid_of_cat cat = if cat = "cpu" then 2 else 1

let add_event buf ev =
  let common ~name ~cat ~ph ~ts ~pid ~fib =
    Buffer.add_string buf "{\"name\":";
    add_json_string buf name;
    if cat <> "" then begin
      Buffer.add_string buf ",\"cat\":";
      add_json_string buf cat
    end;
    Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\",\"ts\":" ph);
    add_us buf ts;
    Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid fib)
  in
  (match ev with
  | Span { name; cat; ts; dur; fib; args } ->
    common ~name ~cat ~ph:"X" ~ts ~pid:(pid_of_cat cat) ~fib;
    Buffer.add_string buf ",\"dur\":";
    add_us buf dur;
    Buffer.add_char buf ',';
    add_args buf args
  | Instant { name; cat; ts; fib; args } ->
    common ~name ~cat ~ph:"i" ~ts ~pid:(pid_of_cat cat) ~fib;
    Buffer.add_string buf ",\"s\":\"t\",";
    add_args buf args
  | Counter { name; ts; value } ->
    common ~name ~cat:"" ~ph:"C" ~ts ~pid:1 ~fib:0;
    Buffer.add_char buf ',';
    add_args buf [ ("value", Int value) ]);
  Buffer.add_char buf '}'

let to_chrome_json t =
  let evs = sorted_events t in
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  (* thread_name metadata first, sorted for determinism *)
  Hashtbl.fold (fun fib name acc -> (fib, name) :: acc) t.fibre_names []
  |> List.sort compare
  |> List.iter (fun (fib, name) ->
         sep ();
         Buffer.add_string buf
           (Printf.sprintf
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
               \"args\":{\"name\":"
              fib);
         add_json_string buf name;
         Buffer.add_string buf "}}");
  (* one track per simulated CPU, when lane slices recorded any *)
  let cpus =
    List.sort_uniq compare
      (List.filter_map
         (function Span { cat = "cpu"; fib; _ } -> Some fib | _ -> None)
         evs)
  in
  if cpus <> [] then begin
    sep ();
    Buffer.add_string buf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"fibres\"}}";
    sep ();
    Buffer.add_string buf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"simulated CPUs\"}}";
    List.iter
      (fun cpu ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":%d,\
              \"args\":{\"name\":\"cpu %d\"}}"
             cpu cpu))
      cpus
  end;
  List.iter
    (fun ev ->
      sep ();
      add_event buf ev)
    evs;
  (* ring-overwrite count as top-level metadata: a nonzero value means
     the buffer was too small and the trace is a suffix of the run *)
  Buffer.add_string buf
    (Printf.sprintf
       "],\"otherData\":{\"droppedEvents\":%d,\"bufferedEvents\":%d}}\n"
       (dropped t) (length t));
  Buffer.contents buf
