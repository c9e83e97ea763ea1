(* Host-clock spans recorded by the benchmark around each call it makes
   into a layer of the program.

   A span carries its name, the op it belongs to, its parent span, host
   monotonic start/end and simulated start/end ([Hw.Engine.now], which
   is the slice clock inside a parallel slice), so the cost model's
   charge sits beside the measured time of the same call.  Spans go
   into preallocated per-domain buffers (struct-of-arrays of ints), so
   recording one allocates nothing; the runner drains them
   between rounds, outside the timed phase.

   A handle encodes (buffer, slot), so a span closed on another domain
   than the one that opened it (a fibre resumed elsewhere) still lands
   in its own slot. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Span names: [layer.function] of the call the benchmark makes. *)
let op = 0
let core_write = 1
let core_read = 2
let nucleus_send = 3
let nucleus_receive = 4
let nucleus_write = 5
let nucleus_read = 6
let mix_fork = 7
let mix_exec = 8
let mix_compile = 9
let mix_read = 10
let mix_write = 11
let mix_sbrk = 12
let mix_pipe = 13
let mix_exit_wait = 14

let names =
  [| "op"; "core.write"; "core.read"; "nucleus.send"; "nucleus.receive";
     "nucleus.write"; "nucleus.read"; "mix.fork"; "mix.exec"; "mix.compile";
     "mix.read"; "mix.write"; "mix.sbrk"; "mix.pipe"; "mix.exit_wait" |]

(* The layer a span name belongs to, for self-time shares. *)
let layer name =
  let s = names.(name) in
  match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s

(* Slots per domain buffer.  A round records at most a few tens of
   thousands of spans; overflow is counted, never silently lost. *)
let cap = 1 lsl 15
let max_buffers = 64
let no_kind = -1

type buf = {
  b_name : int array;
  b_op : int array;
  b_parent : int array;
  b_kind : int array;
  b_h0 : int array;
  b_h1 : int array;
  b_s0 : int array;
  b_s1 : int array;
  b_worker : bool; (* buffer of a pool worker domain *)
  mutable b_n : int;
  mutable b_dropped : int;
}

let buffers : buf option array = Array.make max_buffers None
let registry = Mutex.create ()
let enabled = ref false

let fresh_buf () =
  let a () = Array.make cap 0 in
  {
    b_name = a (); b_op = a (); b_parent = a (); b_kind = a ();
    b_h0 = a (); b_h1 = a (); b_s0 = a (); b_s1 = a ();
    b_worker = Hw.Engine.in_parallel_slice ();
    b_n = 0; b_dropped = 0;
  }

(* Buffers are recycled across rounds: the engine spawns fresh worker
   domains on every run, and a retired worker's buffer is adopted by the
   next worker that asks, so buffer memory stays bounded by the number
   of domains alive at once. *)
let free_ids : int list ref = ref []
let registered = ref 0

let key : int Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry;
      let id =
        match !free_ids with
        | id :: rest ->
          free_ids := rest;
          id
        | [] ->
          let id = !registered in
          if id >= max_buffers then begin
            Mutex.unlock registry;
            failwith "Span: too many domains"
          end;
          incr registered;
          buffers.(id) <- Some (fresh_buf ());
          id
      in
      Mutex.unlock registry;
      id)

let buf_of id =
  match buffers.(id) with Some b -> b | None -> assert false

let start eng ~name ~op ~parent =
  if not !enabled then -1
  else begin
    let id = Domain.DLS.get key in
    let b = buf_of id in
    let i = b.b_n in
    if i >= cap then begin
      b.b_dropped <- b.b_dropped + 1;
      -1
    end
    else begin
      b.b_n <- i + 1;
      b.b_name.(i) <- name;
      b.b_op.(i) <- op;
      b.b_parent.(i) <- parent;
      b.b_kind.(i) <- no_kind;
      b.b_s0.(i) <- Hw.Engine.now eng;
      b.b_h0.(i) <- now_ns ();
      (id * cap) + i
    end
  end

let stop_kind eng h kind =
  if h >= 0 then begin
    let b = buf_of (h / cap) and i = h mod cap in
    b.b_h1.(i) <- now_ns ();
    b.b_s1.(i) <- Hw.Engine.now eng;
    b.b_kind.(i) <- kind
  end

let stop eng h = stop_kind eng h no_kind

type span = {
  id : int;
  name : int;
  op_id : int;
  parent : int;
  kind : int;  (** fault kind ({!Counters.kinds} index), mixed, none *)
  h0 : int;
  h1 : int;
  s0 : int;
  s1 : int;
  worker : bool;
}

(* Take every recorded span out of the buffers and reset them; also
   returns how many spans overflowed.  Call only at quiescence. *)
let drain () =
  Mutex.lock registry;
  let out = ref [] and dropped = ref 0 in
  for id = !registered - 1 downto 0 do
    match buffers.(id) with
    | None -> ()
    | Some b ->
      for i = b.b_n - 1 downto 0 do
        out :=
          {
            id = (id * cap) + i; name = b.b_name.(i); op_id = b.b_op.(i);
            parent = b.b_parent.(i); kind = b.b_kind.(i); h0 = b.b_h0.(i);
            h1 = b.b_h1.(i); s0 = b.b_s0.(i); s1 = b.b_s1.(i);
            worker = b.b_worker;
          }
          :: !out
      done;
      dropped := !dropped + b.b_dropped;
      b.b_n <- 0;
      b.b_dropped <- 0;
      (* a worker domain's buffer is free for the next engine's pool *)
      if b.b_worker && not (List.mem id !free_ids) then
        free_ids := id :: !free_ids
  done;
  Mutex.unlock registry;
  (Array.of_list !out, !dropped)

(* Interval arithmetic over host-clock (start, end) pairs. *)

(* Sorted, disjoint union of intervals. *)
let union ivs =
  let rec go acc = function
    | [] -> List.rev acc
    | (a, b) :: rest -> (
      match acc with
      | (ca, cb) :: acc' when a <= cb -> go ((ca, max cb b) :: acc') rest
      | _ -> go ((a, b) :: acc) rest)
  in
  go [] (List.sort compare ivs)

let length ivs = List.fold_left (fun n (a, b) -> n + (b - a)) 0 ivs

(* Length of the intersection of two sorted disjoint interval lists. *)
let rec inter xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> 0
  | (a, b) :: xs', (c, d) :: ys' ->
    let overlap = max 0 (min b d - max a c) in
    if b < d then overlap + inter xs' ys else overlap + inter xs ys'

(* Self time of every span: its duration minus the part of it that its
   own children cover.  Returns (span, self ns) pairs. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.h0, s.h1)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  Array.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.h1 - s.h0 - inter [ (s.h0, s.h1) ] (union kids)))
    spans
