(* Per-layer aggregation of the spans of traced rounds: host and
   simulated durations by span name and by fault kind, self time by
   layer, and how much of the ops' host time no layer span covers. *)

(* A growable int vector. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

(* The [q]-quantile (0..1) of [a], nearest rank; 0 when empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    a.(min (n - 1) (int_of_float (q *. float_of_int n)))
  end

type durations = { host : Vec.t; sim : Vec.t }

let durations () = { host = Vec.create (); sim = Vec.create () }

type t = {
  by_name : durations array;  (** indexed by span name *)
  by_kind : durations array;  (** indexed by fault kind; last = mixed *)
  self_ns : (string, int) Hashtbl.t;  (** by layer; "op" = unattributed *)
  mutable op_ns : int;  (** union of op spans, summed per domain buffer *)
  mutable covered_ns : int;  (** the part of it layer spans cover *)
  mutable worker_op_ns : int;  (** op span time on pool worker domains *)
  mutable dropped : int;  (** spans lost to full buffers *)
}

let create () =
  {
    by_name = Array.init (Array.length Span.names) (fun _ -> durations ());
    by_kind = Array.init (Counters.n_kinds + 1) (fun _ -> durations ());
    self_ns = Hashtbl.create 8;
    op_ns = 0;
    covered_ns = 0;
    worker_op_ns = 0;
    dropped = 0;
  }

let add t (spans, dropped) =
  t.dropped <- t.dropped + dropped;
  Array.iter
    (fun (s, self) ->
      let d = t.by_name.(s.Span.name) in
      Vec.push d.host (s.h1 - s.h0);
      Vec.push d.sim (s.s1 - s.s0);
      if s.kind >= 0 then begin
        let k = t.by_kind.(s.kind) in
        Vec.push k.host (s.h1 - s.h0);
        Vec.push k.sim (s.s1 - s.s0)
      end;
      let layer = Span.layer s.name in
      Hashtbl.replace t.self_ns layer
        (self + Option.value ~default:0 (Hashtbl.find_opt t.self_ns layer));
      if s.name = Span.op && s.worker then
        t.worker_op_ns <- t.worker_op_ns + (s.h1 - s.h0))
    (Span.self_times spans);
  (* Per domain buffer (one timeline each): how much of the time spent
     inside ops some layer span covers.  Ops may overlap (several jobs
     or messages in flight), hence unions rather than sums. *)
  let by_buf = Hashtbl.create 4 in
  Array.iter
    (fun s ->
      let b = s.Span.id / Span.cap in
      let ops, layers =
        Option.value ~default:([], []) (Hashtbl.find_opt by_buf b)
      in
      let iv = (s.h0, s.h1) in
      Hashtbl.replace by_buf b
        (if s.name = Span.op then (iv :: ops, layers) else (ops, iv :: layers)))
    spans;
  Hashtbl.iter
    (fun _ (ops, layers) ->
      let ops = Span.union ops in
      t.op_ns <- t.op_ns + Span.length ops;
      t.covered_ns <- t.covered_ns + Span.inter ops (Span.union layers))
    by_buf

let p50 v = quantile (Vec.to_array v) 0.5
let count v = v.Vec.n
