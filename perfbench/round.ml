(* One round of a workload: set up a fresh site, run a batch of ops in a
   timed phase, and keep what the report needs.  The timed phase opens
   after set-up and closes when the engine drains, so the host clock,
   the simulated clock, the layers' counters and the GC counters all
   cover the same interval. *)

type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.minor_words;
    promoted_words = s.promoted_words;
    major_words = s.major_words;
    minor_collections = s.minor_collections;
    major_collections = s.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_words = b.major_words -. a.major_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(* Words allocated: minor allocations plus direct major allocations
   (promotions are minor words counted twice in [major_words]). *)
let gc_words g = g.minor_words +. g.major_words -. g.promoted_words

type measure = {
  setup_ns : int;  (** start of the round to the first timed op *)
  wall_ns : int;  (** host time of the timed phase *)
  lat : int array;  (** host ns per op; [max_int] for a failed op *)
  failed : int;
  sim_ns : int;  (** simulated time of the timed phase *)
  counters : int array;  (** {!Counters} delta over the timed phase *)
  gc : gc;
  domains : int;
}

(* The measurements are kept for the whole run; the PVM, with its frame
   pool, only until the round is checked. *)
type t = { m : measure; pvm : Core.Pvm.t }

let attempted r = Array.length r.lat

type phase = { t0 : int; sim0 : int; c0 : int array; g0 : gc }

(* Called from the round's main fibre when set-up is done. *)
let begin_timed pvm =
  let c0 = Counters.read pvm in
  let g0 = gc_now () in
  let sim0 = Hw.Engine.now (Core.Pvm.engine pvm) in
  { t0 = Span.now_ns (); sim0; c0; g0 }

(* Called once the engine has drained. *)
let end_timed ~start phase pvm ~lat ~failed =
  let t1 = Span.now_ns () in
  let g1 = gc_now () in
  let eng = Core.Pvm.engine pvm in
  let m =
  {
    setup_ns = phase.t0 - start;
    wall_ns = t1 - phase.t0;
    lat;
    failed;
    sim_ns = Hw.Engine.now eng - phase.sim0;
    counters = Counters.diff ~before:phase.c0 ~after:(Counters.read pvm);
    gc = gc_diff phase.g0 g1;
    domains = Hw.Engine.domains eng;
  }
  in
  { m; pvm }

(* Run [f] as one op: its exceptions count as a failed check, never
   escape.  [f] returns whether its own check passed. *)
let guarded f = match f () with ok -> ok | exception _ -> false

(* A seeded permutation of [0 .. n-1]. *)
let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The byte a workload writes (or expects) at [i] under [tag]: cheap,
   position-dependent, so a page read from the wrong place shows. *)
let pattern ~tag i =
  let h = (tag * 0x9E3779B1) + (i * 0x85EBCA6B) in
  Char.unsafe_chr ((h lxor (h lsr 17)) land 0xff)

let bytes_ok b ~tag ~from =
  let ok = ref true in
  Bytes.iteri (fun k c -> if c <> pattern ~tag (from + k) then ok := false) b;
  !ok
