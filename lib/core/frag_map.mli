(** The hash table behind the global map (paper §4.1): bindings keyed
    by a fragment, [(cache id, offset)].

    The paper's global map is a single hash table keyed by
    [(cache, offset)] and sized by real memory only.  A key is two
    ints, passed and stored unboxed; the map does not interpret them
    beyond hashing and comparing them (the global map passes page
    offsets, the stub-source table the offsets of source pages).
    Point results equal a [Hashtbl] holding at most one binding per
    key; a qcheck suite pins that equivalence.  {!find_opt} and
    {!mem} allocate nothing.

    Point operations are counted: the [gmap.probes] metric surfaced by
    [chorus stats]. *)

type 'v t

val create : ?capacity:int -> unit -> 'v t
(** [capacity] (default 0) is the number of bindings the map is
    expected to hold: the table starts with a bucket per binding (16
    at least), half the load that doubles it, so filling the map to
    [capacity] does not rehash.  It is a size hint only: the map still
    grows past it. *)

val find_opt : 'v t -> int -> int -> 'v option
(** [find_opt t cid off]. *)

val mem : 'v t -> int -> int -> bool
val replace : 'v t -> int -> int -> 'v -> unit
val remove : 'v t -> int -> int -> unit

val add_if_absent : 'v t -> int -> int -> 'v -> bool
(** Install a binding if the key is unbound, in one probe; returns
    whether the binding was installed. *)

val length : 'v t -> int

val iter : (int -> int -> 'v -> unit) -> 'v t -> unit
(** Visit every binding as [f cid off v].  The order is unspecified:
    callers that need one sort what they collect. *)

val fold : (int -> int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** As {!iter}, folding; same unspecified order. *)

val probes : 'v t -> int
(** Total point operations (find/mem/replace/remove/add) served. *)
