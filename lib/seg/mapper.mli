(** The mapper interface (paper §5.1.1).

    A segment is implemented by an independent actor, its mapper,
    generally on secondary storage.  A mapper exports a standard
    read/write interface; {e default} mappers additionally export
    allocation of temporary segments (used for swap and for
    [rgnAllocate]'d anonymous memory).

    At this layer the mapper is a record of functions; the nucleus
    library wraps the calls in IPC messages to the mapper's port. *)

exception Bad_capability

type t = {
  name : string;
  read : key:int64 -> offset:int -> size:int -> Bytes.t * int;
      (** Read segment data: [(store, pos)], where the [size] bytes at
          [pos] in [store] are the range.  The store may be the
          mapper's own buffer, handed out without a copy, so the
          caller reads the range and must not write it or keep it.
          Reads beyond the segment's current extent return zeroes
          (segments are sparse).  May block on simulated device time.

          {b The view is safe for one [fillUp].}  A store range handed
          to [fillUp] is not written before [fillUp] returns: only the
          one local cache bound to a segment writes it (by [pushOut]),
          and that cache holds the pulled offset under a
          synchronization stub until [fillUp] has copied it.  Its
          writes to other offsets touch only their own ranges, and a
          mapper that must resize a store to grow or truncate it
          replaces the store, which leaves a handed-out one intact.
          @raise Bad_capability for an unknown key. *)
  write : key:int64 -> offset:int -> Bytes.t -> unit;
      (** Write segment data, growing the segment if needed. *)
  truncate : key:int64 -> size:int -> unit;
  segment_size : key:int64 -> int;
  create_temporary : (unit -> int64) option;
      (** Present on default mappers: allocate a temporary segment and
          return its key. *)
  destroy_segment : key:int64 -> unit;
}
