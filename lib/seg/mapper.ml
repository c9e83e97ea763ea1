exception Bad_capability

type t = {
  name : string;
  read : key:int64 -> offset:int -> size:int -> Bytes.t * int;
  write : key:int64 -> offset:int -> Bytes.t -> unit;
  truncate : key:int64 -> size:int -> unit;
  segment_size : key:int64 -> int;
  create_temporary : (unit -> int64) option;
  destroy_segment : key:int64 -> unit;
}
