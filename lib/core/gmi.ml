type fill_up = offset:int -> ?pos:int -> ?len:int -> Bytes.t -> unit
type copy_back = offset:int -> size:int -> Bytes.t

type backing = {
  b_name : string;
  b_pull_in : offset:int -> size:int -> prot:Hw.Prot.t -> fill_up:fill_up -> unit;
  b_get_write_access : offset:int -> size:int -> unit;
  b_push_out : offset:int -> size:int -> copy_back:copy_back -> unit;
}

type copy_strategy = [ `Auto | `Eager | `History | `Per_page ]
type copy_policy = [ `Copy_on_write | `Copy_on_reference ]

exception Segmentation_fault of int
exception Protection_fault of int
exception No_memory

let fill_up_slice ~page_size ~offset ~pos ?len bytes =
  let len = match len with Some n -> n | None -> Bytes.length bytes - pos in
  if pos < 0 || len < 0 || pos > Bytes.length bytes - len then
    invalid_arg "fillUp: slice outside the buffer";
  if offset mod page_size <> 0 then
    invalid_arg "fillUp: offset not page-aligned";
  if len mod page_size <> 0 then
    invalid_arg "fillUp: data not a whole number of pages";
  len

let pp_strategy ppf = function
  | `Auto -> Format.pp_print_string ppf "auto"
  | `Eager -> Format.pp_print_string ppf "eager"
  | `History -> Format.pp_print_string ppf "history"
  | `Per_page -> Format.pp_print_string ppf "per-page"

module type S = sig
  type t
  type context
  type region
  type cache

  val name : string

  val create :
    ?page_size:int ->
    ?cost:Hw.Cost.profile ->
    frames:int ->
    engine:Hw.Engine.t ->
    unit ->
    t

  val page_size : t -> int
  val context_create : t -> context
  val context_destroy : t -> context -> unit

  val region_create :
    t ->
    context ->
    addr:int ->
    size:int ->
    prot:Hw.Prot.t ->
    cache ->
    offset:int ->
    region

  val region_destroy : t -> region -> unit
  val region_set_protection : t -> region -> Hw.Prot.t -> unit
  val region_lock : t -> region -> unit
  val region_unlock : t -> region -> unit
  val cache_create : t -> ?backing:backing -> unit -> cache
  val cache_destroy : t -> cache -> unit

  val copy :
    t ->
    ?strategy:copy_strategy ->
    src:cache ->
    src_off:int ->
    dst:cache ->
    dst_off:int ->
    size:int ->
    unit ->
    unit

  val fill_up :
    t -> cache -> offset:int -> ?pos:int -> ?len:int -> Bytes.t -> unit
  val copy_back : t -> cache -> offset:int -> size:int -> Bytes.t
  val sync : t -> cache -> offset:int -> size:int -> unit
  val touch : t -> context -> addr:int -> access:Hw.Mmu.access -> unit
  val read : t -> context -> addr:int -> len:int -> Bytes.t
  val write : t -> context -> addr:int -> Bytes.t -> unit
end
