(* The PVM packaged behind the generic interface signature, so code
   (and the conformance suite) can be written against {!Gmi.S} and run
   over any memory-manager implementation. *)

type t = Pvm.t
type context = Pvm.context
type region = Pvm.region
type cache = Pvm.cache

let name = "PVM (demand-paged, deferred copies)"

let create ?page_size ?cost ~frames ~engine () =
  Pvm.create ?page_size ?cost ~frames ~engine ()
let page_size = Pvm.page_size
let context_create = Context.create
let context_destroy = Context.destroy
let region_create = Region.create
let region_destroy = Region.destroy
let region_set_protection = Region.set_protection
let region_lock = Region.lock_in_memory
let region_unlock = Region.unlock
let cache_create pvm ?backing () = Cache.create pvm ?backing ()
let cache_destroy = Cache.destroy

let copy pvm ?(strategy = `Auto) ~src ~src_off ~dst ~dst_off ~size () =
  Cache.copy pvm ~strategy ~src ~src_off ~dst ~dst_off ~size ()

let fill_up = Cache.fill_up
let copy_back = Cache.copy_back
let sync = Cache.sync
let touch = Pvm.touch
let read = Pvm.read
let write = Pvm.write

(* Signature check. *)
module Check : Gmi.S = struct
  type nonrec t = t
  type nonrec context = context
  type nonrec region = region
  type nonrec cache = cache

  let name = name
  let create = create
  let page_size = page_size
  let context_create = context_create
  let context_destroy = context_destroy
  let region_create = region_create
  let region_destroy = region_destroy
  let region_set_protection = region_set_protection
  let region_lock = region_lock
  let region_unlock = region_unlock
  let cache_create = cache_create
  let cache_destroy = cache_destroy
  let copy = copy
  let fill_up = fill_up
  let copy_back = copy_back
  let sync = sync
  let touch = touch
  let read = read
  let write = write
end
