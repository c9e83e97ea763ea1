type state = Running | Zombie of int | Reaped

type t = {
  p_pid : int;
  mutable p_actor : Nucleus.Actor.t;
  mutable p_state : state;
  mutable p_image : string;
  mutable p_children : t list;
  mutable p_brk : int; (* first unallocated heap address *)
}

type manager = {
  site : Nucleus.Site.t;
  images : Image.store;
  transit : Nucleus.Transit.t;
  mutable next_pid : int;
  mutable live : int;
      (* running processes: a count, not a table — a reaped process
         is referenced by nothing here *)
}

(* A fixed Unix-like layout, in a 4 GB-ish virtual space.  The gaps
   between areas are large enough for any image the tests build. *)
let text_base = 0x0040_0000
let data_base = 0x1000_0000
let bss_base = 0x2000_0000
let stack_base = 0x7000_0000
let stack_size = 16 * 8192
let heap_base = 0x3800_0000

let create_manager site images =
  {
    site;
    images;
    transit = Nucleus.Transit.create site ();
    next_pid = 1;
    live = 0;
  }

let transit m = m.transit
let site m = m.site

let pid p = p.p_pid
let state p = p.p_state
let actor p = p.p_actor
let image_name p = p.p_image

let live_processes m = m.live

let check_running p =
  if p.p_state <> Running then invalid_arg "MIX: process not running"

let[@chorus.hot] rec free_mappings actor = function
  | [] -> ()
  | m :: rest ->
    Nucleus.Actor.rgn_free actor m;
    free_mappings actor rest

(* Unmap everything the actor maps (exec and exit tear the address
   space down). *)
let[@chorus.hot] clear_address_space (p : t) =
  free_mappings p.p_actor p.p_actor.Nucleus.Actor.a_mappings

(* The Unix exec (§5.1.5): rgnMap for text, rgnInit for data,
   rgnAllocate for bss and stack. *)
let exec m (p : t) ~image =
  check_running p;
  let img = Image.find m.images image in
  clear_address_space p;
  ignore
    (Nucleus.Actor.rgn_map p.p_actor ~addr:text_base ~size:img.Image.text_size
       ~prot:Hw.Prot.read_execute img.Image.text_cap ~offset:0);
  ignore
    (Nucleus.Actor.rgn_init p.p_actor ~addr:data_base ~size:img.Image.data_size
       ~prot:Hw.Prot.read_write img.Image.data_cap ~offset:0);
  if img.Image.bss_size > 0 then
    ignore
      (Nucleus.Actor.rgn_allocate p.p_actor ~addr:bss_base
         ~size:img.Image.bss_size ~prot:Hw.Prot.read_write);
  ignore
    (Nucleus.Actor.rgn_allocate p.p_actor ~addr:stack_base ~size:stack_size
       ~prot:Hw.Prot.read_write);
  p.p_image <- image;
  p.p_brk <- heap_base

let spawn_init m ~image =
  let p =
    {
      p_pid = m.next_pid;
      p_actor = Nucleus.Actor.create m.site;
      p_state = Running;
      p_image = "";
      p_children = [];
      p_brk = heap_base;
    }
  in
  m.next_pid <- m.next_pid + 1;
  m.live <- m.live + 1;
  exec m p ~image;
  p

(* Copy one of the parent's areas into the child: text is shared,
   the rest deferred-copied. *)
let[@chorus.hot] rec copy_areas actor ~(parent : t) = function
  | [] -> ()
  | (r : Core.Types.region) :: rest ->
    let addr = r.r_addr and size = r.r_size and prot = r.r_prot in
    if addr = text_base then
      ignore
        (Nucleus.Actor.rgn_map_from_actor actor ~addr ~src:parent.p_actor
           ~src_addr:addr ~size ~prot)
    else
      ignore
        (Nucleus.Actor.rgn_init_from_actor actor ~addr ~src:parent.p_actor
           ~src_addr:addr ~size ~prot);
    copy_areas actor ~parent rest

(* The Unix fork (§5.1.5): share the text, defer-copy data, bss and
   stack. *)
let[@chorus.hot] fork m (parent : t) =
  check_running parent;
  let actor = Nucleus.Actor.create m.site in
  let child =
    {
      p_pid = m.next_pid;
      p_actor = actor;
      p_state = Running;
      p_image = parent.p_image;
      p_children = [];
      p_brk = parent.p_brk;
    }
    [@chorus.alloc_ok "the process record the parent keeps"]
  in
  m.next_pid <- m.next_pid + 1;
  m.live <- m.live + 1;
  parent.p_children <-
    (child :: parent.p_children)
    [@chorus.alloc_ok "the child's cell on its parent's list"];
  copy_areas actor ~parent
    (Core.Context.region_list parent.p_actor.Nucleus.Actor.a_ctx);
  child

let[@chorus.hot] exit_ m (p : t) ~status =
  check_running p;
  clear_address_space p;
  Nucleus.Actor.destroy p.p_actor;
  p.p_state <- Zombie status [@chorus.alloc_ok "the exit status kept for wait"];
  m.live <- m.live - 1

let wait _m (p : t) =
  match
    List.find_opt
      (fun c -> match c.p_state with Zombie _ -> true | _ -> false)
      p.p_children
  with
  | None -> None
  | Some child ->
    let status =
      match child.p_state with Zombie s -> s | _ -> assert false
    in
    child.p_state <- Reaped;
    p.p_children <- List.filter (fun c -> not (c == child)) p.p_children;
    Some (child, status)

let read p ~addr ~len =
  check_running p;
  Nucleus.Actor.read p.p_actor ~addr ~len

let write p ~addr bytes =
  check_running p;
  Nucleus.Actor.write p.p_actor ~addr bytes

(* Unix sbrk: allocate anonymous pages adjacent to the break.  Each
   call maps one fresh region (the GMI has no region resize; Chorus
   grows heaps the same way, with further rgnAllocates). *)
let sbrk m (p : t) increment =
  check_running p;
  if increment < 0 then invalid_arg "sbrk: negative increment";
  let old_brk = p.p_brk in
  if increment > 0 then begin
    let ps = Nucleus.Site.page_size m.site in
    let size = (increment + ps - 1) / ps * ps in
    ignore
      (Nucleus.Actor.rgn_allocate p.p_actor ~addr:p.p_brk ~size
         ~prot:Hw.Prot.read_write);
    p.p_brk <- p.p_brk + size
  end;
  old_brk

let brk (p : t) = p.p_brk
