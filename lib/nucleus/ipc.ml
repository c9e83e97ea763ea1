type message = { msg_slot : int; msg_len : int }
type endpoint = message Port.t

exception Message_too_big of int

let make_endpoint ?name () = Port.create ?name ()

let window (a : Actor.t) ~addr ~len =
  match Core.Context.find_region a.Actor.a_ctx ~addr with
  | None -> raise (Core.Gmi.Segmentation_fault addr)
  | Some region ->
    let st = Core.Region.status region in
    if addr + len > st.Core.Region.s_addr + st.s_size then
      raise (Core.Gmi.Segmentation_fault (addr + len));
    (st.s_cache, st.s_offset + (addr - st.s_addr))

let check_len len =
  if len > Transit.slot_size then raise (Message_too_big len);
  if len < 0 then invalid_arg "Ipc: negative length"

(* One trace span around an IPC operation, closed even if the message
   copy fails. *)
let spanned pvm ~name ~len body =
  let tr = Core.Pvm.tracer pvm in
  if not (Obs.Trace.enabled tr) then body ()
  else begin
    Obs.Trace.span_begin tr ~cat:"ipc" name;
    match body () with
    | v ->
      Obs.Trace.span_end tr ~args:[ ("len", Obs.Trace.Int len) ];
      v
    | exception e ->
      Obs.Trace.span_end tr
        ~args:[ ("len", Obs.Trace.Int len); ("ok", Obs.Trace.Str "false") ];
      raise e
  end

let send (a : Actor.t) transit ~dst ~addr ~len =
  check_len len;
  let site = a.Actor.a_site in
  spanned site.pvm ~name:"ipc.send" ~len @@ fun () ->
  Core.Pvm.charge_prim site.pvm Hw.Cost.Ipc_fixed;
  let slot = Transit.alloc transit in
  let src, src_off = window a ~addr ~len in
  Core.Cache.copy site.pvm ~src ~src_off ~dst:(Transit.cache transit)
    ~dst_off:(Transit.slot_offset transit slot)
    ~size:len ();
  Port.send dst { msg_slot = slot; msg_len = len }

let receive (a : Actor.t) transit endpoint ~addr =
  let site = a.Actor.a_site in
  let msg = Port.receive endpoint in
  spanned site.pvm ~name:"ipc.receive" ~len:msg.msg_len @@ fun () ->
  let dst, dst_off = window a ~addr ~len:msg.msg_len in
  Core.Cache.move site.pvm
    ~src:(Transit.cache transit)
    ~src_off:(Transit.slot_offset transit msg.msg_slot)
    ~dst ~dst_off ~size:msg.msg_len ();
  Transit.release transit msg.msg_slot;
  msg.msg_len
