type request =
  | Read of { key : int64; offset : int; size : int }
  | Write of { key : int64; offset : int; data : Bytes.t }
  | Truncate of { key : int64; size : int }
  | Size of { key : int64 }
  | Create_temporary
  | Destroy of { key : int64 }

type response =
  | Data of Bytes.t
  | Done
  | Sized of int
  | Key of int64
  | Failed of exn

type rpc = { req : request; reply : response Port.t }
type server = { port : rpc Port.t; mutable served : int }

exception Bad_reply of { endpoint : string; request : string; got : string }

let request_constructor = function
  | Read _ -> "Read"
  | Write _ -> "Write"
  | Truncate _ -> "Truncate"
  | Size _ -> "Size"
  | Create_temporary -> "Create_temporary"
  | Destroy _ -> "Destroy"

let response_constructor = function
  | Data _ -> "Data"
  | Done -> "Done"
  | Sized _ -> "Sized"
  | Key _ -> "Key"
  | Failed _ -> "Failed"

let () =
  Printexc.register_printer (function
    | Bad_reply { endpoint; request; got } ->
      Some
        (Printf.sprintf
           "Remote_mapper.Bad_reply(%s: request %s answered with %s)" endpoint
           request got)
    | _ -> None)

(* A protocol violation: the server answered [req] with a constructor
   the client cannot interpret.  Carries the mapper port name so a
   multi-mapper site can tell which endpoint misbehaved. *)
let bad_reply server req got =
  raise
    (Bad_reply
       {
         endpoint = Port.name server.port;
         request = request_constructor req;
         got = response_constructor got;
       })

let requests_served server = server.served

let serve (site : Site.t) ?(latency = 0) (mapper : Seg.Mapper.t) =
  let port : rpc Port.t = Port.create ~name:("mapper:" ^ mapper.name) () in
  let server = { port; served = 0 } in
  Hw.Engine.spawn site.engine ~name:("mapper-server:" ^ mapper.name)
    ~daemon:true (fun () ->
      let rec loop () =
        let { req; reply } = Port.receive port in
        server.served <- server.served + 1;
        if latency > 0 then Hw.Engine.sleep latency;
        let answer =
          try
            match req with
            | Read { key; offset; size } ->
              (* a message owns its payload: copy the range out *)
              let store, pos = mapper.read ~key ~offset ~size in
              Data (Bytes.sub store pos size)
            | Write { key; offset; data } ->
              mapper.write ~key ~offset data;
              Done
            | Truncate { key; size } ->
              mapper.truncate ~key ~size;
              Done
            | Size { key } -> Sized (mapper.segment_size ~key)
            | Create_temporary -> (
              match mapper.create_temporary with
              | Some alloc -> Key (alloc ())
              | None -> Failed (Invalid_argument "not a default mapper"))
            | Destroy { key } ->
              mapper.destroy_segment ~key;
              Done
          with e -> Failed e
        in
        Port.send reply answer;
        loop ()
      in
      loop ());
  server

let call server req =
  let reply = Port.create () in
  Port.send server.port { req; reply };
  match Port.receive reply with
  | Failed e -> raise e
  | other -> other

let client ~name server =
  let data req =
    match call server req with Data d -> d | other -> bad_reply server req other
  in
  let done_ req =
    match call server req with Done -> () | other -> bad_reply server req other
  in
  {
    Seg.Mapper.name;
    read =
      (fun ~key ~offset ~size -> (data (Read { key; offset; size }), 0));
    write = (fun ~key ~offset d -> done_ (Write { key; offset; data = d }));
    truncate = (fun ~key ~size -> done_ (Truncate { key; size }));
    segment_size =
      (fun ~key ->
        let req = Size { key } in
        match call server req with
        | Sized n -> n
        | other -> bad_reply server req other);
    create_temporary =
      Some
        (fun () ->
          match call server Create_temporary with
          | Key k -> k
          | other -> bad_reply server Create_temporary other);
    destroy_segment = (fun ~key -> done_ (Destroy { key }));
  }
