type 'a t = {
  name : string;
  wait_label : string; (* the watchdog's name for a receive-side park *)
  queue : 'a Queue.t;
  arrival : Hw.Engine.Cond.t;
}

let counter = ref 0

let create ?name () =
  incr counter;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "port-%d" !counter
  in
  {
    name;
    wait_label = "port:" ^ name;
    queue = Queue.create ();
    arrival = Hw.Engine.Cond.create ();
  }

let name t = t.name

(* Port queues are shared across fibres (and, through remote mappers,
   across sites): note them as one footprint class, and declare the
   receive-side wait so an empty-queue block shows up in the watchdog's
   blocked-on graph rather than as a silent hang. *)
let send t msg =
  Hw.Engine.note_ambient (-4) 0;
  Queue.push msg t.queue;
  Hw.Engine.Cond.broadcast t.arrival

let rec receive t =
  Hw.Engine.note_ambient (-4) 0;
  match Queue.take_opt t.queue with
  | Some msg -> msg
  | None ->
    Hw.Engine.declare_wait_ambient ~on:t.wait_label ();
    Hw.Engine.Cond.wait t.arrival;
    receive t

let pending t =
  Hw.Engine.note_ambient ~write:false (-4) 0;
  Queue.length t.queue
