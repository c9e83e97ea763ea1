(* FIFO queue with O(1) push — the reclaim queue's shape.

   The seed kept the reclaim queue as a plain list appended with [@],
   which is O(n) per page install and turns a steady-state fault storm
   quadratic (every install copies the whole queue).  This is the
   classic two-list queue instead: [front] holds the oldest entries in
   order, [back] the newest in reverse, and elements migrate from
   [back] to [front] only when [front] drains — each element moves at
   most once, so pushes stay O(1) amortized while [find_opt] still
   scans in exact FIFO order (victim election must be byte-identical
   to the seed's). *)

type 'a t = {
  mutable front : 'a list; (* oldest first *)
  mutable back : 'a list; (* newest first *)
  mutable size : int;
}

let create () = { front = []; back = []; size = 0 }
let length q = q.size

let push q x =
  q.back <- x :: q.back;
  q.size <- q.size + 1

(* First element satisfying [f], in FIFO order.  The tail scan over
   [List.rev q.back] only runs when nothing in [front] matches — under
   memory pressure the oldest pages are the evictable ones, so the
   common case never touches it. *)
let find_opt f q =
  if q.front = [] then begin
    q.front <- List.rev q.back;
    q.back <- []
  end;
  match List.find_opt f q.front with
  | Some _ as r -> r
  | None -> if q.back = [] then None else List.find_opt f (List.rev q.back)

let iter f q =
  List.iter f q.front;
  List.iter f (List.rev q.back)

let mem_phys q x =
  List.exists (fun y -> y == x) q.front || List.exists (fun y -> y == x) q.back

(* Drop and return the oldest entry — only the sanitizer's corruption
   fixtures use this; the pager elects victims via [find_opt]. *)
let pop q =
  if q.front = [] then begin
    q.front <- List.rev q.back;
    q.back <- []
  end;
  match q.front with
  | [] -> None
  | x :: rest ->
    q.front <- rest;
    q.size <- q.size - 1;
    Some x

(* Remove the entry physically equal to [x] (pages are interned, so
   there is at most one).  The scan is O(n), but only the prefix before
   the entry is rebuilt and a list without it is left alone, so
   dropping a cache's newest pages, or the oldest page on eviction,
   allocates O(1) words whatever the queue length. *)
let remove_phys q x =
  let rec go prefix = function
    | [] -> None
    | y :: rest ->
      if y == x then Some (List.rev_append prefix rest) else go (y :: prefix) rest
  in
  let drop l = if List.memq x l then go [] l else None in
  match drop q.back with
  | Some back ->
    q.back <- back;
    q.size <- q.size - 1
  | None -> (
    match drop q.front with
    | Some front ->
      q.front <- front;
      q.size <- q.size - 1
    | None -> ())
