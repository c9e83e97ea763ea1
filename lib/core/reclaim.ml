(* The PVM-wide reclaim queue: every resident page, oldest first,
   threaded through two int arrays indexed by frame number (beside the
   frame -> page registry, [Types.pvm.page_of_frame]).  Slot [i] links
   the page holding frame [i] to the next newer and the next older
   queued frame; the extra slot [capacity] is the sentinel, whose
   [rq_next] is the oldest queued frame and whose [rq_prev] the newest.
   An unqueued frame has [-1] in both arrays.

   Push, removal and each step of the victim walk are O(1) and
   allocate nothing, whatever the number of resident pages, and the
   walk visits pages in push order, so victims are elected in exactly
   the order of the page-out policy's FIFO (§3.3.3). *)

(* The queue is state of the frame pool class: its callers note the
   frame pool before they reach it. *)
[@@@chorus.noted "the queue's own links; callers note the frame pool"]

type t = {
  rq_next : int array; (* frame -> next newer queued frame *)
  rq_prev : int array; (* frame -> next older queued frame *)
  mutable rq_len : int;
}

let create ~frames =
  let rq_next = Array.make (frames + 1) (-1)
  and rq_prev = Array.make (frames + 1) (-1) in
  rq_next.(frames) <- frames;
  rq_prev.(frames) <- frames;
  { rq_next; rq_prev; rq_len = 0 }

(* Also the sentinel's slot. *)
let[@inline] capacity q = Array.length q.rq_next - 1

let length q = q.rq_len
let[@chorus.hot] mem q i = q.rq_prev.(i) >= 0

(* Append frame [i] as the newest entry. *)
let[@chorus.hot] [@inline] push q i =
  if q.rq_prev.(i) >= 0 then invalid_arg "Reclaim.push: frame already queued";
  let s = capacity q in
  let newest = q.rq_prev.(s) in
  q.rq_next.(newest) <- i;
  q.rq_prev.(i) <- newest;
  q.rq_next.(i) <- s;
  q.rq_prev.(s) <- i;
  q.rq_len <- q.rq_len + 1

(* Unlink frame [i]; a frame not queued is left alone. *)
let[@chorus.hot] [@inline] remove q i =
  let older = q.rq_prev.(i) in
  if older >= 0 then begin
    let newer = q.rq_next.(i) in
    q.rq_next.(older) <- newer;
    q.rq_prev.(newer) <- older;
    q.rq_next.(i) <- -1;
    q.rq_prev.(i) <- -1;
    q.rq_len <- q.rq_len - 1
  end

(* The oldest queued frame, and the frame queued after [i]; [-1] past
   either end. *)
let[@chorus.hot] [@inline] oldest q =
  let s = capacity q in
  let i = q.rq_next.(s) in
  if i = s then -1 else i

let[@chorus.hot] [@inline] newer q i =
  let j = q.rq_next.(i) in
  if j = capacity q then -1 else j
