(* Slots at [size] and beyond hold [filler], never a popped element:
   the heap must not keep what it handed out reachable (for the
   engine, a finished task and everything its closure captured). *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  filler : 'a;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp ~filler = { cmp; filler; data = [||]; size = 0 }
let is_empty h = h.size = 0
let length h = h.size

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap h.filler in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

(* Top-level sift loops: a push or pop allocates nothing (the engine
   pushes and pops on every fibre switch). *)
let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(p) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(p);
      h.data.(p) <- tmp;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < h.size && h.cmp h.data.(l) h.data.(i) < 0 then l else i in
  let s = if r < h.size && h.cmp h.data.(r) h.data.(s) < 0 then r else s in
  if s <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(s);
    h.data.(s) <- tmp;
    sift_down h s
  end

let[@chorus.hot] push h x =
  grow h;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let[@chorus.hot] pop h =
  if h.size = 0 then invalid_arg "Pqueue.pop: empty";
  let top = h.data.(0) in
  h.size <- h.size - 1;
  let last = h.data.(h.size) in
  h.data.(h.size) <- h.filler;
  if h.size > 0 then begin
    h.data.(0) <- last;
    sift_down h 0
  end;
  top

let top h =
  if h.size = 0 then invalid_arg "Pqueue.top: empty";
  h.data.(0)
