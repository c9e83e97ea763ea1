type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let is_empty h = h.size = 0
let length h = h.size

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap x in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  (* sift up *)
  let rec up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if h.cmp h.data.(i) h.data.(p) < 0 then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(p);
        h.data.(p) <- tmp;
        up p
      end
    end
  in
  up (h.size - 1)

let pop h =
  if h.size = 0 then invalid_arg "Pqueue.pop: empty";
  let top = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    (* sift down *)
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < h.size && h.cmp h.data.(l) h.data.(!smallest) < 0 then
        smallest := l;
      if r < h.size && h.cmp h.data.(r) h.data.(!smallest) < 0 then
        smallest := r;
      if !smallest <> i then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(!smallest);
        h.data.(!smallest) <- tmp;
        down !smallest
      end
    in
    down 0
  end;
  top

let top h =
  if h.size = 0 then invalid_arg "Pqueue.top: empty";
  h.data.(0)

let pop_if h pred =
  if h.size > 0 && pred h.data.(0) then Some (pop h) else None
