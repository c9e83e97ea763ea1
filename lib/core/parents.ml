(* Parent-fragment lists (paper §4.2.4).

   The "parent" attribute of a cache descriptor is a list of fragment
   descriptors, each giving a range of the cache and where in which
   parent cache its logical contents come from.  The list is kept
   sorted by offset and non-overlapping: inserting a new fragment
   (a later copy over the same range) splits or evicts what it
   overlaps, so the newest copy wins. *)

open Types

let rec covering off = function
  | [] -> None
  | f :: rest ->
    if off >= f.f_off && off < f.f_off + f.f_size then Some f
    else covering off rest

let find_covering (cache : cache) ~off =
  note_structure ~write:false cache.c_pvm;
  covering off cache.c_parents

(* The history object responsible for [off] in [src], and [off] in
   the history's offsets: derived from the fragments of the history
   that name [src] as parent, so no "copied ranges" bookkeeping
   exists (§4.2). *)
let covering_history (src : cache) ~off =
  note_structure ~write:false src.c_pvm;
  match src.c_history with
  | None -> None
  | Some h ->
    let covers f =
      f.f_parent == src && off >= f.f_parent_off
      && off < f.f_parent_off + f.f_size
    in
    (match List.find_opt covers h.c_parents with
    | Some f -> Some (h, off - f.f_parent_off + f.f_off)
    | None -> None)

let is_covered src ~off = covering_history src ~off <> None

(* Subtract [off, off+size) from fragment [f], returning the 0, 1 or 2
   remaining pieces. *)
let subtract f ~off ~size =
  let f_end = f.f_off + f.f_size and cut_end = off + size in
  if off >= f_end || cut_end <= f.f_off then [ f ]
  else begin
    let left =
      if off > f.f_off then
        [ { f with f_size = off - f.f_off } ]
      else []
    and right =
      if cut_end < f_end then
        [
          {
            f with
            f_off = cut_end;
            f_size = f_end - cut_end;
            f_parent_off = f.f_parent_off + (cut_end - f.f_off);
          };
        ]
      else []
    in
    left @ right
  end

let remove_range cache ~off ~size =
  note_structure cache.c_pvm;
  if cache.c_parents <> [] then
    cache.c_parents <-
      List.concat_map (fun f -> subtract f ~off ~size) cache.c_parents

let insert cache frag =
  note_structure cache.c_pvm;
  remove_range cache ~off:frag.f_off ~size:frag.f_size;
  let sorted =
    List.sort (fun a b -> compare a.f_off b.f_off) (frag :: cache.c_parents)
  in
  cache.c_parents <- sorted;
  if not (List.memq cache frag.f_parent.c_children) then
    frag.f_parent.c_children <- cache :: frag.f_parent.c_children

(* Redirect every fragment of [cache] whose parent is [old_parent] to
   [new_parent].  Used when a working history cache is inserted
   between a source and its previous descendants (§4.2.3); the working
   cache covers the same offsets as the source, so offsets are
   unchanged. *)
let redirect cache ~old_parent ~new_parent =
  note_structure cache.c_pvm;
  let changed = ref false in
  cache.c_parents <-
    List.map
      (fun f ->
        if f.f_parent == old_parent then begin
          changed := true;
          { f with f_parent = new_parent }
        end
        else f)
      cache.c_parents;
  if !changed then begin
    old_parent.c_children <-
      List.filter (fun c -> not (c == cache)) old_parent.c_children;
    if not (List.memq cache new_parent.c_children) then
      new_parent.c_children <- cache :: new_parent.c_children
  end

(* [caches] without [cache], sharing the suffix behind it: only the
   cells in front of it are rebuilt, and a list without it comes back
   as it is. *)
let[@chorus.hot] rec without_cache (cache : cache) = function
  | [] -> []
  | c :: rest as l ->
    if c == cache then rest
    else
      let rest' = without_cache cache rest in
      if rest' == rest then l
      else
        (c :: rest')
        [@chorus.alloc_ok
          "the cells in front of the removed cache: the shortened list kept"]

let[@chorus.hot] [@chorus.noted "detach_all notes the topology first"] rec detach_from
    (cache : cache) = function
  | [] -> ()
  | f :: rest ->
    f.f_parent.c_children <- without_cache cache f.f_parent.c_children;
    detach_from cache rest

let[@chorus.hot] detach_all (cache : cache) =
  note_structure cache.c_pvm;
  detach_from cache cache.c_parents;
  cache.c_parents <- []

(* Invariant check used by the property tests: fragments sorted,
   non-overlapping, sizes positive, child/parent links consistent. *)
let[@chorus.noted "invariant checks run between slices (property tests, sanitizers)"] check_invariant
    cache =
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.f_size > 0 && a.f_off + a.f_size <= b.f_off && sorted rest
    | [ a ] -> a.f_size > 0
    | [] -> true
  in
  sorted cache.c_parents
  && List.for_all
       (fun f -> List.memq cache f.f_parent.c_children)
       cache.c_parents
