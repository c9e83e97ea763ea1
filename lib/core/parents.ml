(* Parent-fragment lists (paper §4.2.4).

   The "parent" attribute of a cache descriptor is a list of fragment
   descriptors, each giving a range of the cache and where in which
   parent cache its logical contents come from.  The list is kept
   sorted by offset and non-overlapping: inserting a new fragment
   (a later copy over the same range) splits or evicts what it
   overlaps, so the newest copy wins.  This module is the one reader
   and writer of the lists and of the child lists mirroring them.  No
   lookup allocates, and only [covering] raises for an absent answer:
   a fault asks [covers] first (DESIGN.md, "Read once"). *)

open Types

let[@chorus.hot] rec covering_in off = function
  | [] -> raise_notrace Not_found
  | f :: rest ->
    if off >= f.f_off && off < f.f_off + f.f_size then f
    else covering_in off rest

let[@chorus.hot] [@inline] covering (cache : cache) ~off =
  note_structure ~write:false cache.c_pvm;
  covering_in off cache.c_parents

let[@chorus.hot] rec covers_in off = function
  | [] -> false
  | f :: rest -> (off >= f.f_off && off < f.f_off + f.f_size) || covers_in off rest

let[@chorus.hot] [@inline] covers (cache : cache) ~off =
  note_structure ~write:false cache.c_pvm;
  covers_in off cache.c_parents

let[@chorus.hot] [@inline] history (src : cache) =
  note_structure ~write:false src.c_pvm;
  match src.c_history with Some h -> h | None -> raise_notrace Not_found

(* [off] of [src] in its history's offsets, derived from the history's
   fragments that name [src], so no "copied ranges" bookkeeping exists
   (§4.2); -1 when no history covers [off]. *)
let[@chorus.hot] rec history_off_in (src : cache) off = function
  | [] -> -1
  | f :: rest ->
    if f.f_parent == src && off >= f.f_parent_off
       && off < f.f_parent_off + f.f_size
    then off - f.f_parent_off + f.f_off
    else history_off_in src off rest

let[@chorus.hot] [@inline] history_off (src : cache) ~off =
  note_structure ~write:false src.c_pvm;
  match src.c_history with
  | Some h -> history_off_in src off h.c_parents
  | None -> -1

let[@chorus.noted "callers note it or run between slices"] frags c = c.c_parents
let[@chorus.noted "callers note it or run between slices"] children c = c.c_children

let[@chorus.hot] rec names_in (parent : cache) = function
  | [] -> false
  | f :: rest -> f.f_parent == parent || names_in parent rest

let[@chorus.hot] [@chorus.noted "callers note the topology"] names
    (child : cache) (parent : cache) =
  names_in parent child.c_parents

let[@chorus.noted "callers (teardown, purge_range) note the topology first"] parents
    (cache : cache) =
  List.map (fun f -> f.f_parent) cache.c_parents
  |> List.fold_left (fun acc p -> if List.memq p acc then acc else p :: acc) []

(* Does [f]'s parent window overlap [off, off+size) of the parent? *)
let overlaps (f : frag) ~off ~size =
  max f.f_parent_off off < min (f.f_parent_off + f.f_size) (off + size)

let[@chorus.hot] rec frags_read (parent : cache) ~off ~size = function
  | [] -> false
  | f :: rest ->
    (f.f_parent == parent && overlaps f ~off ~size)
    || frags_read parent ~off ~size rest

let[@chorus.hot] [@chorus.noted "range_read notes the topology"] rec children_read
    (parent : cache) ~off ~size = function
  | [] -> false
  | (child : cache) :: rest ->
    frags_read parent ~off ~size child.c_parents
    || children_read parent ~off ~size rest

let[@chorus.hot] range_read (cache : cache) ~off ~size =
  note_structure ~write:false cache.c_pvm;
  children_read cache ~off ~size cache.c_children

(* The part of [f] over [lo, hi) of the cache, read from [parent]. *)
let piece f ~parent ~lo ~hi =
  { f with f_off = lo; f_size = hi - lo; f_parent = parent;
           f_parent_off = f.f_parent_off + (lo - f.f_off) }

(* The parts of [f] in front of [lo] and behind [hi], around [rest]. *)
let left f ~lo rest =
  if lo > f.f_off then piece f ~parent:f.f_parent ~lo:f.f_off ~hi:lo :: rest
  else rest

let right f ~hi rest =
  let f_end = f.f_off + f.f_size in
  if hi < f_end then piece f ~parent:f.f_parent ~lo:hi ~hi:f_end :: rest
  else rest

(* [frags] without [off, off+size), sharing the suffix behind the last
   fragment cut. *)
let rec cut ~off ~size = function
  | [] -> []
  | f :: rest as l ->
    let rest' = cut ~off ~size rest in
    if off < f.f_off + f.f_size && f.f_off < off + size then
      left f ~lo:off (right f ~hi:(off + size) rest')
    else if rest' == rest then l
    else f :: rest'

let remove_range cache ~off ~size =
  note_structure cache.c_pvm;
  let frags = cut ~off ~size cache.c_parents in
  if frags != cache.c_parents then cache.c_parents <- frags

let[@chorus.noted "insert and redirect note the topology"] link
    (child : cache) (parent : cache) =
  if not (List.memq child parent.c_children) then
    parent.c_children <- child :: parent.c_children

let by_off a b = compare a.f_off b.f_off

let insert cache frag =
  note_structure cache.c_pvm;
  remove_range cache ~off:frag.f_off ~size:frag.f_size;
  cache.c_parents <- List.sort by_off (frag :: cache.c_parents);
  link cache frag.f_parent

let[@chorus.noted "split_to_zombie notes the topology first"] inherit_range
    (cache : cache) ~(dst : cache) ~off ~size =
  List.iter
    (fun f ->
      let lo = max f.f_off off and hi = min (f.f_off + f.f_size) (off + size) in
      if lo < hi then insert dst (piece f ~parent:f.f_parent ~lo ~hi))
    cache.c_parents

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

let[@chorus.noted "callers (the liveness rule, redirect) note the topology"] leave
    (child : cache) ~(parent : cache) =
  (not (names child parent))
  && begin
    parent.c_children <- without_cache child parent.c_children;
    true
  end

(* [frags] with the pieces reading [off, off+size) of [old_parent]
   re-pointed to [new_parent] at the same parent offsets, sharing the
   suffix behind the last piece re-pointed. *)
let rec redirected ~old_parent ~new_parent ~off ~size = function
  | [] -> []
  | f :: rest as l ->
    let rest' = redirected ~old_parent ~new_parent ~off ~size rest in
    if f.f_parent == old_parent && overlaps f ~off ~size then
      let lo = f.f_off + max 0 (off - f.f_parent_off)
      and hi = f.f_off + min f.f_size (off + size - f.f_parent_off) in
      left f ~lo (piece f ~parent:new_parent ~lo ~hi :: right f ~hi rest')
    else if rest' == rest then l
    else f :: rest'

let redirect cache ~old_parent ~new_parent ~off ~size =
  note_structure cache.c_pvm;
  let frags = redirected ~old_parent ~new_parent ~off ~size cache.c_parents in
  if frags != cache.c_parents then begin
    cache.c_parents <- frags;
    link cache new_parent;
    ignore (leave cache ~parent:old_parent)
  end

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
