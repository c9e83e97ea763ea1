(* The interprocedural lockset analysis behind rules L6-L9.

   Phase 1 walks every top-level binding of every compilation unit in
   evaluation order, threading an abstract lockset (which lock classes
   are held, at what depth, and whether an exception-safe combinator
   protects the release) through the expression tree.  Lock operations
   are recognised structurally:

     - the [Types.with_mm] combinator (acquire,
       inline-walk the closure, release — exception-protected),
     - the raw [mm_enter] / [mm_exit], [shard_enter] / [shard_exit]
       and [pool_enter] / [pool_exit] halves,
     - [Obs.Lockstat.lock]/[unlock]/[wait] and bare [Mutex.lock]/
       [unlock]/[Condition.wait], classified by the record field the
       mutex (or its stat bundle) is read from ({!Lock_order.cls_of_field});
       a mutex reached any other way is tracked as an anonymous lock
       for balance and cycle checks only,
     - [Fun.protect ~finally] upgrades the locks its finally releases
       to exception-protected for the duration of the body.

   The walk records, per binding, a summary: lock classes acquired,
   may-hold-while-acquiring edges, suspension points reached, every
   outgoing call with the lockset held at the call site, and every
   write to a field of the {!Lock_order.guarded_fields} catalogue with
   the lockset held at the access.  Purely local violations (L9
   balance: release-unheld, unbalanced branches, holding at exit,
   raise-gaps past a raw lock; L8 parking with a non-empty local
   lockset) are recorded during the walk.

   Phase 2 propagates summaries through resolved calls to a fixpoint:

     - trans_acquires(f): lock classes f may acquire, directly or via
       callees — checked against {!Lock_order.allows} for every lock
       held at each call site (interprocedural L6),
     - trans_parks(f): whether f may reach a suspension point —
       flagged for every call site with a non-empty lockset
       (interprocedural L8),
     - entry(f): the meet (intersection) over all call sites of the
       locks held when f is entered — used only to *suppress* L7
       findings for helpers that are only ever called with the guard
       already held.  Functions never called from scanned code keep
       entry = bottom (no held locks); unresolved callees propagate
       nothing.

   The analysis is a lint, not a verifier: calls through function
   values, effects and domain spawns are walked conservatively (spawned
   closures start with an empty lockset), raise-gaps are syntactic
   (explicit raisers plus a small denylist of raising stdlib
   operations, no transitive may-raise), and branch merging treats
   diverging branches (tail raise) as unreachable.  The dynamic order
   witnesses ({!Obs.Lockstat}) are the runtime backstop. *)

open Typedtree

(* --- locks and abstract state ------------------------------------- *)

type lock = Cls of Lock_order.cls | Anon of string

let lock_name = function
  | Cls c -> Lock_order.name c
  | Anon s -> "anon:" ^ s

(* One held lock: class (or anonymous identity), recursion depth, and
   whether every acquisition so far is covered by an exception-safe
   release (combinator or Fun.protect ~finally). *)
type hold = { h_lock : lock; h_count : int; h_prot : bool }

type state = hold list

let held_classes (s : state) =
  List.sort_uniq compare
    (List.filter_map
       (fun h -> match h.h_lock with Cls c -> Some c | Anon _ -> None)
       s)

let held_locks (s : state) =
  List.sort_uniq compare (List.map (fun h -> h.h_lock) s)

let has_raw (s : state) = List.exists (fun h -> not h.h_prot) s

let canon (s : state) =
  List.sort compare (List.map (fun h -> (lock_name h.h_lock, h.h_count)) s)

let same_state a b = canon a = canon b

let pp_locks s =
  match held_locks s with
  | [] -> "nothing"
  | ls -> String.concat ", " (List.map lock_name ls)

(* --- per-binding summaries ---------------------------------------- *)

type call = {
  c_path : string;  (** normalised dotted path of the callee *)
  c_line : int;
  c_holds : lock list;  (** distinct locks held at the call site *)
  c_w6 : bool;  (** an L6 waiver covered the call site *)
  c_w8 : bool;  (** an L8 waiver covered the call site *)
}

type access = {
  a_ty : string;
  a_field : string;
  a_write : bool;
  a_line : int;
  a_holds : Lock_order.cls list;
  a_waived : bool;
}

type summary = {
  sm_key : string;  (** unit prefix ^ "." ^ scope — the call-graph node *)
  sm_file : string;
  sm_scope : string;
  sm_rules : Finding.rule list;  (** rules *enforced* on this file *)
  mutable sm_acquires : Lock_order.cls list;
  mutable sm_parks : bool;
  mutable sm_edges : (lock * lock * int * bool) list;
      (** held, acquired, line, L6-waived *)
  mutable sm_calls : call list;
  mutable sm_accesses : access list;
  mutable sm_local : (Finding.rule * int * string * string) list;
      (** rule, line, detail, message — L8/L9 events found during the walk *)
}

(* --- the walker context ------------------------------------------- *)

type wctx = {
  sm : summary;
  file_waivers : Finding.rule list;
  mutable stack : Finding.rule list list;
  mutable suppress_raise : int;
      (** > 0 inside the scrutinee of a match/try with exception
          handlers: the handler's balance is checked independently, so
          a raise escaping the scrutinee is not a lock leak *)
}

let waived ctx r =
  List.mem r ctx.file_waivers
  || List.exists (fun ws -> List.mem r ws) ctx.stack

(* Waiver collection mirrors {!Analyze.waivers_of_attrs} but never
   reports malformed payloads: Analyze already walks every file the
   lockset analysis walks and owns that finding. *)
let waivers_of_attrs attrs =
  List.filter_map
    (fun (attr : Parsetree.attribute) ->
      Analyze.waiver_rule_of_attr attr.Parsetree.attr_name.txt)
    attrs

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let local ctx rule ~line ~detail ~message =
  if not (waived ctx rule) then
    ctx.sm.sm_local <- (rule, line, detail, message) :: ctx.sm.sm_local

(* --- lock events -------------------------------------------------- *)

let acquire ctx s lk ~line ~prot : state =
  (* every currently-held lock is a may-hold-while-acquiring edge *)
  let w6 = waived ctx Finding.L6 in
  List.iter
    (fun l -> ctx.sm.sm_edges <- (l, lk, line, w6) :: ctx.sm.sm_edges)
    (held_locks s);
  (match lk with
  | Cls c ->
    if not (List.mem c ctx.sm.sm_acquires) then
      ctx.sm.sm_acquires <- c :: ctx.sm.sm_acquires
  | Anon _ -> ());
  let rec go = function
    | [] -> [ { h_lock = lk; h_count = 1; h_prot = prot } ]
    | h :: rest when h.h_lock = lk ->
      { h with h_count = h.h_count + 1; h_prot = h.h_prot && prot } :: rest
    | h :: rest -> h :: go rest
  in
  go s

let release ctx s lk ~line : state =
  let rec go = function
    | [] ->
      local ctx Finding.L9 ~line
        ~detail:("release-unheld-" ^ lock_name lk)
        ~message:
          (Printf.sprintf
             "releases the %s lock without holding it on this path: either \
              an acquire is missing or a branch already released it"
             (lock_name lk));
      []
    | h :: rest when h.h_lock = lk ->
      if h.h_count > 1 then { h with h_count = h.h_count - 1 } :: rest
      else rest
    | h :: rest -> h :: go rest
  in
  go s

let raiser ctx s ~line ~what =
  if ctx.suppress_raise = 0 && has_raw s then
    local ctx Finding.L9 ~line ~detail:("raise-gap-" ^ what)
      ~message:
        (Printf.sprintf
           "%s may raise while %s is held with no exception-safe release in \
            scope (with_mm / Fun.protect ~finally): an exception \
            here leaks the lock"
           what (pp_locks s))

let park ctx s ~line ~what =
  ctx.sm.sm_parks <- true;
  if s <> [] then
    local ctx Finding.L8 ~line ~detail:("park-" ^ what)
      ~message:
        (Printf.sprintf
           "suspension point %s is reachable while holding %s: a parked \
            holder stalls every domain that needs the lock"
           what (pp_locks s))

(* An OS-level condition wait: the waited mutex is released and
   reacquired by the wait itself, so holding *it* is the idiom — but
   holding anything else across the wait is a stall. *)
let oswait ctx s lk ~line ~what =
  ctx.sm.sm_parks <- true;
  let others = List.filter (fun h -> h.h_lock <> lk) s in
  if others <> [] then
    local ctx Finding.L8 ~line ~detail:("park-" ^ what)
      ~message:
        (Printf.sprintf
           "%s blocks the domain while still holding %s (only the waited \
            mutex %s may be held at a condition wait)"
           what (pp_locks others) (lock_name lk))

(* --- structural recognisers --------------------------------------- *)

(* Flatten an application to (head, labelled args), folding the
   [f @@ x] and [x |> f] operators away so [with_mm pvm @@ fun () ->
   ...] dispatches like the direct application. *)
let rec app_shape (e : expression) :
    expression * (Asttypes.arg_label * expression) list =
  let rec parts e =
    match e.exp_desc with
    | Texp_apply (f, args) ->
      let args =
        List.filter_map
          (fun (l, a) -> match a with Some a -> Some (l, a) | None -> None)
          args
      in
      let h, prior = parts f in
      (h, prior @ args)
    | _ -> (e, [])
  in
  let head, args = parts e in
  match (head.exp_desc, args) with
  | Texp_ident (p, _, _), [ (_, f); (_, x) ]
    when Analyze.last_component (Path.name p) = "@@" ->
    let h, a = app_shape f in
    (h, a @ [ (Asttypes.Nolabel, x) ])
  | Texp_ident (p, _, _), [ (_, x); (_, f) ]
    when Analyze.last_component (Path.name p) = "|>" ->
    let h, a = app_shape f in
    (h, a @ [ (Asttypes.Nolabel, x) ])
  | _ -> (head, args)

(* Classify the mutex argument of a raw Mutex/Lockstat operation by
   the record field it is read from. *)
let classify_lock_arg (e : expression) : lock option =
  match e.exp_desc with
  | Texp_field (_, _, ld) -> (
    match Lock_order.cls_of_field ld.lbl_name with
    | Some c -> Some (Cls c)
    | None -> Some (Anon ld.lbl_name))
  | Texp_ident (p, _, _) ->
    Some (Anon (Analyze.last_component (Analyze.normalize_path (Path.name p))))
  | _ -> None

let classify_stat_pair stat mutex : lock =
  match classify_lock_arg stat with
  | Some (Cls c) -> Cls c
  | _ -> (
    match classify_lock_arg mutex with
    | Some l -> l
    | None -> Anon "mutex")

(* Explicit raisers and the stdlib operations that raise on the states
   this codebase actually feeds them.  Deliberately *not* a transitive
   may-raise analysis: almost everything may raise transitively and
   the findings would drown the real gaps; Fun.protect is the answer
   where it matters. *)
let raise_heads = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let raiser_suffixes =
  [
    "Hashtbl.find";
    "Queue.pop";
    "Queue.take";
    "Queue.peek";
    "Stack.pop";
    "List.hd";
    "List.tl";
    "List.find";
    "Option.get";
    "Pqueue.pop";
  ]

(* Does evaluation of [e] definitely not return (every path ends in a
   raise)?  Used to exclude dead branches from the balance merge: the
   [| exception e -> unlock; raise e] arm of the locking combinators
   must not be required to agree with the normal return path. *)
let rec divergent (e : expression) =
  match e.exp_desc with
  | Texp_apply _ -> (
    let head, _ = app_shape e in
    match head.exp_desc with
    | Texp_ident (p, _, _) ->
      List.mem (Analyze.last_component (Path.name p)) raise_heads
    | _ -> false)
  | Texp_sequence (_, b) -> divergent b
  | Texp_let (_, _, b) -> divergent b
  | Texp_open (_, b) -> divergent b
  | Texp_ifthenelse (_, t, Some e) -> divergent t && divergent e
  | Texp_match (_, cases, _) ->
    cases <> [] && List.for_all (fun c -> divergent c.c_rhs) cases
  | Texp_assert
      ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, _); _ }, _)
    ->
    true
  | _ -> false

let rec pat_has_exception : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_exception _ -> true
  | Tpat_or (a, b, _) -> pat_has_exception a || pat_has_exception b
  | Tpat_value _ -> false
  | _ -> false

(* --- the walk ----------------------------------------------------- *)

let rec walk ctx (s : state) (e : expression) : state =
  let ws = waivers_of_attrs e.exp_attributes in
  ctx.stack <- ws :: ctx.stack;
  let s' = walk_desc ctx s e in
  ctx.stack <- List.tl ctx.stack;
  s'

and walk_desc ctx s (e : expression) : state =
  let line = line_of e.exp_loc in
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ -> s
  | Texp_function { cases; _ } ->
    (* A lambda is a value: defining it changes no lock state, but its
       body runs later under whatever the *caller* holds — walked here
       under the current lockset (right for the iter/fold closures
       this codebase passes around) and required to restore it, which
       doubles as the holds-at-exit check for top-level bindings. *)
    List.iter (fun c -> lambda_case ctx s c) cases;
    s
  | Texp_apply _ -> walk_apply ctx s e
  | Texp_match (scrut, cases, _) ->
    let suppress = List.exists (fun c -> pat_has_exception c.c_lhs) cases in
    if suppress then ctx.suppress_raise <- ctx.suppress_raise + 1;
    let s0 = walk ctx s scrut in
    if suppress then ctx.suppress_raise <- ctx.suppress_raise - 1;
    let branches =
      List.map
        (fun c ->
          (match c.c_guard with Some g -> ignore (walk ctx s0 g) | None -> ());
          (divergent c.c_rhs, walk ctx s0 c.c_rhs))
        cases
    in
    merge_branches ctx ~line s0 branches
  | Texp_try (body, cases) ->
    ctx.suppress_raise <- ctx.suppress_raise + 1;
    let sb = walk ctx s body in
    ctx.suppress_raise <- ctx.suppress_raise - 1;
    (* handlers can be entered from any point of the body; their entry
       state is approximated by the try's entry state *)
    let branches =
      (divergent body, sb)
      :: List.map
           (fun c ->
             (match c.c_guard with
             | Some g -> ignore (walk ctx s g)
             | None -> ());
             (divergent c.c_rhs, walk ctx s c.c_rhs))
           cases
    in
    merge_branches ctx ~line s branches
  | Texp_ifthenelse (cond, t, eo) ->
    let s0 = walk ctx s cond in
    let bt = (divergent t, walk ctx s0 t) in
    let be =
      match eo with
      | Some el -> (divergent el, walk ctx s0 el)
      | None -> (false, s0)
    in
    merge_branches ctx ~line s0 [ bt; be ]
  | Texp_sequence (a, b) ->
    let s1 = walk ctx s a in
    walk ctx s1 b
  | Texp_while (cond, body) ->
    let s0 = walk ctx s cond in
    let s1 = walk ctx s0 body in
    if not (same_state s0 s1) then
      local ctx Finding.L9 ~line ~detail:"unbalanced-branches"
        ~message:
          "loop body changes the set of held locks across an iteration: \
           every acquire in a loop must be released before the backedge";
    s0
  | Texp_for (_, _, lo, hi, _, body) ->
    let s0 = walk ctx (walk ctx s lo) hi in
    let s1 = walk ctx s0 body in
    if not (same_state s0 s1) then
      local ctx Finding.L9 ~line ~detail:"unbalanced-branches"
        ~message:
          "loop body changes the set of held locks across an iteration: \
           every acquire in a loop must be released before the backedge";
    s0
  | Texp_assert (cond, _) -> (
    match cond.exp_desc with
    | Texp_construct (_, { cstr_name = "false"; _ }, _) -> s
    | _ ->
      raiser ctx s ~line ~what:"assert";
      walk ctx s cond)
  | Texp_field (re, _, ld) ->
    let s1 = walk ctx s re in
    record_access ctx s1 ld ~write:false ~line;
    s1
  | Texp_setfield (re, _, ld, v) ->
    let s1 = walk ctx (walk ctx s re) v in
    record_access ctx s1 ld ~write:true ~line;
    s1
  | Texp_record _ | Texp_construct _ | Texp_tuple _ | Texp_array _
  | Texp_variant _ ->
    (* a literal lambda stored in a data structure is a continuation
       that runs later, detached from this lockset (the engine's
       [task.run] closures, hooks behind [Some ...]): walk it under
       the empty state it will actually start with *)
    List.fold_left
      (fun s c ->
        match c.exp_desc with
        | Texp_function _ ->
          ignore (walk ctx [] c);
          s
        | _ -> walk ctx s c)
      s (immediate_children e)
  | _ ->
    (* catch-all: thread the state through the immediate sub-
       expressions in syntax order (let bindings, letmodule bodies,
       ...) *)
    List.fold_left (fun s c -> walk ctx s c) s (immediate_children e)

(* One level of Tast_iterator recursion: an iterator whose [expr]
   only collects gives exactly the immediate expression children. *)
and immediate_children (e : expression) : expression list =
  let acc = ref [] in
  let expr _sub (c : expression) = acc := c :: !acc in
  let it = { Tast_iterator.default_iterator with expr } in
  Tast_iterator.default_iterator.expr it e;
  List.rev !acc

and lambda_case ctx s (c : value case) =
  (match c.c_guard with Some g -> ignore (walk ctx s g) | None -> ());
  let s' = walk ctx s c.c_rhs in
  if not (same_state s s') then begin
    let line = line_of c.c_rhs.exp_loc in
    let entry = canon s and exit_ = canon s' in
    List.iter
      (fun (name, n) ->
        let before =
          match List.assoc_opt name entry with Some m -> m | None -> 0
        in
        if n > before then
          local ctx Finding.L9 ~line ~detail:("holds-at-exit-" ^ name)
            ~message:
              (Printf.sprintf
                 "still holds the %s lock when this function body returns: \
                  some path acquires without releasing"
                 name))
      exit_;
    List.iter
      (fun (name, n) ->
        let after =
          match List.assoc_opt name exit_ with Some m -> m | None -> 0
        in
        if n > after then
          local ctx Finding.L9 ~line
            ~detail:("release-unheld-" ^ name)
            ~message:
              (Printf.sprintf
                 "releases the caller's %s lock: a closure must leave the \
                  locks it was entered under untouched"
                 name))
      entry
  end

and merge_branches ctx ~line s0 branches : state =
  match List.filter_map (fun (div, st) -> if div then None else Some st) branches
  with
  | [] -> s0
  | st :: rest ->
    if List.for_all (same_state st) rest then st
    else begin
      local ctx Finding.L9 ~line ~detail:"unbalanced-branches"
        ~message:
          "branches of this expression disagree on which locks are held \
           afterwards: every path (including exceptional ones) must \
           acquire and release the same locks";
      st
    end

(* Walk a literal [fun () -> body] thunk inline, threading the lock
   state through its body — the combinator runs it exactly once. *)
and walk_thunk ctx s (f : expression) : state =
  match f.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
    let ws = waivers_of_attrs f.exp_attributes in
    ctx.stack <- ws :: ctx.stack;
    let s' = walk ctx s c_rhs in
    ctx.stack <- List.tl ctx.stack;
    s'
  | _ -> walk ctx s f

(* Closures handed to a spawn-like API run later, in a fresh task,
   with nothing held: walk them under the empty lockset (and require
   them to end with it). *)
and walk_detached_args ctx s args =
  List.fold_left
    (fun s (_, a) ->
      match a.exp_desc with
      | Texp_function _ ->
        ignore (walk ctx [] a);
        s
      | _ -> walk ctx s a)
    s args

and walk_args ctx s args =
  List.fold_left (fun s (_, a) -> walk ctx s a) s args

and record_access ctx s (ld : Types.label_description) ~write ~line =
  match Types.get_desc ld.lbl_res with
  | Types.Tconstr (p, _, _) -> (
    let ty =
      Analyze.last_component (Analyze.normalize_path (Path.name p))
    in
    match Lock_order.guard_of_field ~ty ~field:ld.lbl_name with
    | Some g
      when ld.lbl_mut = Mutable
           && (not (Analyze.atomic_field ld))
           && (write || g.Lock_order.w_on_read) ->
      ctx.sm.sm_accesses <-
        {
          a_ty = ty;
          a_field = ld.lbl_name;
          a_write = write;
          a_line = line;
          a_holds = held_classes s;
          a_waived = waived ctx Finding.L7;
        }
        :: ctx.sm.sm_accesses
    | _ -> ())
  | _ -> ()

and walk_apply ctx s (e : expression) : state =
  let line = line_of e.exp_loc in
  let head, args = app_shape e in
  match head.exp_desc with
  | Texp_ident (p, _, _) -> (
    let name = Analyze.normalize_path (Path.name p) in
    let last = Analyze.last_component name in
    let plain = List.map snd args in
    match (last, plain) with
    | "mm_enter", _ ->
      let s = walk_args ctx s args in
      acquire ctx s (Cls Lock_order.Mm) ~line ~prot:false
    | "mm_exit", _ ->
      let s = walk_args ctx s args in
      release ctx s (Cls Lock_order.Mm) ~line
    | "with_mm", [ target; f ] ->
      let s = walk ctx s target in
      let s = acquire ctx s (Cls Lock_order.Mm) ~line ~prot:true in
      let s = walk_thunk ctx s f in
      release ctx s (Cls Lock_order.Mm) ~line
    | "shard_enter", _ ->
      let s = walk_args ctx s args in
      acquire ctx s (Cls Lock_order.Shard) ~line ~prot:false
    | "shard_exit", _ ->
      let s = walk_args ctx s args in
      release ctx s (Cls Lock_order.Shard) ~line
    | "pool_enter", _ ->
      let s = walk_args ctx s args in
      acquire ctx s (Cls Lock_order.Pool) ~line ~prot:false
    | "pool_exit", _ ->
      let s = walk_args ctx s args in
      release ctx s (Cls Lock_order.Pool) ~line
    | _, [ stat; m ] when Analyze.has_dotted_suffix ~suffix:"Lockstat.lock" name
      ->
      let s = walk_args ctx s args in
      acquire ctx s (classify_stat_pair stat m) ~line ~prot:false
    | _, [ stat; m ]
      when Analyze.has_dotted_suffix ~suffix:"Lockstat.unlock" name ->
      let s = walk_args ctx s args in
      release ctx s (classify_stat_pair stat m) ~line
    | _, [ stat; _cond; m ]
      when Analyze.has_dotted_suffix ~suffix:"Lockstat.wait" name ->
      let s = walk_args ctx s args in
      oswait ctx s (classify_stat_pair stat m) ~line ~what:"oswait";
      s
    | _, [ m ] when Analyze.has_dotted_suffix ~suffix:"Mutex.lock" name ->
      let s = walk_args ctx s args in
      let lk =
        match classify_lock_arg m with Some l -> l | None -> Anon "mutex"
      in
      acquire ctx s lk ~line ~prot:false
    | _, [ m ] when Analyze.has_dotted_suffix ~suffix:"Mutex.unlock" name ->
      let s = walk_args ctx s args in
      let lk =
        match classify_lock_arg m with Some l -> l | None -> Anon "mutex"
      in
      release ctx s lk ~line
    | _, _ when Analyze.has_dotted_suffix ~suffix:"Mutex.try_lock" name ->
      (* try_lock is polling, not blocking; this codebase only uses it
         on the uncontended fast path where the same expression keeps
         the balance — tracked as a no-op *)
      walk_args ctx s args
    | _, [ _cond; m ]
      when Analyze.has_dotted_suffix ~suffix:"Condition.wait" name ->
      let s = walk_args ctx s args in
      let lk =
        match classify_lock_arg m with Some l -> l | None -> Anon "mutex"
      in
      oswait ctx s lk ~line ~what:"oswait";
      s
    | _, _ when Analyze.has_dotted_suffix ~suffix:"Fun.protect" name ->
      walk_protect ctx s args
    | "suspend", _ ->
      park ctx s ~line ~what:"suspend";
      walk_detached_args ctx s args
    | "wait", _ when Analyze.has_dotted_suffix ~suffix:"Cond.wait" name ->
      let s = walk_args ctx s args in
      park ctx s ~line ~what:"wait";
      s
    | "await_unfinished", _ ->
      let s = walk_args ctx s args in
      park ctx s ~line ~what:"await_unfinished";
      s
    | _, _ when List.mem last raise_heads ->
      let s = walk_args ctx s args in
      raiser ctx s ~line ~what:last;
      s
    | _, _
      when List.exists
             (fun suf -> Analyze.has_dotted_suffix ~suffix:suf name)
             raiser_suffixes ->
      let s = walk_args ctx s args in
      raiser ctx s ~line ~what:last;
      s
    | _, _ ->
      let detached =
        last = "spawn"
        || String.length last > 4
           && String.sub last 0 4 = "set_"
      in
      let s =
        if detached then walk_detached_args ctx s args
        else walk_args ctx s args
      in
      ctx.sm.sm_calls <-
        {
          c_path = name;
          c_line = line;
          c_holds = held_locks s;
          c_w6 = waived ctx Finding.L6;
          c_w8 = waived ctx Finding.L8;
        }
        :: ctx.sm.sm_calls;
      s)
  | _ ->
    let s = walk ctx s head in
    walk_args ctx s args

(* [Fun.protect ~finally:(fun () -> ...) (fun () -> body)]: whatever
   the finally thunk releases is exception-safe inside the body.  The
   finally runs on the normal path too, so after the body we simply
   walk it for its release effects. *)
and walk_protect ctx s args =
  let finally =
    List.find_map
      (fun (l, a) ->
        match l with
        | Asttypes.Labelled "finally" -> Some a
        | _ -> None)
      args
  and body =
    List.find_map
      (fun (l, a) -> match l with Asttypes.Nolabel -> Some a | _ -> None)
      args
  in
  match (finally, body) with
  | Some fin, Some body ->
    let released = releases_of fin in
    let s_prot =
      List.map
        (fun h ->
          if List.mem h.h_lock released then { h with h_prot = true } else h)
        s
    in
    let s1 = walk_thunk ctx s_prot body in
    walk_thunk ctx s1 fin
  | _ -> walk_args ctx s args

(* The locks a finally thunk syntactically releases (mm_exit,
   shard_exit, pool_exit, Lockstat.unlock, Mutex.unlock anywhere inside
   it). *)
and releases_of (fin : expression) : lock list =
  let acc = ref [] in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_apply _ -> (
      let head, args = app_shape e in
      match head.exp_desc with
      | Texp_ident (p, _, _) -> (
        let name = Analyze.normalize_path (Path.name p) in
        let last = Analyze.last_component name in
        match (last, List.map snd args) with
        | "mm_exit", _ -> acc := Cls Lock_order.Mm :: !acc
        | "shard_exit", _ -> acc := Cls Lock_order.Shard :: !acc
        | "pool_exit", _ -> acc := Cls Lock_order.Pool :: !acc
        | _, [ stat; m ]
          when Analyze.has_dotted_suffix ~suffix:"Lockstat.unlock" name ->
          acc := classify_stat_pair stat m :: !acc
        | _, [ m ] when Analyze.has_dotted_suffix ~suffix:"Mutex.unlock" name
          -> (
          match classify_lock_arg m with
          | Some l -> acc := l :: !acc
          | None -> ())
        | _ -> ())
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it fin;
  List.sort_uniq compare !acc

(* --- phase 1 over a structure ------------------------------------- *)

type unit_info = {
  ui_file : string;  (** repo-relative source path for findings *)
  ui_prefix : string;  (** normalised unit module path, e.g. "Core.Pager" *)
  ui_rules : Finding.rule list;  (** of L6-L9, which to enforce here *)
  ui_str : structure;
}

let binding_name (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) -> Ident.name id
  | _ -> "_"

let summarize_binding ~ui ~file_waivers ~prefix (vb : value_binding) : summary =
  let name = binding_name vb in
  let scope = if prefix = "" then name else prefix ^ "." ^ name in
  let sm =
    {
      sm_key = ui.ui_prefix ^ "." ^ scope;
      sm_file = ui.ui_file;
      sm_scope = scope;
      sm_rules = ui.ui_rules;
      sm_acquires = [];
      sm_parks = false;
      sm_edges = [];
      sm_calls = [];
      sm_accesses = [];
      sm_local = [];
    }
  in
  let ctx =
    {
      sm;
      file_waivers;
      stack = [ waivers_of_attrs vb.vb_attributes ];
      suppress_raise = 0;
    }
  in
  let s_end = walk ctx [] vb.vb_expr in
  (* a non-function binding's initialiser runs right here at module
     init: it must leave nothing held (function bodies were checked
     against their own entry state by [lambda_case]) *)
  List.iter
    (fun h ->
      local ctx Finding.L9
        ~line:(line_of vb.vb_loc)
        ~detail:("holds-at-exit-" ^ lock_name h.h_lock)
        ~message:
          (Printf.sprintf
             "still holds the %s lock when this binding's initialiser \
              finishes: some path acquires without releasing"
             (lock_name h.h_lock)))
    s_end;
  sm

let rec summarize_structure ~ui ~file_waivers ~prefix (str : structure) acc =
  let acc =
    List.fold_left
      (fun acc (item : structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.fold_left
            (fun acc vb -> summarize_binding ~ui ~file_waivers ~prefix vb :: acc)
            acc vbs
        | Tstr_module mb -> summarize_module ~ui ~file_waivers ~prefix mb acc
        | Tstr_recmodule mbs ->
          List.fold_left
            (fun acc mb -> summarize_module ~ui ~file_waivers ~prefix mb acc)
            acc mbs
        | _ -> acc)
      acc str.str_items
  in
  acc

and summarize_module ~ui ~file_waivers ~prefix (mb : module_binding) acc =
  let mname = match mb.mb_name.txt with Some n -> n | None -> "_" in
  let prefix = if prefix = "" then mname else prefix ^ "." ^ mname in
  let rec go (me : module_expr) acc =
    match me.mod_desc with
    | Tmod_structure str -> summarize_structure ~ui ~file_waivers ~prefix str acc
    | Tmod_constraint (me, _, _, _) -> go me acc
    | _ -> acc
  in
  go mb.mb_expr acc

let summarize_unit (ui : unit_info) : summary list =
  let file_waivers =
    List.concat_map
      (fun (item : structure_item) ->
        match item.str_desc with
        | Tstr_attribute attr -> waivers_of_attrs [ attr ]
        | _ -> [])
      ui.ui_str.str_items
  in
  summarize_structure ~ui ~file_waivers ~prefix:"" ui.ui_str []

(* --- phase 2: propagation ----------------------------------------- *)

module CSet = Set.Make (struct
  type t = Lock_order.cls

  let compare = compare
end)

module SMap = Map.Make (String)

(* Call resolution: exact key, then qualified by the caller's unit,
   then a unique dotted-suffix match across all summaries.  Unresolved
   calls are externals and propagate nothing. *)
let make_resolver summaries =
  let keys = List.map (fun sm -> sm.sm_key) summaries in
  let exact = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace exact k ()) keys;
  let cache = Hashtbl.create 256 in
  fun ~unit_prefix path ->
    let ck = unit_prefix ^ "|" ^ path in
    match Hashtbl.find_opt cache ck with
    | Some r -> r
    | None ->
      let r =
        if Hashtbl.mem exact path then Some path
        else
          let qualified = unit_prefix ^ "." ^ path in
          if Hashtbl.mem exact qualified then Some qualified
          else
            match
              List.filter (Analyze.has_dotted_suffix ~suffix:path) keys
            with
            | [ k ] -> Some k
            | _ -> None
      in
      Hashtbl.replace cache ck r;
      r

(* trans_acquires and trans_parks to a fixpoint over resolved calls. *)
let propagate summaries resolve =
  let acq = Hashtbl.create 256 and parks = Hashtbl.create 256 in
  List.iter
    (fun sm ->
      Hashtbl.replace acq sm.sm_key
        (CSet.union
           (CSet.of_list sm.sm_acquires)
           (match Hashtbl.find_opt acq sm.sm_key with
           | Some s -> s
           | None -> CSet.empty));
      Hashtbl.replace parks sm.sm_key
        (sm.sm_parks
        ||
        match Hashtbl.find_opt parks sm.sm_key with
        | Some b -> b
        | None -> false))
    summaries;
  let resolved_calls =
    List.map
      (fun sm ->
        let unit_prefix =
          (* strip the scope back off the key to recover the unit *)
          let k = sm.sm_key and sc = "." ^ sm.sm_scope in
          if
            String.length k > String.length sc
            && String.sub k (String.length k - String.length sc)
                 (String.length sc)
               = sc
          then String.sub k 0 (String.length k - String.length sc)
          else k
        in
        ( sm,
          List.filter_map
            (fun c ->
              match resolve ~unit_prefix c.c_path with
              | Some callee -> Some (c, callee)
              | None -> None)
            sm.sm_calls ))
      summaries
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (sm, calls) ->
        List.iter
          (fun (_, callee) ->
            let ca =
              match Hashtbl.find_opt acq callee with
              | Some s -> s
              | None -> CSet.empty
            in
            let mine = Hashtbl.find acq sm.sm_key in
            let u = CSet.union mine ca in
            if not (CSet.equal u mine) then begin
              Hashtbl.replace acq sm.sm_key u;
              changed := true
            end;
            let cp =
              match Hashtbl.find_opt parks callee with
              | Some b -> b
              | None -> false
            in
            if cp && not (Hashtbl.find parks sm.sm_key) then begin
              Hashtbl.replace parks sm.sm_key true;
              changed := true
            end)
          calls)
      resolved_calls
  done;
  (acq, parks, resolved_calls)

(* Entry locksets: the meet over call sites of (locks held at the site
   ∪ the caller's own entry lockset).  Top (= never seen a call yet)
   for called functions, bottom (empty) for roots; iterated downwards.
   Used only to *suppress* L7 findings, so Top — unreachable from any
   scanned root — suppresses. *)
type entry = Top | Known of CSet.t

let entry_locksets summaries resolved_calls =
  let callers = Hashtbl.create 256 in
  List.iter
    (fun (sm, calls) ->
      List.iter
        (fun (c, callee) ->
          let holds =
            CSet.of_list
              (List.filter_map
                 (function Cls c -> Some c | Anon _ -> None)
                 c.c_holds)
          in
          Hashtbl.replace callers callee
            ((sm.sm_key, holds)
            ::
            (match Hashtbl.find_opt callers callee with
            | Some l -> l
            | None -> [])))
        calls)
    resolved_calls;
  let entry = Hashtbl.create 256 in
  List.iter
    (fun sm ->
      Hashtbl.replace entry sm.sm_key
        (if Hashtbl.mem callers sm.sm_key then Top else Known CSet.empty))
    summaries;
  let get k =
    match Hashtbl.find_opt entry k with Some e -> e | None -> Known CSet.empty
  in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 64 do
    changed := false;
    incr iters;
    Hashtbl.iter
      (fun callee sites ->
        let meet =
          List.fold_left
            (fun acc (caller, holds) ->
              match get caller with
              | Top -> acc (* a Top caller constrains nothing *)
              | Known ce -> (
                let term = CSet.union holds ce in
                match acc with
                | Top -> Known term
                | Known a -> Known (CSet.inter a term)))
            Top sites
        in
        if Hashtbl.mem entry callee then
          match (get callee, meet) with
          | Top, Known _ ->
            Hashtbl.replace entry callee meet;
            changed := true
          | Known old, Known nw when not (CSet.equal old nw) ->
            Hashtbl.replace entry callee (Known (CSet.inter old nw));
            changed := true
          | _ -> ())
      callers
  done;
  fun k -> get k

(* --- phase 3: emission -------------------------------------------- *)

let finding sm rule ~line ~detail ~message =
  {
    Finding.rule;
    file = sm.sm_file;
    line;
    scope = sm.sm_scope;
    detail;
    message;
  }

let on sm r = List.mem r sm.sm_rules

let order_findings sm ~acq resolved =
  let check ~line ~via held acquired acc =
    match (held, acquired) with
    | Cls h, Cls a when not (Lock_order.allows ~held:h ~acq:a) ->
      finding sm Finding.L6 ~line
        ~detail:
          (Printf.sprintf "order-%s-under-%s" (Lock_order.name a)
             (Lock_order.name h))
        ~message:
          (Printf.sprintf
             "acquires the %s lock while holding the %s lock%s: the declared \
              hierarchy is %s (Lint.Lock_order)"
             (Lock_order.name a) (Lock_order.name h) via
             (String.concat " < " (List.map Lock_order.name Lock_order.all)))
      :: acc
    | _ -> acc
  in
  let acc =
    List.fold_left
      (fun acc (held, acquired, line, w6) ->
        if w6 then acc else check ~line ~via:"" held acquired acc)
      [] sm.sm_edges
  in
  List.fold_left
    (fun acc (c, callee) ->
      if c.c_w6 then acc
      else
        let ca =
          match Hashtbl.find_opt acq callee with
          | Some s -> s
          | None -> CSet.empty
        in
        List.fold_left
          (fun acc held ->
            CSet.fold
              (fun a acc ->
                check ~line:c.c_line
                  ~via:
                    (Printf.sprintf " via the call to %s"
                       (Analyze.last_component callee))
                  held (Cls a) acc)
              ca acc)
          acc c.c_holds)
    acc resolved

let l7_findings sm entry =
  List.filter_map
    (fun a ->
      if a.a_waived then None
      else
        let eff =
          match entry sm.sm_key with
          | Top -> None (* unreachable from scanned roots: suppress *)
          | Known e -> Some (CSet.union e (CSet.of_list a.a_holds))
        in
        let what = if a.a_write then "write" else "read" in
        match Lock_order.guard_of_field ~ty:a.a_ty ~field:a.a_field with
        | Some { Lock_order.w_guard = Some g; _ } -> (
          match eff with
          | None -> None
          | Some eff when CSet.mem g eff -> None
          | Some _ ->
            Some
              (finding sm Finding.L7 ~line:a.a_line
                 ~detail:(Printf.sprintf "%s-%s" what a.a_field)
                 ~message:
                   (Printf.sprintf
                      "%s of %s.%s without the %s lock in the inferred \
                       lockset: racing domains can corrupt it (take the lock \
                       or waive with [@chorus.guarded \"why\"])"
                      what a.a_ty a.a_field (Lock_order.name g))))
        | Some { Lock_order.w_guard = None; _ } ->
          Some
            (finding sm Finding.L7 ~line:a.a_line
               ~detail:(Printf.sprintf "%s-%s" what a.a_field)
               ~message:
                 (Printf.sprintf
                    "%s of %s.%s, which has no owning lock: accesses are \
                     serialised only by the owner fibre's affinity lane — \
                     document that with [@chorus.guarded \"why\"]"
                    what a.a_ty a.a_field))
        | None -> None)
    sm.sm_accesses

let park_findings sm ~parks resolved =
  List.filter_map
    (fun (c, callee) ->
      if c.c_w8 || c.c_holds = [] then None
      else
        match Hashtbl.find_opt parks callee with
        | Some true ->
          Some
            (finding sm Finding.L8 ~line:c.c_line
               ~detail:("park-via-" ^ Analyze.last_component callee)
               ~message:
                 (Printf.sprintf
                    "calls %s, which can reach a suspension point, while \
                     holding %s: a parked holder stalls every domain that \
                     needs the lock"
                    (Analyze.last_component callee)
                    (String.concat ", " (List.map lock_name c.c_holds))))
        | _ -> None)
    resolved

(* Cycle check over the full may-hold-while-acquiring graph including
   anonymous locks.  Class-class edges are already constrained by the
   total hierarchy, so only components involving an anonymous lock can
   cycle without an order finding. *)
let cycle_findings summaries =
  let edges =
    List.concat_map
      (fun sm ->
        List.filter_map
          (fun (held, acqd, line, w6) ->
            if w6 || held = acqd then None else Some (sm, held, acqd, line))
          sm.sm_edges)
      summaries
  in
  let module G = Map.Make (String) in
  let adj =
    List.fold_left
      (fun g (_, h, a, _) ->
        let k = lock_name h in
        G.update k
          (function
            | None -> Some [ lock_name a ]
            | Some l -> Some (lock_name a :: l))
          g)
      G.empty edges
  in
  (* nodes on a cycle: reachable from themselves *)
  let reaches src dst =
    let seen = Hashtbl.create 8 in
    let rec go n =
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.replace seen n ();
        match G.find_opt n adj with
        | None -> false
        | Some succs -> List.exists (fun s -> s = dst || go s) succs
      end
    in
    go src
  in
  List.filter_map
    (fun (sm, h, a, line) ->
      let anon = function Anon _ -> true | Cls _ -> false in
      if
        (anon h || anon a)
        && on sm Finding.L6
        && reaches (lock_name a) (lock_name h)
      then
        Some
          (finding sm Finding.L6 ~line ~detail:"lock-cycle"
             ~message:
               (Printf.sprintf
                  "acquiring %s while holding %s closes a cycle in the \
                   may-hold-while-acquiring graph: some other code path \
                   acquires them in the opposite order"
                  (lock_name a) (lock_name h)))
      else None)
    edges

let analyze (units : unit_info list) : Finding.t list =
  let summaries = List.concat_map summarize_unit units in
  let resolve = make_resolver summaries in
  let acq, parks, resolved_calls = propagate summaries resolve in
  let entry = entry_locksets summaries resolved_calls in
  let per_summary =
    List.concat_map
      (fun (sm, resolved) ->
        let locals =
          List.filter_map
            (fun (rule, line, detail, message) ->
              if on sm rule then Some (finding sm rule ~line ~detail ~message)
              else None)
            sm.sm_local
        in
        let l6 = if on sm Finding.L6 then order_findings sm ~acq resolved else []
        and l7 = if on sm Finding.L7 then l7_findings sm entry else []
        and l8 = if on sm Finding.L8 then park_findings sm ~parks resolved else []
        in
        locals @ l6 @ l7 @ l8)
      resolved_calls
  in
  let cycles = cycle_findings summaries in
  List.sort Finding.compare_by_position (per_summary @ cycles)

(* Convenience for tests and tooling: one .cmt, analyzed on its own. *)
let unit_of_cmt ?file ~rules path =
  let info = Cmt_format.read_cmt path in
  let file =
    match (file, info.Cmt_format.cmt_sourcefile) with
    | Some f, _ -> f
    | None, Some f -> f
    | None, None -> path
  in
  match info.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
    {
      ui_file = file;
      ui_prefix = Analyze.normalize_path info.Cmt_format.cmt_modname;
      ui_rules = rules;
      ui_str = str;
    }
  | _ -> raise (Analyze.Not_an_implementation path)
