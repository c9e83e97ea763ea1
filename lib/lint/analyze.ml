(* The typedtree walker behind chorus-lint.

   Works on the .cmt files dune already produces: each compilation
   unit's typedtree is walked once per top-level binding, collecting
   the *satisfiers* present in the binding (note_* calls, declare_wait,
   span openers) and the *triggers* it contains (shared-field touches,
   blocking calls, charge sites, allocating constructs), then emitting
   a finding for every trigger with no satisfier and no waiver.

   Scope note: domination is approximated by containment at top-level
   binding granularity — a binding that both touches the global map
   and calls note_frag is taken as disciplined, whatever the
   control-flow order.  The approximation is sound for the way the
   conventions are written in this repo (notes sit at function entry,
   before the first scheduling point) and is deliberately cheap enough
   to run on every build; the dynamic harness (DPOR + sanitizer)
   remains the backstop for ordering within a binding.

   Waivers are expression- or binding-level attributes carrying a
   mandatory justification string, or file-level floating attributes:

     [@chorus.noted "why"]      L1   access noted by a caller / not shared
     [@chorus.declared "why"]   L2   wait edge declared by a caller
     [@chorus.spanned "why"]    L3   charge lands in a caller's span
     [@chorus.alloc_ok "why"]   L4   allocation accepted on the hot path
     [@chorus.impure_ok "why"]  L5   mutation accepted in a sanitizer

   [@chorus.hot] marks a binding for the L4 allocation lint.  A waiver
   without a justification string is itself a finding. *)

open Typedtree

(* --- rule catalogue data ------------------------------------------ *)

(* The L1 object classes.  [Any] is satisfied by a raw
   Engine.note_access / note_ambient call (the primitive the class
   wrappers bottom out in). *)
type obj_class = Map | Frames | Structure | Shared

let class_name = function
  | Map -> "global map"
  | Frames -> "frame pool"
  | Structure -> "cache/context topology"
  | Shared -> "shared state"

(* Shared mutable fields, keyed by (record type's last path component,
   field name): reading or writing one of these from engine-task code
   is part of the running slice's footprint and must be noted.  The
   type-name guard keeps generic field names from matching records of
   unrelated libraries. *)
let l1_fields : ((string * string) * obj_class) list =
  [
    (* Core.Types.pvm — the PVM bundle itself *)
    (("pvm", "gmap"), Map);
    (("pvm", "stub_sources"), Map);
    (("pvm", "page_of_frame"), Frames);
    (("pvm", "reclaim"), Frames);
    (* Core.Reclaim.t — the reclaim queue's links, indexed by frame *)
    (("t", "rq_next"), Frames);
    (("t", "rq_prev"), Frames);
    (("t", "rq_len"), Frames);
    (("pvm", "newest_context"), Structure);
    (("pvm", "newest_cache"), Structure);
    (("pvm", "current"), Structure);
    (* Core.Types.cache / context — the copy-tree topology *)
    (("cache", "c_parents"), Structure);
    (("cache", "c_children"), Structure);
    (("cache", "c_history"), Structure);
    (("cache", "c_mappings"), Structure);
    (("context", "ctx_regions"), Structure);
    (* the registry links threaded through the records *)
    (("cache", "c_newer"), Structure);
    (("cache", "c_older"), Structure);
    (("context", "ctx_newer"), Structure);
    (("context", "ctx_older"), Structure);
    (* the per-cache stub indexes mirror global-map and pending rows *)
    (("cache", "c_dest_stubs"), Map);
    (("cache", "c_pending_offs"), Map);
    (* Nucleus: transit-segment slot pool and port queues *)
    (("t", "free"), Shared);
    (("t", "queue"), Shared);
    (* DSM: directory of per-site page modes, site list, home copy *)
    (("site", "s_modes"), Shared);
    (("t", "sites"), Shared);
    (("t", "master"), Shared);
    (* Mix: VFS/image stores *)
    (("t", "files"), Shared);
    (("t", "images"), Shared);
    (* Seg: segment-manager port table and backing store *)
    (("t", "mappers"), Shared);
    (("t", "segments"), Shared);
  ]

(* Satisfier tags, recognised by the last component of a (normalised)
   value path. *)
type sat = Sat_class of obj_class | Sat_any_note | Sat_wait | Sat_span

let sat_of_last = function
  | "note_frag" -> Some (Sat_class Map)
  | "note_frames" -> Some (Sat_class Frames)
  | "note_structure" -> Some (Sat_class Structure)
  | "note_access" | "note_ambient" -> Some Sat_any_note
  | "declare_wait" | "declare_wait_ambient" -> Some Sat_wait
  | "with_span" | "span_begin" | "spanned" -> Some Sat_span
  | _ -> None

(* The trusted note wrappers: their very bodies must bottom out in the
   engine primitive, or every disciplined caller is silently unsound
   (this is what the mutation test deletes). *)
let note_wrappers = [ "note_frag"; "note_frames"; "note_structure" ]

(* --- attribute helpers -------------------------------------------- *)

let waiver_rule_of_attr = function
  | "chorus.noted" -> Some Finding.L1
  | "chorus.declared" -> Some Finding.L2
  | "chorus.spanned" -> Some Finding.L3
  | "chorus.alloc_ok" -> Some Finding.L4
  | "chorus.impure_ok" -> Some Finding.L5
  | _ -> None

let attr_string_payload (attr : Parsetree.attribute) =
  match attr.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ] ->
    Some s
  | _ -> None

let is_hot_attr (attr : Parsetree.attribute) =
  attr.Parsetree.attr_name.txt = "chorus.hot"

(* --- path helpers ------------------------------------------------- *)

(* "Core__Types.pvm" and "Types.pvm" both normalise so that suffix
   matching sees the same dotted components. *)
let normalize_path name =
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf name.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let last_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let has_dotted_suffix ~suffix name =
  name = suffix
  || String.length name > String.length suffix + 1
     && String.sub name
          (String.length name - String.length suffix)
          (String.length suffix)
        = suffix
     && name.[String.length name - String.length suffix - 1] = '.'

let tconstr_last (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (last_component (normalize_path (Path.name p)))
  | _ -> None

(* --- per-binding analysis state ----------------------------------- *)

type trigger = {
  t_rule : Finding.rule;
  t_detail : string;
  t_message : string;
  t_line : int;
  t_waived : bool;  (** an expression-level waiver covered this site *)
  t_class : obj_class option;  (** for L1: which satisfier clears it *)
}

type binding_state = {
  mutable sats : sat list;
  mutable triggers : trigger list;
  mutable malformed : (string * int) list;  (** waivers with no reason *)
}

(* The per-file mutable context threaded through the iterator. *)
type ctx = {
  file : string;
  rules : Finding.rule list;
  mutable file_waivers : Finding.rule list;
  mutable scope : string;
  mutable hot : bool;  (** current binding carries [@chorus.hot] *)
  mutable spine : expression list;  (** the binding's parameter chain *)
  mutable active_waivers : Finding.rule list list;  (** stack *)
  mutable st : binding_state;
  mutable findings : Finding.t list;
}

let rule_on ctx r = List.mem r ctx.rules

let waived ctx r =
  List.mem r ctx.file_waivers
  || List.exists (fun ws -> List.mem r ws) ctx.active_waivers

let add_sat ctx s = ctx.st.sats <- s :: ctx.st.sats

let add_trigger ctx ?cls rule ~detail ~message ~line =
  if rule_on ctx rule then
    ctx.st.triggers <-
      {
        t_rule = rule;
        t_detail = detail;
        t_message = message;
        t_line = line;
        t_waived = waived ctx rule;
        t_class = cls;
      }
      :: ctx.st.triggers

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* --- trigger / satisfier detection on one expression node --------- *)

(* L1/L5 field catalogue lookup. *)
let l1_class ~ty_last ~field =
  List.assoc_opt (ty_last, field) l1_fields

(* Core record types whose mutation from a sanitizer rule breaks
   check-time transparency (L5). *)
let core_record_types =
  [ "pvm"; "cache"; "page"; "region"; "context"; "cow_stub"; "stats" ]

(* Calls a sanitizer has no business making: every entry is an API
   that mutates live PVM state (L5). *)
let l5_call_denylist_modules =
  [ "Install"; "Pager"; "Fault"; "Pervpage"; "Value"; "History"; "Context" ]

let l5_call_denylist_functions =
  [
    "Global_map.set";
    "Global_map.remove";
    "Global_map.insert_sync_stub";
    "Global_map.finish_sync_stub";
    "Pmap.enter";
    "Pmap.assign";
    "Pmap.clear";
    "Pmap.refresh_prot";
    "Cache.create";
    "Cache.destroy";
    "Cache.copy";
    "Cache.invalidate";
    "Cache.sync";
    "Cache.set_protection";
    "Hashtbl.replace";
    "Hashtbl.add";
    "Hashtbl.remove";
    "Hashtbl.reset";
    "Hashtbl.clear";
    "Queue.push";
    "Queue.add";
    "Queue.pop";
    "Queue.take";
    "Queue.clear";
    "Array.set";
    "Array.unsafe_set";
    "Bytes.set";
    "Bytes.unsafe_set";
  ]

(* Structured constants ([Some false], [(1, 2)]) are lifted to static
   data by the compiler: constructing one at runtime costs nothing. *)
let rec is_static_const (e : expression) =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, _, args) -> List.for_all is_static_const args
  | Texp_tuple es -> List.for_all is_static_const es
  | Texp_variant (_, arg) -> (
    match arg with None -> true | Some a -> is_static_const a)
  | _ -> false

let alloc_construct (e : expression) =
  if is_static_const e then None
  else
    match e.exp_desc with
    | Texp_function _ -> Some ("closure", "heap-allocates a closure")
    | Texp_tuple _ -> Some ("tuple", "heap-allocates a tuple")
    | Texp_record _ -> Some ("record", "heap-allocates a record")
    | Texp_array _ -> Some ("array", "heap-allocates an array")
    | Texp_construct (lid, cd, _ :: _) ->
      let name = Longident.last lid.txt in
      ignore cd;
      Some
        ( "construct-" ^ name,
          Printf.sprintf "heap-allocates a boxed constructor (%s)" name )
    | Texp_variant (label, Some _) ->
      Some
        ( "variant-" ^ label,
          Printf.sprintf "heap-allocates a boxed polymorphic variant (`%s)"
            label )
  | Texp_apply _ -> (
    match Types.get_desc e.exp_type with
    | Types.Tarrow _ ->
      Some ("partial-application", "heap-allocates a partial application")
    | _ -> None)
  | _ -> None

let inspect_node ctx (e : expression) =
  let line = line_of e.exp_loc in
  (match e.exp_desc with
  | Texp_ident (path, _, _) -> (
    let name = normalize_path (Path.name path) in
    let last = last_component name in
    (match sat_of_last last with Some s -> add_sat ctx s | None -> ());
    (* L2 triggers: parking entry points. *)
    if
      (last = "wait" && has_dotted_suffix ~suffix:"Cond.wait" name)
      || (last = "suspend" && has_dotted_suffix ~suffix:"Engine.suspend" name)
    then
      add_trigger ctx Finding.L2 ~detail:("wait-" ^ last)
        ~message:
          (Printf.sprintf
             "blocking call %s is not covered by a declare_wait in this \
              binding: the watchdog's blocked-on graph will have a hole here"
             name)
        ~line;
    (* L3 triggers: charge sites. *)
    if last = "charge" || last = "charge_span" || last = "charge_traced" then
      add_trigger ctx Finding.L3 ~detail:("charge-" ^ last)
        ~message:
          (Printf.sprintf
             "charge site %s is not covered by a span opener in this binding: \
              the profiler cannot attribute the cost (charge conservation \
              breaks)"
             name)
        ~line;
    (* L5 triggers: calls into mutating API from a sanitizer. *)
    if rule_on ctx Finding.L5 then begin
      let mod_hit =
        List.exists
          (fun m -> has_dotted_suffix ~suffix:(m ^ "." ^ last) name)
          l5_call_denylist_modules
      and fn_hit =
        List.exists
          (fun suffix -> has_dotted_suffix ~suffix name)
          l5_call_denylist_functions
      in
      if mod_hit || fn_hit then
        add_trigger ctx Finding.L5 ~detail:("calls-" ^ last)
          ~message:
            (Printf.sprintf
               "sanitizer rule reaches mutating API %s: sanitizers must \
                observe, never modify, live PVM state"
               name)
          ~line
    end)
  | Texp_field (re, _, ld) ->
    let ty_last = Option.value ~default:"?" (tconstr_last ld.lbl_res) in
    ignore re;
    (match l1_class ~ty_last ~field:ld.lbl_name with
    | Some cls ->
      add_trigger ctx Finding.L1 ~cls ~detail:("read-" ^ ld.lbl_name)
        ~message:
          (Printf.sprintf
             "read of %s field %s.%s is not noted in this binding: the DPOR \
              footprint misses it and schedules that depend on it commute \
              incorrectly"
             (class_name cls) ty_last ld.lbl_name)
        ~line
    | None -> ())
  | Texp_setfield (re, _, ld, _) ->
    let ty_last = Option.value ~default:"?" (tconstr_last ld.lbl_res) in
    ignore re;
    (match l1_class ~ty_last ~field:ld.lbl_name with
    | Some cls ->
      add_trigger ctx Finding.L1 ~cls ~detail:("write-" ^ ld.lbl_name)
        ~message:
          (Printf.sprintf
             "mutation of %s field %s.%s is not noted in this binding: the \
              DPOR footprint misses it and racing slices appear independent"
             (class_name cls) ty_last ld.lbl_name)
        ~line
    | None -> ());
    (* L5: any mutation of a core record from a sanitizer. *)
    if rule_on ctx Finding.L5 && List.mem ty_last core_record_types then
      add_trigger ctx Finding.L5 ~detail:("sets-" ^ ld.lbl_name)
        ~message:
          (Printf.sprintf
             "sanitizer rule mutates %s.%s: sanitizers must observe, never \
              modify, live PVM state"
             ty_last ld.lbl_name)
        ~line
  | _ -> ());
  (* L4: allocating constructs inside a [@chorus.hot] binding.  The
     parameter spine of the binding itself is not an allocation. *)
  if
    ctx.hot
    && rule_on ctx Finding.L4
    && not (List.memq e ctx.spine)
  then
    match alloc_construct e with
    | Some (detail, msg) ->
      add_trigger ctx Finding.L4 ~detail
        ~message:(msg ^ " on a [@chorus.hot] path")
        ~line
    | None -> ()

(* --- the iterator ------------------------------------------------- *)

let waivers_of_attrs ctx attrs ~line =
  List.filter_map
    (fun (attr : Parsetree.attribute) ->
      match waiver_rule_of_attr attr.Parsetree.attr_name.txt with
      | None -> None
      | Some r -> (
        match attr_string_payload attr with
        | Some reason when String.trim reason <> "" -> Some r
        | _ ->
          ctx.st.malformed <-
            (attr.Parsetree.attr_name.txt, line) :: ctx.st.malformed;
          Some r))
    attrs

let make_iterator ctx =
  let expr sub (e : expression) =
    let ws = waivers_of_attrs ctx e.exp_attributes ~line:(line_of e.exp_loc) in
    ctx.active_waivers <- ws :: ctx.active_waivers;
    inspect_node ctx e;
    Tast_iterator.default_iterator.expr sub e;
    ctx.active_waivers <- List.tl ctx.active_waivers
  in
  { Tast_iterator.default_iterator with expr }

(* The chain of leading Texp_function nodes of a binding — its formal
   parameters, excluded from L4 closure detection. *)
let rec spine_of (e : expression) acc =
  match e.exp_desc with
  | Texp_function _ -> (
    let acc = e :: acc in
    (* descend into every case body: all of them are still "the
       function being defined", not a per-call allocation *)
    match e.exp_desc with
    | Texp_function { cases; _ } ->
      List.fold_left (fun acc c -> spine_of c.c_rhs acc) acc cases
    | _ -> acc)
  | _ -> acc

let binding_name (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) -> Ident.name id
  | _ -> "_"

(* --- resolving one binding's collected state ---------------------- *)

let resolve_binding ctx ~name ~line =
  let sats = ctx.st.sats in
  let has s = List.mem s sats in
  let l1_satisfied cls = has (Sat_class cls) || has Sat_any_note in
  let emit t =
    let covered =
      match t.t_rule with
      | Finding.L1 -> (
        match t.t_class with
        | Some cls -> l1_satisfied cls
        | None -> has Sat_any_note)
      | Finding.L2 -> has Sat_wait
      | Finding.L3 -> has Sat_span
      | Finding.L4 | Finding.L5 -> false
    in
    if not (covered || t.t_waived) then
      ctx.findings <-
        {
          Finding.rule = t.t_rule;
          file = ctx.file;
          line = t.t_line;
          scope = ctx.scope;
          detail = t.t_detail;
          message = t.t_message;
        }
        :: ctx.findings
  in
  List.iter emit (List.rev ctx.st.triggers);
  (* Wrapper integrity: the note wrappers must call the engine
     primitive — a wrapper that silently stopped noting would undermine
     every disciplined caller at once. *)
  if
    List.mem name note_wrappers
    && rule_on ctx Finding.L1
    && not (has Sat_any_note)
    && not (waived ctx Finding.L1)
  then
    ctx.findings <-
      {
        Finding.rule = Finding.L1;
        file = ctx.file;
        line;
        scope = ctx.scope;
        detail = "wrapper-" ^ name;
        message =
          Printf.sprintf
            "note wrapper %s does not call Hw.Engine.note_access: every call \
             site that relies on it is silently unnoted"
            name;
      }
      :: ctx.findings;
  (* Malformed waivers are findings in their own right. *)
  List.iter
    (fun (attr, wline) ->
      ctx.findings <-
        {
          Finding.rule = Finding.L1;
          file = ctx.file;
          line = wline;
          scope = ctx.scope;
          detail = "malformed-waiver";
          message =
            Printf.sprintf
              "waiver attribute [@%s] carries no justification string" attr;
        }
        :: ctx.findings)
    ctx.st.malformed

(* --- structure traversal ------------------------------------------ *)

let analyze_binding ctx ~prefix (vb : value_binding) =
  let name = binding_name vb in
  ctx.scope <- (if prefix = "" then name else prefix ^ "." ^ name);
  ctx.st <- { sats = []; triggers = []; malformed = [] };
  ctx.hot <- List.exists is_hot_attr vb.vb_attributes;
  ctx.spine <- (if ctx.hot then spine_of vb.vb_expr [] else []);
  let binding_ws =
    waivers_of_attrs ctx vb.vb_attributes ~line:(line_of vb.vb_loc)
  in
  ctx.active_waivers <- [ binding_ws ];
  let it = make_iterator ctx in
  it.expr it vb.vb_expr;
  ctx.active_waivers <- [];
  resolve_binding ctx ~name ~line:(line_of vb.vb_loc)

let rec analyze_structure ctx ~prefix (str : structure) =
  (* file-level waivers first: they cover every binding, including
     ones earlier in the file *)
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_attribute attr ->
        (match waiver_rule_of_attr attr.Parsetree.attr_name.txt with
        | Some r when prefix = "" -> (
          match attr_string_payload attr with
          | Some reason when String.trim reason <> "" ->
            ctx.file_waivers <- r :: ctx.file_waivers
          | _ ->
            ctx.findings <-
              {
                Finding.rule = Finding.L1;
                file = ctx.file;
                line = line_of item.str_loc;
                scope = "(file)";
                detail = "malformed-waiver";
                message =
                  Printf.sprintf
                    "file-level waiver [@@@%s] carries no justification string"
                    attr.Parsetree.attr_name.txt;
              }
              :: ctx.findings;
            ctx.file_waivers <- r :: ctx.file_waivers)
        | _ -> ())
      | _ -> ())
    str.str_items;
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (analyze_binding ctx ~prefix) vbs
      | Tstr_module mb -> analyze_module ctx ~prefix mb
      | Tstr_recmodule mbs -> List.iter (analyze_module ctx ~prefix) mbs
      | _ -> ())
    str.str_items

and analyze_module ctx ~prefix (mb : module_binding) =
  let mname =
    match mb.mb_name.txt with Some n -> n | None -> "_"
  in
  let prefix = if prefix = "" then mname else prefix ^ "." ^ mname in
  let rec go (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> analyze_structure ctx ~prefix str
    | Tmod_constraint (me, _, _, _) -> go me
    | _ -> ()
  in
  go mb.mb_expr

(* --- entry points ------------------------------------------------- *)

(* Analyze one typedtree.  [file] is the repo-relative source path the
   findings are reported against; [rules] the subset of the catalogue
   that applies to this file. *)
let structure ~file ~rules (str : structure) =
  let ctx =
    {
      file;
      rules;
      file_waivers = [];
      scope = "";
      hot = false;
      spine = [];
      active_waivers = [];
      st = { sats = []; triggers = []; malformed = [] };
      findings = [];
    }
  in
  analyze_structure ctx ~prefix:"" str;
  List.sort Finding.compare_by_position ctx.findings

exception Not_an_implementation of string

(* Load a .cmt and analyze its implementation.  Interfaces, packed
   modules and partial trees (failed builds) have no code to lint. *)
let cmt ?file ~rules path =
  let info = Cmt_format.read_cmt path in
  let file =
    match (file, info.Cmt_format.cmt_sourcefile) with
    | Some f, _ -> f
    | None, Some f -> f
    | None, None -> path
  in
  match info.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str -> structure ~file ~rules str
  | _ -> raise (Not_an_implementation path)
