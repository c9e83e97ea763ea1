(* A lint finding: one concrete violation of the chorus discipline
   rule catalogue, anchored to a source location and to a stable key
   (rule, file, enclosing top-level binding, detail) that survives
   line-number churn — the baseline file suppresses by key and count,
   never by line. *)

type rule = L1 | L2 | L3 | L4 | L5

let rule_name = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"

let rule_of_name = function
  | "L1" -> Some L1
  | "L2" -> Some L2
  | "L3" -> Some L3
  | "L4" -> Some L4
  | "L5" -> Some L5
  | _ -> None

let rule_title = function
  | L1 -> "footprint soundness"
  | L2 -> "blocking discipline"
  | L3 -> "charge discipline"
  | L4 -> "hot-path allocation"
  | L5 -> "sanitizer purity"

type t = {
  rule : rule;
  file : string;  (** repo-relative source path *)
  line : int;
  scope : string;  (** enclosing top-level binding, dotted if nested *)
  detail : string;  (** what fired, e.g. a field or construct name *)
  message : string;
}

(* The stable identity used for baseline matching. *)
type key = rule * string * string * string

let key f : key = (f.rule, f.file, f.scope, f.detail)

let pp ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s (in %s)" f.file f.line (rule_name f.rule)
    f.message f.scope

let compare_by_position a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c else compare (rule_name a.rule) (rule_name b.rule)
