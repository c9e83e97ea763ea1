(* Crash-bundle container and JSON round-trip.  See DESIGN.md §4e for
   the schema; Check.Forensics assembles bundles from live state. *)

type t = {
  schema : string;
  scenario : string;
  inject : string list;
  kind : string;
  detail : string;
  observed : string option;
  sim_now : int;
  schedule : int list;
  trace : Json.t;
  state : Json.t list;
  digests : string list;
  violations : Json.t;
  metrics : Json.t list;
  watchdog : Json.t;
}

let schema_version = "chorus-bundle/2"

let v ~scenario ?(inject = []) ~kind ~detail ?observed ~sim_now ~schedule
    ?(trace = Json.Null) ?(state = []) ?(digests = [])
    ?(violations = Json.Null) ?(metrics = []) ?(watchdog = Json.Null) () =
  {
    schema = schema_version;
    scenario;
    inject;
    kind;
    detail;
    observed;
    sim_now;
    schedule;
    trace;
    state;
    digests;
    violations;
    metrics;
    watchdog;
  }

let num i = Json.Num (float_of_int i)

let to_json b : Json.t =
  Json.Obj
    [
      ("schema", Json.Str b.schema);
      ("scenario", Json.Str b.scenario);
      ("inject", Json.List (List.map (fun s -> Json.Str s) b.inject));
      ( "failure",
        Json.Obj
          ([ ("kind", Json.Str b.kind); ("detail", Json.Str b.detail) ]
          @
          match b.observed with
          | Some d -> [ ("observed", Json.Str d) ]
          | None -> []) );
      ("sim_now", num b.sim_now);
      ("schedule", Json.List (List.map num b.schedule));
      ("trace", b.trace);
      ("state", Json.List b.state);
      ("digests", Json.List (List.map (fun d -> Json.Str d) b.digests));
      ("violations", b.violations);
      ("metrics", Json.List b.metrics);
      ("watchdog", b.watchdog);
    ]

let of_json (j : Json.t) : (t, string) result =
  let str name = Json.get_str (Json.member name j) in
  let int_of f = int_of_float f in
  match str "schema" with
  | None -> Error "not a bundle: no \"schema\" field"
  | Some s when s <> schema_version ->
    Error (Printf.sprintf "unknown bundle schema %S (expected %S)" s
             schema_version)
  | Some schema -> (
    let strings name =
      match Json.get_list (Json.member name j) with
      | Some l ->
        List.filter_map (function Json.Str s -> Some s | _ -> None) l
      | None -> []
    in
    let schedule =
      match Json.get_list (Json.member "schedule" j) with
      | Some l ->
        List.filter_map
          (function Json.Num f -> Some (int_of f) | _ -> None)
          l
      | None -> []
    in
    let json_field name =
      Option.value ~default:Json.Null (Json.member name j)
    in
    let json_list name =
      Option.value ~default:[] (Json.get_list (Json.member name j))
    in
    let failure = Json.member "failure" j in
    let failure_str name =
      match failure with
      | Some f -> Json.get_str (Json.member name f)
      | None -> None
    in
    match (str "scenario", failure_str "kind") with
    | None, _ -> Error "bundle missing \"scenario\""
    | _, None -> Error "bundle missing \"failure.kind\""
    | Some scenario, Some kind ->
      Ok
        {
          schema;
          scenario;
          inject = strings "inject";
          kind;
          detail = Option.value ~default:"" (failure_str "detail");
          observed = failure_str "observed";
          sim_now =
            (match Json.get_num (Json.member "sim_now" j) with
            | Some f -> int_of f
            | None -> 0);
          schedule;
          trace = json_field "trace";
          state = json_list "state";
          digests = strings "digests";
          violations = json_field "violations";
          metrics = json_list "metrics";
          watchdog = json_field "watchdog";
        })

let sanitize_component s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    s

let filename b =
  Printf.sprintf "bundle-%s-%s.json"
    (sanitize_component b.scenario)
    (sanitize_component b.kind)

let write ~dir b =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename b) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json b));
      output_char oc '\n');
  path

let read path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no such bundle: %s" path)
  else
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse contents with
    | exception Json.Parse_error msg ->
      Error (Printf.sprintf "%s: bad JSON: %s" path msg)
    | j -> of_json j
