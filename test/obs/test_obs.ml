(* Tests of the observability layer: span bookkeeping over the
   simulated clock, Chrome trace_event export, the metrics registry
   against the legacy counters, and the zero-cost-when-disabled
   guarantee. *)

let ps = 8192

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser (no external dependency), just enough to
   validate the exporter's output structurally. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
        | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
        | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          (* non-ASCII escapes are preserved opaquely; fine for tests *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
          go ()
        | Some c -> advance (); Buffer.add_char b c; go ()
        | None -> fail "unterminated escape")
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); J_obj [])
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        J_obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); J_list [])
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        J_list (elements [])
      end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

let get_str = function Some (J_str s) -> Some s | _ -> None
let get_num = function Some (J_num f) -> Some f | _ -> None

(* ------------------------------------------------------------------ *)
(* Span nesting over the simulated clock. *)

let test_span_nesting () =
  let engine = Hw.Engine.create () in
  let tr = Obs.Trace.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  Hw.Engine.run engine (fun () ->
      Obs.Trace.span_begin tr ~cat:"test" "outer";
      Hw.Engine.sleep (Hw.Sim_time.us 10);
      Obs.Trace.span_begin tr ~cat:"test" "inner";
      Hw.Engine.sleep (Hw.Sim_time.us 5);
      Obs.Trace.span_end tr;
      Hw.Engine.sleep (Hw.Sim_time.us 1);
      Obs.Trace.span_end tr ~args:[ ("k", Obs.Trace.Int 1) ]);
  let spans =
    List.filter_map
      (function
        | Obs.Trace.Span { name; ts; dur; fib; _ } -> Some (name, ts, dur, fib)
        | _ -> None)
      (Obs.Trace.events tr)
  in
  (* spans are recorded as they close: inner first *)
  match spans with
  | [ ("inner", its, idur, ifib); ("outer", ots, odur, ofib) ] ->
    Alcotest.(check int) "inner begins at 10us" 10_000 its;
    Alcotest.(check int) "inner lasts 5us" 5_000 idur;
    Alcotest.(check int) "outer begins at 0" 0 ots;
    Alcotest.(check int) "outer lasts 16us" 16_000 odur;
    Alcotest.(check bool) "same fibre" true (ifib = ofib && ifib > 0)
  | spans ->
    Alcotest.failf "expected [inner; outer], got %d spans" (List.length spans)

let test_with_span_exception () =
  let engine = Hw.Engine.create () in
  let tr = Obs.Trace.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  (try
     Hw.Engine.run engine (fun () ->
         Obs.Trace.with_span tr ~cat:"test" "doomed" (fun () ->
             Hw.Engine.sleep (Hw.Sim_time.us 3);
             failwith "boom"))
   with Failure _ -> ());
  match Obs.Trace.events tr with
  | [ Obs.Trace.Span { name = "doomed"; dur; args; _ } ] ->
    Alcotest.(check int) "span closed with its duration" 3_000 dur;
    Alcotest.(check bool)
      "exception recorded" true
      (List.mem_assoc "exception" args)
  | _ -> Alcotest.fail "expected exactly the doomed span"

(* ------------------------------------------------------------------ *)
(* Chrome JSON export. *)

let test_chrome_json () =
  let engine = Hw.Engine.create () in
  let tr = Obs.Trace.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  Hw.Engine.run engine (fun () ->
      Hw.Engine.spawn engine ~name:"worker" (fun () ->
          Obs.Trace.with_span tr ~cat:"test" "work" (fun () ->
              Hw.Engine.sleep (Hw.Sim_time.us 7)));
      Obs.Trace.instant tr ~cat:"test" "mark"
        ~args:[ ("v", Obs.Trace.Str "x") ];
      Obs.Trace.counter tr "free" 42;
      Hw.Engine.sleep (Hw.Sim_time.us 20));
  let json = parse_json (Obs.Trace.to_chrome_json tr) in
  let events =
    match member "traceEvents" json with
    | Some (J_list evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events >= 4);
  (* every event is an object with a phase; ts is monotone over the
     non-metadata events; X events carry durations *)
  let last_ts = ref neg_infinity in
  List.iter
    (fun ev ->
      let ph =
        match get_str (member "ph" ev) with
        | Some ph -> ph
        | None -> Alcotest.fail "event without ph"
      in
      if ph <> "M" then begin
        let ts =
          match get_num (member "ts" ev) with
          | Some ts -> ts
          | None -> Alcotest.fail "event without ts"
        in
        Alcotest.(check bool) "ts monotone" true (ts >= !last_ts);
        last_ts := ts
      end;
      if ph = "X" then
        Alcotest.(check bool)
          "complete span has dur" true
          (get_num (member "dur" ev) <> None))
    events;
  let thread_names =
    List.filter_map
      (fun ev ->
        if get_str (member "ph" ev) = Some "M" then
          get_str (member "name" (Option.value ~default:J_null (member "args" ev)))
        else None)
      events
  in
  Alcotest.(check bool)
    "worker fibre is named" true
    (List.mem "worker" thread_names)

(* ------------------------------------------------------------------ *)
(* Metrics registry against the legacy stats on a fork-style COW
   scenario.  Runs under the calibrated profile so the per-primitive
   attribution is populated; optionally with an enabled tracer, to
   check tracing perturbs nothing. *)

let cow_scenario ?(trace = false) () =
  let engine = Hw.Engine.create () in
  let tr = Obs.Trace.create () in
  Hw.Engine.set_tracer engine tr;
  if trace then Obs.Trace.enable tr;
  let pvm =
    Hw.Engine.run_fn engine (fun () ->
        let pvm = Core.Pvm.create ~frames:256 ~engine () in
        let ctx = Core.Context.create pvm in
        let src = Core.Cache.create pvm () in
        let dst = Core.Cache.create pvm () in
        let _ =
          Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
            ~prot:Hw.Prot.read_write src ~offset:0
        in
        let _ =
          Core.Region.create pvm ctx ~addr:(1024 * ps) ~size:(4 * ps)
            ~prot:Hw.Prot.read_write dst ~offset:0
        in
        Core.Pvm.write pvm ctx ~addr:0 (Bytes.make (2 * ps) 'a');
        Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst
          ~dst_off:0 ~size:(4 * ps) ();
        (* write the source: original saved for the copy (COW) *)
        Core.Pvm.write pvm ctx ~addr:0 (Bytes.make ps 'b');
        (* read the copy: borrows / pulls the preserved value *)
        ignore (Core.Pvm.read pvm ctx ~addr:(1024 * ps) ~len:(2 * ps));
        (* write the copy: its own page *)
        Core.Pvm.write pvm ctx ~addr:((1024 + 1) * ps) (Bytes.make ps 'c');
        pvm)
  in
  (Hw.Engine.now engine, pvm, tr)

let test_metrics_subsume_stats () =
  let _, pvm, _ = cow_scenario () in
  let s = Core.Pvm.stats pvm in
  let m = Core.Pvm.metrics pvm in
  let counter name = Obs.Metrics.value (Obs.Metrics.counter m name) in
  Alcotest.(check bool) "scenario faulted" true (s.Core.Types.n_faults > 0);
  Alcotest.(check bool) "scenario copied" true (s.n_cow_copies > 0);
  List.iter
    (fun (name, legacy) ->
      Alcotest.(check int) ("registry agrees on " ^ name) legacy (counter name))
    [
      ("pvm.faults", s.n_faults);
      ("pvm.zero_fills", s.n_zero_fills);
      ("pvm.cow_copies", s.n_cow_copies);
      ("pvm.pull_ins", s.n_pull_ins);
      ("pvm.push_outs", s.n_push_outs);
      ("pvm.evictions", s.n_evictions);
      ("pvm.tree_lookups", s.n_tree_lookups);
      ("pvm.history_created", s.n_history_created);
      ("pvm.stub_resolves", s.n_stub_resolves);
      ("pvm.eager_pages", s.n_eager_pages);
      ("pvm.moved_pages", s.n_moved_pages);
    ];
  (* every fault lands in exactly one fault.<kind> histogram *)
  let fault_observations =
    List.fold_left
      (fun acc (name, h) ->
        if String.length name >= 6 && String.sub name 0 6 = "fault." then
          acc + h.Obs.Metrics.count
        else acc)
      0 (Obs.Metrics.histograms m)
  in
  Alcotest.(check int)
    "histograms cover every fault" s.n_faults fault_observations;
  (* the calibrated profile attributes sim time to primitives *)
  let report = Obs.Metrics.prim_report m in
  let total = List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 report in
  Alcotest.(check bool) "attribution populated" true (total > 0);
  let dispatch =
    List.find_opt (fun (name, _, _) -> name = "fault_dispatch") report
  in
  match dispatch with
  | Some (_, count, _) ->
    Alcotest.(check int) "one dispatch per fault" s.n_faults count
  | None -> Alcotest.fail "no fault_dispatch attribution"

(* ------------------------------------------------------------------ *)
(* Zero cost when disabled. *)

let test_disabled_records_nothing () =
  let _, pvm, tr = cow_scenario ~trace:false () in
  Alcotest.(check bool) "attached but not enabled" false (Obs.Trace.enabled tr);
  Alcotest.(check int) "no events recorded" 0 (Obs.Trace.length tr);
  ignore pvm;
  (* the null sink cannot even be enabled *)
  Obs.Trace.enable Obs.Trace.null;
  Alcotest.(check bool) "null stays disabled" false
    (Obs.Trace.enabled Obs.Trace.null)

let test_tracing_does_not_perturb () =
  let now_off, pvm_off, _ = cow_scenario ~trace:false () in
  let now_on, pvm_on, tr = cow_scenario ~trace:true () in
  Alcotest.(check int) "identical simulated end time" now_off now_on;
  Alcotest.(check int) "identical fault counts"
    (Core.Pvm.stats pvm_off).Core.Types.n_faults
    (Core.Pvm.stats pvm_on).Core.Types.n_faults;
  Alcotest.(check bool) "trace captured something" true
    (Obs.Trace.length tr > 0)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "with_span on exception" `Quick
            test_with_span_exception;
          Alcotest.test_case "chrome json" `Quick test_chrome_json;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry subsumes stats" `Quick
            test_metrics_subsume_stats;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "does not perturb sim time" `Quick
            test_tracing_does_not_perturb;
        ] );
    ]
