(* The flight recorder: ring bounds (count and age), direct bundle
   writing with its cap, and the end-to-end property the recorder exists
   for — a fleet session that violates a rule (or crashes) leaves a
   post-mortem bundle whose slice replays to the same verdict through
   the offline oracle. *)

module Recorder = Monitor_fleet.Recorder
module Fleet = Monitor_fleet.Fleet
module Trace = Monitor_trace.Trace
module Csv = Monitor_trace.Csv
module Oracle = Monitor_oracle.Oracle
module Spec = Monitor_mtl.Spec
module Parser = Monitor_mtl.Parser
module Value = Monitor_signal.Value

let check = Alcotest.check
let check_contains = Test_obs.check_contains

let spec name src = Spec.make ~name (Parser.formula_of_string_exn src)

(* A fresh directory under the system temp dir, unique per call. *)
let fresh_dir () =
  let f = Filename.temp_file "cps_recorder" "" in
  Sys.remove f;
  f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Ring bounds ------------------------------------------------------------- *)

let test_ring_count_bound () =
  let r =
    Recorder.create
      { window = 1000.0; max_frames = 10; dir = fresh_dir (); bundle_limit = 1 }
  in
  for k = 0 to 49 do
    Recorder.record_frame r ~time:(float_of_int k *. 0.01)
      [ ("Speed", Value.Float (float_of_int k)) ]
  done;
  check Alcotest.int "ring capped at max_frames" 10 (Recorder.frames r);
  let t = Recorder.slice r in
  check Alcotest.int "slice holds exactly the retained records" 10
    (Trace.length t)

let test_ring_age_bound () =
  let r =
    Recorder.create
      { window = 2.5; max_frames = 1000; dir = fresh_dir (); bundle_limit = 1 }
  in
  (* Frames at t = 0..9 s; after the one at t = 9 the cutoff is 6.5, so
     exactly t = 7, 8, 9 survive. *)
  for k = 0 to 9 do
    Recorder.record_frame r ~time:(float_of_int k)
      [ ("Speed", Value.Float (float_of_int k)) ]
  done;
  check Alcotest.int "ring evicts frames older than the window" 3
    (Recorder.frames r)

let test_create_validates () =
  let base = Recorder.default_config ~dir:(fresh_dir ()) in
  List.iter
    (fun cfg ->
      match Recorder.create cfg with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad config accepted")
    [ { base with Recorder.window = 0.0 };
      { base with Recorder.max_frames = 0 };
      { base with Recorder.bundle_limit = -1 } ]

(* Direct bundle writing --------------------------------------------------- *)

let test_bundle_contents_and_cap () =
  let dir = fresh_dir () in
  let r =
    Recorder.create { window = 10.0; max_frames = 64; dir; bundle_limit = 1 }
  in
  for k = 0 to 4 do
    Recorder.record_frame r
      ~time:(float_of_int k *. 0.01)
      [ ("Speed", Value.Float 20.0) ];
    Recorder.record_tick r ~tick:k ~time:(float_of_int k *. 0.01) ~digest:k
  done;
  let path =
    match
      Recorder.bundle r ~vin:"AB/CD 1" ~seed:42L ~reason:(`Violation "speed cap")
        ~tick:4 ~time:0.04 ~digest:99 ~explain:(Some "because\n")
    with
    | Ok (Some p) -> p
    | Ok None -> Alcotest.fail "first bundle refused"
    | Error msg -> Alcotest.fail msg
  in
  (* VIN and rule are sanitised into the directory name. *)
  check Alcotest.string "deterministic sanitised name" "AB_CD_1-t4-violation-speed_cap"
    (Filename.basename path);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f ^ " present") true
        (Sys.file_exists (Filename.concat path f)))
    [ "slice.csv"; "explain.txt"; "metrics.prom"; "MANIFEST.json" ];
  check Alcotest.string "explain text persisted verbatim" "because\n"
    (read_file (Filename.concat path "explain.txt"));
  let manifest = read_file (Filename.concat path "MANIFEST.json") in
  Test_obs.check_json manifest;
  List.iter
    (fun needle -> check_contains "manifest field" needle manifest)
    [ "\"format\":\"cps-postmortem-1\"";
      "\"vin\":\"AB/CD 1\"";
      "\"seed\":\"42\"";
      "\"kind\":\"violation\"";
      "\"rule\":\"speed cap\"";
      "\"tick\":4";
      "\"replay\":";
      "slice.csv" ];
  check Alcotest.int "bundle counted" 1 (Recorder.bundles_written r);
  (* The per-session cap: a second bundle is refused, not written. *)
  (match
     Recorder.bundle r ~vin:"AB/CD 1" ~seed:42L ~reason:(`Crash "boom") ~tick:5
       ~time:0.05 ~digest:100 ~explain:None
   with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "bundle_limit not enforced");
  check Alcotest.int "refused bundle not counted" 1 (Recorder.bundles_written r)

(* Fleet round-trip -------------------------------------------------------- *)

(* Drive a single-VIN fleet whose input violates the rule from frame 70
   on, then replay the bundle's slice through the offline oracle and
   demand the same verdict. *)
let test_violation_bundle_replays () =
  let dir = fresh_dir () in
  let specs = [ spec "brake_ok" "BrakeRequested -> RequestedDecel <= 0.0" ] in
  let config =
    { (Fleet.default_config ~specs) with
      Fleet.record_verdicts = false;
      recorder = Some (Recorder.default_config ~dir) }
  in
  let fleet = Fleet.create config in
  for k = 0 to 99 do
    let violating = k >= 70 in
    let frame =
      { Fleet.vin = "BND1";
        time = float_of_int k *. 0.01;
        updates =
          [ ("BrakeRequested", Value.Bool violating);
            ("RequestedDecel", Value.Float (if violating then 1.5 else -1.0)) ]
      }
    in
    ignore (Fleet.ingest fleet frame);
    Fleet.pump fleet
  done;
  ignore (Fleet.shutdown fleet);
  let bundles =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun d ->
           Filename.check_suffix d "-violation-brake_ok"
           || Test_obs.contains ~needle:"violation" d)
  in
  let bundle =
    match bundles with
    | [ d ] -> Filename.concat dir d
    | ds ->
      Alcotest.failf "expected exactly one violation bundle, got [%s]"
        (String.concat "; " ds)
  in
  check_contains "bundle named after VIN and rule" "BND1" (Filename.basename bundle);
  check_contains "bundle named after rule" "violation-brake_ok"
    (Filename.basename bundle);
  (* The explanation pinpoints the violating comparison. *)
  let explain = read_file (Filename.concat bundle "explain.txt") in
  check_contains "explain names the rule" "brake_ok" explain;
  check_contains "explain shows the failing leaf" "RequestedDecel" explain;
  let manifest = read_file (Filename.concat bundle "MANIFEST.json") in
  Test_obs.check_json manifest;
  check_contains "manifest reason" "\"kind\":\"violation\"" manifest;
  (* Replay: the slice alone must reproduce the violation offline. *)
  let trace =
    match Csv.load (Filename.concat bundle "slice.csv") with
    | Ok t -> t
    | Error e -> Alcotest.failf "slice.csv unreadable: %s" e
  in
  Alcotest.(check bool) "slice is non-empty" true (Trace.length trace > 0);
  (match Oracle.check specs trace with
  | [ outcome ] ->
    (match outcome.Oracle.status with
    | Oracle.Violated -> ()
    | Oracle.Satisfied -> Alcotest.fail "replayed slice did not violate")
  | _ -> Alcotest.fail "one rule in, one outcome out")

let test_crash_bundle () =
  let dir = fresh_dir () in
  let specs = [ spec "speed_cap" "Speed <= 30.0" ] in
  let config =
    { (Fleet.default_config ~specs) with
      Fleet.record_verdicts = false;
      max_restarts = 0;
      recorder = Some (Recorder.default_config ~dir);
      inject_fault =
        Some (fun ~vin:_ ~tick -> if tick = 5 then failwith "injected crash") }
  in
  let fleet = Fleet.create config in
  for k = 0 to 19 do
    ignore
      (Fleet.ingest fleet
         { Fleet.vin = "CRSH";
           time = float_of_int k *. 0.01;
           updates = [ ("Speed", Value.Float 20.0) ] });
    Fleet.pump fleet
  done;
  ignore (Fleet.shutdown fleet);
  let crashes =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun d -> Filename.check_suffix d "-crash")
  in
  let bundle =
    match crashes with
    | [ d ] -> Filename.concat dir d
    | ds ->
      Alcotest.failf "expected exactly one crash bundle, got [%s]"
        (String.concat "; " ds)
  in
  (* No violating rule, so no explanation — but slice and manifest. *)
  Alcotest.(check bool) "no explain.txt for a crash" false
    (Sys.file_exists (Filename.concat bundle "explain.txt"));
  Alcotest.(check bool) "slice present" true
    (Sys.file_exists (Filename.concat bundle "slice.csv"));
  let manifest = read_file (Filename.concat bundle "MANIFEST.json") in
  Test_obs.check_json manifest;
  check_contains "manifest reason" "\"kind\":\"crash\"" manifest;
  check_contains "manifest carries the exception" "injected crash" manifest

let test_bundle_limit_zero_disables () =
  let dir = fresh_dir () in
  let specs = [ spec "brake_ok" "BrakeRequested -> RequestedDecel <= 0.0" ] in
  let config =
    { (Fleet.default_config ~specs) with
      Fleet.record_verdicts = false;
      recorder =
        Some { (Recorder.default_config ~dir) with Recorder.bundle_limit = 0 }
    }
  in
  let fleet = Fleet.create config in
  for k = 0 to 99 do
    let violating = k >= 70 in
    ignore
      (Fleet.ingest fleet
         { Fleet.vin = "NOPE";
           time = float_of_int k *. 0.01;
           updates =
             [ ("BrakeRequested", Value.Bool violating);
               ("RequestedDecel", Value.Float (if violating then 1.5 else -1.0))
             ] });
    Fleet.pump fleet
  done;
  ignore (Fleet.shutdown fleet);
  let written =
    if Sys.file_exists dir then Array.length (Sys.readdir dir) else 0
  in
  check Alcotest.int "bundle_limit 0 writes nothing" 0 written

(* A post-mortem directory nobody can write (here: below a regular
   file) must not reach the sessions.  Every forced violation's bundle
   fails and is counted; pump and drain return, no session is
   quarantined, and every digest is still the isolated oracle's. *)
let test_unwritable_dir_touches_nothing () =
  let blocker = Filename.temp_file "cps_recorder" "" in
  let dir = Filename.concat blocker "pm" in
  let specs = [ spec "brake_ok" "BrakeRequested -> RequestedDecel <= 0.0" ] in
  let config =
    { (Fleet.default_config ~specs) with
      Fleet.publish_status = true;
      recorder = Some (Recorder.default_config ~dir) }
  in
  let frames =
    List.init 100 (fun k ->
        let violating = k >= 70 in
        ( float_of_int k *. 0.01,
          [ ("BrakeRequested", Value.Bool violating);
            ("RequestedDecel", Value.Float (if violating then 1.5 else -1.0)) ]
        ))
  in
  let vins = [ "PM1"; "PM2"; "PM3" ] in
  let errors = Monitor_obs.Obs.counter "cps_postmortem_errors_total" in
  Monitor_obs.Obs.enable_metrics ();
  Fun.protect ~finally:Monitor_obs.Obs.disable_metrics @@ fun () ->
  let before = Monitor_obs.Metrics.counter_value errors in
  let fleet = Fleet.create config in
  List.iter
    (fun (time, updates) ->
      List.iter
        (fun vin -> ignore (Fleet.ingest fleet { Fleet.vin; time; updates }))
        vins;
      Fleet.pump fleet)
    frames;
  let summary = Fleet.shutdown fleet in
  let _, digest = Fleet.isolated_stream ~specs frames in
  List.iter
    (fun (row : Fleet.session_summary) ->
      (match row.Fleet.s_disposition with
      | Fleet.Served -> ()
      | _ -> Alcotest.failf "%s lost to a bundle error" row.Fleet.s_vin);
      check Alcotest.int (row.Fleet.s_vin ^ " restarts") 0 row.Fleet.s_restarts;
      check Alcotest.int (row.Fleet.s_vin ^ " digest") digest row.Fleet.s_digest)
    summary.Fleet.sessions;
  check Alcotest.int "every session served" (List.length vins)
    (List.length summary.Fleet.sessions);
  check Alcotest.int "no quarantines" 0 summary.Fleet.quarantines_total;
  check Alcotest.int "one failed bundle per session" (List.length vins)
    (Monitor_obs.Metrics.counter_value errors - before);
  let status = Fleet.published_status fleet in
  Test_obs.check_json status;
  check_contains "status reports the failure" "\"bundle_errors\":1" status;
  check_contains "and no bundle" "\"bundles\":0" status;
  Alcotest.(check bool) "nothing written" false (Sys.file_exists dir)

let suite =
  [ ( "recorder",
      [ Alcotest.test_case "ring bounded by count" `Quick test_ring_count_bound;
        Alcotest.test_case "ring bounded by age" `Quick test_ring_age_bound;
        Alcotest.test_case "config validation" `Quick test_create_validates;
        Alcotest.test_case "bundle contents + per-session cap" `Quick
          test_bundle_contents_and_cap;
        Alcotest.test_case "fleet violation bundle replays offline" `Quick
          test_violation_bundle_replays;
        Alcotest.test_case "fleet crash bundle" `Quick test_crash_bundle;
        Alcotest.test_case "bundle_limit 0 disables bundling" `Quick
          test_bundle_limit_zero_disables;
        Alcotest.test_case "unwritable bundle dir touches no session" `Quick
          test_unwritable_dir_touches_nothing ] ) ]
