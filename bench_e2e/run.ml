(* Frame-to-verdict benchmark.

   usage: run.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1]
                  [--spans FILE] [--json FILE]
          run.exe --smoke BENCHMARK.json

   One workload per process.  Inputs are generated from --seed before any
   timing starts.  Every metric is printed as "name value unit", and the
   last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  --trace 0 reports the
   end-to-end metrics; --trace 1 measures half the run untraced and half
   with spans around every layer call, and reports the per-layer
   metrics.  A failed correctness check exits 1. *)

open Common

let end_to_end =
  [ ("frames_per_s", "1/s"); ("latency_p50_ms", "ms"); ("latency_tail_ms", "ms");
    ("setup_s", "s"); ("mem_peak_mb", "MB") ]

let per_layer =
  [ ("candump.parse_ns_per_frame", "ns/frame");
    ("dbc.decode_ns_per_frame", "ns/frame");
    ("candump.lines_rejected", "count");
    ("dbc.undecodable", "count");
    ("fleet.ingest_ns_per_frame", "ns/frame");
    ("fleet.pump_ns_per_frame", "ns/frame");
    ("fleet.shutdown_ns_per_session", "ns/session");
    ("fleet.ticks_per_frame", "ratio");
    ("fleet.queue_high_water", "count");
    ("fleet.shed", "count");
    ("fleet.sessions", "count");
    ("feed.observe_ns_per_frame", "ns/frame");
    ("fused.step_ns_per_tick", "ns/tick");
    ("robust_online.step_ns_per_tick", "ns/tick");
    ("recorder.record_ns_per_frame", "ns/frame");
    ("fleet.bookkeeping_ns_per_frame", "ns/frame");
    ("recorder.bundles", "count");
    ("recorder.bundle_pump_ms", "ms/pump");
    ("multirate.snapshots_ns_per_tick", "ns/tick");
    ("columns.transpose_ns_per_tick", "ns/tick");
    ("plan.compile_us", "us");
    ("plan.nodes", "count");
    ("plan_exec.eval_ns_per_tick", "ns/tick");
    ("plan_exec.eval_robust_ns_per_tick", "ns/tick");
    ("oracle.check_ns_per_tick", "ns/tick");
    ("oracle.aggregate_ns_per_tick", "ns/tick");
    ("sim.run_ms_per_run", "ms/run");
    ("oracle.check_ms_per_run", "ms/run");
    ("vacuity.ms_per_run", "ms/run");
    ("campaign.monitor_share", "ratio");
    ("pool.busy_frac", "ratio");
    ("pool.tasks", "count");
    ("pool.queue_high_water", "count");
    ("latency_p99_ms", "ms");
    ("deadline_miss_ratio", "ratio");
    ("gen.lag_p99_ms", "ms");
    ("gen.lag_max_ms", "ms");
    ("gc.minor_words_per_frame", "words/frame");
    ("gc.promoted_words_per_frame", "words/frame");
    ("gc.major_collections", "count");
    ("layers.coverage", "ratio");
    ("trace.overhead_ratio", "ratio") ]

let workloads = [ "fleet_saturate"; "fleet_live"; "log_replay"; "campaign" ]

(* Input sizes.  [full] is what the benchmark measures; [tiny] keeps the
   smoke test under a few seconds while running every code path. *)
type scale = {
  saturate : Fleet_workloads.scale;
  saturate_window_s : float;  (* fleet_live's window is the run itself *)
  live : Fleet_workloads.scale;
  log_s : float;
  campaign : Monitor_experiments.Table1.options;
  golden : bool;
  setup_reps : int;
}

let full =
  { saturate = { Fleet_workloads.vins = 600; drives = 8; slack_s = 20.0; probe = 16 };
    saturate_window_s = 10.0;
    live = { Fleet_workloads.vins = 120; drives = 8; slack_s = 20.0; probe = 16 };
    log_s = 600.0;
    campaign = Monitor_experiments.Table1.quick_options;
    golden = true;
    setup_reps = 31 }

let tiny =
  let fleet = { Fleet_workloads.vins = 8; drives = 2; slack_s = 2.0; probe = 4 } in
  { saturate = fleet;
    saturate_window_s = 2.0;
    live = fleet;
    log_s = 10.0;
    campaign =
      { Monitor_experiments.Table1.quick_options with
        values_per_test = 0; flips_per_size = 0; multi_values_per_test = 0 };
    golden = false;
    setup_reps = 1 }

let run_workload scale name ~seed ~seconds ~traced =
  let r = new_result () in
  let setup_reps = scale.setup_reps in
  Spans.reset ();
  (match name with
   | "fleet_saturate" ->
     Fleet_workloads.run r Fleet_workloads.Saturate scale.saturate
       ~window:scale.saturate_window_s ~setup_reps ~seed ~seconds ~traced
   | "fleet_live" ->
     Fleet_workloads.run r Fleet_workloads.Live scale.live ~window:seconds ~setup_reps ~seed
       ~seconds ~traced
   | "log_replay" -> Log_replay.run r ~duration:scale.log_s ~setup_reps ~seed ~seconds ~traced
   | "campaign" ->
     Campaign_run.run r ~options:scale.campaign ~check_golden:scale.golden ~setup_reps ~seed
       ~seconds ~traced
   | other -> invalid_arg ("unknown workload " ^ other));
  r

(* The report: one "name value unit" line per declared metric, then the
   JSON object. *)
let report r ~traced =
  let declared = if traced then per_layer else end_to_end in
  let value name =
    match Hashtbl.find_opt r.values name with
    | Some v when Float.is_finite v -> v
    | Some v ->
      check r false (Printf.sprintf "%s is %f" name v);
      0.0
    | None ->
      (* End-to-end metrics are measured on every workload; a layer the
         workload does not run reads 0. *)
      if not traced then check r false (name ^ " was not measured");
      0.0
  in
  let values = List.map (fun (name, unit) -> (name, value name, unit)) declared in
  (* The layer spans must account for the requests' wall time, or the
     per-layer numbers do not add up to the end-to-end cost. *)
  if traced then begin
    let coverage = value "layers.coverage" in
    check r (Float.abs (coverage -. 1.0) <= 0.1)
      (Printf.sprintf "layer self times cover %.3f of the traced wall time" coverage)
  end;
  let line (name, v, unit) = Printf.sprintf "%s %s %s" name (Json.number v) unit in
  let lines = List.map line values in
  let json =
    Json.Obj
      [ ("correct", Json.Bool (r.problems = []));
        ("attempted", Json.Num (float_of_int (max 1 r.attempted)));
        ("failed", Json.Num (float_of_int r.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
               values) ) ]
  in
  (lines, json)

type options = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  spans : string option;
  json : string option;
  smoke : string option;
}

let usage () =
  prerr_endline
    "usage: run.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1] \
     [--spans FILE] [--json FILE]\n\
    \       run.exe --smoke BENCHMARK.json";
  exit 2

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some seed -> go { o with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0.0 -> go { o with seconds } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with traced = t = "1" } rest
    | "--spans" :: f :: rest -> go { o with spans = Some f } rest
    | "--json" :: f :: rest -> go { o with json = Some f } rest
    | "--smoke" :: f :: rest -> go { o with smoke = Some f } rest
    | _ -> usage ()
  in
  go
    { workload = ""; seed = 2014; seconds = 20.0; traced = false; spans = None;
      json = None; smoke = None }
    (List.tl (Array.to_list argv))

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (line ^ "\n"))

let single o =
  let r = run_workload full o.workload ~seed:o.seed ~seconds:o.seconds ~traced:o.traced in
  let lines, json = report r ~traced:o.traced in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) (List.rev r.problems);
  Option.iter (fun f -> Spans.write f (Spans.all ())) o.spans;
  Option.iter
    (fun f ->
      append_line f
        (Json.to_string
           (match json with
            | Json.Obj kv ->
              Json.Obj
                ([ ("workload", Json.Str o.workload);
                   ("seed", Json.Num (float_of_int o.seed));
                   ("trace", Json.Bool o.traced) ]
                @ kv)
            | j -> j)))
    o.json;
  List.iter print_endline lines;
  print_endline (Json.to_string json);
  exit (if r.problems = [] then 0 else 1)

(* --workload all: each workload in its own process, one after another. *)
let all argv =
  let failed = ref false in
  List.iter
    (fun w ->
      let args = Array.map (fun a -> if a = "all" then w else a) argv in
      let pid =
        Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failed := true)
    workloads;
  exit (if !failed then 1 else 0)

(* The smoke test: every workload at the tiny scale, untraced and traced,
   in this process.  Each must pass its correctness checks and print every
   metric BENCHMARK.json declares, with the declared unit. *)
let smoke path =
  let declared = Json.parse (Json.read_file path) in
  let names key =
    List.filter_map
      (fun m ->
        match
          ( Option.bind (Json.member "name" m) Json.to_str,
            Option.bind (Json.member "unit" m) Json.to_str )
        with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      (Json.to_list (Option.value ~default:Json.Null (Json.member key declared)))
  in
  let workload_names =
    List.filter_map
      (fun w -> Option.bind (Json.member "name" w) Json.to_str)
      (Json.to_list (Option.value ~default:Json.Null (Json.member "workloads" declared)))
  in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if workload_names <> workloads then fail "BENCHMARK.json workloads differ from run.ml's";
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let r = run_workload tiny w ~seed:7 ~seconds:0.3 ~traced in
          let lines, _ = report r ~traced in
          List.iter (fun p -> fail "%s: %s" w p) r.problems;
          List.iter
            (fun (name, unit) ->
              let printed =
                List.exists
                  (fun l ->
                    match String.split_on_char ' ' l with
                    | [ n; _; u ] -> n = name && u = unit
                    | _ -> false)
                  lines
              in
              if not printed then fail "%s: %s [%s] not printed" w name unit)
            (names (if traced then "per_layer" else "end_to_end")))
        [ false; true ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "smoke: every workload ran and printed every declared metric"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

let () =
  let o = parse_args Sys.argv in
  match o.smoke with
  | Some path -> smoke path
  | None ->
    if o.workload = "all" then all Sys.argv
    else if List.mem o.workload workloads then single o
    else usage ()
