(* Command-line driver: regenerate each of the paper's artefacts. *)

open Cmdliner

let quick_arg =
  let doc = "Run a reduced campaign (fewer injections per test)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let seed_arg default =
  let doc = "Random seed for the campaign / scenario set." in
  Arg.(value & opt int64 default & info [ "seed" ] ~doc)

let robust_arg =
  let doc =
    "Evaluate on the quantitative robustness kernel too: outcomes carry \
     signed margins, and ranked output sorts most-severe first."
  in
  Arg.(value & flag & info [ "robust" ] ~doc)

let jobs_arg =
  let doc =
    "Number of worker domains for parallel campaigns (0 = one per           available core, 1 = sequential).  Output is byte-identical at any           job count."
  in
  let env = Cmd.Env.info "CPS_MONITOR_JOBS" ~doc in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~env ~docv:"N" ~doc)

(* [jobs = 0] lets the pool pick its own default; any other value is the
   requested domain count (the pool itself degrades to sequential for
   [jobs <= 1]). *)
let with_pool jobs f =
  let num_domains = if jobs = 0 then None else Some jobs in
  Monitor_util.Pool.with_pool ?num_domains f

(* Telemetry ------------------------------------------------------------- *)

module Obs = Monitor_obs.Obs
module Metrics = Monitor_obs.Metrics
module Tracer = Monitor_obs.Tracer
module Progress = Monitor_obs.Progress
module Serve = Monitor_obs.Serve

type telemetry = {
  metrics_file : string option;
  trace_file : string option;
  progress_flag : bool;
  status_port : int option;
}

let telemetry_term =
  let metrics_arg =
    let doc =
      "Enable metrics recording and write a dump to $(docv) at exit \
       (Prometheus text exposition; a .json extension selects the JSON \
       rendering).  The experiment report on stdout is unaffected."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc =
      "Record spans and write Chrome trace_event JSON to $(docv) at exit; \
       load it in chrome://tracing or Perfetto."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let progress_arg =
    let doc =
      "Print a throttled progress heartbeat (runs completed/total, ETA) to \
       stderr while a campaign runs."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let status_port_arg =
    let doc =
      "Serve a live status endpoint on 127.0.0.1:$(docv) while the command \
       runs: GET /metrics (Prometheus text, live registry), /healthz, \
       /plan (the fused evaluation plan of the loaded rules as JSON), \
       and — under $(b,fleet) — /sessions (per-VIN state as JSON).  \
       Port 0 picks an ephemeral port (printed to stderr)."
    in
    Arg.(value
         & opt (some int) None
         & info [ "status-port" ] ~docv:"PORT" ~doc)
  in
  let make metrics_file trace_file progress_flag status_port =
    { metrics_file; trace_file; progress_flag; status_port }
  in
  Term.(const make $ metrics_arg $ trace_arg $ progress_arg $ status_port_arg)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* The full lint environment for the built-in system: message existence
   and periods from the FSRACC DBC, physical ranges from the signal
   definitions. *)
let fsracc_lint_env () =
  Monitor_analysis.Speclint.env ~dbc:Monitor_fsracc.Io.dbc
    ~defs:(List.map snd Monitor_fsracc.Io.signals)
    ()

(* /plan payload: the fused evaluation plan of the built-in rule set as
   written.  Campaigns run it as is; the fleet wraps each rule in a stale
   guard, so a fleet session's state is larger than the [session_bytes]
   and [session_bytes_robust] reported here (README, "Bytes per
   session").  Pure, so computed once on first scrape. *)
let builtin_plan_json =
  lazy
    (let module P = Monitor_analysis.Specplan in
     P.to_json (P.analyze ~env:(fsracc_lint_env ()) Monitor_oracle.Rules.all))

let plan_route () =
  ( "/plan",
    fun () ->
      Serve.ok ~content_type:"application/json" (Lazy.force builtin_plan_json)
  )

(* Bracket one command invocation: flip the process-global gates on, run,
   and dump to the requested files even if the run raises — a crashed
   campaign's partial counters are exactly when the dump is wanted.  [f]
   receives a per-experiment progress-reporter factory ([None]s when
   --progress wasn't given).

   Two live surfaces ride on the same bracket: SIGUSR1 flushes the
   current metrics/trace to the --metrics/--trace paths mid-run (the
   files are rewritten at exit as usual), and --status-port mounts the
   HTTP status endpoint for the duration of the run ([extra_routes] lets
   the fleet add /sessions). *)
let with_telemetry ?(extra_routes = []) tel f =
  if tel.metrics_file <> None || tel.status_port <> None then
    Obs.enable_metrics ();
  let tracer = Option.map (fun _ -> Tracer.create ()) tel.trace_file in
  Obs.set_tracer tracer;
  let progress ?unit_name label =
    if tel.progress_flag then Some (Progress.create ?unit_name ~label ())
    else None
  in
  let dump () =
    Option.iter
      (fun path ->
        write_file path
          (if Filename.check_suffix path ".json" then
             Metrics.render_json Obs.registry
           else Metrics.render_prometheus Obs.registry))
      tel.metrics_file;
    match tel.trace_file, tracer with
    | Some path, Some t -> write_file path (Tracer.to_json t)
    | (Some _ | None), _ -> ()
  in
  (* A dump walks the registry under its mutex and opens files — neither
     is safe from inside a signal handler, which OCaml runs on the main
     thread and could land while that same thread already holds the
     registry mutex (metric registration, reset).  The handler therefore
     only raises a flag; a watcher domain notices it and performs the
     dump off the main thread. *)
  let usr1_requested = Atomic.make false in
  let prev_usr1 =
    if tel.metrics_file <> None || tel.trace_file <> None then
      try
        Some
          (Sys.signal Sys.sigusr1
             (Sys.Signal_handle (fun _ -> Atomic.set usr1_requested true)))
      with Invalid_argument _ | Sys_error _ -> None
    else None
  in
  let watcher_stop = Atomic.make false in
  let watcher =
    Option.map
      (fun (_ : Sys.signal_behavior) ->
        Domain.spawn (fun () ->
            while not (Atomic.get watcher_stop) do
              if Atomic.compare_and_set usr1_requested true false then (
                try dump () with _ -> ());
              Unix.sleepf 0.05
            done))
      prev_usr1
  in
  let server =
    Option.map
      (fun port ->
        let routes =
          [ Serve.metrics_route (); Serve.health_route (); plan_route () ]
          @ extra_routes
        in
        let s = Serve.create ~port ~routes () in
        Printf.eprintf "status endpoint: http://127.0.0.1:%d/\n%!"
          (Serve.port s);
        s)
      tel.status_port
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Serve.stop server;
      (match prev_usr1 with
      | Some behaviour -> (
        try Sys.set_signal Sys.sigusr1 behaviour with _ -> ())
      | None -> ());
      (match watcher with
      | Some d ->
        Atomic.set watcher_stop true;
        Domain.join d
      | None -> ());
      Obs.set_tracer None;
      Obs.disable_metrics ();
      dump ())
    (fun () -> f ~progress)

let figure1_cmd =
  let run () = print_string (Monitor_experiments.Figure1.rendered ()) in
  Cmd.v (Cmd.info "figure1" ~doc:"Print Figure 1: the FSRACC I/O signals")
    Term.(const run $ const ())

let table1_cmd =
  let run quick robust seed jobs tel =
    let base =
      if quick then Monitor_experiments.Table1.quick_options
      else Monitor_experiments.Table1.paper_options
    in
    let options = { base with Monitor_experiments.Table1.seed } in
    let t =
      with_telemetry tel (fun ~progress ->
          with_pool jobs (fun pool ->
              Monitor_experiments.Table1.run ~options ~pool
                ?progress:(progress "table1") ()))
    in
    print_string (Monitor_experiments.Table1.rendered t);
    if robust then begin
      print_newline ();
      print_string (Monitor_experiments.Table1.rendered_ranked t)
    end
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Regenerate Table I: the fault-injection result matrix")
    Term.(const run $ quick_arg $ robust_arg $ seed_arg 2014L $ jobs_arg
          $ telemetry_term)

let vehicle_logs_cmd =
  let run robust seed jobs tel =
    let t =
      with_telemetry tel (fun ~progress ->
          with_pool jobs (fun pool ->
              Monitor_experiments.Vehicle_logs.run ~seed ~robust ~pool
                ?progress:(progress "vehicle-logs") ()))
    in
    print_string (Monitor_experiments.Vehicle_logs.rendered t)
  in
  Cmd.v
    (Cmd.info "vehicle-logs"
       ~doc:"Analyse real-vehicle (road-mode) logs with the same rules (SS IV-A)")
    Term.(const run $ robust_arg $ seed_arg 77L $ jobs_arg $ telemetry_term)

let multirate_cmd =
  let run seed =
    let t = Monitor_experiments.Multirate.run ~seed () in
    print_string (Monitor_experiments.Multirate.rendered t)
  in
  Cmd.v
    (Cmd.info "multirate"
       ~doc:"Demonstrate the multi-rate sampling hazard (SS V-C1)")
    Term.(const run $ seed_arg 5L)

let warmup_cmd =
  let run seed =
    let t = Monitor_experiments.Warmup.run ~seed () in
    print_string (Monitor_experiments.Warmup.rendered t)
  in
  Cmd.v
    (Cmd.info "warmup"
       ~doc:"Demonstrate discrete-jump warm-up (SS V-C2)")
    Term.(const run $ seed_arg 9L)

let ablation_cmd =
  let run seed jobs tel =
    let t =
      with_telemetry tel (fun ~progress ->
          with_pool jobs (fun pool ->
              Monitor_experiments.Ablation.run ~seed ~pool
                ?progress:(progress "ablation") ()))
    in
    print_string (Monitor_experiments.Ablation.rendered t)
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Ablate the monitor's design choices (period, jitter,              change operator, warm-up hold)")
    Term.(const run $ seed_arg 21L $ jobs_arg $ telemetry_term)

let lossy_bus_cmd =
  let run quick seed jobs tel =
    let base =
      if quick then Monitor_experiments.Lossy_bus.quick_options
      else Monitor_experiments.Lossy_bus.paper_options
    in
    let options = { base with Monitor_experiments.Lossy_bus.seed } in
    let t =
      with_telemetry tel (fun ~progress ->
          with_pool jobs (fun pool ->
              Monitor_experiments.Lossy_bus.run ~options ~pool
                ?progress:(progress "lossy-bus") ()))
    in
    print_string (Monitor_experiments.Lossy_bus.rendered t)
  in
  Cmd.v
    (Cmd.info "lossy-bus"
       ~doc:"E7: verdict degradation when the monitor's bus tap loses,              delays or corrupts frames")
    Term.(const run $ quick_arg $ seed_arg 2014L $ jobs_arg $ telemetry_term)

(* Re-encode a decoded trace into CAN frames at the recorded times: a
   frame is emitted whenever the last signal of its message updates —
   the shape a passive tap on the simulated bus would capture. *)
let frames_of_trace dbc trace =
  let frames = ref [] in
  let store : (string, Monitor_signal.Value.t) Hashtbl.t = Hashtbl.create 32 in
  Monitor_trace.Trace.iter
    (fun r ->
      Hashtbl.replace store r.Monitor_trace.Record.name
        r.Monitor_trace.Record.value;
      match
        Monitor_can.Dbc.message_of_signal dbc r.Monitor_trace.Record.name
      with
      | Some m ->
        let signals = Monitor_can.Message.signal_names m in
        let last_signal = List.nth signals (List.length signals - 1) in
        if String.equal last_signal r.Monitor_trace.Record.name then
          frames :=
            ( r.Monitor_trace.Record.time,
              Monitor_can.Message.encode m ~lookup:(Hashtbl.find_opt store) )
            :: !frames
      | None -> ())
    trace;
  List.rev !frames

let simulate_cmd =
  let scenario_arg =
    let doc =
      "Scenario name: steady_follow, approach_and_follow, cut_in, overtake,        hill_run, stop_and_go, urban_following."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)
  in
  let out_arg =
    let doc = "Output path for the captured log." in
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~doc)
  in
  let road_arg =
    let doc = "Road mode: sensor noise, no HIL type checking." in
    Arg.(value & flag & info [ "road" ] ~doc)
  in
  let format_arg =
    let doc = "Log format: csv (decoded signals) or candump (raw frames)." in
    Arg.(value & opt (enum [ ("csv", `Csv); ("candump", `Candump) ]) `Csv
         & info [ "format"; "f" ] ~doc)
  in
  let run name out road format seed =
    let scenario =
      match name with
      | "steady_follow" -> Monitor_hil.Scenario.steady_follow ()
      | "approach_and_follow" -> Monitor_hil.Scenario.approach_and_follow ()
      | "cut_in" -> Monitor_hil.Scenario.cut_in ()
      | "overtake" -> Monitor_hil.Scenario.overtake ()
      | "hill_run" -> Monitor_hil.Scenario.hill_run ()
      | "stop_and_go" -> Monitor_hil.Scenario.stop_and_go ()
      | "urban_following" -> Monitor_hil.Scenario.urban_following ()
      | other ->
        prerr_endline ("unknown scenario: " ^ other);
        exit 1
    in
    let environment =
      if road then Monitor_hil.Sim.Road else Monitor_hil.Sim.Hil
    in
    let config = Monitor_hil.Sim.default_config ~environment ~seed scenario in
    (* Capture frames for candump by re-running with a frame logger would
       duplicate work; the Sim result already carries the decoded trace,
       and the CSV path covers the common case.  For candump we re-encode
       via the DBC schedule inside a fresh run. *)
    (match format with
     | `Csv ->
       let result = Monitor_hil.Sim.run config in
       Monitor_trace.Csv.save out result.Monitor_hil.Sim.trace;
       Printf.printf "wrote %d records to %s\n"
         (Monitor_trace.Trace.length result.Monitor_hil.Sim.trace)
         out
     | `Candump ->
       let result = Monitor_hil.Sim.run config in
       let frames =
         frames_of_trace Monitor_fsracc.Io.dbc result.Monitor_hil.Sim.trace
       in
       Monitor_can.Candump.save out frames;
       Printf.printf "wrote %d frames to %s\n" (List.length frames) out)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a scenario and store the captured log (CSV or candump)")
    Term.(const run $ scenario_arg $ out_arg $ road_arg $ format_arg
          $ seed_arg 1L)

let fleet_cmd =
  let sessions_arg =
    let doc = "Number of concurrent per-VIN monitor sessions." in
    Arg.(value & opt int 1000 & info [ "sessions"; "n" ] ~docv:"N" ~doc)
  in
  let policy_arg =
    let doc = "Overload policy for full shard queues: block, shed, reject." in
    Arg.(value
         & opt
             (enum
                [ ("block", Monitor_fleet.Fleet.Block);
                  ("shed", Monitor_fleet.Fleet.Shed_oldest);
                  ("reject", Monitor_fleet.Fleet.Reject) ])
             Monitor_fleet.Fleet.Shed_oldest
         & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let capacity_arg =
    let doc = "Per-shard ingest queue capacity." in
    Arg.(value & opt int 1024 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc = "Session shards (VINs are hashed across them)." in
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let loss_arg =
    let doc =
      "Per-session lossy tap: each session observes the bus through an \
       independent Bernoulli($(docv)) channel-fault model, so sessions see \
       different subsets of the same traffic."
    in
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc)
  in
  let crash_arg =
    let doc =
      "Chaos: crash $(docv) deterministically-chosen sessions mid-run (the \
       fleet must quarantine and restart them, not lose them)."
    in
    Arg.(value & opt int 0 & info [ "crash" ] ~docv:"N" ~doc)
  in
  let verify_arg =
    let doc =
      "After the drain, re-run every clean surviving session through the \
       single-session offline oracle and fail (exit 3) unless the verdict \
       digests are identical."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let violate_arg =
    let doc =
      "Chaos: make $(docv) deterministically-chosen sessions observe a \
       rule-violating frame burst (BrakeRequested held with positive \
       RequestedDecel) mid-run; with --postmortem-dir each writes a \
       violation bundle."
    in
    Arg.(value & opt int 0 & info [ "violate" ] ~docv:"N" ~doc)
  in
  let postmortem_arg =
    let doc =
      "Give every session a flight recorder: rule violations and \
       quarantines freeze the recent-frame ring into post-mortem bundles \
       (candump slice, explanation, metrics, manifest) under $(docv)."
    in
    Arg.(value
         & opt (some string) None
         & info [ "postmortem-dir" ] ~docv:"DIR" ~doc)
  in
  let recorder_window_arg =
    let doc = "Seconds of ingested frames the flight recorder retains." in
    Arg.(value & opt float 5.0 & info [ "recorder-window" ] ~docv:"SECONDS" ~doc)
  in
  let hold_arg =
    let doc =
      "Keep the fleet (and its --status-port endpoint) alive for $(docv) \
       seconds after ingest, before the drain — a scrape window for \
       operators and CI."
    in
    Arg.(value & opt float 0.0 & info [ "hold" ] ~docv:"SECONDS" ~doc)
  in
  let run quick sessions policy capacity shards loss crash verify violate
      postmortem_dir recorder_window hold seed jobs tel =
    let module Fleet = Monitor_fleet.Fleet in
    let module Channel = Monitor_inject.Channel in
    let module Prng = Monitor_util.Prng in
    let dbc = Monitor_fsracc.Io.dbc in
    (* One simulated drive, tapped as CAN frames; every session watches
       (its lossy view of) this same traffic under its own VIN. *)
    let duration = if quick then 2.0 else 6.0 in
    let scenario = Monitor_hil.Scenario.steady_follow ~duration () in
    let config_sim = Monitor_hil.Sim.default_config ~seed scenario in
    let result = Monitor_hil.Sim.run config_sim in
    let taps =
      frames_of_trace dbc result.Monitor_hil.Sim.trace
      |> List.map (fun (time, frame) ->
             (time, frame, Monitor_can.Dbc.decode_frame dbc frame))
    in
    let vin i = Printf.sprintf "VIN%05d" i in
    let channels =
      Array.init sessions (fun i ->
          let profile =
            if loss > 0.0 then Channel.Bernoulli loss else Channel.Clean
          in
          Channel.model ~seed:(Prng.derive seed (100_000 + i)) profile)
    in
    let crash_ticks : (string, int) Hashtbl.t = Hashtbl.create 8 in
    (if crash > 0 then begin
       let g = Prng.create (Prng.derive seed 999) in
       let order = Array.init sessions Fun.id in
       Prng.shuffle g order;
       for k = 0 to min crash sessions - 1 do
         Hashtbl.replace crash_ticks (vin order.(k)) (5 + Prng.int g 100)
       done
     end);
    (* Violation chaos: an independent derived stream picks the victims,
       skipping crash-chosen VINs so the two bundle kinds stay disjoint
       and CI can assert on each. *)
    let violate_vins : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    (if violate > 0 then begin
       let g = Prng.create (Prng.derive seed 777) in
       let order = Array.init sessions Fun.id in
       Prng.shuffle g order;
       let chosen = ref 0 in
       Array.iter
         (fun idx ->
           let v = vin idx in
           if !chosen < violate && not (Hashtbl.mem crash_ticks v) then begin
             Hashtbl.replace violate_vins v ();
             incr chosen
           end)
         order
     end);
    let config =
      { (Fleet.default_config ~specs:Monitor_oracle.Rules.all) with
        Fleet.periods = Monitor_can.Dbc.signal_period dbc;
        shards;
        queue_capacity = capacity;
        overload = policy;
        seed;
        record_verdicts = false;
        publish_status = tel.status_port <> None;
        recorder =
          Option.map
            (fun dir ->
              { (Monitor_fleet.Recorder.default_config ~dir) with
                Monitor_fleet.Recorder.window = recorder_window })
            postmortem_dir;
        inject_fault =
          (if Hashtbl.length crash_ticks = 0 then None
           else
             Some
               (fun ~vin ~tick ->
                 match Hashtbl.find_opt crash_ticks vin with
                 | Some t when t = tick -> failwith "chaos: injected crash"
                 | Some _ | None -> ())) }
    in
    let delivered : (string, (float * (string * Monitor_signal.Value.t) list) list ref)
        Hashtbl.t =
      Hashtbl.create (if verify then sessions else 1)
    in
    let sent : (string, Fleet.frame list ref) Hashtbl.t =
      Hashtbl.create (if verify then sessions else 1)
    in
    let note_admit (f : Fleet.frame) =
      if verify then begin
        let r =
          match Hashtbl.find_opt sent f.Fleet.vin with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace sent f.Fleet.vin r;
            r
        in
        r := f :: !r
      end
    in
    let note_shed (f : Fleet.frame) =
      if verify then
        match Hashtbl.find_opt sent f.Fleet.vin with
        | Some r -> r := List.filter (fun g -> g != f) !r
        | None -> ()
    in
    (* Five consecutive taps in the middle of the drive carry the
       violating overrides for the chosen sessions: BrakeRequested held
       true against a positive commanded deceleration (rule5 is
       tick-local, so the recorded slice replays to the same verdict on
       any tick grid). *)
    let ntaps = List.length taps in
    let inject_lo = ntaps / 3 in
    let violation_updates =
      [ ("BrakeRequested", Monitor_signal.Value.Bool true);
        ("RequestedDecel", Monitor_signal.Value.Float 1.5) ]
    in
    (* /sessions reads the fleet's atomically-published status document;
       the cell starts empty because the fleet only exists once the pool
       is up. *)
    let fleet_cell = Atomic.make None in
    let sessions_route =
      ( "/sessions",
        fun () ->
          Serve.ok ~content_type:"application/json"
            (match Atomic.get fleet_cell with
            | Some fleet -> Fleet.published_status fleet
            | None -> "{\"sessions\":[],\"shards\":[],\"totals\":{}}\n") )
    in
    let summary =
      with_telemetry ~extra_routes:[ sessions_route ] tel (fun ~progress ->
          with_pool jobs (fun pool ->
              let prog = progress ~unit_name:"frames" "fleet" in
              (match prog with
              | Some p -> Progress.start p ~total:(ntaps * sessions)
              | None -> ());
              let fleet = Fleet.create ~pool ?progress:prog config in
              Atomic.set fleet_cell (Some fleet);
              List.iteri
                (fun ti (time, frame, updates) ->
                  for i = 0 to sessions - 1 do
                    match channels.(i) ~time frame with
                    | `Deliver ->
                      let updates =
                        if
                          ti >= inject_lo
                          && ti < inject_lo + 5
                          && Hashtbl.mem violate_vins (vin i)
                        then updates @ violation_updates
                        else updates
                      in
                      let f = { Fleet.vin = vin i; time; updates } in
                      (match Fleet.ingest fleet f with
                      | `Accepted -> note_admit f
                      | `Shed victim -> note_admit f; note_shed victim
                      | `Rejected -> ())
                    | `Drop | `Corrupt ->
                      (* Either way the passive tap never hands the frame
                         to this session's feed. *)
                      ()
                  done;
                  Fleet.pump fleet)
                taps;
              if hold > 0.0 then Unix.sleepf hold;
              let summary = Fleet.shutdown fleet in
              (match prog with Some p -> Progress.finish p | None -> ());
              summary))
    in
    ignore
      (Hashtbl.fold
         (fun v r () ->
           Hashtbl.replace delivered v
             (ref
                (List.rev_map
                   (fun (f : Fleet.frame) -> (f.Fleet.time, f.Fleet.updates))
                   !r)))
         sent ());
    print_string (Fleet.render_summary summary);
    if verify then begin
      let compared = ref 0 and mismatched = ref 0 and skipped = ref 0 in
      List.iter
        (fun (row : Fleet.session_summary) ->
          match row.Fleet.s_disposition with
          | Fleet.Served
            when row.Fleet.s_restarts = 0
                 && row.Fleet.s_faults = []
                 && row.Fleet.s_dropped = 0 ->
            incr compared;
            let updates =
              match Hashtbl.find_opt delivered row.Fleet.s_vin with
              | Some r -> !r
              | None -> []
            in
            let _, digest =
              Fleet.isolated_stream
                ~periods:(Monitor_can.Dbc.signal_period dbc)
                ~specs:Monitor_oracle.Rules.all updates
            in
            if digest <> row.Fleet.s_digest then begin
              incr mismatched;
              Printf.printf "verify: %s DIVERGED from the isolated oracle\n"
                row.Fleet.s_vin
            end
          | _ -> incr skipped)
        summary.Fleet.sessions;
      Printf.printf
        "verify: %d sessions byte-identical to isolated runs, %d faulted/shed \
         skipped, %d mismatched\n"
        (!compared - !mismatched) !skipped !mismatched;
      if !mismatched > 0 then exit 3
    end
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Serve many per-VIN monitor sessions from one stream server:            lossy taps, injected session crashes, overload policies,            watchdogs and a graceful drain")
    Term.(const run $ quick_arg $ sessions_arg $ policy_arg $ capacity_arg
          $ shards_arg $ loss_arg $ crash_arg $ verify_arg $ violate_arg
          $ postmortem_arg $ recorder_window_arg $ hold_arg $ seed_arg 2014L
          $ jobs_arg $ telemetry_term)

let trace_stats_cmd =
  let trace_arg =
    let doc = "CSV trace file to summarise." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let run trace_file =
    match Monitor_trace.Csv.load trace_file with
    | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1
    | Ok trace ->
      print_string
        (Monitor_trace.Analyze.render (Monitor_trace.Analyze.analyze trace))
  in
  Cmd.v
    (Cmd.info "trace-stats"
       ~doc:"Summarise a capture: rates, jitter, value ranges, exceptional              samples")
    Term.(const run $ trace_arg)

let rules_cmd =
  let run () =
    List.iteri
      (fun i spec ->
        Printf.printf "Rule #%d: %s\n  %s\n\n" i
          (Monitor_oracle.Rules.description i)
          (Monitor_oracle.Rules.source i);
        ignore spec)
      Monitor_oracle.Rules.all
  in
  Cmd.v (Cmd.info "rules" ~doc:"Print the seven safety rules")
    Term.(const run $ const ())

let builtin_specs () =
  Monitor_oracle.Rules.all
  @ [ Monitor_oracle.Rules.relaxed_rule2 ();
      Monitor_oracle.Rules.relaxed_rule3 ();
      Monitor_oracle.Rules.relaxed_rule4 ();
      Monitor_oracle.Rules.range_consistency_naive;
      Monitor_oracle.Rules.range_consistency_warmup ]

let lint_cmd =
  let module L = Monitor_analysis.Speclint in
  let target_arg =
    let doc =
      "What to lint: a .spec file path, or 'builtin' for the compiled-in \
       rule set (the seven paper rules, their relaxed variants and the \
       warm-up demonstration pair)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)
  in
  let dbc_arg =
    let doc =
      "Resolve signals against the built-in FSRACC message database and \
       physical signal ranges; enables the unknown-signal, kind, range and \
       period checks."
    in
    Arg.(value & flag & info [ "dbc" ] ~doc)
  in
  let strict_arg =
    let doc = "Exit non-zero if any error-severity diagnostic is reported." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let allow_arg =
    let doc =
      "Suppress a diagnostic code (kebab-case, e.g. 'window-subsamples'); \
       repeatable."
    in
    Arg.(value & opt_all string [] & info [ "allow" ] ~docv:"CODE" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the diagnostics as one JSON object (code, severity, path, \
       span, message per diagnostic) instead of the text report."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run target use_dbc strict allow_names json =
    let allow =
      List.map
        (fun name ->
          match L.code_of_name name with
          | Some c -> c
          | None ->
            prerr_endline
              ("unknown diagnostic code: " ^ name ^ " (known: "
              ^ String.concat ", " (List.map L.code_name L.all_codes)
              ^ ")");
            exit 1)
        allow_names
    in
    let env = if use_dbc then fsracc_lint_env () else L.env () in
    let items =
      if String.equal target "builtin" then begin
        let specs = builtin_specs () in
        let cross = L.cross_check specs in
        Ok
          (List.mapi
             (fun i spec ->
               let mine =
                 List.filter_map
                   (fun (j, (d : L.diagnostic)) ->
                     if j = i && not (List.mem d.L.code allow) then Some d
                     else None)
                   cross
               in
               (spec, L.check_env ~allow env spec @ mine))
             specs)
      end
      else L.lint_file ~env ~allow target
    in
    match items with
    | Error msg ->
      prerr_endline ("spec file error: " ^ msg);
      exit 1
    | Ok items ->
      print_string
        (if json then Monitor_oracle.Report.render_diagnostics_json items
         else Monitor_oracle.Report.render_diagnostics items);
      let has_errors =
        List.exists (fun (_, ds) -> L.errors ds <> []) items
      in
      exit (if strict && has_errors then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyse rule specifications (resolution, ranges,              multi-rate windows, staleness/warm-up consistency)")
    Term.(const run $ target_arg $ dbc_arg $ strict_arg $ allow_arg $ json_arg)

let plan_cmd =
  let module L = Monitor_analysis.Speclint in
  let module P = Monitor_analysis.Specplan in
  let target_arg =
    let doc =
      "What to compile: a .spec file path, or 'builtin' for the seven \
       compiled-in paper rules."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)
  in
  let dbc_arg =
    let doc =
      "Fold the built-in FSRACC signal ranges through the plan: nodes the \
       declared ranges decide statically are marked always-true/false and \
       the branches they short-circuit are marked dead."
    in
    Arg.(value & flag & info [ "dbc" ] ~doc)
  in
  let dot_arg =
    let doc = "Emit the shared DAG as a Graphviz digraph." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the plan and its analysis facts as one JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run target use_dbc dot json =
    let specs =
      if String.equal target "builtin" then Monitor_oracle.Rules.all
      else
        match Monitor_mtl.Spec_file.load target with
        | Ok specs -> specs
        | Error msg ->
          prerr_endline ("spec file error: " ^ msg);
          exit 1
    in
    if specs = [] then begin
      prerr_endline "no specs to compile";
      exit 1
    end;
    let env = if use_dbc then fsracc_lint_env () else L.env () in
    let t = P.analyze ~env specs in
    if dot then print_string (P.to_dot t)
    else if json then print_string (P.to_json t)
    else print_string (P.render t)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Compile a rule set into the fused evaluation plan and dump            the shared DAG, the static analysis facts (shared subterms,            statically decided nodes, per-rule cost) and the instruction            listing")
    Term.(const run $ target_arg $ dbc_arg $ dot_arg $ json_arg)

let check_cmd =
  let trace_arg =
    let doc = "CSV trace file (time,signal,value) to check." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let rule_arg =
    let doc =
      "A rule to check, as a spec-language formula; repeatable.  Without \
       any, the seven paper rules are used."
    in
    Arg.(value & opt_all string [] & info [ "rule"; "r" ] ~doc)
  in
  let spec_file_arg =
    let doc = "Load rules from a .spec file (see specs/paper_rules.spec)." in
    Arg.(value & opt (some file) None & info [ "spec-file"; "s" ] ~doc)
  in
  let explain_arg =
    let doc = "Explain each violated rule at its first violating tick." in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let lint_arg =
    let doc =
      "Pre-flight: lint the rules against the built-in DBC first and \
       refuse to run if any error-severity diagnostic is reported."
    in
    Arg.(value & flag & info [ "lint" ] ~doc)
  in
  let run trace_file rule_sources spec_file explain lint robust =
    match Monitor_trace.Csv.load trace_file with
    | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1
    | Ok trace ->
      let file_specs =
        match spec_file with
        | None -> []
        | Some path -> begin
          match Monitor_mtl.Spec_file.load path with
          | Ok specs -> specs
          | Error msg ->
            prerr_endline ("spec file error: " ^ msg);
            exit 1
        end
      in
      let specs =
        match rule_sources, file_specs with
        | [], [] -> Monitor_oracle.Rules.all
        | [], specs -> specs
        | sources, file_specs ->
          file_specs
          @
          List.mapi
            (fun i src ->
              match Monitor_mtl.Parser.formula_of_string src with
              | Ok f ->
                Monitor_mtl.Spec.make ~name:(Printf.sprintf "cli%d" i) f
              | Error msg ->
                prerr_endline ("rule parse error: " ^ msg);
                exit 1)
            sources
      in
      if lint then begin
        let module L = Monitor_analysis.Speclint in
        let env = fsracc_lint_env () in
        let items = List.map (fun s -> (s, L.check_env env s)) specs in
        if List.exists (fun (_, ds) -> L.errors ds <> []) items then begin
          print_string (Monitor_oracle.Report.render_diagnostics items);
          prerr_endline "lint errors: refusing to run the oracle";
          exit 1
        end
      end;
      let outcomes = Monitor_oracle.Oracle.check ~robust specs trace in
      print_endline (Monitor_oracle.Report.render_outcomes outcomes);
      (* A satisfied guarded rule that was never armed proved nothing:
         flag it (SS III-C's coverage concern). *)
      List.iter
        (fun spec ->
          let v = Monitor_oracle.Vacuity.analyze spec trace in
          if v.Monitor_oracle.Vacuity.vacuous then
            print_endline ("  note: " ^ Monitor_oracle.Vacuity.render v))
        specs;
      if explain then
        List.iter
          (fun spec ->
            match Monitor_mtl.Explain.first_violation spec trace with
            | Some (time, report) ->
              Printf.printf "\nwhy %s fails at t=%.2fs:\n%s"
                spec.Monitor_mtl.Spec.name time
                (Monitor_mtl.Explain.render report)
            | None -> ())
          specs;
      let violated =
        List.exists
          (fun o -> o.Monitor_oracle.Oracle.status = Monitor_oracle.Oracle.Violated)
          outcomes
      in
      exit (if violated then 2 else 0)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the monitor-based oracle over a stored CSV trace")
    Term.(const run $ trace_arg $ rule_arg $ spec_file_arg $ explain_arg
          $ lint_arg $ robust_arg)

let all_cmd =
  let run quick seed jobs tel =
    with_telemetry tel (fun ~progress ->
        with_pool jobs (fun pool ->
            print_string (Monitor_experiments.Figure1.rendered ());
            print_newline ();
            let base =
              if quick then Monitor_experiments.Table1.quick_options
              else Monitor_experiments.Table1.paper_options
            in
            let options = { base with Monitor_experiments.Table1.seed } in
            print_string
              (Monitor_experiments.Table1.rendered
                 (Monitor_experiments.Table1.run ~options ~pool
                    ?progress:(progress "table1") ()));
            print_newline ();
            print_string
              (Monitor_experiments.Vehicle_logs.rendered
                 (Monitor_experiments.Vehicle_logs.run ~pool
                    ?progress:(progress "vehicle-logs") ()));
            print_newline ();
            print_string
              (Monitor_experiments.Multirate.rendered
                 (Monitor_experiments.Multirate.run ()));
            print_newline ();
            print_string
              (Monitor_experiments.Warmup.rendered
                 (Monitor_experiments.Warmup.run ()));
            print_newline ();
            let lossy_base =
              if quick then Monitor_experiments.Lossy_bus.quick_options
              else Monitor_experiments.Lossy_bus.paper_options
            in
            let lossy_options =
              { lossy_base with Monitor_experiments.Lossy_bus.seed }
            in
            print_string
              (Monitor_experiments.Lossy_bus.rendered
                 (Monitor_experiments.Lossy_bus.run ~options:lossy_options
                    ~pool ?progress:(progress "lossy-bus") ()))))
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment in sequence")
    Term.(const run $ quick_arg $ seed_arg 2014L $ jobs_arg $ telemetry_term)

let () =
  let doc = "Monitor-based oracles for CPS testing (DSN 2014) reproduction" in
  let info = Cmd.info "repro" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ figure1_cmd; table1_cmd; vehicle_logs_cmd; multirate_cmd; warmup_cmd;
      ablation_cmd; lossy_bus_cmd; simulate_cmd; fleet_cmd; trace_stats_cmd;
      rules_cmd;
      lint_cmd; plan_cmd; check_cmd; all_cmd ]))
