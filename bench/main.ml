(* Benchmark harness.

   One benchmark per paper artefact (Figure 1, Table I, the SS IV-A
   vehicle-log analysis, the SS V-C1 multi-rate study, the SS V-C2 warm-up
   study) plus micro-benchmarks of the monitor itself — per-tick cost per
   rule is what decides whether the bolt-on monitor could run live on the
   bus, the efficiency concern behind the paper's "simplicity vs.
   expressiveness" discussion.

   The experiment benchmarks run at reduced scale (the full Table I takes
   ~1 minute; Bechamel needs many iterations).  Regenerating the
   full-scale artefacts is `dune exec bin/repro.exe -- all`. *)

open Bechamel
open Toolkit

module Sim = Monitor_hil.Sim
module Scenario = Monitor_hil.Scenario
module Oracle = Monitor_oracle.Oracle
module Rules = Monitor_oracle.Rules
module Mtl = Monitor_mtl

(* Shared inputs, built once. ------------------------------------------- *)

let short_trace =
  (* 6 s of steady following on the HIL — the unit of campaign work. *)
  lazy
    (let scenario = Scenario.steady_follow ~duration:6.0 () in
     (Sim.run (Sim.default_config scenario)).Sim.trace)

let short_snapshots = lazy (Oracle.snapshots_of_trace (Lazy.force short_trace))

(* Experiment benchmarks. ------------------------------------------------ *)

let bench_figure1 =
  Test.make ~name:"figure1/render"
    (Staged.stage (fun () -> Monitor_experiments.Figure1.rendered ()))

let bench_table1_run =
  (* One injection run + seven-rule oracle: Table I is 385 of these. *)
  Test.make ~name:"table1/one_run"
    (Staged.stage (fun () ->
         let scenario = Scenario.steady_follow ~duration:6.0 () in
         let plan =
           [ (1.0, Sim.Set ("TargetRelVel", Monitor_signal.Value.Float 700.0)) ]
         in
         let result = Sim.run ~plan (Sim.default_config scenario) in
         Oracle.check Rules.all result.Sim.trace))

(* A slice of the Table I campaign — 8 independent injection runs —
   executed sequentially and through the domain pool.  On >= 2 cores
   table1/parallel should beat 8x the table1/one_run cost (and
   table1/sequential_slice8); on one core the pool degrades to the
   sequential path, so the two slices cost the same. *)
let slice_plans =
  List.init 8 (fun i ->
      [ ( 1.0,
          Sim.Set
            ("TargetRelVel", Monitor_signal.Value.Float (600.0 +. float_of_int i))
        ) ])

let run_slice pool =
  Monitor_util.Pool.map_list ?pool
    (fun plan ->
      let scenario = Scenario.steady_follow ~duration:6.0 () in
      let result = Sim.run ~plan (Sim.default_config scenario) in
      Oracle.check Rules.all result.Sim.trace)
    slice_plans

let shared_pool = lazy (Monitor_util.Pool.create ())

let bench_table1_sequential_slice =
  Test.make ~name:"table1/sequential_slice8"
    (Staged.stage (fun () -> run_slice None))

let bench_table1_parallel =
  Test.make ~name:"table1/parallel"
    (Staged.stage (fun () -> run_slice (Some (Lazy.force shared_pool))))

let bench_vehicle_logs_scenario =
  Test.make ~name:"vehicle_logs/cut_in_scenario"
    (Staged.stage (fun () ->
         let scenario = Scenario.cut_in ~duration:25.0 () in
         let result =
           Sim.run (Sim.default_config ~environment:Sim.Road scenario)
         in
         Oracle.check Rules.all result.Sim.trace))

let bench_lossy_bus_run =
  (* One lossy-channel run + stale-aware seven-rule oracle: the unit of
     E7 campaign work (channel decode + staleness gating on top of
     table1/one_run). *)
  Test.make ~name:"lossy_bus/one_run"
    (Staged.stage (fun () ->
         let scenario = Scenario.steady_follow ~duration:6.0 () in
         let channel =
           Monitor_inject.Channel.model ~seed:7L
             (Monitor_inject.Channel.Bernoulli 0.05)
         in
         let result = Sim.run ~channel (Sim.default_config scenario) in
         Oracle.check_stale_aware
           ~periods:(Monitor_can.Dbc.signal_period Monitor_fsracc.Io.dbc)
           Rules.all result.Sim.trace))

let bench_multirate =
  Test.make ~name:"multirate/spacing_and_deltas"
    (Staged.stage (fun () -> Monitor_experiments.Multirate.run ()))

let bench_warmup =
  Test.make ~name:"warmup/acquisition_study"
    (Staged.stage (fun () -> Monitor_experiments.Warmup.run ()))

(* Long-trace kernel workloads. ------------------------------------------ *)

(* Synthetic snapshot streams at the paper's 10 ms monitoring rate carrying
   every signal Rules #0-#6 read.  Built directly (not through the HIL) so
   the benchmark times the evaluation kernels, not the plant.  The signal
   shapes are slow deterministic oscillations chosen so the rules see a
   non-trivial verdict mix: antecedents arm and disarm, torque changes
   sign, brakes pulse. *)
let synthetic_signals t =
  let fv x = Monitor_signal.Value.Float x in
  let bv x = Monitor_signal.Value.Bool x in
  let velocity = 25.0 +. (3.0 *. sin (t *. 0.35)) in
  let torque = 120.0 *. sin (t *. 0.5) in
  let brake = sin (t *. 0.07) > 0.85 in
  [ ("Velocity", fv velocity);
    ("ACCSetSpeed", fv 26.0);
    ("VehicleAhead", bv (sin (t *. 0.11) > -0.4));
    ("TargetRange", fv (40.0 +. (25.0 *. sin (t *. 0.17))));
    ("TargetRelVel", fv (2.0 *. sin (t *. 0.23)));
    ("SelHeadway", fv 1.0);
    ("RequestedTorque", fv torque);
    ("TorqueRequested", bv (torque > 0.0));
    ("BrakeRequested", bv brake);
    ("RequestedDecel", fv (if brake then -0.8 else 0.1 *. sin t));
    ("ServiceACC", bv (sin (t *. 0.013) > 0.95));
    ("ACCEnabled", bv (sin (t *. 0.013) < 0.97)) ]

let synthetic_snapshots ~duration =
  let period = 0.01 in
  let n = 1 + int_of_float (Float.round (duration /. period)) in
  List.init n (fun i ->
      let t = float_of_int i *. period in
      let entry v =
        { Monitor_trace.Snapshot.value = v; fresh = true; stale = false;
          last_update = t }
      in
      let entries =
        List.map (fun (name, v) -> (name, entry v)) (synthetic_signals t)
      in
      Monitor_trace.Snapshot.make ~time:t ~entries)

let long_snaps_60 = lazy (Array.of_list (synthetic_snapshots ~duration:60.0))

let long_snaps_600 = lazy (Array.of_list (synthetic_snapshots ~duration:600.0))

(* The deployed shape (Oracle.check): transpose the stream to columns once,
   share across every rule.  The transposition is inside the measured
   region — it is part of the fast path's real cost. *)
let offline_all_rules snaps =
  let cols = Monitor_trace.Columns.of_snapshots snaps in
  List.iter
    (fun rule -> ignore (Mtl.Offline.eval_columns rule snaps cols))
    Rules.all

let offline_naive_all_rules snaps =
  List.iter (fun rule -> ignore (Mtl.Offline.Naive.eval_array rule snaps)) Rules.all

(* The streaming path: [step_resolved] hands back a batch count, not an
   allocated list, so this times the zero-allocation deployed shape.
   Snapshot-major order with a shared signal environment: the per-tick
   signal refresh is paid once, not once per rule. *)
let online_all_rules snaps =
  let shared = Mtl.Online.shared_for Rules.all in
  let monitors =
    Array.of_list
      (List.map (fun rule -> Mtl.Online.create ~shared rule) Rules.all)
  in
  let nm = Array.length monitors in
  for i = 0 to Array.length snaps - 1 do
    for j = 0 to nm - 1 do
      ignore (Mtl.Online.step_resolved monitors.(j) snaps.(i))
    done
  done;
  for j = 0 to nm - 1 do
    ignore (Mtl.Online.finalize_resolved monitors.(j))
  done

let bench_long_trace name runner snaps =
  Test.make ~name (Staged.stage (fun () -> runner (Lazy.force snaps)))

let bench_offline_long_60 =
  bench_long_trace "mtl/offline_long_trace_60s" offline_all_rules long_snaps_60

let bench_offline_long_naive_60 =
  bench_long_trace "mtl/offline_long_trace_naive_60s" offline_naive_all_rules
    long_snaps_60

let bench_online_long_60 =
  bench_long_trace "mtl/online_long_trace_60s" online_all_rules long_snaps_60

let bench_offline_long_600 =
  bench_long_trace "mtl/offline_long_trace_600s" offline_all_rules long_snaps_600

let bench_offline_long_naive_600 =
  bench_long_trace "mtl/offline_long_trace_naive_600s" offline_naive_all_rules
    long_snaps_600

let bench_online_long_600 =
  bench_long_trace "mtl/online_long_trace_600s" online_all_rules long_snaps_600

(* The quantitative kernels over the identical seven-rule stream.  Each
   robust workload is the exact structural mirror of its boolean
   counterpart above — same transposition / shared-environment shape, so
   the pairwise ratio isolates the cost of interval arithmetic over
   verdict lattices.  The CI gate holds that ratio within 1.5x. *)
let offline_robust_all_rules snaps =
  let cols = Monitor_trace.Columns.of_snapshots snaps in
  List.iter
    (fun rule -> ignore (Mtl.Robust.eval_columns rule snaps cols))
    Rules.all

let online_robust_all_rules snaps =
  let shared = Mtl.Online.shared_for Rules.all in
  let monitors =
    Array.of_list
      (List.map (fun rule -> Mtl.Robust.Online.create ~shared rule) Rules.all)
  in
  let nm = Array.length monitors in
  for i = 0 to Array.length snaps - 1 do
    for j = 0 to nm - 1 do
      ignore (Mtl.Robust.Online.step_resolved monitors.(j) snaps.(i))
    done
  done;
  for j = 0 to nm - 1 do
    ignore (Mtl.Robust.Online.finalize_resolved monitors.(j))
  done

let bench_offline_robust_60 =
  bench_long_trace "mtl/offline_robust_60s" offline_robust_all_rules
    long_snaps_60

let bench_online_robust_60 =
  bench_long_trace "mtl/online_robust_60s" online_robust_all_rules long_snaps_60

let bench_offline_robust_600 =
  bench_long_trace "mtl/offline_robust_600s" offline_robust_all_rules
    long_snaps_600

let bench_online_robust_600 =
  bench_long_trace "mtl/online_robust_600s" online_robust_all_rules
    long_snaps_600

(* Telemetry overhead pair.  The same columnar seven-rule workload, once
   with the process-global telemetry gate off (the shipped default) and
   once with metric recording on.  The pair is what backs the "free when
   off, cheap when on" claim: overhead_off must match
   mtl/offline_long_trace_60s (the gate is one load-and-branch), and the
   CI overhead guard holds overhead_on within 10 % of it. *)

let bench_obs_overhead_off =
  Test.make ~name:"obs/overhead_off"
    (Staged.stage (fun () -> offline_all_rules (Lazy.force long_snaps_60)))

let bench_obs_overhead_on =
  Test.make ~name:"obs/overhead_on"
    (Staged.stage (fun () ->
         Monitor_obs.Obs.enable_metrics ();
         Fun.protect ~finally:Monitor_obs.Obs.disable_metrics (fun () ->
             offline_all_rules (Lazy.force long_snaps_60))))

(* Fleet serving.  1000 per-VIN sessions multiplexed through one stream
   server in its serving configuration (shed-oldest overload policy,
   verdict recording off).  The measured region is the whole session
   lifecycle: session admission, sharded ingest, incremental per-tick
   stepping of all seven rules, and the graceful drain.  Gated in CI. *)

let fleet_frames =
  (* 0.3 s of the synthetic stream above, as raw signal updates. *)
  lazy
    (List.init 31 (fun i ->
         let t = float_of_int i *. 0.01 in
         (t, synthetic_signals t)))

let fleet_vins = Array.init 1000 (Printf.sprintf "VIN%04d")

let run_fleet_ingest config =
  let module Fleet = Monitor_fleet.Fleet in
  let fleet = Fleet.create config in
  List.iter
    (fun (time, updates) ->
      Array.iter
        (fun vin -> ignore (Fleet.ingest fleet { Fleet.vin; time; updates }))
        fleet_vins;
      Fleet.pump fleet)
    (Lazy.force fleet_frames);
  ignore (Fleet.shutdown fleet)

let bench_fleet_ingest =
  Test.make ~name:"fleet/ingest_1k_sessions"
    (Staged.stage (fun () ->
         let module Fleet = Monitor_fleet.Fleet in
         run_fleet_ingest
           { (Fleet.default_config ~specs:Rules.all) with
             Fleet.record_verdicts = false }))

(* The same lifecycle with every session carrying a flight-recorder ring.
   The synthetic stream violates nothing, so no bundle I/O happens — the
   measured delta is pure recording overhead (ring pushes, trims, tick
   digests), ratio-gated against the bare workload in CI. *)
let bench_fleet_ingest_recorder =
  Test.make ~name:"fleet/ingest_1k_sessions_recorder"
    (Staged.stage (fun () ->
         let module Fleet = Monitor_fleet.Fleet in
         let module Recorder = Monitor_fleet.Recorder in
         run_fleet_ingest
           { (Fleet.default_config ~specs:Rules.all) with
             Fleet.record_verdicts = false;
             Fleet.recorder =
               Some
                 (Recorder.default_config
                    ~dir:
                      (Filename.concat
                         (Filename.get_temp_dir_name ())
                         "cps_bench_postmortem")) }))

(* Fleet sessions stepped round-robin, as a pump steps them: one run
   advances every session by one tick through its boolean and robust
   fused monitors over the stale-guarded paper plan, each session at its
   own offset into pre-cut snapshots.  Between two ticks of a session
   every other session runs, so per-tick cost at 600 sessions against 16
   shows what fetching monitor state from memory costs.  Sessions are
   warmed past the plan's 5 s horizon before timing, and restart from
   the first snapshot when they run out. *)
let interleaved_sessions n =
  lazy
    (let wrapped = List.map (fun s -> Mtl.Spec.stale_guarded s) Rules.all in
     let plan = Mtl.Plan.compile wrapped in
     let shared = Mtl.Online.shared_for wrapped in
     let program = Mtl.Online.Fused.compile ~shared plan in
     let rprogram = Mtl.Robust.Online.Fused.compile ~shared plan in
     let snaps = Lazy.force long_snaps_60 in
     let len = Array.length snaps in
     let fresh () =
       let shared = Mtl.Online.shared_for wrapped in
       ( Mtl.Online.Fused.instantiate ~shared program,
         Mtl.Robust.Online.Fused.instantiate ~shared rprogram )
     in
     let mons = Array.init n (fun _ -> fresh ()) in
     let pos = Array.init n (fun i -> i * 7919 mod (len / 2)) in
     let step () =
       for i = 0 to n - 1 do
         if pos.(i) = len then begin
           mons.(i) <- fresh ();
           pos.(i) <- 0
         end;
         let fused, rfused = mons.(i) in
         let snap = snaps.(pos.(i)) in
         Mtl.Online.Fused.step_iter fused snap (fun _ _ _ _ -> ());
         Mtl.Robust.Online.Fused.step_iter rfused snap (fun _ _ _ _ _ -> ());
         pos.(i) <- pos.(i) + 1
       done
     in
     for _ = 1 to 600 do
       step ()
     done;
     step)

let step_interleaved_16 = interleaved_sessions 16
let step_interleaved_600 = interleaved_sessions 600

let bench_step_interleaved name sessions =
  Test.make ~name (Staged.stage (fun () -> (Lazy.force sessions) ()))

(* Monitor micro-benchmarks. --------------------------------------------- *)

let bench_offline_rule n =
  let rule = Rules.rule n in
  Test.make ~name:(Printf.sprintf "monitor/offline_rule%d" n)
    (Staged.stage (fun () ->
         Mtl.Offline.eval rule (Lazy.force short_snapshots)))

let bench_online_rule n =
  let rule = Rules.rule n in
  Test.make ~name:(Printf.sprintf "monitor/online_rule%d" n)
    (Staged.stage (fun () ->
         let m = Mtl.Online.create rule in
         List.iter
           (fun snap -> ignore (Mtl.Online.step_resolved m snap))
           (Lazy.force short_snapshots);
         Mtl.Online.finalize_resolved m))

let bench_all_rules_offline =
  Test.make ~name:"monitor/offline_all_7_rules"
    (Staged.stage (fun () ->
         List.iter
           (fun rule -> ignore (Mtl.Offline.eval rule (Lazy.force short_snapshots)))
           Rules.all))

let bench_parser =
  Test.make ~name:"spec/parse_rule1"
    (Staged.stage (fun () -> Mtl.Parser.formula_of_string_exn (Rules.source 1)))

let bench_simplify =
  let formula =
    Mtl.Parser.formula_of_string_exn
      "not not ((true and p) or false) -> (x + 0.0 * 1.0 < 2.0 and p and p)"
  in
  Test.make ~name:"spec/simplify"
    (Staged.stage (fun () -> Mtl.Rewrite.simplify formula))

(* Seven one-root monitors over one shared signal environment: the
   per-rule twin of plan/set_all_7_rules_online. *)
let bench_set_online =
  Test.make ~name:"monitor/set_all_7_rules_online"
    (Staged.stage (fun () ->
         let shared = Mtl.Online.shared_for Rules.all in
         let monitors = List.map (Mtl.Online.create ~shared) Rules.all in
         List.iter
           (fun snap ->
             List.iter
               (fun m -> ignore (Mtl.Online.step_resolved m snap))
               monitors)
           (Lazy.force short_snapshots);
         List.iter (fun m -> ignore (Mtl.Online.finalize_resolved m)) monitors))

(* The fused counterparts of the seven-rule set: the rules hash-consed
   into one shared-DAG plan ([Mtl.Plan]), then every rule evaluated by a
   single traversal (offline) or a single per-tick advance (online).
   Plan compilation is inside the measured region — it is part of the
   deployed fast path, and amortising it would flatter the plan.  The CI
   gate holds each fused workload under its per-rule twin
   (monitor/offline_all_7_rules, monitor/set_all_7_rules_online). *)
let bench_plan_set_offline =
  Test.make ~name:"plan/set_all_7_rules"
    (Staged.stage (fun () ->
         let snaps = Array.of_list (Lazy.force short_snapshots) in
         let cols = Monitor_trace.Columns.of_snapshots snaps in
         let plan = Mtl.Plan.compile Rules.all in
         ignore (Mtl.Plan_exec.eval_columns plan snaps cols)))

let bench_plan_set_online =
  Test.make ~name:"plan/set_all_7_rules_online"
    (Staged.stage (fun () ->
         let plan = Mtl.Plan.compile Rules.all in
         let fused = Mtl.Online.Fused.create plan in
         List.iter
           (fun snap ->
             Mtl.Online.Fused.step_iter fused snap (fun _ _ _ _ -> ()))
           (Lazy.force short_snapshots);
         Mtl.Online.Fused.finalize_iter fused (fun _ _ _ _ -> ())))

let bench_ablation_hold =
  Test.make ~name:"ablation/warmup_sweep_piece"
    (Staged.stage (fun () ->
         (* one sweep point of the warm-up ablation *)
         let spec =
           Mtl.Spec.make ~name:"w"
             (Mtl.Parser.formula_of_string_exn
                "warmup(fresh(VehicleAhead), 0.25, fresh_delta(TargetRange) \
                 <= 0.5)")
         in
         Mtl.Offline.eval spec (Lazy.force short_snapshots)))

let bench_snapshots =
  Test.make ~name:"trace/snapshots_of_trace"
    (Staged.stage (fun () -> Oracle.snapshots_of_trace (Lazy.force short_trace)))

(* Substrate micro-benchmarks. ------------------------------------------- *)

let bench_can_roundtrip =
  let dbc = Monitor_fsracc.Io.dbc in
  let message =
    match Monitor_can.Dbc.find_by_name dbc "VehicleState" with
    | Some m -> m
    | None -> assert false
  in
  let lookup = function
    | "Velocity" -> Some (Monitor_signal.Value.Float 27.3)
    | "ThrotPos" -> Some (Monitor_signal.Value.Float 14.2)
    | _ -> None
  in
  Test.make ~name:"can/encode_decode_frame"
    (Staged.stage (fun () ->
         let frame = Monitor_can.Message.encode message ~lookup in
         Monitor_can.Dbc.decode_frame dbc frame))

let bench_frame_bit_count =
  let frame =
    Monitor_can.Frame.make ~id:0x123 ~data:(Bytes.of_string "\x55\xAA\x55\xAA") ()
  in
  Test.make ~name:"can/frame_bit_count"
    (Staged.stage (fun () -> Monitor_can.Bus.frame_bit_count frame))

let bench_plant_step =
  Test.make ~name:"vehicle/1s_of_plant"
    (Staged.stage (fun () ->
         let lead =
           Monitor_vehicle.Lead.create ~initial:(Some (60.0, 24.0)) ~events:[] ()
         in
         let world = Monitor_vehicle.World.create ~ego_speed:25.0 ~lead () in
         for k = 0 to 99 do
           ignore
             (Monitor_vehicle.World.step world ~dt:0.01
                ~now:(float_of_int k *. 0.01)
                ~engine_request:500.0 ~brake_decel_request:0.0)
         done))

let bench_controller_step =
  let inputs =
    { Monitor_fsracc.Controller.velocity = 25.0; accel_ped_pos = 0.0;
      brake_ped_pres = 0.0; acc_set_speed = 27.0; throt_pos = 10.0;
      vehicle_ahead = true; target_range = 60.0; target_rel_vel = -1.0;
      sel_headway = 1 }
  in
  Test.make ~name:"fsracc/controller_step"
    (Staged.stage (fun () ->
         let c = Monitor_fsracc.Controller.create () in
         for _ = 1 to 100 do
           ignore (Monitor_fsracc.Controller.step c ~dt:0.01 inputs)
         done))

(* Runner. ---------------------------------------------------------------- *)

(* --quick: CI smoke mode — smaller time quota, and the 600 s workloads
   (whose single iteration is too heavy for a smoke budget) are skipped.
   --json FILE: machine-readable results (the BENCH_<n>.json trajectory
   files at the repo root are recorded this way).
   --only PATTERN: run the benchmarks whose name contains PATTERN as a
   substring, or matches it as a glob when it contains '*'.  Zero matches
   is an error (a silent empty run looks exactly like success). *)
type options = {
  quick : bool;
  json : string option;
  only : string option;
}

let parse_options () =
  let rec go acc = function
    | [] -> acc
    | "--quick" :: rest -> go { acc with quick = true } rest
    | "--json" :: path :: rest -> go { acc with json = Some path } rest
    | "--only" :: pattern :: rest -> go { acc with only = Some pattern } rest
    | arg :: _ ->
      Printf.eprintf
        "usage: %s [--quick] [--json FILE] [--only PATTERN]  (unknown: %s)\n"
        Sys.executable_name arg;
      exit 2
  in
  go { quick = false; json = None; only = None }
    (List.tl (Array.to_list Sys.argv))

(* Workload selection: substring match, or glob when the pattern contains
   '*'.  Globs are anchored at both ends ('*' matches any run of
   characters), so "*online*60s" matches "mtl/online_long_trace_60s" but
   "mtl/online" as a glob-free pattern matches by substring instead. *)
let glob_matches pattern name =
  let np = String.length pattern and nn = String.length name in
  (* memoised recursion over (pattern index, name index) *)
  let seen = Hashtbl.create 16 in
  let rec go pi ni =
    match Hashtbl.find_opt seen (pi, ni) with
    | Some r -> r
    | None ->
      let r =
        if pi = np then ni = nn
        else if pattern.[pi] = '*' then
          go (pi + 1) ni || (ni < nn && go pi (ni + 1))
        else ni < nn && pattern.[pi] = name.[ni] && go (pi + 1) (ni + 1)
      in
      Hashtbl.add seen (pi, ni) r;
      r
  in
  go 0 0

let substring_matches pattern name =
  let np = String.length pattern and nn = String.length name in
  np = 0
  ||
  let rec at i = np <= nn - i && (String.sub name i np = pattern || at (i + 1)) in
  at 0

let workload_matches pattern name =
  if String.contains pattern '*' then glob_matches pattern name
  else substring_matches pattern name

let benchmark ~quick tests =
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  (* One workload per Benchmark.all call so the 600 s workloads can get
     a larger quota: at ~60-500 ms per run the default quota fits under
     a dozen samples, which on a shared-core runner leaves the OLS
     estimate at the mercy of CPU-steal bursts (observed swinging
     identical work 2-4x between consecutive runs).  More samples, not
     less noise, is the available mitigation.  Deliberately NO heap
     reset between workloads: a [Gc.compact] here hands the heap back
     to the OS and the next workload's large-array churn then measures
     page-fault storms instead of kernel cost (observed inflating the
     robust 600 s workload ~10x, with the suite's sys time jumping to
     ~30 s).  Heap continuity plus the pairwise ordering in
     [long_trace_tests] is what keeps the gated robust/boolean ratios
     comparing like with like. *)
  let merged = Hashtbl.create 64 in
  List.iter
    (fun t ->
      let name = Test.Elt.name (List.hd (Test.elements t)) in
      let seconds =
        (* The ~300 ms fleet pair is ratio-gated at a tight 1.10x
           margin (recorder on vs off); at the default quick quota it
           fits a single sample and the ratio is pure noise, so it gets
           the larger quota in both modes. *)
        if substring_matches "fleet/" name then if quick then 1.6 else 3.0
        else if quick then 0.4
        else if substring_matches "600s" name then 6.0
        else 1.2
      in
      let cfg =
        Benchmark.cfg ~limit:200 ~quota:(Time.second seconds) ~kde:(Some 100) ()
      in
      let grouped = Test.make_grouped ~name:"cps_monitor" [ t ] in
      let raw = Benchmark.all cfg instances grouped in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter (fun name result -> Hashtbl.replace merged name result) results)
    tests;
  merged

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char buf '\\'; Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Run metadata: enough to tell two BENCH_<n>.json files apart without
   the shell history that produced them. *)

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let timestamp_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let write_json path ~mode rows =
  let oc = open_out path in
  let json_opt = function
    | Some s -> Printf.sprintf "\"%s\"" (json_escape s)
    | None -> "null"
  in
  output_string oc "{\n";
  Printf.fprintf oc "  \"suite\": \"cps_monitor\",\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n" mode;
  Printf.fprintf oc "  \"unit\": \"ns/run\",\n";
  output_string oc "  \"meta\": {\n";
  Printf.fprintf oc "    \"git_commit\": %s,\n" (json_opt (git_commit ()));
  Printf.fprintf oc "    \"ocaml_version\": \"%s\",\n"
    (json_escape Sys.ocaml_version);
  Printf.fprintf oc "    \"cps_monitor_jobs\": %s,\n"
    (json_opt (Sys.getenv_opt "CPS_MONITOR_JOBS"));
  Printf.fprintf oc "    \"timestamp\": \"%s\"\n" (timestamp_utc ());
  output_string oc "  },\n";
  output_string oc "  \"results\": {\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, est) ->
      let value =
        match est with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "null"
      in
      Printf.fprintf oc "    \"%s\": %s%s\n" (json_escape name) value
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  }\n}\n";
  close_out oc

let () =
  let options = parse_options () in
  (* Force the shared inputs outside the timed region. *)
  ignore (Lazy.force short_snapshots);
  (* Each robust workload runs immediately after its boolean twin, and
     the naive reference (a far heavier allocator) runs after the gated
     pairs: the ratio gate compares pair members, so they must inherit
     the same heap state and, on a shared core, steal conditions as
     close to identical as the suite can arrange. *)
  let long_trace_tests =
    [ bench_offline_long_60; bench_offline_robust_60; bench_online_long_60;
      bench_online_robust_60; bench_offline_long_naive_60 ]
    @
    if options.quick then []
    else
      [ bench_offline_long_600; bench_offline_robust_600;
        bench_online_long_600; bench_online_robust_600;
        bench_offline_long_naive_600 ]
  in
  ignore (Lazy.force long_snaps_60);
  if not options.quick then ignore (Lazy.force long_snaps_600);
  let interleaved =
    List.map
      (fun (name, sessions) -> (bench_step_interleaved name sessions, sessions))
      [ ("fleet/step_interleaved_16", step_interleaved_16);
        ("fleet/step_interleaved_600", step_interleaved_600) ]
  in
  let all_tests =
    [ bench_figure1; bench_table1_run; bench_table1_sequential_slice;
      bench_table1_parallel; bench_vehicle_logs_scenario;
      bench_lossy_bus_run; bench_multirate; bench_warmup; bench_offline_rule 0;
      bench_offline_rule 1; bench_offline_rule 4; bench_online_rule 1;
      bench_online_rule 5; bench_all_rules_offline; bench_parser;
      bench_simplify; bench_set_online; bench_plan_set_offline;
      bench_plan_set_online; bench_ablation_hold;
      bench_snapshots; bench_can_roundtrip; bench_frame_bit_count;
      bench_plant_step; bench_controller_step; bench_obs_overhead_off;
      bench_obs_overhead_on; bench_fleet_ingest;
      bench_fleet_ingest_recorder ]
    @ long_trace_tests @ List.map fst interleaved
  in
  let selected =
    match options.only with
    | None -> all_tests
    | Some pattern ->
      let matched =
        List.filter
          (fun t ->
            workload_matches pattern
              (Test.Elt.name (List.hd (Test.elements t))))
          all_tests
      in
      if matched = [] then begin
        Printf.eprintf
          "error: --only %s matches no benchmark.  Available workloads:\n"
          pattern;
        List.iter
          (fun t ->
            Printf.eprintf "  %s\n" (Test.Elt.name (List.hd (Test.elements t))))
          all_tests;
        exit 2
      end;
      matched
  in
  (* The interleaved sessions (about 60 MB at 600) are built only after
     every other selected workload has run, so the gated pairs above run
     in the heap they would without them. *)
  let late, early =
    List.partition (fun t -> List.mem_assq t interleaved) selected
  in
  let results = benchmark ~quick:options.quick early in
  List.iter
    (fun t ->
      let (_ : unit -> unit) = Lazy.force (List.assq t interleaved) in
      ())
    late;
  Hashtbl.iter (Hashtbl.replace results) (benchmark ~quick:options.quick late);
  print_endline "BENCHMARKS (monotonic clock, OLS ns/run)";
  let rows = ref [] in
  Hashtbl.iter
    (fun test_name result ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Some est
        | Some _ | None -> None
      in
      rows := (test_name, estimate) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, est) ->
      let est =
        match est with
        | Some e -> Printf.sprintf "%14.0f ns/run" e
        | None -> "           n/a"
      in
      Printf.printf "%-46s %s\n" name est)
    rows;
  match options.json with
  | None -> ()
  | Some path ->
    write_json path ~mode:(if options.quick then "quick" else "full") rows;
    Printf.printf "results written to %s\n" path
