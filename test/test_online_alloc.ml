(* The zero-allocation claim of the online kernel, checked against the GC
   counters: once a machine-free monitor has run past its horizon (so
   every ring has reached its final size and the snapshot shape is
   cached), a [step_resolved] tick allocates no minor-heap words at all,
   and consequently the major heap does not grow either.

   This is the property that makes the kernel deployable on a bolt-on
   box: steady-state monitoring causes no GC activity whatsoever, so
   per-tick latency has no collector tail. *)

open Monitor_mtl
module Obs = Monitor_obs.Obs

(* The bench's synthetic FSR-ACC stream, shrunk: every signal the paper
   rules mention, fresh at every tick, 10 ms period. *)
let synthetic_snapshots n =
  let fv x = Monitor_signal.Value.Float x in
  let bv x = Monitor_signal.Value.Bool x in
  Array.init n (fun i ->
      let t = float_of_int i *. 0.01 in
      let torque = 120.0 *. sin (t *. 0.5) in
      let brake = sin (t *. 0.07) > 0.85 in
      let entry v =
        { Monitor_trace.Snapshot.value = v; fresh = true; stale = false;
          last_update = t }
      in
      let entries =
        [ ("Velocity", entry (fv (25.0 +. (3.0 *. sin (t *. 0.35)))));
          ("ACCSetSpeed", entry (fv 26.0));
          ("VehicleAhead", entry (bv (sin (t *. 0.11) > -0.4)));
          ("TargetRange", entry (fv (40.0 +. (25.0 *. sin (t *. 0.17)))));
          ("TargetRelVel", entry (fv (2.0 *. sin (t *. 0.23))));
          ("SelHeadway", entry (fv 1.0));
          ("RequestedTorque", entry (fv torque));
          ("TorqueRequested", entry (bv (torque > 0.0)));
          ("BrakeRequested", entry (bv brake));
          ("RequestedDecel", entry (fv (if brake then -0.8 else 0.1 *. sin t)));
          ("ServiceACC", entry (bv (sin (t *. 0.013) > 0.95)));
          ("ACCEnabled", entry (bv (sin (t *. 0.013) < 0.97))) ]
      in
      Monitor_trace.Snapshot.make ~time:t ~entries)

(* Ring capacities are bounded by the formula horizon, but *when* a ring
   reaches its final size depends on the stream: a window only fills up
   while its dominating verdict stays absent, which for rule #1's
   consequent first happens around t = 22 s of the synthetic stream.  So
   the test asserts the claim in its honest form — allocation is
   one-time (buffer growth), never per-tick: measure consecutive blocks
   and require some block to allocate exactly nothing; every later block
   is then also allocation-free, since buffers never shrink.  A genuine
   per-tick leak allocates in every block and fails all rounds. *)
let block_ticks = 2000
let max_blocks = 6

let measure_block monitors snaps start =
  let nm = Array.length monitors in
  (* [quick_stat] itself allocates its result record, so it must be read
     outside the [minor_words] bracket on both sides. *)
  let stat_before = Gc.quick_stat () in
  let minor_before = Gc.minor_words () in
  for i = start to start + block_ticks - 1 do
    for j = 0 to nm - 1 do
      ignore (Online.step_resolved monitors.(j) snaps.(i))
    done
  done;
  let minor_after = Gc.minor_words () in
  let stat_after = Gc.quick_stat () in
  (minor_after -. minor_before,
   stat_after.Gc.major_words -. stat_before.Gc.major_words)

let check_zero_alloc name monitors snaps =
  (* Telemetry records through dynamic data structures; the claim under
     test is about the monitoring path itself. *)
  Obs.disable_metrics ();
  (* Block 0 is unconditionally warm-up (shape cache, initial rings). *)
  ignore (measure_block monitors snaps 0);
  let rec find_quiet blk history =
    if blk > max_blocks then
      Alcotest.failf
        "%s: every %d-tick block allocated (minor+major words per block: \
         %s) — per-tick allocation, not one-time growth"
        name block_ticks
        (String.concat ", "
           (List.rev_map (fun w -> Printf.sprintf "%.0f" w) history))
    else begin
      let minor, major = measure_block monitors snaps (blk * block_ticks) in
      if minor <> 0.0 || major <> 0.0 then
        find_quiet (blk + 1) ((minor +. major) :: history)
    end
  in
  find_quiet 1 []

let test_paper_rules_allocate_nothing () =
  let snaps = synthetic_snapshots ((max_blocks + 1) * block_ticks) in
  let monitors =
    Array.of_list
      (List.map Online.create Monitor_oracle.Rules.all)
  in
  check_zero_alloc "paper rules" monitors snaps

let test_shared_env_allocates_nothing () =
  (* The [Monitor_set] shape: one shared signal environment, snapshot-
     major stepping, including a stale-guarded spec so the Warmup/Stale
     plumbing is on the measured path. *)
  let snaps = synthetic_snapshots ((max_blocks + 1) * block_ticks) in
  let specs =
    Spec.stale_guarded (Monitor_oracle.Rules.rule 2)
    :: Monitor_oracle.Rules.all
  in
  let shared = Online.shared_for specs in
  let monitors =
    Array.of_list (List.map (fun s -> Online.create ~shared s) specs)
  in
  check_zero_alloc "shared env" monitors snaps

let test_expression_leaves_allocate_nothing () =
  (* Arithmetic state: prev/delta/rate/fresh_delta histories and the
     freshness/age leaves, none of which may box in the steady state. *)
  let snaps = synthetic_snapshots ((max_blocks + 1) * block_ticks) in
  let spec src = Spec.make ~name:"alloc" (Parser.formula_of_string_exn src) in
  let monitors =
    Array.map
      (fun src -> Online.create (spec src))
      [| "rate(Velocity) < 50.0 and delta(RequestedTorque) < 400.0";
         "once[0.0, 0.5] (abs(TargetRelVel) > 600.0)";
         "eventually[0.0, 1.0] (fresh(Velocity) and known(TargetRange))";
         "age(Velocity) < 1.0 or stale(Velocity)" |]
  in
  check_zero_alloc "expression leaves" monitors snaps

(* A monitor's own state (its program and the signal slots are shared,
   so not counted) after stepping, checked against the figure its
   executor reports for a 10 ms stream.  A 4-word triple reaches exactly
   the shared part: the program, the signal slots and the static empty
   array a machine-free monitor's machine tables are. *)
let own_bytes_within_reported ~what ~reported monitor program shared =
  let total = Obj.reachable_words (Obj.repr monitor) in
  let shared_words =
    Obj.reachable_words (Obj.repr (program, shared, [||])) - 4
  in
  let own = 8 * (total - shared_words) in
  if own > reported then
    Alcotest.failf "%s instance holds %d bytes, reported bound %d" what own
      reported;
  own

let boolean_own_bytes specs snaps =
  let plan = Plan.compile specs in
  let shared = Online.shared_for specs in
  let program = Online.Fused.compile ~shared plan in
  let monitor = Online.Fused.instantiate ~shared program in
  Array.iter (fun snap -> Online.Fused.step_iter monitor snap (fun _ _ _ _ -> ())) snaps;
  own_bytes_within_reported ~what:"boolean"
    ~reported:(Online.Fused.instance_bytes program ~period:0.01)
    monitor program shared

let robust_own_bytes specs snaps =
  let plan = Plan.compile specs in
  let shared = Online.shared_for specs in
  let program = Robust.Online.Fused.compile ~shared plan in
  let monitor = Robust.Online.Fused.instantiate ~shared program in
  Array.iter
    (fun snap -> Robust.Online.Fused.step_iter monitor snap (fun _ _ _ _ _ -> ()))
    snaps;
  own_bytes_within_reported ~what:"robust"
    ~reported:(Robust.Online.Fused.instance_bytes program ~period:0.01)
    monitor program shared

(* The instance bound: after 20 s of a simulated road drive on the
   fleet's stale-guarded paper plan, a monitor's own state is no larger
   than the figure its executor reports for a 10 ms stream, and within
   10 KB (boolean) and 32 KB (robust: rule1's 5 s window keeps 5 s of
   two bounds for its child and for its antecedent, 16 KB, and wedges
   and tick times for 5 s, 8 KB).  A 50 s window holds more ticks than
   a ring is pre-sized to: its rings grow, and the reported figure
   counts the grown rings. *)
let test_instance_within_reported_bound () =
  let result =
    Monitor_hil.Sim.run
      (Monitor_hil.Sim.default_config
         (Monitor_hil.Scenario.urban_following ~duration:20.0 ()))
  in
  let snaps =
    Array.of_list
      (Monitor_oracle.Oracle.snapshots_of_trace result.Monitor_hil.Sim.trace)
  in
  Alcotest.(check bool) "the drive lasts 20 s" true (Array.length snaps >= 2000);
  let wrapped = List.map (fun s -> Spec.stale_guarded s) Monitor_oracle.Rules.all in
  let own = boolean_own_bytes wrapped snaps in
  if own > 10 * 1024 then Alcotest.failf "boolean instance holds %d bytes > 10 KB" own;
  let own = robust_own_bytes wrapped snaps in
  if own > 32 * 1024 then Alcotest.failf "robust instance holds %d bytes > 32 KB" own;
  let long =
    Spec.make ~name:"long"
      (Parser.formula_of_string_exn "historically[0.0, 50.0] (Velocity > 0.0)")
  in
  let long_snaps = synthetic_snapshots 6000 in
  let own = boolean_own_bytes [ long ] long_snaps in
  (* 5,002 ticks of times at 8 bytes each: the rings have grown. *)
  if own < 8 * 5002 then
    Alcotest.failf "a 50 s window at 10 ms holds only %d bytes" own;
  let own = robust_own_bytes [ long ] long_snaps in
  (* And 5,002 child entries of two bounds. *)
  if own < 8 * 5002 * 3 then
    Alcotest.failf "a robust 50 s window at 10 ms holds only %d bytes" own

let suite =
  [ ( "online allocation",
      [ Alcotest.test_case "paper rules: steady state allocates nothing"
          `Slow test_paper_rules_allocate_nothing;
        Alcotest.test_case "shared env + stale guard: allocates nothing"
          `Slow test_shared_env_allocates_nothing;
        Alcotest.test_case "expression leaves: allocate nothing" `Slow
          test_expression_leaves_allocate_nothing;
        Alcotest.test_case "instance within its reported bound" `Quick
          test_instance_within_reported_bound ] ) ]
