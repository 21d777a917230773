(* campaign: Table I on a two-worker domain pool.  The HIL simulation
   carries most of the cost, so a gain in the monitor layers should move
   this workload little: it is the workload that bypasses them, and the
   one that exercises the pool. *)

open Common
module Table1 = Monitor_experiments.Table1
module Campaign = Monitor_inject.Campaign
module Sim = Monitor_hil.Sim
module Scenario = Monitor_hil.Scenario
module Oracle = Monitor_oracle.Oracle
module Vacuity = Monitor_oracle.Vacuity
module Pool = Monitor_util.Pool

type acc = {
  sim_ns : int Atomic.t;
  check_ns : int Atomic.t;
  vacuity_ns : int Atomic.t;
  frames : int Atomic.t;
  ticks : int Atomic.t;
  runs : int Atomic.t;
}

let new_acc () =
  { sim_ns = Atomic.make 0; check_ns = Atomic.make 0; vacuity_ns = Atomic.make 0;
    frames = Atomic.make 0; ticks = Atomic.make 0; runs = Atomic.make 0 }

let add a x = ignore (Atomic.fetch_and_add a x)

(* Table I's own per-run steps (simulate the steady-following scenario
   with the injection plan, check the seven rules with robustness, account
   for vacuity), with a timer around each.  The golden comparison at seed
   2014 is what shows these are exactly the campaign's steps. *)
let runner program acc ~latencies ~traced ~next_request plan =
  let request = Atomic.fetch_and_add next_request 1 in
  let t_start = now () in
  let t0 = now () in
  let scenario =
    Scenario.steady_follow
      ~duration:(Campaign.default_start +. Campaign.hold_duration +. 12.0) ()
  in
  let result = Sim.run ~plan (Sim.default_config scenario) in
  let t1 = now () in
  let outcomes = Oracle.check ~robust:true program.specs result.Sim.trace in
  let t2 = now () in
  let vacuity = Vacuity.analyze_many program.specs result.Sim.trace in
  let t3 = now () in
  add acc.sim_ns (t1 - t0);
  add acc.check_ns (t2 - t1);
  add acc.vacuity_ns (t3 - t2);
  add acc.frames result.Sim.frames_captured;
  add acc.ticks (match outcomes with o :: _ -> o.Oracle.ticks_total | [] -> 0);
  add acc.runs 1;
  Option.iter (fun l -> Samples.add l (ms_of_ns (t3 - t0))) latencies;
  if traced then begin
    let root = Spans.fresh () in
    List.iter
      (fun (name, a, b) ->
        Spans.add ~id:(Spans.fresh ()) ~name ~parent:root ~request ~start_ns:a ~end_ns:b)
      [ ("sim.run", t0, t1); ("oracle.check", t1, t2); ("vacuity", t2, t3) ];
    Spans.add ~id:root ~name:"run" ~parent:(-1) ~request ~start_ns:t_start
      ~end_ns:(now ())
  end;
  (outcomes, vacuity)

let golden = "test/golden/table1_quick.txt"

let run r ~options ~check_golden ~setup_reps ~seed ~seconds ~traced =
  let options = { options with Table1.seed = Int64.of_int seed } in
  let program, pool =
    set_up r ~reps:setup_reps ~spec_text:(Inputs.spec_text ()) ~dbc_text:(Inputs.dbc_text ())
      ~extra:(fun _ -> Pool.create ~num_domains:2 ())
      ~dispose:Pool.shutdown
  in
  let expected_render =
    if check_golden && seed = 2014 then Some (Json.read_file golden) else None
  in
  let plain = new_acc () and spanned = new_acc () in
  let work = ref [] and latencies = Samples.create () and lags = Samples.create () in
  let walls_plain = Samples.create () and walls_traced = Samples.create () in
  let next_request = Atomic.make 0 in
  let renders = ref [] in
  let start = now () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let gc_window = Gc_window.start () in
  let gc_done = ref false in
  let campaigns = ref 0 in
  let prev_done = ref start in
  let busy_wall = ref 0 in
  (* Twice at least: the two renders must agree.  After that, another
     campaign starts only if one as long as the last still ends by the
     deadline.  A traced run measures its first campaign untraced. *)
  let last_ns = ref 0 in
  while !campaigns < 2 || now () + !last_ns <= deadline do
    let in_trace = traced && !campaigns >= 1 in
    if in_trace && not !gc_done then begin
      gc_done := true;
      Gc_window.finish r gc_window ~frames:(Atomic.get plain.frames)
    end;
    let acc = if in_trace then spanned else plain in
    let frames_before = Atomic.get acc.frames in
    let c0 = now () in
    let t =
      Table1.run ~options ~pool
        ~runner:
          (runner program acc
             ~latencies:(if in_trace then None else Some latencies)
             ~traced:in_trace ~next_request)
        ()
    in
    let c1 = now () in
    busy_wall := !busy_wall + (c1 - c0);
    last_ns := c1 - c0;
    incr campaigns;
    Samples.add (if in_trace then walls_traced else walls_plain) (float_of_int (c1 - c0));
    if not in_trace then begin
      work := (Atomic.get acc.frames - frames_before, c1 - c0) :: !work;
      Samples.add lags (ms_of_ns (c0 - !prev_done))
    end;
    r.attempted <- r.attempted + t.Table1.runs_executed;
    r.failed <- r.failed + List.length t.Table1.errored;
    check r (t.Table1.errored = []) "campaign runs errored";
    check r
      (t.Table1.nominal_letters <> []
      && List.for_all (String.equal "S") t.Table1.nominal_letters)
      "nominal run is not all S";
    let render = Table1.rendered t in
    (match !renders with
     | first :: _ -> check r (String.equal first render) "campaign renders differ"
     | [] -> ());
    renders := render :: !renders;
    Option.iter
      (fun g -> check r (String.equal g render) ("render differs from " ^ golden))
      expected_render;
    prev_done := now ()
  done;
  if not !gc_done then Gc_window.finish r gc_window ~frames:(Atomic.get plain.frames);
  Pool.shutdown pool;
  set_end_to_end r ~work:!work ~latencies:(Samples.to_array latencies);
  set_lags r (Samples.to_array lags);
  let stats = Pool.stats pool in
  let workers = Array.length stats.Pool.workers in
  let busy = Array.fold_left (fun a w -> a + w.Pool.busy_ns) 0 stats.Pool.workers in
  set r "pool.busy_frac"
    (if !busy_wall = 0 then 0.0
     else float_of_int busy /. (float_of_int workers *. float_of_int !busy_wall));
  set r "pool.tasks" (float_of_int stats.Pool.tasks_completed);
  set r "pool.queue_high_water" (float_of_int stats.Pool.queue_high_water);
  if traced then begin
    let a = spanned in
    let runs = Atomic.get a.runs in
    let ms x = float_of_int (Atomic.get x) /. 1e6 in
    let per_run x = if runs = 0 then 0.0 else ms x /. float_of_int runs in
    set r "sim.run_ms_per_run" (per_run a.sim_ns);
    set r "oracle.check_ms_per_run" (per_run a.check_ns);
    set r "vacuity.ms_per_run" (per_run a.vacuity_ns);
    per r "oracle.check_ns_per_tick" ~ns:(Atomic.get a.check_ns) ~count:(Atomic.get a.ticks);
    let monitor = Atomic.get a.check_ns + Atomic.get a.vacuity_ns in
    let total = monitor + Atomic.get a.sim_ns in
    set r "campaign.monitor_share"
      (if total = 0 then 0.0 else float_of_int monitor /. float_of_int total);
    set r "layers.coverage" (Spans.coverage (Spans.all ()));
    set r "trace.overhead_ratio"
      (median (Samples.to_array walls_traced) /. median (Samples.to_array walls_plain))
  end
