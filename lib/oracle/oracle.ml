module Mtl = Monitor_mtl
module Trace = Monitor_trace

type episode = {
  start_time : float;
  end_time : float;
  duration : float;
  ticks : int;
  intensity : float option;
}

type status = Satisfied | Violated

type rule_outcome = {
  spec : Mtl.Spec.t;
  status : status;
  episodes : episode list;
  ticks_total : int;
  ticks_true : int;
  ticks_false : int;
  ticks_unknown : int;
  availability : float;
  robustness : float option;
}

let default_period = 0.01

let snapshots_of_trace ?(period = default_period) ?staleness trace =
  Trace.Multirate.snapshots ?staleness trace ~period

(* Optional pre-flight lint: refuse to evaluate a spec the static analysis
   can prove defective (unknown signals, vacuous guards, tautologies) —
   failing loudly before a campaign burns hours returning meaningless
   all-Satisfied columns. *)
module Speclint = Monitor_analysis.Speclint

let assert_preflight env specs =
  List.iter
    (fun (spec : Mtl.Spec.t) ->
      match Speclint.errors (Speclint.check_env env spec) with
      | [] -> ()
      | errs ->
        invalid_arg
          (Fmt.str "@[<v>Oracle: spec %s failed pre-flight lint:@,%a@]"
             spec.Mtl.Spec.name
             (Fmt.list ~sep:Fmt.cut Speclint.pp_diagnostic)
             errs))
    specs

(* Group consecutive False ticks into episodes.  An Unknown tick inside a
   False run does not end the episode — the verdict merely could not be
   computed for a moment — but a True tick does. *)
let episodes_of_verdicts ?severity ~times verdicts =
  let n = Array.length verdicts in
  let severity_at i =
    match severity with
    | Some values when i < Array.length values -> values.(i)
    | Some _ | None -> None
  in
  let join a b =
    match a, b with
    | Some x, Some y -> Some (Float.max x y)
    | Some x, None | None, Some x -> Some x
    | None, None -> None
  in
  let episodes = ref [] in
  let current = ref None in
  let close () =
    match !current with
    | Some (start_time, end_time, ticks, intensity) ->
      episodes :=
        { start_time; end_time; duration = end_time -. start_time; ticks;
          intensity }
        :: !episodes;
      current := None
    | None -> ()
  in
  for i = 0 to n - 1 do
    match verdicts.(i), !current with
    | Mtl.Verdict.False, None ->
      current := Some (times.(i), times.(i), 1, severity_at i)
    | Mtl.Verdict.False, Some (start_time, _, ticks, intensity) ->
      current := Some (start_time, times.(i), ticks + 1, join intensity (severity_at i))
    | Mtl.Verdict.True, _ -> close ()
    | Mtl.Verdict.Unknown, _ -> ()
  done;
  close ();
  List.rev !episodes

(* |severity| per tick, when the spec declares a severity expression.
   The magnitude algebra (|x|, with NaN maximally severe) lives in
   Robust so this legacy column and the robustness ranking are two
   views of one definition and cannot drift apart. *)
let severity_values spec cols = Mtl.Robust.severity_values spec cols

let outcome_of_verdicts ?severity ?robustness spec ~times verdicts =
  let count v = Mtl.Offline.count verdicts v in
  let ticks_false = count Mtl.Verdict.False in
  let ticks_true = count Mtl.Verdict.True in
  let ticks_total = Array.length verdicts in
  { spec;
    status = (if ticks_false > 0 then Violated else Satisfied);
    episodes = episodes_of_verdicts ?severity ~times verdicts;
    ticks_total;
    ticks_true;
    ticks_false;
    ticks_unknown = count Mtl.Verdict.Unknown;
    availability =
      (if ticks_total = 0 then 0.0
       else float_of_int (ticks_true + ticks_false) /. float_of_int ticks_total);
    robustness }

module Obs = Monitor_obs.Obs

let m_ticks_true =
  Obs.counter ~labels:[ ("verdict", "true") ]
    ~help:"Oracle verdict ticks, per final verdict" "cps_oracle_ticks_total"

let m_ticks_false =
  Obs.counter ~labels:[ ("verdict", "false") ]
    ~help:"Oracle verdict ticks, per final verdict" "cps_oracle_ticks_total"

let m_ticks_unknown =
  Obs.counter ~labels:[ ("verdict", "unknown") ]
    ~help:"Oracle verdict ticks, per final verdict" "cps_oracle_ticks_total"

let record_outcome_metrics (o : rule_outcome) =
  if Obs.on () then begin
    let rule = o.spec.Mtl.Spec.name in
    Obs.add m_ticks_true o.ticks_true;
    Obs.add m_ticks_false o.ticks_false;
    Obs.add m_ticks_unknown o.ticks_unknown;
    Obs.gauge_set
      (Obs.gauge ~labels:[ ("rule", rule) ]
         ~help:"Fraction of ticks with a definite verdict, per rule"
         "cps_oracle_rule_availability")
      o.availability
  end

(* Whole-set evaluation through the plan: the rule list is compiled once
   ({!Mtl.Plan.compile}) and every rule's verdicts come out of a single
   trace traversal.  Callers convert the snapshot list and transpose it
   to columns exactly once per trace, so the cost is the executor itself
   — O(n) per operator regardless of window width.  [robust]
   additionally runs the quantitative executor and records each rule's
   whole-trace robustness (min over ticks of the upper bound). *)
let outcomes_on_snaps ~robust specs snaps cols =
  let plan = Mtl.Plan.compile specs in
  let t_eval = Obs.time_start () in
  let outs = Mtl.Plan_exec.eval_columns plan snaps cols in
  let routs =
    if robust then Some (Mtl.Plan_exec.eval_columns_robust plan snaps cols)
    else None
  in
  if Obs.on () then
    Obs.observe_since
      (Obs.histogram
         ~labels:[ ("rules", string_of_int (Mtl.Plan.rule_count plan)) ]
         ~help:"Wall time of one fused whole-set evaluation over one trace"
         "cps_oracle_plan_eval_seconds")
      t_eval;
  List.mapi
    (fun r spec ->
      let o = outs.(r) in
      let robustness =
        match routs with
        | Some ro -> Mtl.Robust.min_upper ro.(r)
        | None -> None
      in
      let result =
        outcome_of_verdicts ?severity:(severity_values spec cols) ?robustness
          spec ~times:o.Mtl.Offline.times o.Mtl.Offline.verdicts
      in
      record_outcome_metrics result;
      result)
    specs

let check ?preflight ?period ?(robust = false) specs trace =
  Option.iter (fun env -> assert_preflight env specs) preflight;
  let snaps = Array.of_list (snapshots_of_trace ?period trace) in
  let cols = Trace.Columns.of_snapshots snaps in
  outcomes_on_snaps ~robust specs snaps cols

let check_spec ?preflight ?period ?robust spec trace =
  List.hd (check ?preflight ?period ?robust [ spec ] trace)

let stale_deadlines ?(k = 3.0) ~periods s =
  Option.map (fun p -> k *. p) (periods s)

let check_stale_aware ?preflight ?period ?k ?hold ?(robust = false) ~periods
    specs trace =
  Option.iter (fun env -> assert_preflight env specs) preflight;
  let staleness = stale_deadlines ?k ~periods in
  let snaps = Array.of_list (snapshots_of_trace ?period ~staleness trace) in
  let cols = Trace.Columns.of_snapshots snaps in
  (* The plan compiles over the wrapped rules, so the warm-up guards are
     part of the DAG and share their trigger subterms too. *)
  let wrapped = List.map (Mtl.Spec.stale_guarded ?hold) specs in
  outcomes_on_snaps ~robust wrapped snaps cols

let check_online ?preflight ?period ?(robust = false) specs trace =
  Option.iter (fun env -> assert_preflight env specs) preflight;
  let snapshots = snapshots_of_trace ?period trace in
  let n = List.length snapshots in
  let plan = Mtl.Plan.compile specs in
  let nr = Mtl.Plan.rule_count plan in
  let shared = Mtl.Online.shared_for specs in
  let fused = Mtl.Online.Fused.create ~shared plan in
  let times = Array.init nr (fun _ -> Array.make n 0.0) in
  let verdicts = Array.init nr (fun _ -> Array.make n Mtl.Verdict.Unknown) in
  let store r tick time verdict =
    times.(r).(tick) <- time;
    verdicts.(r).(tick) <- verdict
  in
  List.iter (fun snap -> Mtl.Online.Fused.step_iter fused snap store) snapshots;
  Mtl.Online.Fused.finalize_iter fused store;
  (* Robustness through one fused incremental robust monitor over the
     same plan and signal environment: fold each rule's running minimum
     of the resolved upper bounds as they stream out. *)
  let robustness =
    if not robust || n = 0 then fun _ -> None
    else begin
      let rm = Mtl.Robust.Online.Fused.create ~shared plan in
      let mins = Array.make nr Float.infinity in
      let fold r _tick _time _lo hi = if hi < mins.(r) then mins.(r) <- hi in
      List.iter (fun snap -> Mtl.Robust.Online.Fused.step_iter rm snap fold)
        snapshots;
      Mtl.Robust.Online.Fused.finalize_iter rm fold;
      fun r -> Some mins.(r)
    end
  in
  let cols = Trace.Columns.of_snapshots (Array.of_list snapshots) in
  List.mapi
    (fun r spec ->
      let result =
        outcome_of_verdicts ?severity:(severity_values spec cols)
          ?robustness:(robustness r) spec ~times:times.(r) verdicts.(r)
      in
      record_outcome_metrics result;
      result)
    specs

let check_spec_online ?preflight ?period ?robust spec trace =
  List.hd (check_online ?preflight ?period ?robust [ spec ] trace)

let status_letter = function Satisfied -> "S" | Violated -> "V"
