(* Whole-spec plan: hash-consing unit tests plus the differential
   properties the plan executors must satisfy over random multi-rule
   spec files × random multirate traces × channel faults, shrinking to a
   minimal spec:

   - every whole-plan executor (columnar and incremental, boolean and
     robust) assigns each rule the naive reference's verdicts and bounds
     ({!Offline.Naive}, {!Robust.Naive});
   - the incremental executors are batch-identical to one one-root plan
     per rule: sharing subterms across rules changes no value and no
     resolution tick.

   Reuses Test_differential's generators: a plan case is simply several
   differential formulas over one generated trace. *)

open Monitor_mtl
module Value = Monitor_signal.Value
module Columns = Monitor_trace.Columns

let count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (try int_of_string s with Failure _ -> 120)
  | None -> 120

(* Hash-consing ------------------------------------------------------------ *)

let parse = Parser.formula_of_string_exn

let test_cse_across_rules () =
  let specs =
    [ Spec.make ~name:"a" (parse "always[0,0.1](x > 1.0 and y < 2.0)");
      Spec.make ~name:"b" (parse "x > 1.0 -> eventually[0,0.2](y < 2.0)")
    ]
  in
  let plan = Plan.compile specs in
  Alcotest.(check int) "two roots" 2 (Plan.rule_count plan);
  (* x > 1.0 and y < 2.0 each appear in both rules: two shared nodes. *)
  Alcotest.(check int) "shared atoms" 2 (Plan.shared_count plan);
  Alcotest.(check int) "evaluations saved" 2 (Plan.saved_count plan)

let test_duplicate_rules_share_root () =
  let f = parse "always[0,0.1](x > 1.0)" in
  let specs = [ Spec.make ~name:"a" f; Spec.make ~name:"b" f ] in
  let plan = Plan.compile specs in
  Alcotest.(check int) "one body" plan.Plan.roots.(0) plan.Plan.roots.(1);
  Alcotest.(check int) "root uses twice" 2
    plan.Plan.nodes.(plan.Plan.roots.(0)).Plan.uses

let test_topological_order () =
  let specs =
    List.map
      (fun (name, src) -> Spec.make ~name (parse src))
      [ ("a", "warmup(stale(x), 0.2, always[0,0.1](x > 1.0 or y < 0.5))");
        ("b", "once[0,0.3](x > 1.0) -> not (y < 0.5)") ]
  in
  let plan = Plan.compile specs in
  Array.iteri
    (fun id node ->
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "child %d before node %d" c id)
            true (c < id))
        (Plan.children node))
    plan.Plan.nodes

(* Machine-owning subtrees must never cross rules: same machine name and
   formula in two specs still means two machine instances. *)
let mode_machine which =
  State_machine.make ~name:"m" ~initial:"off" ~states:[ "off"; "on" ]
    ~transitions:
      [ { State_machine.source = "off";
          guard = State_machine.When (parse which);
          target = "on" } ]

let test_no_sharing_across_machines () =
  let f = parse "mode(m, on)" in
  let specs =
    [ Spec.make ~name:"a" ~machines:[ mode_machine "p" ] f;
      Spec.make ~name:"b" ~machines:[ mode_machine "q" ] f ]
  in
  let plan = Plan.compile specs in
  Alcotest.(check bool) "distinct roots" true
    (plan.Plan.roots.(0) <> plan.Plan.roots.(1));
  Alcotest.(check int) "nothing shared" 0 (Plan.shared_count plan)

(* Differential property --------------------------------------------------- *)

type plan_case = {
  formulas : Formula.t list;  (* one rule per formula *)
  rows : (float * (string * Value.t) list) list;
  staleness : float option;
}

let gen_plan_case : plan_case QCheck.Gen.t =
  let open QCheck.Gen in
  let* formulas = list_size (int_range 1 4) Test_differential.gen_formula in
  let* rows = Test_differential.gen_rows in
  let* staleness = oneofl [ None; None; Some 0.015; Some 0.04 ] in
  return { formulas; rows; staleness }

let shrink_plan_case case yield =
  (* Fewer rules first — a disagreement should reduce to the one rule
     (and ideally the one shared subterm) that causes it. *)
  QCheck.Shrink.list ~shrink:QCheck.Shrink.nil case.formulas (fun fs ->
      if fs <> [] then yield { case with formulas = fs });
  QCheck.Shrink.list ~shrink:QCheck.Shrink.nil case.rows (fun rows' ->
      if rows' <> [] then yield { case with rows = rows' });
  List.iteri
    (fun i f ->
      Test_differential.shrink_formula f (fun f' ->
          yield
            { case with
              formulas = List.mapi (fun j g -> if i = j then f' else g)
                  case.formulas }))
    case.formulas;
  match case.staleness with
  | Some _ -> yield { case with staleness = None }
  | None -> ()

let print_plan_case case =
  Printf.sprintf "rules:\n  %s\n%s"
    (String.concat "\n  " (List.map Formula.to_string case.formulas))
    (Test_differential.print_case
       { Test_differential.formula = Formula.Const true;
         rows = case.rows;
         staleness = case.staleness })

let specs_of_case case =
  List.mapi
    (fun i f -> Spec.make ~name:(Printf.sprintf "r%d" i) f)
    case.formulas

let snapshots_of_case case =
  Test_differential.snapshots_of_rows ?staleness:case.staleness case.rows

let verdicts_agree (a : Offline.outcome) (b : Offline.outcome) =
  Array.length a.Offline.verdicts = Array.length b.Offline.verdicts
  && Array.for_all2 (fun (x : float) y -> x = y) a.Offline.times b.Offline.times
  && Array.for_all2 Verdict.equal a.Offline.verdicts b.Offline.verdicts

let robust_agree (a : Robust.outcome) (b : Robust.outcome) =
  Test_differential.robust_agree
    (a.Robust.times, a.Robust.lo, a.Robust.hi)
    (b.Robust.times, b.Robust.lo, b.Robust.hi)

(* Run both incremental whole-plan executors over the stream and collect
   each rule's resolutions by tick. *)
let online_outcomes specs snapshots =
  let plan = Plan.compile specs in
  let nr = Plan.rule_count plan and n = List.length snapshots in
  let shared = Online.shared_for specs in
  let fused = Online.Fused.create ~shared plan in
  let rfused = Robust.Online.Fused.create ~shared plan in
  let times = Array.init nr (fun _ -> Array.make n Float.nan) in
  let verdicts = Array.init nr (fun _ -> Array.make n Verdict.Unknown) in
  let rtimes = Array.init nr (fun _ -> Array.make n Float.nan) in
  let lo = Array.init nr (fun _ -> Array.make n Float.nan) in
  let hi = Array.init nr (fun _ -> Array.make n Float.nan) in
  let store r tick time v =
    times.(r).(tick) <- time;
    verdicts.(r).(tick) <- v
  in
  let rstore r tick time l h =
    rtimes.(r).(tick) <- time;
    lo.(r).(tick) <- l;
    hi.(r).(tick) <- h
  in
  List.iter
    (fun snap ->
      Online.Fused.step_iter fused snap store;
      Robust.Online.Fused.step_iter rfused snap rstore)
    snapshots;
  Online.Fused.finalize_iter fused store;
  Robust.Online.Fused.finalize_iter rfused rstore;
  Array.init nr (fun r ->
      ( { Offline.times = times.(r); verdicts = verdicts.(r); modes = [] },
        { Robust.times = rtimes.(r); lo = lo.(r); hi = hi.(r) } ))

(* Every whole-plan executor against the naive references, rule by
   rule: columnar verdicts byte-identical, bounds within the ulp the
   naive fold's association allows (see Test_differential). *)
let naive_agrees specs snapshots =
  let snaps = Array.of_list snapshots in
  let cols = Columns.of_snapshots snaps in
  let plan = Plan.compile specs in
  let columnar = Plan_exec.eval_columns plan snaps cols in
  let columnar_r = Plan_exec.eval_columns_robust plan snaps cols in
  let online = online_outcomes specs snapshots in
  List.for_all
    (fun (r, spec) ->
      let naive = Offline.Naive.eval_array spec snaps in
      let naive_r = Robust.Naive.eval_array spec snaps in
      let online_b, online_r = online.(r) in
      verdicts_agree naive columnar.(r)
      && robust_agree naive_r columnar_r.(r)
      && Array.for_all2 Verdict.equal naive.Offline.verdicts
           online_b.Offline.verdicts
      && robust_agree naive_r online_r)
    (List.mapi (fun r spec -> (r, spec)) specs)

(* Robust bounds of the two incremental forms must agree bit for bit:
   both run the same float expressions in the same order. *)
let bits_equal (a : float) (b : float) =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Incremental batch identity: the whole-plan monitors must match one
   one-root monitor per rule not just in content but in resolution
   timing — every step's batch (and the finalize batch) must coincide
   rule by rule, boolean and robust. *)
let online_plan_agrees specs snapshots =
  let plan = Plan.compile specs in
  let nr = Array.length plan.Plan.roots in
  let shared = Online.shared_for specs in
  let fused = Online.Fused.create ~shared plan in
  let rfused = Robust.Online.Fused.create ~shared plan in
  let per_rule = Array.of_list (List.map Online.create specs) in
  let per_rule_r = Array.of_list (List.map Robust.Online.create specs) in
  let fused_batch = Array.make nr [] and rfused_batch = Array.make nr [] in
  let collect r tick time v =
    fused_batch.(r) <- (tick, time, v) :: fused_batch.(r)
  in
  let rcollect r tick time l h =
    rfused_batch.(r) <- (tick, time, l, h) :: rfused_batch.(r)
  in
  let batch_equal got expect =
    List.length got = List.length expect
    && List.for_all2
         (fun (tick, time, v) (r : Online.resolution) ->
           tick = r.Online.tick
           && Float.equal time r.Online.time
           && Verdict.equal v r.Online.verdict)
         got expect
  in
  let rbatch_equal got expect =
    List.length got = List.length expect
    && List.for_all2
         (fun (tick, time, l, h) (r : Robust.Online.resolution) ->
           tick = r.Robust.Online.tick
           && Float.equal time r.Robust.Online.time
           && bits_equal l r.Robust.Online.bounds.Robust.lo
           && bits_equal h r.Robust.Online.bounds.Robust.hi)
         got expect
  in
  let ok = ref true in
  let check_step step_rule step_rule_r =
    Array.iteri
      (fun r m ->
        if not (batch_equal (List.rev fused_batch.(r)) (step_rule m)) then
          ok := false)
      per_rule;
    Array.iteri
      (fun r m ->
        if not (rbatch_equal (List.rev rfused_batch.(r)) (step_rule_r m)) then
          ok := false)
      per_rule_r
  in
  let reset () =
    Array.fill fused_batch 0 nr [];
    Array.fill rfused_batch 0 nr []
  in
  List.iter
    (fun snap ->
      reset ();
      Online.Fused.step_iter fused snap collect;
      Robust.Online.Fused.step_iter rfused snap rcollect;
      check_step (fun m -> Online.step m snap)
        (fun m -> Robust.Online.step m snap))
    snapshots;
  reset ();
  Online.Fused.finalize_iter fused collect;
  Robust.Online.Fused.finalize_iter rfused rcollect;
  check_step Online.finalize Robust.Online.finalize;
  !ok

let plan_differential_prop =
  QCheck.Test.make
    ~name:"fused plan = per-rule kernels (naive reference, boolean + robust)"
    ~count
    (QCheck.make ~print:print_plan_case ~shrink:shrink_plan_case gen_plan_case)
    (fun case -> naive_agrees (specs_of_case case) (snapshots_of_case case))

let plan_online_differential_prop =
  QCheck.Test.make
    ~name:"fused online = per-rule monitors (batch-identical, boolean + robust)"
    ~count
    (QCheck.make ~print:print_plan_case ~shrink:shrink_plan_case gen_plan_case)
    (fun case ->
      online_plan_agrees (specs_of_case case) (snapshots_of_case case))

(* Staleness routed through Spec.stale_guarded — the oracle's degraded
   mode: the plan is compiled over the wrapped specs. *)
let plan_stale_guarded_prop =
  QCheck.Test.make ~name:"fused plan = per-rule kernels (stale-guarded)"
    ~count:(max 40 (count / 3))
    (QCheck.make ~print:print_plan_case ~shrink:shrink_plan_case gen_plan_case)
    (fun case ->
      let specs = List.map Spec.stale_guarded (specs_of_case case) in
      let snapshots =
        snapshots_of_case { case with staleness = Some 0.015 }
      in
      naive_agrees specs snapshots && online_plan_agrees specs snapshots)

(* Machine-bearing rules: per-rule machine state under a fused plan. *)
let test_plan_with_machines () =
  let specs =
    [ Spec.make ~name:"a" ~machines:[ mode_machine "p" ]
        (parse "mode(m, on) -> x > 0.0");
      Spec.make ~name:"b" ~machines:[ mode_machine "q" ]
        (parse "mode(m, on) -> x > 0.0");
      Spec.make ~name:"c" (parse "x > 0.0") ]
  in
  let rows =
    List.mapi
      (fun i (p, q, x) ->
        ( float_of_int i *. 0.01,
          [ ("p", Value.Bool p); ("q", Value.Bool q); ("x", Value.Float x) ]
        ))
      [ (false, false, 1.0); (true, false, -1.0); (false, true, 0.5);
        (false, false, -0.5); (true, true, 2.0) ]
  in
  let snapshots = Test_differential.snapshots_of_rows rows in
  Alcotest.(check bool) "fused = naive with machines" true
    (naive_agrees specs snapshots);
  Alcotest.(check bool) "fused online = per-rule with machines" true
    (online_plan_agrees specs snapshots)

let test_plan_empty_trace () =
  let specs = specs_of_case { formulas = [ parse "x > 0.0" ]; rows = []; staleness = None } in
  Alcotest.(check bool) "empty trace" true (naive_agrees specs []);
  Alcotest.(check bool) "empty trace online" true (online_plan_agrees specs [])

let suite =
  [ ( "plan",
      [ Alcotest.test_case "CSE across rules" `Quick test_cse_across_rules;
        Alcotest.test_case "duplicate rules share a root" `Quick
          test_duplicate_rules_share_root;
        Alcotest.test_case "nodes are topologically ordered" `Quick
          test_topological_order;
        Alcotest.test_case "no sharing across machine owners" `Quick
          test_no_sharing_across_machines;
        Alcotest.test_case "machine-bearing rules" `Quick
          test_plan_with_machines;
        Alcotest.test_case "empty trace" `Quick test_plan_empty_trace;
        QCheck_alcotest.to_alcotest plan_differential_prop;
        QCheck_alcotest.to_alcotest plan_online_differential_prop;
        QCheck_alcotest.to_alcotest plan_stale_guarded_prop ] ) ]
