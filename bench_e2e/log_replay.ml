(* log_replay: the paper's offline oracle workflow over one long road
   capture.  Each replay parses the candump text, decodes it against the
   DBC and runs the seven rules with robustness.  No fleet layer runs;
   the snapshot cut, the column transposition and the columnar plan
   kernels carry the work. *)

open Common
module Candump = Monitor_can.Candump
module Oracle = Monitor_oracle.Oracle
module Offline = Monitor_mtl.Offline
module Plan_exec = Monitor_mtl.Plan_exec
module Columns = Monitor_trace.Columns

(* What a replay must report, from the naive reference kernel: per rule,
   the verdict counts and the violation episodes' extents. *)
type expected = {
  verdicts : Monitor_mtl.Verdict.t array array;  (* per rule *)
  summary : (int * int * int * (float * float * int) list) list;
}

let outcome_summary (o : Oracle.rule_outcome) =
  ( o.Oracle.ticks_true,
    o.Oracle.ticks_false,
    o.Oracle.ticks_unknown,
    List.map (fun e -> (e.Oracle.start_time, e.Oracle.end_time, e.Oracle.ticks))
      o.Oracle.episodes )

let reference program text =
  match Candump.of_string text with
  | Error e -> failwith ("log text: " ^ e)
  | Ok (frames, _) ->
    let trace = Candump.decode program.dbc frames in
    let snaps = Array.of_list (Oracle.snapshots_of_trace trace) in
    let verdicts =
      Array.of_list
        (List.map
           (fun spec -> (Offline.Naive.eval_array spec snaps).Offline.verdicts)
           program.specs)
    in
    let times = Array.map (fun s -> s.Monitor_trace.Snapshot.time) snaps in
    let summary =
      Array.to_list
        (Array.map
           (fun v ->
             let count x = Offline.count v x in
             ( count Monitor_mtl.Verdict.True,
               count Monitor_mtl.Verdict.False,
               count Monitor_mtl.Verdict.Unknown,
               List.map
                 (fun e -> (e.Oracle.start_time, e.Oracle.end_time, e.Oracle.ticks))
                 (Oracle.episodes_of_verdicts ~times v) ))
           verdicts)
    in
    { verdicts; summary }

(* Everything a replay reports except the spec itself. *)
let comparable (o : Oracle.rule_outcome) =
  (o.Oracle.status, o.Oracle.episodes, outcome_summary o, o.Oracle.availability,
   o.Oracle.robustness)

(* The oracle's work split into the public calls it is made of, each
   re-executed on its own, with the verdicts checked against the naive
   reference.  The remainder of [Oracle.check] — severity columns,
   episodes, outcome records — is its aggregation. *)
let decompose r program expected trace ~request =
  let root = Spans.fresh () in
  let t_start = now () in
  let t0 = now () in
  let snaps = Array.of_list (Oracle.snapshots_of_trace trace) in
  let t1 = now () in
  let cols = Columns.of_snapshots snaps in
  let t2 = now () in
  let plan = Plan.compile program.specs in
  let t3 = now () in
  let outs = Plan_exec.eval_columns plan snaps cols in
  let t4 = now () in
  let _robust = Plan_exec.eval_columns_robust plan snaps cols in
  let t5 = now () in
  List.iter
    (fun (name, a, b) ->
      Spans.add ~id:(Spans.fresh ()) ~name ~parent:root ~request ~start_ns:a ~end_ns:b)
    [ ("multirate.snapshots", t0, t1); ("columns.transpose", t1, t2);
      ("plan.compile", t2, t3); ("plan_exec.eval", t3, t4);
      ("plan_exec.eval_robust", t4, t5) ];
  Spans.add ~id:root ~name:"decompose" ~parent:(-1) ~request ~start_ns:t_start
    ~end_ns:(now ());
  Array.iteri
    (fun i o ->
      check r (o.Offline.verdicts = expected.verdicts.(i))
        (Printf.sprintf "rule %d: plan verdicts differ from the naive kernel" i))
    outs;
  Array.length snaps

let run r ~duration ~setup_reps ~seed ~seconds ~traced =
  let program, () =
    set_up r ~reps:setup_reps ~spec_text:(Inputs.spec_text ()) ~dbc_text:(Inputs.dbc_text ())
      ~extra:ignore ~dispose:ignore
  in
  let text, lines = Inputs.log_text ~seed:(Int64.of_int seed) ~duration in
  (* The reference runs after the measured loop in an untraced run, so
     that its memory stays out of [mem_peak_mb]; a traced run needs it
     for the decomposition's check. *)
  let expected = lazy (reference program text) in
  let work = ref [] and latencies = Samples.create () and lags = Samples.create () in
  let plain_s = Samples.create () and traced_s = Samples.create () in
  let parse_ns = ref 0 and decode_ns = ref 0 and check_ns = ref 0 in
  let traced_frames = ref 0 and traced_ticks = ref 0 in
  let first = ref None in
  let replays = ref 0 in
  let undecodable = ref 0 in
  let start = now () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let trace_from = if traced then start + ((deadline - start) / 2) else max_int in
  let gc_window = Gc_window.start () in
  let gc_frames = ref 0 and gc_done = ref false in
  let prev_done = ref start in
  let n_plain = ref 0 and n_traced = ref 0 in
  (* At least two replays, so the repeat check has something to compare;
     a traced run gets at least two on each side of the switch. *)
  while now () < deadline || !n_plain < 2 || (traced && !n_traced < 2) do
    let t_start = now () in
    let t0 = now () in
    let in_trace = traced && !n_plain >= 2 && t0 >= trace_from in
    if in_trace && not !gc_done then begin
      gc_done := true;
      Gc_window.finish r gc_window ~frames:!gc_frames
    end;
    let frames =
      match Candump.of_string text with
      | Ok (frames, _) -> frames
      | Error e -> failwith ("log text: " ^ e)
    in
    let t1 = now () in
    let trace, skipped = Candump.decode_diagnosed program.dbc frames in
    let t2 = now () in
    let outcomes = Oracle.check ~robust:true program.specs trace in
    let t3 = now () in
    incr replays;
    undecodable := !undecodable + List.length skipped;
    let ok =
      match !first with
      | None ->
        first := Some outcomes;
        true
      | Some o -> compare (List.map comparable o) (List.map comparable outcomes) = 0
    in
    r.attempted <- r.attempted + 1;
    if not ok then begin
      r.failed <- r.failed + 1;
      check r false (Printf.sprintf "replay %d: outcomes differ from replay 1" !replays)
    end;
    let dur = t3 - t0 in
    Samples.add (if in_trace then traced_s else plain_s) (float_of_int dur);
    if in_trace then begin
      let root = Spans.fresh () in
      let request = !replays in
      List.iter
        (fun (name, a, b) ->
          Spans.add ~id:(Spans.fresh ()) ~name ~parent:root ~request ~start_ns:a ~end_ns:b)
        [ ("candump.parse", t0, t1); ("dbc.decode", t1, t2); ("oracle.check", t2, t3) ];
      Spans.add ~id:root ~name:"replay" ~parent:(-1) ~request ~start_ns:t_start
        ~end_ns:(now ());
      parse_ns := !parse_ns + (t1 - t0);
      decode_ns := !decode_ns + (t2 - t1);
      check_ns := !check_ns + (t3 - t2);
      traced_frames := !traced_frames + lines;
      traced_ticks :=
        !traced_ticks + decompose r program (Lazy.force expected) trace ~request;
      incr n_traced
    end
    else begin
      incr n_plain;
      gc_frames := !gc_frames + lines;
      work := (lines, dur) :: !work;
      Samples.add latencies (ms_of_ns dur);
      Samples.add lags (ms_of_ns (t0 - !prev_done))
    end;
    prev_done := now ()
  done;
  if not !gc_done then Gc_window.finish r gc_window ~frames:!gc_frames;
  set_end_to_end r ~work:!work ~latencies:(Samples.to_array latencies);
  set_lags r (Samples.to_array lags);
  (match !first with
   | Some outcomes ->
     if List.map outcome_summary outcomes <> (Lazy.force expected).summary then begin
       r.failed <- r.failed + 1;
       check r false "replay outcomes differ from the naive kernel's verdicts"
     end
   | None -> ());
  set r "dbc.undecodable" (float_of_int !undecodable);
  if traced then begin
    let self = Spans.self_times (Spans.all ()) in
    let ns name = Option.value ~default:0 (Hashtbl.find_opt self name) in
    per r "candump.parse_ns_per_frame" ~ns:!parse_ns ~count:!traced_frames;
    per r "dbc.decode_ns_per_frame" ~ns:!decode_ns ~count:!traced_frames;
    per r "multirate.snapshots_ns_per_tick" ~ns:(ns "multirate.snapshots") ~count:!traced_ticks;
    per r "columns.transpose_ns_per_tick" ~ns:(ns "columns.transpose") ~count:!traced_ticks;
    per r "plan_exec.eval_ns_per_tick" ~ns:(ns "plan_exec.eval") ~count:!traced_ticks;
    per r "plan_exec.eval_robust_ns_per_tick" ~ns:(ns "plan_exec.eval_robust")
      ~count:!traced_ticks;
    per r "oracle.check_ns_per_tick" ~ns:!check_ns ~count:!traced_ticks;
    per r "oracle.aggregate_ns_per_tick"
      ~ns:(!check_ns
           - (ns "multirate.snapshots" + ns "columns.transpose" + ns "plan.compile"
             + ns "plan_exec.eval" + ns "plan_exec.eval_robust"))
      ~count:!traced_ticks;
    set r "layers.coverage" (Spans.coverage (Spans.all ()));
    set r "trace.overhead_ratio"
      (median (Samples.to_array traced_s) /. median (Samples.to_array plain_s))
  end
