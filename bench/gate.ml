(* Bench-regression gate: compare a fresh benchmark JSON against the
   committed baseline and fail on real slowdowns of the monitoring
   kernels.

   Usage: gate.exe BASELINE.json CURRENT.json

   CI runners are not the quiet machine the baselines were recorded on,
   so raw ns/run comparisons would gate on runner speed, not on the code.
   Instead the gate self-normalizes: the median current/baseline ratio
   across *all* workloads shared by the two files estimates the machine
   speed factor, and a gated workload fails only when its own ratio
   exceeds that factor by more than the tolerance — i.e. when it got
   slower *relative to everything else*.  A uniform slowdown (slower
   runner) passes; a kernel-specific one fails.

   A second family of checks never looks at the baseline at all: a
   workload is compared against its twin *within the current run* —
   both numbers come off the same machine seconds apart, so the ratio is
   machine-independent by construction.  [ratio_gates] below lists the
   pairs: robust vs boolean kernels (the price of interval arithmetic),
   the fused plan vs one-root plans per rule (fusing must pay), and the
   fleet with vs without the flight recorder.

   Environment:
     BENCH_GATE_SKIP=1            skip the comparison (escape hatch for
                                  intentional regressions; note it in the
                                  PR description)
     BENCH_GATE_TOLERANCE=30      override the allowed normalized
                                  slowdown, in percent (default 25)
     BENCH_GATE_ROBUST_RATIO=1.8  override the allowed robust/boolean
                                  ratio (default 1.5)
     BENCH_GATE_PLAN_RATIO=0.9    override the allowed fused/per-rule
                                  ratio (default 1.0)
     BENCH_GATE_RECORDER_RATIO=1.2
                                  override the allowed recorder/bare
                                  fleet ratio (default 1.10) *)

(* The benchmark files are machine-written by [write_json] in
   bench/main.ml — one fixed shape, no arrays, no nesting below two
   levels — so a tiny recursive-descent JSON reader suffices and keeps
   the gate dependency-free. *)

type json =
  | Obj of (string * json) list
  | Str of string
  | Num of float
  | Null

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | c -> Buffer.add_char b c);
        advance ();
        go ()
      | '\255' -> fail "unterminated string"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while num_char (peek ()) do advance () done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); Obj [])
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((key, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | '"' -> Str (parse_string ())
    | 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
        pos := !pos + 4;
        Null
      end
      else fail "bad literal"
    | c when c = '-' || (c >= '0' && c <= '9') -> Num (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* name -> ns/run, skipping nulls (workloads that failed to measure). *)
let results_of_file path =
  let toplevel =
    match parse_json (read_file path) with
    | Obj fields -> fields
    | _ -> failwith (path ^ ": top level is not an object")
  in
  match List.assoc_opt "results" toplevel with
  | Some (Obj entries) ->
    List.filter_map
      (fun (name, v) ->
        match v with Num ns -> Some (name, ns) | _ -> None)
      entries
  | _ -> failwith (path ^ ": no \"results\" object")

(* The workloads the gate protects: the evaluation kernels this repo is
   about.  Missing entries are fine (quick mode drops the 600 s traces);
   the gate errors only if none of them are measured at all. *)
let gated =
  [ "cps_monitor/mtl/online_long_trace_60s";
    "cps_monitor/mtl/online_long_trace_600s";
    "cps_monitor/mtl/offline_long_trace_60s";
    "cps_monitor/mtl/offline_long_trace_600s";
    "cps_monitor/mtl/offline_robust_60s";
    "cps_monitor/mtl/offline_robust_600s";
    "cps_monitor/mtl/online_robust_60s";
    "cps_monitor/mtl/online_robust_600s";
    "cps_monitor/monitor/offline_all_7_rules";
    "cps_monitor/monitor/set_all_7_rules_online";
    "cps_monitor/plan/set_all_7_rules";
    "cps_monitor/plan/set_all_7_rules_online";
    "cps_monitor/multirate/spacing_and_deltas";
    "cps_monitor/fleet/ingest_1k_sessions";
    "cps_monitor/fleet/ingest_1k_sessions_recorder" ]

(* Within-run ratio gates: (workload, twin, env override, default limit,
   label).  Each workload may cost at most [limit] times its twin from
   the same file; pairs whose members were not measured (quick mode
   drops the 600 s traces) are skipped.

   - robust vs boolean: interval arithmetic may cost at most 1.5x the
     verdict lattice;
   - fused plan vs per-rule: the fused traversal must not cost more than
     running the rules one at a time, or the plan has no point;
   - recorder on vs off: the flight recorder's ring pushes and tick
     digests may cost at most 10% of the bare fleet lifecycle. *)
let ratio_gates =
  let robust w b =
    ( "cps_monitor/mtl/" ^ w, "cps_monitor/mtl/" ^ b,
      "BENCH_GATE_ROBUST_RATIO", 1.5, "of boolean    " )
  in
  [ robust "offline_robust_60s" "offline_long_trace_60s";
    robust "online_robust_60s" "online_long_trace_60s";
    robust "offline_robust_600s" "offline_long_trace_600s";
    robust "online_robust_600s" "online_long_trace_600s";
    ( "cps_monitor/plan/set_all_7_rules",
      "cps_monitor/monitor/offline_all_7_rules",
      "BENCH_GATE_PLAN_RATIO", 1.0, "of per-rule   " );
    ( "cps_monitor/plan/set_all_7_rules_online",
      "cps_monitor/monitor/set_all_7_rules_online",
      "BENCH_GATE_PLAN_RATIO", 1.0, "of per-rule   " );
    ( "cps_monitor/fleet/ingest_1k_sessions_recorder",
      "cps_monitor/fleet/ingest_1k_sessions",
      "BENCH_GATE_RECORDER_RATIO", 1.10, "of bare fleet " ) ]

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median of empty array"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let () =
  (match Sys.getenv_opt "BENCH_GATE_SKIP" with
  | Some ("" | "0") | None -> ()
  | Some _ ->
    print_endline "bench gate: BENCH_GATE_SKIP set, skipping comparison";
    exit 0);
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
      prerr_endline "usage: gate.exe BASELINE.json CURRENT.json";
      exit 2
  in
  let tolerance =
    match Sys.getenv_opt "BENCH_GATE_TOLERANCE" with
    | None -> 0.25
    | Some s -> (
      match float_of_string_opt s with
      | Some pct when pct >= 0.0 -> pct /. 100.0
      | _ ->
        prerr_endline "bench gate: BENCH_GATE_TOLERANCE must be a percentage";
        exit 2)
  in
  let baseline = results_of_file baseline_path in
  let current = results_of_file current_path in
  let shared =
    List.filter_map
      (fun (name, cur) ->
        match List.assoc_opt name baseline with
        | Some base when base > 0.0 -> Some (name, base, cur)
        | _ -> None)
      current
  in
  if shared = [] then begin
    prerr_endline "bench gate: no workloads shared with the baseline";
    exit 2
  end;
  let speed =
    median (Array.of_list (List.map (fun (_, b, c) -> c /. b) shared))
  in
  Printf.printf
    "bench gate: %d shared workloads, machine speed factor %.2fx, \
     tolerance %.0f%%\n"
    (List.length shared) speed (tolerance *. 100.0);
  let checked = ref 0 in
  let failed = ref [] in
  List.iter
    (fun name ->
      match
        List.find_opt (fun (n, _, _) -> String.equal n name) shared
      with
      | None -> Printf.printf "  -         (not measured)  %s\n" name
      | Some (_, base, cur) ->
        incr checked;
        (* Normalized ratio 1.0 = "moved exactly with the machine". *)
        let norm = cur /. base /. speed in
        let verdict = if norm > 1.0 +. tolerance then "FAIL" else "ok" in
        if norm > 1.0 +. tolerance then failed := name :: !failed;
        Printf.printf "  %-4s %6.2fx normalized  %s (%.2f ms -> %.2f ms)\n"
          verdict norm name (base /. 1e6) (cur /. 1e6))
    gated;
  if !checked = 0 then begin
    prerr_endline "bench gate: none of the gated workloads were measured";
    exit 2
  end;
  let limit_of env default =
    match Sys.getenv_opt env with
    | None -> default
    | Some s -> (
      match float_of_string_opt s with
      | Some r when r > 0.0 -> r
      | _ ->
        Printf.eprintf "bench gate: %s must be a number\n" env;
        exit 2)
  in
  List.iter
    (fun (name, twin, env, default, label) ->
      let limit = limit_of env default in
      match (List.assoc_opt name current, List.assoc_opt twin current) with
      | Some cur, Some base when base > 0.0 ->
        let ratio = cur /. base in
        let verdict = if ratio > limit then "FAIL" else "ok" in
        if ratio > limit then failed := name :: !failed;
        Printf.printf "  %-4s %6.2fx %s %s (limit %.2fx)\n" verdict ratio label
          name limit
      | _ -> Printf.printf "  -         (pair not measured)  %s\n" name)
    ratio_gates;
  if !failed <> [] then begin
    Printf.eprintf
      "bench gate: %d workload(s) regressed beyond the machine speed factor \
       or a within-run ratio limit\n"
      (List.length !failed);
    Printf.eprintf
      "  (intentional? re-record the baseline or set BENCH_GATE_SKIP=1 \
       with a note in the PR)\n";
    exit 1
  end;
  print_endline "bench gate: ok"
