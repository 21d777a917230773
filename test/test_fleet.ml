(* The fleet stream server: per-session byte-determinism against the
   single-session oracle, fault isolation (a crashing session must not
   perturb its neighbours), overload accounting, watchdog degradation and
   graceful drain — plus the chaos property that ties them together. *)

module Fleet = Monitor_fleet.Fleet
module Spec = Monitor_mtl.Spec
module Parser = Monitor_mtl.Parser
module Value = Monitor_signal.Value
module Pool = Monitor_util.Pool
module Prng = Monitor_util.Prng

let spec name src = Spec.make ~name (Parser.formula_of_string_exn src)

let specs =
  [ spec "speed_cap" "Speed <= 30.0";
    spec "brake_slows" "Brake -> eventually[0.0, 0.05] Speed < 25.0" ]

(* Deterministic per-session schedule: [ticks] frames at 10 ms carrying a
   speed random walk and a brake flag, both drawn from a VIN-derived
   stream. *)
let schedule ~seed ~session ~ticks =
  let g = Prng.create (Prng.derive seed session) in
  let speed = ref (20.0 +. Prng.float g 10.0) in
  List.init ticks (fun k ->
      speed := !speed +. Prng.float g 4.0 -. 2.0;
      let updates =
        ("Speed", Value.Float !speed)
        ::
        (if Prng.bool g then [ ("Brake", Value.Bool (Prng.bool g)) ] else [])
      in
      (float_of_int k *. 0.01, updates))

let vin i = Printf.sprintf "VIN%05d" i

(* Ingest all sessions' schedules interleaved tick by tick (the bus
   order a fleet gateway would see), pumping every few batches.  Returns
   what each session actually received: frames admitted and not shed. *)
let run_fleet ?pool ~config ~schedules () =
  let fleet = Fleet.create ?pool config in
  let delivered = Hashtbl.create 16 in
  let note_admit (f : Fleet.frame) =
    Hashtbl.replace delivered f.Fleet.vin
      (f :: Option.value ~default:[] (Hashtbl.find_opt delivered f.Fleet.vin))
  in
  let note_shed (f : Fleet.frame) =
    (* The victim is the very frame record we ingested earlier — remove
       it (by physical identity) from that session's delivered list. *)
    let kept =
      List.filter (fun g -> g != f)
        (Option.value ~default:[] (Hashtbl.find_opt delivered f.Fleet.vin))
    in
    Hashtbl.replace delivered f.Fleet.vin kept
  in
  let max_ticks =
    List.fold_left (fun m (_, sched) -> max m (List.length sched)) 0 schedules
  in
  for k = 0 to max_ticks - 1 do
    List.iter
      (fun (v, sched) ->
        match List.nth_opt sched k with
        | None -> ()
        | Some (time, updates) ->
          let frame = { Fleet.vin = v; time; updates } in
          (match Fleet.ingest fleet frame with
          | `Accepted -> note_admit frame
          | `Shed victim ->
            note_admit frame;
            note_shed victim
          | `Rejected -> ()))
      schedules;
    if k mod 4 = 3 then Fleet.pump fleet
  done;
  let summary = Fleet.shutdown fleet in
  let delivered_of v =
    List.rev_map
      (fun (f : Fleet.frame) -> (f.Fleet.time, f.Fleet.updates))
      (Option.value ~default:[] (Hashtbl.find_opt delivered v))
  in
  (summary, delivered_of)

let find_session (summary : Fleet.summary) v =
  match
    List.find_opt (fun r -> r.Fleet.s_vin = v) summary.Fleet.sessions
  with
  | Some r -> r
  | None -> Alcotest.failf "session %s missing from summary" v

let check_matches_isolated ?(msg = "stream") (row : Fleet.session_summary)
    updates =
  let stream, digest = Fleet.isolated_stream ~specs updates in
  (match row.Fleet.s_stream with
  | Some s ->
    Alcotest.(check string)
      (Printf.sprintf "%s: %s bytes" row.Fleet.s_vin msg)
      stream s
  | None -> ());
  Alcotest.(check int)
    (Printf.sprintf "%s: %s digest" row.Fleet.s_vin msg)
    digest row.Fleet.s_digest

(* 1000 concurrent sessions, each byte-identical to the single-session
   online oracle over its own frames — the acceptance bar. *)
let test_thousand_sessions_match_isolated () =
  let n = 1000 in
  let schedules =
    List.init n (fun i -> (vin i, schedule ~seed:7L ~session:i ~ticks:30))
  in
  let config = { (Fleet.default_config ~specs) with overload = Fleet.Block } in
  let summary, delivered_of = run_fleet ~config ~schedules () in
  Alcotest.(check int) "all sessions present" n
    (List.length summary.Fleet.sessions);
  Alcotest.(check int) "nothing shed" 0 summary.Fleet.shed_total;
  List.iter
    (fun (row : Fleet.session_summary) ->
      (match row.Fleet.s_disposition with
      | Fleet.Served -> ()
      | _ -> Alcotest.failf "%s not served" row.Fleet.s_vin);
      check_matches_isolated row (delivered_of row.Fleet.s_vin))
    summary.Fleet.sessions

(* Same fleet, pool of 2 workers vs no pool: the whole summary renders
   byte-identically. *)
let test_parallel_matches_sequential () =
  let schedules =
    List.init 200 (fun i -> (vin i, schedule ~seed:11L ~session:i ~ticks:25))
  in
  let config =
    { (Fleet.default_config ~specs) with queue_capacity = 64; shards = 4 }
  in
  let seq, _ = run_fleet ~config ~schedules () in
  let par, _ =
    Pool.with_pool ~num_domains:2 (fun pool ->
        run_fleet ~pool ~config ~schedules ())
  in
  Alcotest.(check string)
    "summary bytes identical at -j2"
    (Fleet.render_summary ~max_sessions:max_int seq)
    (Fleet.render_summary ~max_sessions:max_int par);
  List.iter2
    (fun (a : Fleet.session_summary) (b : Fleet.session_summary) ->
      Alcotest.(check (option string))
        (a.Fleet.s_vin ^ " stream") a.Fleet.s_stream b.Fleet.s_stream)
    seq.Fleet.sessions par.Fleet.sessions

(* Killing one session mid-run leaves every other session byte-identical
   to its isolated run, and the victim is reported, not lost. *)
let test_crash_isolation () =
  let n = 50 in
  let victim = vin 17 in
  let schedules =
    List.init n (fun i -> (vin i, schedule ~seed:3L ~session:i ~ticks:20))
  in
  let config =
    { (Fleet.default_config ~specs) with
      overload = Fleet.Block;
      max_restarts = 0;
      inject_fault =
        Some
          (fun ~vin ~tick ->
            if vin = victim && tick = 7 then failwith "injected chaos crash") }
  in
  let summary, delivered_of = run_fleet ~config ~schedules () in
  let row = find_session summary victim in
  (match row.Fleet.s_disposition with
  | Fleet.Evicted_faulted f ->
    Alcotest.(check bool)
      "fault text captured" true
      (String.length f.Fleet.f_exn > 0)
  | _ -> Alcotest.fail "victim should be permanently evicted");
  Alcotest.(check int) "one quarantine" 1 summary.Fleet.quarantines_total;
  List.iter
    (fun (row : Fleet.session_summary) ->
      if row.Fleet.s_vin <> victim then begin
        (match row.Fleet.s_disposition with
        | Fleet.Served -> ()
        | _ -> Alcotest.failf "%s perturbed by the crash" row.Fleet.s_vin);
        check_matches_isolated row (delivered_of row.Fleet.s_vin)
      end)
    summary.Fleet.sessions

(* A frame stamped at an infinite time would have the session's feed cut
   ticks forever; the feed refuses it, so the session is quarantined and
   its shard keeps serving the others. *)
let test_non_finite_time_quarantines () =
  let victim = vin 3 in
  let schedules =
    List.init 6 (fun i ->
        let sched = schedule ~seed:9L ~session:i ~ticks:20 in
        let stamp k (t, u) = ((if k = 10 then infinity else t), u) in
        (vin i, if vin i = victim then List.mapi stamp sched else sched))
  in
  let config =
    { (Fleet.default_config ~specs) with
      overload = Fleet.Block;
      max_restarts = 0 }
  in
  let summary, delivered_of = run_fleet ~config ~schedules () in
  (match (find_session summary victim).Fleet.s_disposition with
  | Fleet.Evicted_faulted f ->
    Alcotest.(check bool) "non-finite time named" true
      (Test_obs.contains ~needle:"non-finite" f.Fleet.f_exn)
  | _ -> Alcotest.fail "victim should be evicted for its infinite time");
  List.iter
    (fun (row : Fleet.session_summary) ->
      if row.Fleet.s_vin <> victim then
        check_matches_isolated row (delivered_of row.Fleet.s_vin))
    summary.Fleet.sessions

(* A crashed session restarts after its deterministic backoff and is
   served to the end; the fault stays on the record. *)
let test_restart_after_backoff () =
  let v = vin 0 in
  let schedules = [ (v, schedule ~seed:5L ~session:0 ~ticks:40) ] in
  let config =
    { (Fleet.default_config ~specs) with
      backoff_base = 0.005;
      max_restarts = 2;
      inject_fault =
        Some
          (fun ~vin:_ ~tick ->
            if tick = 5 then failwith "transient session fault") }
  in
  let summary, _ = run_fleet ~config ~schedules () in
  let row = find_session summary v in
  (match row.Fleet.s_disposition with
  | Fleet.Served -> ()
  | _ -> Alcotest.fail "session should have been restarted and served");
  Alcotest.(check int) "one restart" 1 row.Fleet.s_restarts;
  Alcotest.(check int) "fault recorded" 1 (List.length row.Fleet.s_faults);
  Alcotest.(check bool) "kept monitoring after restart" true
    (row.Fleet.s_ticks > 10)

(* Crashing on every tick exhausts the restart budget: permanent
   eviction, later frames dropped and counted. *)
let test_eviction_after_restart_budget () =
  let v = vin 0 in
  let schedules = [ (v, schedule ~seed:5L ~session:0 ~ticks:40) ] in
  let config =
    { (Fleet.default_config ~specs) with
      backoff_base = 0.005;
      max_restarts = 1;
      inject_fault = Some (fun ~vin:_ ~tick:_ -> failwith "hard fault") }
  in
  let summary, _ = run_fleet ~config ~schedules () in
  let row = find_session summary v in
  (match row.Fleet.s_disposition with
  | Fleet.Evicted_faulted _ -> ()
  | _ -> Alcotest.fail "restart budget exhausted should evict");
  Alcotest.(check int) "restarts = budget" 1 row.Fleet.s_restarts;
  Alcotest.(check int) "both faults on record" 2
    (List.length row.Fleet.s_faults);
  Alcotest.(check bool) "frames after eviction counted as dropped" true
    (row.Fleet.s_dropped > 0)

(* Shed_oldest: victims are returned to the caller, counted against
   their session, and the survivors still match the isolated oracle over
   exactly the frames that were not shed. *)
let test_shed_accounting () =
  let v = "VICTIM" in
  let frames =
    List.init 5 (fun k ->
        { Fleet.vin = v;
          time = float_of_int k *. 0.01;
          updates = [ ("Speed", Value.Float (float_of_int k)) ] })
  in
  let config =
    { (Fleet.default_config ~specs) with shards = 1; queue_capacity = 2 }
  in
  let fleet = Fleet.create config in
  let shed = ref [] in
  List.iter
    (fun f ->
      match Fleet.ingest fleet f with
      | `Accepted -> ()
      | `Shed victim -> shed := victim :: !shed
      | `Rejected -> Alcotest.fail "Shed_oldest never rejects")
    frames;
  Alcotest.(check (list (float 0.0)))
    "oldest three shed, in order" [ 0.0; 0.01; 0.02 ]
    (List.rev_map (fun (f : Fleet.frame) -> f.Fleet.time) !shed);
  let summary = Fleet.shutdown fleet in
  let row = find_session summary v in
  Alcotest.(check int) "session shed count" 3 row.Fleet.s_shed;
  Alcotest.(check int) "delivered the survivors" 2 row.Fleet.s_frames;
  Alcotest.(check int) "fleet shed total" 3 summary.Fleet.shed_total;
  check_matches_isolated ~msg:"survivors" row
    (List.filter_map
       (fun (f : Fleet.frame) ->
         if List.exists (fun g -> g == f) !shed then None
         else Some (f.Fleet.time, f.Fleet.updates))
       frames)

(* A VIN whose only frames were shed before any was processed still
   appears in the summary — drops are never silently lost. *)
let test_shed_before_first_processing_is_reported () =
  let config =
    { (Fleet.default_config ~specs) with shards = 1; queue_capacity = 1 }
  in
  let fleet = Fleet.create config in
  let f b = { Fleet.vin = b; time = 0.0; updates = [] } in
  (match Fleet.ingest fleet (f "B") with
  | `Accepted -> ()
  | _ -> Alcotest.fail "first frame admitted");
  (match Fleet.ingest fleet (f "C") with
  | `Shed victim -> Alcotest.(check string) "B was shed" "B" victim.Fleet.vin
  | _ -> Alcotest.fail "queue of 1 must shed");
  let summary = Fleet.shutdown fleet in
  let row = find_session summary "B" in
  Alcotest.(check int) "phantom session shed count" 1 row.Fleet.s_shed;
  Alcotest.(check int) "no frames ever delivered" 0 row.Fleet.s_frames

let test_reject_policy () =
  let config =
    { (Fleet.default_config ~specs) with
      shards = 1;
      queue_capacity = 2;
      overload = Fleet.Reject }
  in
  let fleet = Fleet.create config in
  let f k =
    { Fleet.vin = "A"; time = float_of_int k *. 0.01; updates = [] }
  in
  (match Fleet.ingest fleet (f 0), Fleet.ingest fleet (f 1) with
  | `Accepted, `Accepted -> ()
  | _ -> Alcotest.fail "first two admitted");
  (match Fleet.ingest fleet (f 2) with
  | `Rejected -> ()
  | _ -> Alcotest.fail "full queue must reject");
  let summary = Fleet.shutdown fleet in
  Alcotest.(check int) "rejected counted" 1 summary.Fleet.rejected_total;
  Alcotest.(check int) "queue kept" 2 (find_session summary "A").Fleet.s_frames

let test_block_policy_loses_nothing () =
  let config =
    { (Fleet.default_config ~specs) with
      shards = 1;
      queue_capacity = 2;
      overload = Fleet.Block }
  in
  let fleet = Fleet.create config in
  List.iter
    (fun k ->
      match
        Fleet.ingest fleet
          { Fleet.vin = "A";
            time = float_of_int k *. 0.01;
            updates = [ ("Speed", Value.Float 1.0) ] }
      with
      | `Accepted -> ()
      | _ -> Alcotest.fail "Block always accepts")
    (List.init 7 Fun.id);
  let summary = Fleet.shutdown fleet in
  Alcotest.(check bool) "overflow flushed inline" true
    (summary.Fleet.blocked_flushes > 0);
  Alcotest.(check int) "every frame delivered" 7
    (find_session summary "A").Fleet.s_frames

(* Watchdog: a silent session's held signals outlive their staleness
   deadline under [advance], so verdicts degrade to Unknown instead of
   confidently extrapolating a dead stream. *)
let test_watchdog_degrades_to_unknown () =
  let config =
    { (Fleet.default_config ~specs) with
      periods = (fun _ -> Some 0.01);
      watchdog_k = 3.0 }
  in
  let fleet = Fleet.create config in
  for k = 0 to 5 do
    match
      Fleet.ingest fleet
        { Fleet.vin = "A";
          time = float_of_int k *. 0.01;
          updates = [ ("Speed", Value.Float 20.0); ("Brake", Value.Bool false) ] }
    with
    | `Accepted -> ()
    | _ -> Alcotest.fail "admitted"
  done;
  Fleet.pump fleet;
  Fleet.advance fleet ~now:0.5;
  let summary = Fleet.shutdown fleet in
  let row = find_session summary "A" in
  Alcotest.(check bool) "ticks kept coming without frames" true
    (row.Fleet.s_ticks > 20);
  Alcotest.(check bool) "stale ticks are Unknown" true
    (row.Fleet.s_unknown > 10);
  Alcotest.(check bool) "availability degraded" true
    (row.Fleet.s_availability < 1.0)

let test_idle_session_reaped () =
  let config =
    { (Fleet.default_config ~specs) with evict_idle_after = Some 0.1 }
  in
  let fleet = Fleet.create config in
  let send v time =
    match
      Fleet.ingest fleet
        { Fleet.vin = v; time; updates = [ ("Speed", Value.Float 1.0) ] }
    with
    | `Accepted -> ()
    | _ -> Alcotest.fail "admitted"
  in
  send "DEAD" 0.0;
  send "DEAD" 0.01;
  send "LIVE" 0.0;
  Fleet.pump fleet;
  Alcotest.(check int) "both live" 2 (Fleet.live_sessions fleet);
  send "LIVE" 0.3;
  Fleet.pump fleet;
  Fleet.advance fleet ~now:0.3;
  Alcotest.(check int) "idle session reaped" 1 (Fleet.live_sessions fleet);
  let summary = Fleet.shutdown fleet in
  (match (find_session summary "DEAD").Fleet.s_disposition with
  | Fleet.Evicted_idle last ->
    Alcotest.(check (float 1e-9)) "last frame time" 0.01 last
  | _ -> Alcotest.fail "DEAD should be evicted as idle");
  match (find_session summary "LIVE").Fleet.s_disposition with
  | Fleet.Served -> ()
  | _ -> Alcotest.fail "LIVE must survive the sweep"

let test_shutdown_idempotent_and_closes_intake () =
  let config = Fleet.default_config ~specs in
  let fleet = Fleet.create config in
  (match
     Fleet.ingest fleet
       { Fleet.vin = "A"; time = 0.0; updates = [ ("Speed", Value.Float 1.0) ] }
   with
  | `Accepted -> ()
  | _ -> Alcotest.fail "admitted");
  let first = Fleet.shutdown fleet in
  let second = Fleet.shutdown fleet in
  Alcotest.(check bool) "same summary object" true (first == second);
  match
    Fleet.ingest fleet
      { Fleet.vin = "A"; time = 1.0; updates = [ ("Speed", Value.Float 1.0) ] }
  with
  | `Rejected -> ()
  | _ -> Alcotest.fail "intake must be closed after shutdown"

(* The chaos property (qcheck): random frame schedules x random injected
   crashes x random overload policy — and every surviving session's
   verdict stream is byte-identical to the same frames run fault-free in
   isolation, with and without worker domains. *)
let chaos_property =
  let gen =
    QCheck.Gen.(
      let* n_sessions = int_range 2 4 in
      let* seed = int_range 1 10_000 in
      let* policy = oneofl [ Fleet.Block; Fleet.Shed_oldest; Fleet.Reject ] in
      let* capacity = int_range 1 8 in
      let* shards = int_range 1 3 in
      let* crashes =
        list_size (int_range 0 n_sessions)
          (pair (int_range 0 (n_sessions - 1)) (int_range 0 25))
      in
      return (n_sessions, seed, policy, capacity, shards, crashes))
  in
  let print (n, seed, policy, capacity, shards, crashes) =
    Printf.sprintf "sessions=%d seed=%d policy=%s capacity=%d shards=%d crashes=%s"
      n seed
      (match policy with
      | Fleet.Block -> "block"
      | Fleet.Shed_oldest -> "shed"
      | Fleet.Reject -> "reject")
      capacity shards
      (String.concat ","
         (List.map (fun (s, t) -> Printf.sprintf "%d@%d" s t) crashes))
  in
  QCheck.Test.make ~count:25
    ~name:"chaos: surviving sessions match isolated runs at -j1 and -j2"
    (QCheck.make ~print gen)
    (fun (n_sessions, seed, policy, capacity, shards, crashes) ->
      let schedules =
        List.init n_sessions (fun i ->
            ( vin i,
              schedule ~seed:(Int64.of_int seed) ~session:i
                ~ticks:(5 + ((seed + i) mod 21)) ))
      in
      let config =
        { (Fleet.default_config ~specs) with
          overload = policy;
          queue_capacity = capacity;
          shards;
          backoff_base = 0.005;
          max_restarts = 1;
          seed = Int64.of_int seed;
          inject_fault =
            Some
              (fun ~vin:v ~tick ->
                if
                  List.exists
                    (fun (s, t) -> vin s = v && t = tick)
                    crashes
                then failwith "chaos crash") }
      in
      let run pool = run_fleet ?pool ~config ~schedules () in
      let seq_summary, seq_delivered = run None in
      let par_summary, _ =
        Pool.with_pool ~num_domains:2 (fun pool -> run (Some pool))
      in
      let render s = Fleet.render_summary ~max_sessions:max_int s in
      if render seq_summary <> render par_summary then
        QCheck.Test.fail_report "parallel and sequential summaries differ";
      List.iter
        (fun (row : Fleet.session_summary) ->
          match row.Fleet.s_disposition with
          | Fleet.Served
            when row.Fleet.s_restarts = 0
                 && row.Fleet.s_faults = []
                 && row.Fleet.s_dropped = 0 ->
            let stream, digest =
              Fleet.isolated_stream ~specs (seq_delivered row.Fleet.s_vin)
            in
            if row.Fleet.s_digest <> digest then
              QCheck.Test.fail_reportf "%s: digest mismatch" row.Fleet.s_vin;
            (match row.Fleet.s_stream with
            | Some s when s <> stream ->
              QCheck.Test.fail_reportf
                "%s: verdict stream differs from isolated run\nfleet:\n%s\nisolated:\n%s"
                row.Fleet.s_vin s stream
            | _ -> ())
          | _ -> ())
        seq_summary.Fleet.sessions;
      true)

let suite =
  [ ( "fleet",
      [ Alcotest.test_case "1000 sessions match isolated oracle" `Slow
          test_thousand_sessions_match_isolated;
        Alcotest.test_case "parallel run renders identically" `Quick
          test_parallel_matches_sequential;
        Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
        Alcotest.test_case "non-finite frame time quarantines" `Quick
          test_non_finite_time_quarantines;
        Alcotest.test_case "restart after backoff" `Quick
          test_restart_after_backoff;
        Alcotest.test_case "eviction after restart budget" `Quick
          test_eviction_after_restart_budget;
        Alcotest.test_case "shed accounting" `Quick test_shed_accounting;
        Alcotest.test_case "shed-only VIN reported" `Quick
          test_shed_before_first_processing_is_reported;
        Alcotest.test_case "reject policy" `Quick test_reject_policy;
        Alcotest.test_case "block policy loses nothing" `Quick
          test_block_policy_loses_nothing;
        Alcotest.test_case "watchdog degrades to Unknown" `Quick
          test_watchdog_degrades_to_unknown;
        Alcotest.test_case "idle session reaped" `Quick test_idle_session_reaped;
        Alcotest.test_case "shutdown idempotent" `Quick
          test_shutdown_idempotent_and_closes_intake;
        QCheck_alcotest.to_alcotest chaos_property ] ) ]
