(* The two fleet workloads: candump text for many vehicles, parsed,
   decoded, ingested and pumped through one stream server.

   fleet_saturate is a closed loop: the next 10 ms batch is issued as soon
   as the previous pump returns, so it measures the serving path's cost
   per frame with every diagnostic side path off.  fleet_live is an open
   loop: batches are released on the bus's own 10 ms schedule whatever the
   server is doing, so a stall delays every batch behind it, and the
   operator's diagnostics (flight recorder, robust gauges, status
   document) are on. *)

open Common
module Fleet = Monitor_fleet.Fleet
module Recorder = Monitor_fleet.Recorder
module Candump = Monitor_can.Candump
module Oracle = Monitor_oracle.Oracle
module Online = Monitor_mtl.Online
module Robust = Monitor_mtl.Robust
module Feed = Monitor_trace.Multirate.Feed

type kind = Saturate | Live

let config kind program ~seed ~dir =
  let base = Fleet.default_config ~specs:program.specs in
  let live = kind = Live in
  { base with
    Fleet.periods = Dbc.signal_period program.dbc;
    seed;
    overload = (if live then Fleet.Shed_oldest else Fleet.Block);
    record_verdicts = false;
    robust_gauges = live;
    publish_status = live;
    recorder = (if live then Some (Recorder.default_config ~dir) else None) }

let lines text =
  List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))

(* Accumulated layer times and counts over the batches of one half of a
   run (the untraced half, or the traced half). *)
type layers = {
  mutable frames : int;
  mutable parse_ns : int;
  mutable decode_ns : int;
  mutable ingest_ns : int;
  mutable pump_ns : int;
  mutable shutdown_ns : int;
  mutable sessions_shut : int;
}

let new_layers () =
  { frames = 0; parse_ns = 0; decode_ns = 0; ingest_ns = 0;
    pump_ns = 0; shutdown_ns = 0; sessions_shut = 0 }

type counters = {
  mutable rejected_lines : int;
  mutable undecodable : int;
  mutable shed : int;
  mutable refused : int;
}

(* One batch, layer after layer, so each layer is one contiguous span:
   parse every vehicle's lines, decode every frame, ingest every frame,
   then one pump.  Returns the frame count and the pump's return time. *)
let process_batch fleet program (traffic : Inputs.traffic) counters layers
    ~span batch =
  let t0 = now () in
  let parsed = Array.map (fun (v, text) -> (v, text, Candump.of_string text)) batch in
  let t1 = now () in
  let frames = ref 0 in
  let decoded =
    Array.map
      (fun (v, text, parsed) ->
        match parsed with
        | Ok (lines, _) ->
          List.map
            (fun (time, frame) ->
              incr frames;
              let updates = Dbc.decode_frame program.dbc frame in
              if updates = [] then counters.undecodable <- counters.undecodable + 1;
              { Fleet.vin = traffic.Inputs.vins.(v); time; updates })
            lines
        | Error _ ->
          counters.rejected_lines <- counters.rejected_lines + lines text;
          [])
      parsed
  in
  let t2 = now () in
  Array.iter
    (List.iter (fun f ->
         match Fleet.ingest fleet f with
         | `Accepted -> ()
         | `Shed _ -> counters.shed <- counters.shed + 1
         | `Rejected -> counters.refused <- counters.refused + 1))
    decoded;
  let t3 = now () in
  Fleet.pump fleet;
  let t4 = now () in
  layers.frames <- layers.frames + !frames;
  layers.parse_ns <- layers.parse_ns + (t1 - t0);
  layers.decode_ns <- layers.decode_ns + (t2 - t1);
  layers.ingest_ns <- layers.ingest_ns + (t3 - t2);
  layers.pump_ns <- layers.pump_ns + (t4 - t3);
  Option.iter
    (fun (parent, request) ->
      List.iter
        (fun (name, a, b) ->
          Spans.add ~id:(Spans.fresh ()) ~name ~parent ~request ~start_ns:a ~end_ns:b)
        [ ("candump.parse", t0, t1); ("dbc.decode", t1, t2); ("fleet.ingest", t2, t3);
          ("fleet.pump", t3, t4) ])
    span;
  (!frames, t4)

let shutdown fleet layers ~traced ~request =
  let root = if traced then Spans.fresh () else -1 in
  let t_start = now () in
  let t0 = now () in
  let summary = Fleet.shutdown fleet in
  let t1 = now () in
  layers.shutdown_ns <- layers.shutdown_ns + (t1 - t0);
  layers.sessions_shut <- layers.sessions_shut + List.length summary.Fleet.sessions;
  if traced then begin
    Spans.add ~id:(Spans.fresh ()) ~name:"fleet.shutdown" ~parent:root ~request
      ~start_ns:t0 ~end_ns:t1;
    Spans.add ~id:root ~name:"drain" ~parent:(-1) ~request ~start_ns:t_start
      ~end_ns:(now ())
  end;
  summary

(* The frames one vehicle was delivered, as the fleet received them. *)
let delivered program traffic ~vin ~upto =
  match Candump.of_string (Inputs.vin_text traffic ~vin ~upto) with
  | Ok (frames, _) ->
    List.map (fun (time, f) -> (time, Dbc.decode_frame program.dbc f)) frames
  | Error e -> failwith ("probe VIN text: " ^ e)

(* Correctness of one fleet lifetime: the frame totals add up, and each
   probe vehicle's verdict digest equals the single-session reference
   over exactly the frames it was delivered. *)
let check_pass r program traffic ~probe ~summary ~upto ~frames_fed =
  check r (summary.Fleet.frames_total = frames_fed)
    (Printf.sprintf "fleet admitted %d frames, %d were fed"
       summary.Fleet.frames_total frames_fed);
  let sum = List.fold_left (fun a s -> a + s.Fleet.s_frames) 0 summary.Fleet.sessions in
  check r (sum = frames_fed)
    (Printf.sprintf "sessions saw %d frames, %d were fed" sum frames_fed);
  let by_vin = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_vin s.Fleet.s_vin s) summary.Fleet.sessions;
  Array.iter
    (fun v ->
      let vin = traffic.Inputs.vins.(v) in
      let frames = delivered program traffic ~vin:v ~upto in
      let _, digest =
        Fleet.isolated_stream ~periods:(Dbc.signal_period program.dbc)
          ~specs:program.specs frames
      in
      let ok =
        match Hashtbl.find_opt by_vin vin with
        | Some s ->
          s.Fleet.s_digest = digest
          && s.Fleet.s_frames = List.length frames
          && s.Fleet.s_restarts = 0 && s.Fleet.s_shed = 0 && s.Fleet.s_dropped = 0
        | None -> frames = []
      in
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        check r false (vin ^ ": verdict digest differs from the isolated session")
      end)
    probe

(* The session probe: a few vehicles' streams replayed through the same
   public calls a fleet session makes — snapshot cut, fused plan advance,
   and for the live configuration the robust gauges and the recorder —
   each timed on its own.  What the pump costs beyond these is the
   fleet's own bookkeeping (session lookup, queues, verdict digests). *)
let session_probe r kind program traffic ~probe ~upto ~dir ~pump_ns_per_frame =
  let periods = Dbc.signal_period program.dbc in
  let staleness = Oracle.stale_deadlines ~k:3.0 ~periods in
  let wrapped = List.map (fun s -> Spec.stale_guarded s) program.specs in
  let plan = Plan.compile wrapped in
  let frames = ref 0 and ticks = ref 0 in
  let observe_ns = ref 0 and step_ns = ref 0 and robust_ns = ref 0 in
  let record_frame_ns = ref 0 and record_tick_ns = ref 0 in
  Array.iter
    (fun v ->
      let stream = delivered program traffic ~vin:v ~upto in
      let shared = Online.shared_for wrapped in
      let feed = Feed.create ~staleness ~period:Inputs.period () in
      let fused = Online.Fused.create ~shared plan in
      let robust =
        if kind = Live then
          Array.of_list (List.map (fun s -> Robust.Online.create ~shared s) wrapped)
        else [||]
      in
      let recorder =
        if kind = Live then Some (Recorder.create (Recorder.default_config ~dir))
        else None
      in
      let step snap =
        let a = now () in
        Online.Fused.step_iter fused snap (fun _ _ _ _ -> ());
        let b = now () in
        step_ns := !step_ns + (b - a);
        incr ticks;
        (* The live configuration's extra per-tick work. *)
        Option.iter
          (fun rc ->
            Array.iter (fun m -> Robust.Online.step_iter m snap (fun _ _ _ _ -> ())) robust;
            let c = now () in
            Recorder.record_tick rc ~tick:!ticks ~time:snap.Monitor_trace.Snapshot.time
              ~digest:0;
            let d = now () in
            robust_ns := !robust_ns + (c - b);
            record_tick_ns := !record_tick_ns + (d - c))
          recorder
      in
      List.iter
        (fun (time, updates) ->
          let b =
            match recorder with
            | Some rc ->
              let a = now () in
              Recorder.record_frame rc ~time updates;
              let b = now () in
              record_frame_ns := !record_frame_ns + (b - a);
              b
            | None -> now ()
          in
          Feed.observe feed ~time updates step;
          incr frames;
          observe_ns := !observe_ns + (now () - b))
        stream;
      let a = now () in
      Feed.drain feed step;
      observe_ns := !observe_ns + (now () - a);
      Online.Fused.finalize_iter fused (fun _ _ _ _ -> ()))
    probe;
  (* Every step runs inside [Feed.observe]'s or [Feed.drain]'s callback;
     the cut's own time is what remains. *)
  let cut_ns = !observe_ns - (!step_ns + !robust_ns + !record_tick_ns) in
  let record_ns = !record_frame_ns + !record_tick_ns in
  per r "feed.observe_ns_per_frame" ~ns:cut_ns ~count:!frames;
  per r "fused.step_ns_per_tick" ~ns:!step_ns ~count:!ticks;
  per r "robust_online.step_ns_per_tick" ~ns:!robust_ns ~count:!ticks;
  per r "recorder.record_ns_per_frame" ~ns:record_ns ~count:!frames;
  if !frames > 0 then
    set r "fleet.bookkeeping_ns_per_frame"
      (pump_ns_per_frame
      -. (float_of_int (cut_ns + !step_ns + !robust_ns + record_ns)
         /. float_of_int !frames))

type scale = {
  vins : int;
  drives : int;
  slack_s : float;  (* a drive is this much longer than the window; VIN offsets fall in it *)
  probe : int;
}

let count_bundles dir =
  match Sys.readdir dir with
  | entries -> Array.length entries
  | exception Sys_error _ -> 0

(* Each VIN watches [window] seconds of bus. *)
let run r kind scale ~window ~setup_reps ~seed ~seconds ~traced =
  let seed64 = Int64.of_int seed in
  (* Set-up comes first, in a process whose heap does not yet hold the
     inputs, as a monitor starting on a vehicle gateway would. *)
  let dir, remove_dir = scratch_dir "bundles" in
  let program, fleet =
    set_up r ~reps:setup_reps ~spec_text:(Inputs.spec_text ()) ~dbc_text:(Inputs.dbc_text ())
      ~extra:(fun program -> Fleet.create (config kind program ~seed:seed64 ~dir))
      ~dispose:ignore
  in
  (* Inputs. *)
  let drives =
    Inputs.drives ~seed:seed64 ~count:scale.drives ~duration:(window +. scale.slack_s)
  in
  let probe = Inputs.probe_vins ~seed:seed64 ~vins:scale.vins ~probe:scale.probe in
  let traffic = Inputs.traffic ~seed:seed64 ~vins:scale.vins ~drives ~window ~loss:0.01 () in
  let nbatches = Array.length traffic.Inputs.batches in
  (* Measured loop.  A traced run measures its first half untraced, for
     the overhead ratio, and its second half traced. *)
  let counters = { rejected_lines = 0; undecodable = 0; shed = 0; refused = 0 } in
  let plain = new_layers () and spanned = new_layers () in
  let work = ref [] and latencies = Samples.create () and lags = Samples.create () in
  let cost_plain = Samples.create () and cost_traced = Samples.create () in
  let bundle_pumps = Samples.create () in
  let frames_total = ref 0 in
  (* The live schedule starts a millisecond out, so batch 0 is released
     on time rather than already late. *)
  let start = now () + (match kind with Saturate -> 0 | Live -> 1_000_000) in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let trace_from = if traced then start + ((deadline - start) / 2) else max_int in
  let gc_window = Gc_window.start () in
  let plain_frames = ref 0 in
  let passes = ref [] in
  let fleet = ref fleet in
  let pass = ref 0 and b = ref 0 and fed = ref 0 in
  let bundles_seen = ref 0 in
  let plain_done = ref start in
  let end_pass () =
    let in_trace = now () >= trace_from in
    let summary =
      shutdown !fleet (if in_trace then spanned else plain) ~traced:in_trace
        ~request:(-1 - !pass)
    in
    passes := (summary, !b, !fed) :: !passes
  in
  let continue () =
    match kind with
    | Saturate -> now () < deadline
    | Live -> !b < nbatches && start + (!b * 10_000_000) < deadline
  in
  let gc_switched = ref false in
  while continue () do
    if !b = nbatches then begin
      (* Saturate ran out of traffic: drain this fleet and serve the same
         traffic again with a fresh one. *)
      end_pass ();
      incr pass;
      b := 0;
      fed := 0;
      fleet := Fleet.create (config kind program ~seed:seed64 ~dir)
    end;
    let release =
      match kind with
      | Saturate -> now ()
      | Live ->
        let due = start + (!b * 10_000_000) in
        (* The generator spins rather than sleeps until the release: an
           idle vCPU is handed back to the host, and the next batch then
           pays for a wake-up and a cache another tenant has filled. *)
        while now () < due do
          ()
        done;
        due
    in
    let t_start = now () in
    let in_trace = t_start >= trace_from in
    if in_trace && not !gc_switched then begin
      (* GC counts cover the untraced half only. *)
      gc_switched := true;
      Gc_window.finish r gc_window ~frames:!plain_frames;
      bundles_seen := count_bundles dir
    end;
    let layers = if in_trace then spanned else plain in
    let request = (!pass * nbatches) + !b in
    let root = if in_trace then Spans.fresh () else -1 in
    let frames, t_done =
      process_batch !fleet program traffic counters layers
        ~span:(if in_trace then Some (root, request) else None)
        traffic.Inputs.batches.(!b)
    in
    if in_trace then
      Spans.add ~id:root ~name:"batch" ~parent:(-1) ~request ~start_ns:t_start
        ~end_ns:(now ());
    frames_total := !frames_total + frames;
    fed := !fed + frames;
    if not in_trace then plain_frames := !plain_frames + frames;
    let service = t_done - t_start in
    if frames > 0 then
      Samples.add (if in_trace then cost_traced else cost_plain)
        (float_of_int service /. float_of_int frames);
    if not in_trace && frames > 0 then begin
      work := (frames, service) :: !work;
      plain_done := t_done;
      Samples.add latencies (ms_of_ns (t_done - release));
      Samples.add lags (ms_of_ns (t_start - release))
    end;
    if kind = Live && in_trace then begin
      let n = count_bundles dir in
      if n > !bundles_seen then Samples.add bundle_pumps (ms_of_ns (t_done - t_start));
      bundles_seen := n
    end;
    incr b
  done;
  end_pass ();
  if not !gc_switched then Gc_window.finish r gc_window ~frames:!plain_frames;
  (* Closed loop: frames per second of service, batch by batch.  Open
     loop: frames per second of bus, over the whole run, which falls below
     the offered rate only when the server falls behind. *)
  let work =
    match kind with Saturate -> !work | Live -> [ (!plain_frames, !plain_done - start) ]
  in
  set_end_to_end r ~work ~latencies:(Samples.to_array latencies);
  set_lags r (Samples.to_array lags);
  (* Correctness, then the failure accounting. *)
  let last_summary = ref None in
  List.iter
    (fun (summary, upto, frames_fed) ->
      last_summary := Some summary;
      check_pass r program traffic ~probe ~summary ~upto ~frames_fed)
    !passes;
  let dropped =
    List.fold_left
      (fun a (summary, _, _) ->
        List.fold_left (fun a s -> a + s.Fleet.s_dropped) a summary.Fleet.sessions)
      0 !passes
  in
  r.attempted <- r.attempted + !frames_total;
  r.failed <-
    r.failed + counters.rejected_lines + counters.undecodable + counters.shed
    + counters.refused + dropped;
  let bundles =
    if kind = Live then begin
      let status = Json.parse (Fleet.published_status !fleet) in
      let claimed =
        List.fold_left
          (fun a s ->
            a + int_of_float (Option.value ~default:0.0
                                (Option.bind (Json.member "bundles" s) Json.to_float)))
          0
          (Json.to_list (Option.value ~default:Json.Null (Json.member "sessions" status)))
      in
      let on_disk = if Sys.file_exists dir then Sys.readdir dir else [||] in
      check r (Array.length on_disk = claimed)
        (Printf.sprintf "%d bundle directories, the fleet reports %d"
           (Array.length on_disk) claimed);
      Array.iter
        (fun d ->
          check r (Sys.file_exists (Filename.concat (Filename.concat dir d) "MANIFEST.json"))
            (d ^ ": bundle without MANIFEST.json"))
        on_disk;
      claimed
    end
    else 0
  in
  (* Layer numbers, from the traced half. *)
  let l = if traced then spanned else plain in
  per r "candump.parse_ns_per_frame" ~ns:l.parse_ns ~count:l.frames;
  per r "dbc.decode_ns_per_frame" ~ns:l.decode_ns ~count:l.frames;
  per r "fleet.ingest_ns_per_frame" ~ns:l.ingest_ns ~count:l.frames;
  per r "fleet.pump_ns_per_frame" ~ns:l.pump_ns ~count:l.frames;
  per r "fleet.shutdown_ns_per_session" ~ns:(plain.shutdown_ns + spanned.shutdown_ns)
    ~count:(plain.sessions_shut + spanned.sessions_shut);
  set r "candump.lines_rejected" (float_of_int counters.rejected_lines);
  set r "dbc.undecodable" (float_of_int counters.undecodable);
  set r "fleet.shed" (float_of_int counters.shed);
  (match !last_summary with
   | Some s ->
     set r "fleet.sessions" (float_of_int (List.length s.Fleet.sessions));
     set r "fleet.queue_high_water"
       (float_of_int
          (List.fold_left (fun a sh -> max a sh.Fleet.sh_queue_high_water) 0
             s.Fleet.shard_stats));
     let ticks = List.fold_left (fun a x -> a + x.Fleet.s_ticks) 0 s.Fleet.sessions in
     set r "fleet.ticks_per_frame"
       (if s.Fleet.frames_total = 0 then 0.0
        else float_of_int ticks /. float_of_int s.Fleet.frames_total)
   | None -> ());
  set r "recorder.bundles" (float_of_int bundles);
  set r "recorder.bundle_pump_ms" (median (Samples.to_array bundle_pumps));
  if traced then begin
    set r "trace.overhead_ratio"
      (median (Samples.to_array cost_traced) /. median (Samples.to_array cost_plain));
    set r "layers.coverage" (Spans.coverage (Spans.all ()));
    let pump_ns_per_frame =
      if l.frames = 0 then 0.0 else float_of_int l.pump_ns /. float_of_int l.frames
    in
    session_probe r kind program traffic ~probe ~upto:nbatches ~dir ~pump_ns_per_frame
  end;
  remove_dir ()
