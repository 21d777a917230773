module Value = Monitor_signal.Value
module Spec = Monitor_mtl.Spec
module Online = Monitor_mtl.Online
module Verdict = Monitor_mtl.Verdict
module Trace = Monitor_trace
module Feed = Monitor_trace.Multirate.Feed
module Pool = Monitor_util.Pool
module Retry = Monitor_util.Retry
module Prng = Monitor_util.Prng
module Obs = Monitor_obs.Obs

type frame = {
  vin : string;
  time : float;
  updates : (string * Value.t) list;
}

type overload = Block | Shed_oldest | Reject

type config = {
  specs : Spec.t list;
  period : float;
  periods : string -> float option;
  watchdog_k : float;
  stale_hold : float option;
  shards : int;
  queue_capacity : int;
  overload : overload;
  max_restarts : int;
  backoff_base : float;
  evict_idle_after : float option;
  seed : int64;
  record_verdicts : bool;
  robust_gauges : bool;
  inject_fault : (vin:string -> tick:int -> unit) option;
  publish_status : bool;
  recorder : Recorder.config option;
}

let default_config ~specs =
  { specs;
    period = 0.01;
    periods = (fun _ -> None);
    watchdog_k = 3.0;
    stale_hold = None;
    shards = 8;
    queue_capacity = 1024;
    overload = Shed_oldest;
    max_restarts = 2;
    backoff_base = 0.05;
    evict_idle_after = None;
    seed = 1L;
    record_verdicts = true;
    robust_gauges = false;
    inject_fault = None;
    publish_status = false;
    recorder = None }

type fault = {
  f_exn : string;
  f_backtrace : string;
  f_tick : int;
  f_restarts : int;
}

type disposition =
  | Served
  | Quarantined of fault
  | Evicted_faulted of fault
  | Evicted_idle of float

(* The verdict-stream checksum: word-wise FNV-1a over the (tick, rule,
   verdict) triple stream.  Equal streams have equal digests whether or
   not the rendered text was kept, which is what lets the 1000-session
   CLI verify byte-determinism without holding 1000 stream buffers. *)
let digest_seed = 0x811c9dc5
let digest_mix h x = ((h lxor x) * 0x100000001b3) land max_int

let verdict_tag = function
  | Verdict.True -> 0
  | Verdict.False -> 1
  | Verdict.Unknown -> 2

let verdict_line name tick time v =
  Printf.sprintf "%s @%d t=%.3f %s\n" name tick time (Verdict.to_string v)

(* One live evaluation pipeline: an incremental snapshot feed driving the
   session's monitors.  A restart discards the incarnation wholesale — a
   crashed monitor's internal state is not trusted to resume.

   All boolean rules run in one fused whole-spec monitor over the plan
   compiled at fleet creation: a single pass per tick advances every
   rule, with cross-rule shared subterms advanced once.  The fused
   driver reports each rule's batch in rule order, exactly as the old
   per-rule loop did, and each batch is byte-identical to a dedicated
   monitor's — so session digests are unchanged (the chaos-smoke CI gate
   checks this against the one-root-plan [isolated_stream] replay). *)
type incarnation = {
  feed : Feed.t;
  fused : Online.Fused.t;
  rfused : Monitor_mtl.Robust.Online.Fused.t option;
      (* the quantitative twin over the same plan and shared signal
         layout; [robust_gauges] only *)
}

type session_state =
  | Active of incarnation
  | In_quarantine of { until : float; fault : fault }
  | Evicted of disposition

type session = {
  vin : string;
  seed : int64;  (** [Prng.derive config.seed (hash vin)] *)
  mutable state : session_state;
  mutable restarts : int;
  mutable faults : fault list;  (* newest first *)
  mutable frames : int;
  mutable dropped : int;
  mutable ticks : int;
  mutable v_true : int;
  mutable v_false : int;
  mutable v_unknown : int;
  mutable digest : int;
  buf : Buffer.t option;
  mutable last_frame : float;
  recorder : Recorder.t option;
  mutable bundled_rules : int list;
      (* rule indices already bundled for violation: one post-mortem per
         rule per session keeps bundle existence a per-session property,
         independent of cross-session scheduling *)
  mutable min_rob : float;  (* per-session min resolved hi; robust_gauges *)
}

(* Everything a shard mutates lives inside it.  Shards partition the VIN
   space, pump hands each shard to at most one worker, and the producer
   never touches a shard while a pump is in flight — so no field here
   needs atomics, and fleet-wide totals are summed at drain time. *)
type shard = {
  sh_index : int;
  queue : frame Queue.t;
  mutable queue_hw : int;
  sessions : (string, session) Hashtbl.t;
  mutable roster : string list;  (* creation order, newest first *)
  mutable frames_in : int;
  mutable shed : int;
  shed_by_vin : (string, int) Hashtbl.t;
  r_min : float array;
      (* per rule, the minimum resolved robustness upper bound seen by any
         session this shard serves; +inf until one resolves.  Only the
         shard's worker mutates it (same single-writer discipline as the
         rest of the shard), so fleet-wide minima are folded at gauge
         publication without atomics. *)
  g_depth : Monitor_obs.Metrics.gauge;
  g_hw : Monitor_obs.Metrics.gauge;
}

type shard_summary = {
  sh_id : int;
  sh_sessions : int;
  sh_frames : int;
  sh_shed : int;
  sh_queue_high_water : int;
}

type session_summary = {
  s_vin : string;
  s_disposition : disposition;
  s_faults : fault list;
  s_restarts : int;
  s_frames : int;
  s_shed : int;
  s_dropped : int;
  s_ticks : int;
  s_true : int;
  s_false : int;
  s_unknown : int;
  s_availability : float;
  s_digest : int;
  s_stream : string option;
}

type summary = {
  sessions : session_summary list;
  shard_stats : shard_summary list;
  frames_total : int;
  shed_total : int;
  rejected_total : int;
  blocked_flushes : int;
  quarantines_total : int;
  restarts_total : int;
}

type t = {
  cfg : config;
  pool : Pool.t option;
  progress : Monitor_obs.Progress.t option;
  status : string Atomic.t;
      (* latest /sessions JSON; written by the producer domain between
         pumps, read by the status-endpoint domain *)
  wrapped : Spec.t array;  (* stale_guarded specs, session evaluation order *)
  wrapped_list : Spec.t list;
  program : Online.Fused.program;
      (* compiled once, shared by every session's boolean monitor *)
  rprogram : Monitor_mtl.Robust.Online.Fused.program option;
      (* the same for the robust monitors; [robust_gauges] only *)
  names : string array;
  staleness : string -> float option;
  shards : shard array;
  mutable closed : bool;
  mutable cached_summary : summary option;
  (* producer-domain counters *)
  mutable rejected : int;
  mutable blocked : int;
  m_live : Monitor_obs.Metrics.gauge;
  m_frames : Monitor_obs.Metrics.counter;
  m_shed : Monitor_obs.Metrics.counter;
  m_rejected : Monitor_obs.Metrics.counter;
  m_blocked : Monitor_obs.Metrics.counter;
  m_quarantines : Monitor_obs.Metrics.counter;
  m_restarts : Monitor_obs.Metrics.counter;
  m_evicted_faulted : Monitor_obs.Metrics.counter;
  m_evicted_idle : Monitor_obs.Metrics.counter;
  m_availability : Monitor_obs.Metrics.histogram;
  m_min_rob : Monitor_obs.Metrics.gauge array;  (* per rule *)
}

(* FNV-1a over the VIN picks the shard; any stable string hash would do,
   but this one is cheap, seedless and platform-independent. *)
let vin_hash vin =
  let h = ref digest_seed in
  String.iter (fun c -> h := digest_mix !h (Char.code c)) vin;
  !h

let create ?pool ?progress (cfg : config) =
  if cfg.shards < 1 then invalid_arg "Fleet.create: shards < 1";
  if cfg.queue_capacity < 1 then invalid_arg "Fleet.create: queue_capacity < 1";
  if cfg.period <= 0.0 then invalid_arg "Fleet.create: period <= 0";
  let wrapped_list =
    List.map (Spec.stale_guarded ?hold:cfg.stale_hold) cfg.specs
  in
  let wrapped = Array.of_list wrapped_list in
  let shards =
    Array.init cfg.shards (fun i ->
        let labels = [ ("shard", string_of_int i) ] in
        { sh_index = i;
          queue = Queue.create ();
          queue_hw = 0;
          sessions = Hashtbl.create 64;
          roster = [];
          frames_in = 0;
          shed = 0;
          shed_by_vin = Hashtbl.create 8;
          r_min = Array.make (List.length cfg.specs) Float.infinity;
          g_depth =
            Obs.gauge ~labels ~help:"Fleet shard ingest queue depth"
              "cps_fleet_queue_depth";
          g_hw =
            Obs.gauge ~labels
              ~help:"Deepest the shard ingest queue has been"
              "cps_fleet_queue_high_water" })
  in
  let plan = Monitor_mtl.Plan.compile wrapped_list in
  { cfg;
    pool;
    progress;
    status = Atomic.make "{\"sessions\":[],\"shards\":[],\"totals\":{}}\n";
    wrapped;
    wrapped_list;
    program =
      Online.Fused.compile ~shared:(Online.shared_for wrapped_list) plan;
    rprogram =
      (if cfg.robust_gauges then
         Some
           (Monitor_mtl.Robust.Online.Fused.compile
              ~shared:(Online.shared_for wrapped_list) plan)
       else None);
    names = Array.map (fun (s : Spec.t) -> s.Spec.name) wrapped;
    staleness =
      Monitor_oracle.Oracle.stale_deadlines ~k:cfg.watchdog_k
        ~periods:cfg.periods;
    shards;
    closed = false;
    cached_summary = None;
    rejected = 0;
    blocked = 0;
    m_live =
      Obs.gauge ~help:"Sessions currently active or quarantined"
        "cps_fleet_sessions_live";
    m_frames =
      Obs.counter ~help:"Frames admitted to a shard queue"
        "cps_fleet_frames_total";
    m_shed =
      Obs.counter ~help:"Frames shed by the Shed_oldest overload policy"
        "cps_fleet_shed_total";
    m_rejected =
      Obs.counter ~help:"Frames refused (Reject policy or after shutdown)"
        "cps_fleet_rejected_total";
    m_blocked =
      Obs.counter ~help:"Inline shard flushes forced by the Block policy"
        "cps_fleet_blocked_flushes_total";
    m_quarantines =
      Obs.counter ~help:"Session faults that entered quarantine"
        "cps_fleet_quarantines_total";
    m_restarts =
      Obs.counter ~help:"Quarantined sessions restarted after backoff"
        "cps_fleet_restarts_total";
    m_evicted_faulted =
      Obs.counter
        ~labels:[ ("reason", "faulted") ]
        ~help:"Sessions permanently evicted" "cps_fleet_evictions_total";
    m_evicted_idle =
      Obs.counter
        ~labels:[ ("reason", "idle") ]
        ~help:"Sessions permanently evicted" "cps_fleet_evictions_total";
    m_availability =
      Obs.histogram
        ~buckets:[| 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 |]
        ~help:"Per-session verdict availability at drain"
        "cps_fleet_session_availability";
    m_min_rob =
      Array.of_list
        (List.map
           (fun (s : Spec.t) ->
             Obs.gauge
               ~labels:[ ("rule", s.Spec.name) ]
               ~help:
                 "Fleet-wide minimum resolved robustness upper bound, per rule"
               "cps_fleet_min_robustness")
           wrapped_list) }

let shard_of t vin = t.shards.(vin_hash vin mod Array.length t.shards)

let new_incarnation t =
  let shared = Online.shared_for t.wrapped_list in
  { feed = Feed.create ~staleness:t.staleness ~period:t.cfg.period ();
    fused = Online.Fused.instantiate ~shared t.program;
    rfused =
      Option.map (Monitor_mtl.Robust.Online.Fused.instantiate ~shared)
        t.rprogram }

let new_session t vin =
  { vin;
    seed = Prng.derive t.cfg.seed (vin_hash vin);
    state = Active (new_incarnation t);
    restarts = 0;
    faults = [];
    frames = 0;
    dropped = 0;
    ticks = 0;
    v_true = 0;
    v_false = 0;
    v_unknown = 0;
    digest = digest_seed;
    buf = (if t.cfg.record_verdicts then Some (Buffer.create 256) else None);
    last_frame = neg_infinity;
    recorder = Option.map Recorder.create t.cfg.recorder;
    bundled_rules = [];
    min_rob = Float.infinity }

let find_session t (shard : shard) vin =
  match Hashtbl.find_opt shard.sessions vin with
  | Some s -> s
  | None ->
    let s = new_session t vin in
    Hashtbl.add shard.sessions vin s;
    shard.roster <- vin :: shard.roster;
    s

(* First False per rule per session: freeze the flight-recorder ring into
   a post-mortem bundle, with the rule's subformula tree rebuilt from the
   recorded slice.  Runs on the shard worker that owns the session, so no
   two writers share a bundle directory.  A failed write is counted by
   the recorder and otherwise ignored: diagnostics never touch the
   session. *)
let bundle_violation t s j ~tick ~time =
  match s.recorder with
  | Some r when not (List.mem j s.bundled_rules) ->
    s.bundled_rules <- j :: s.bundled_rules;
    let slice = Recorder.slice r in
    let explain =
      match
        Monitor_mtl.Explain.of_slice ~period:t.cfg.period
          ~staleness:t.staleness t.wrapped.(j) slice ~time
      with
      | Some (etick, etime, tree) ->
        Some
          (Printf.sprintf
             "%s violated at live tick %d t=%.3f (slice tick %d t=%.3f)\n%s"
             t.names.(j) tick time etick etime
             (Monitor_mtl.Explain.render tree))
      | None -> None
    in
    ignore
      (Recorder.bundle r ~vin:s.vin ~seed:s.seed
         ~reason:(`Violation t.names.(j)) ~tick ~time ~digest:s.digest
         ~explain)
  | Some _ | None -> ()

let record t s j tick time v =
  (match v with
  | Verdict.True -> s.v_true <- s.v_true + 1
  | Verdict.False -> s.v_false <- s.v_false + 1
  | Verdict.Unknown -> s.v_unknown <- s.v_unknown + 1);
  s.digest <-
    digest_mix (digest_mix (digest_mix s.digest tick) j) (verdict_tag v);
  (match s.buf with
  | Some b -> Buffer.add_string b (verdict_line t.names.(j) tick time v)
  | None -> ());
  match v with
  | Verdict.False -> bundle_violation t s j ~tick ~time
  | Verdict.True | Verdict.Unknown -> ()

(* Step one completed snapshot through every monitor of the session.
   Runs inside [Feed.observe]/[advance]/[drain]'s emit callback, so an
   exception here (the chaos hook or a kernel fault) aborts the cut
   mid-flight; the caller quarantines the session and the incarnation is
   discarded, never resumed. *)
let step t (sh : shard) s inc snap =
  let tick = s.ticks in
  s.ticks <- tick + 1;
  (match t.cfg.inject_fault with
  | Some hook -> hook ~vin:s.vin ~tick
  | None -> ());
  Online.Fused.step_iter inc.fused snap (fun j rt time v ->
      record t s j rt time v);
  (* Live robustness: fold each rule's resolved upper bounds into the
     shard's running minimum — how close the fleet has provably come to
     violating each rule, one float per rule, no per-tick storage. *)
  (match inc.rfused with
  | Some rm ->
    Monitor_mtl.Robust.Online.Fused.step_iter rm snap (fun j _rt _time _lo hi ->
        if hi < sh.r_min.(j) then sh.r_min.(j) <- hi;
        if hi < s.min_rob then s.min_rob <- hi)
  | None -> ());
  match s.recorder with
  | Some r ->
    Recorder.record_tick r ~tick ~time:snap.Trace.Snapshot.time
      ~digest:s.digest
  | None -> ()

let finalize_incarnation t (sh : shard) s inc =
  Online.Fused.finalize_iter inc.fused (fun j tick time v ->
      record t s j tick time v);
  match inc.rfused with
  | Some rm ->
    Monitor_mtl.Robust.Online.Fused.finalize_iter rm (fun j _tick _time _lo hi ->
        if hi < sh.r_min.(j) then sh.r_min.(j) <- hi)
  | None -> ()

(* Quarantine a crashed session, mirroring Campaign.guarded's Errored
   rows: capture what, where and how often, then either schedule a
   deterministic backoff restart or — budget spent — evict for good. *)
let quarantine t s ~at e =
  let fault =
    { f_exn = Printexc.to_string e;
      f_backtrace = Printexc.get_backtrace ();
      f_tick = s.ticks;
      f_restarts = s.restarts }
  in
  s.faults <- fault :: s.faults;
  Obs.incr t.m_quarantines;
  (match s.recorder with
  | Some r ->
    (* The crashed incarnation's post-mortem: no violating rule to
       explain, but the input slice and manifest make the crash
       reproducible offline. *)
    ignore
      (Recorder.bundle r ~vin:s.vin ~seed:s.seed
         ~reason:(`Crash fault.f_exn) ~tick:s.ticks ~time:at
         ~digest:s.digest ~explain:None)
  | None -> ());
  if s.restarts >= t.cfg.max_restarts then begin
    s.state <- Evicted (Evicted_faulted fault);
    Obs.incr t.m_evicted_faulted
  end
  else begin
    let delay =
      Retry.backoff ~base:t.cfg.backoff_base ~seed:s.seed (s.restarts + 1)
    in
    s.state <- In_quarantine { until = at +. delay; fault }
  end

let feed_frame t shard s inc frame =
  s.frames <- s.frames + 1;
  s.last_frame <- frame.time;
  (match s.recorder with
  | Some r -> Recorder.record_frame r ~time:frame.time frame.updates
  | None -> ());
  try Feed.observe inc.feed ~time:frame.time frame.updates (step t shard s inc)
  with e -> quarantine t s ~at:frame.time e

let deliver t shard (frame : frame) =
  let s = find_session t shard frame.vin in
  match s.state with
  | Active inc -> feed_frame t shard s inc frame
  | In_quarantine { until; _ } ->
    if frame.time >= until then begin
      (* Backoff served: fresh incarnation, its tick origin re-anchored
         at this frame exactly as a new session's would be. *)
      s.restarts <- s.restarts + 1;
      Obs.incr t.m_restarts;
      let inc = new_incarnation t in
      s.state <- Active inc;
      feed_frame t shard s inc frame
    end
    else s.dropped <- s.dropped + 1
  | Evicted _ -> s.dropped <- s.dropped + 1

let flush_shard t shard =
  while not (Queue.is_empty shard.queue) do
    deliver t shard (Queue.pop shard.queue)
  done

(* Run [work] on every shard in [selected], over the pool when one can
   take the task right now — a saturated pool degrades to inline
   execution in the producer instead of busy-waiting (the whole point of
   [Pool.try_submit]). *)
let over_shards t selected work =
  match t.pool with
  | Some pool when Pool.num_domains pool > 0 ->
    let futures =
      List.filter_map
        (fun sh ->
          match Pool.try_submit pool (fun () -> work sh) with
          | `Submitted fut -> Some fut
          | `Queue_full -> work sh; None)
        selected
    in
    List.iter Pool.await futures
  | Some _ | None -> List.iter work selected

let live_count t =
  Array.fold_left
    (fun acc (sh : shard) ->
      Hashtbl.fold
        (fun _ s acc ->
          match s.state with
          | Active _ | In_quarantine _ -> acc + 1
          | Evicted _ -> acc)
        sh.sessions acc)
    0 t.shards

let live_sessions = live_count

(* Fleet-wide per-rule minimum over the shard-local accumulators.  Reads
   from the producer domain only between pumps, when no worker holds a
   shard. *)
let rule_min t j =
  Array.fold_left (fun acc sh -> Float.min acc sh.r_min.(j)) Float.infinity
    t.shards

let min_robustness t =
  if not t.cfg.robust_gauges then []
  else
    List.filter_map Fun.id
      (List.init (Array.length t.names) (fun j ->
           let m = rule_min t j in
           if m < Float.infinity then Some (t.names.(j), m) else None))

let publish_gauges t =
  if Obs.on () then begin
    Obs.gauge_set t.m_live (float_of_int (live_count t));
    Array.iter
      (fun sh ->
        Obs.gauge_set sh.g_depth (float_of_int (Queue.length sh.queue));
        Obs.gauge_set sh.g_hw (float_of_int sh.queue_hw))
      t.shards;
    if t.cfg.robust_gauges then
      Array.iteri
        (fun j g ->
          let m = rule_min t j in
          if m < Float.infinity then Obs.gauge_set g m)
        t.m_min_rob
  end

let state_counts t =
  Array.fold_left
    (fun acc (sh : shard) ->
      Hashtbl.fold
        (fun _ s (a, q) ->
          match s.state with
          | Active _ -> (a + 1, q)
          | In_quarantine _ -> (a, q + 1)
          | Evicted _ -> (a, q))
        sh.sessions acc)
    (0, 0) t.shards

(* JSON has no spelling for non-finite numbers. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let state_fields s =
  match s.state with
  | Active _ -> ("active", None)
  | In_quarantine { until; _ } -> ("quarantined", Some until)
  | Evicted (Evicted_faulted _) -> ("evicted:fault", None)
  | Evicted (Evicted_idle _) -> ("evicted:idle", None)
  | Evicted (Served | Quarantined _) -> ("evicted", None)

(* The /sessions payload.  Built on the producer domain between pumps —
   the only moment no worker holds a shard — and published through an
   atomic cell so the status-endpoint domain reads a complete document
   without ever touching shard state. *)
let render_status t =
  let esc = Monitor_obs.Metrics.json_escape in
  let rows = ref [] in
  Array.iter
    (fun (sh : shard) ->
      Hashtbl.iter (fun _ s -> rows := (s, sh.sh_index) :: !rows) sh.sessions)
    t.shards;
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a.vin b.vin) !rows
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"sessions\":[";
  List.iteri
    (fun i (s, shard_id) ->
      if i > 0 then Buffer.add_char b ',';
      let state, backoff = state_fields s in
      let total = s.v_true + s.v_false + s.v_unknown in
      let avail =
        if total = 0 then 0.0
        else float_of_int (s.v_true + s.v_false) /. float_of_int total
      in
      Printf.bprintf b
        "{\"vin\":\"%s\",\"shard\":%d,\"state\":\"%s\",\"frames\":%d,\
         \"dropped\":%d,\"ticks\":%d,\"verdicts\":{\"true\":%d,\"false\":%d,\
         \"unknown\":%d},\"availability\":%s,\"min_robustness\":%s,\
         \"restarts\":%d,\"faults\":%d,\"backoff_until\":%s"
        (esc s.vin) shard_id state s.frames s.dropped s.ticks s.v_true
        s.v_false s.v_unknown (json_float avail) (json_float s.min_rob)
        s.restarts (List.length s.faults)
        (match backoff with Some u -> json_float u | None -> "null");
      (match s.recorder with
      | Some r ->
        Printf.bprintf b
          ",\"recorder_frames\":%d,\"bundles\":%d,\"bundle_errors\":%d"
          (Recorder.frames r) (Recorder.bundles_written r)
          (Recorder.bundle_errors r)
      | None -> ());
      Buffer.add_char b '}')
    rows;
  Buffer.add_string b "],\"shards\":[";
  Array.iteri
    (fun i (sh : shard) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"id\":%d,\"sessions\":%d,\"frames\":%d,\"shed\":%d,\
         \"queue_depth\":%d,\"queue_high_water\":%d}"
        sh.sh_index (Hashtbl.length sh.sessions) sh.frames_in sh.shed
        (Queue.length sh.queue) sh.queue_hw)
    t.shards;
  let active, quarantined = state_counts t in
  Printf.bprintf b
    "],\"totals\":{\"active\":%d,\"quarantined\":%d,\"frames\":%d,\"shed\":%d,\
     \"rejected\":%d,\"blocked_flushes\":%d}}\n"
    active quarantined
    (Array.fold_left (fun a (sh : shard) -> a + sh.frames_in) 0 t.shards)
    (Array.fold_left (fun a (sh : shard) -> a + sh.shed) 0 t.shards)
    t.rejected t.blocked;
  Buffer.contents b

let publish_status_now t =
  if t.cfg.publish_status then Atomic.set t.status (render_status t);
  match t.progress with
  | Some p ->
    let active, quarantined = state_counts t in
    Monitor_obs.Progress.set_note p
      (Printf.sprintf "live=%d quarantined=%d" active quarantined)
  | None -> ()

let published_status t = Atomic.get t.status

let pump t =
  Obs.with_span ~cat:"fleet" "fleet.pump" @@ fun () ->
  let pending =
    List.filter
      (fun sh -> not (Queue.is_empty sh.queue))
      (Array.to_list t.shards)
  in
  over_shards t pending (flush_shard t);
  publish_gauges t;
  publish_status_now t

let ingest t (frame : frame) =
  if t.closed then begin
    t.rejected <- t.rejected + 1;
    Obs.incr t.m_rejected;
    `Rejected
  end
  else begin
    let shard = shard_of t frame.vin in
    let enqueue () =
      Queue.push frame shard.queue;
      shard.frames_in <- shard.frames_in + 1;
      Obs.incr t.m_frames;
      (match t.progress with
      | Some p -> Monitor_obs.Progress.step p
      | None -> ());
      let depth = Queue.length shard.queue in
      if depth > shard.queue_hw then shard.queue_hw <- depth
    in
    if Queue.length shard.queue < t.cfg.queue_capacity then begin
      enqueue ();
      `Accepted
    end
    else begin
      match t.cfg.overload with
      | Block ->
        (* Backpressure: the producer absorbs the overload by stepping
           the full shard itself before the frame goes in. *)
        t.blocked <- t.blocked + 1;
        Obs.incr t.m_blocked;
        flush_shard t shard;
        enqueue ();
        `Accepted
      | Shed_oldest ->
        let victim = Queue.pop shard.queue in
        shard.shed <- shard.shed + 1;
        Hashtbl.replace shard.shed_by_vin victim.vin
          (1
          + Option.value ~default:0
              (Hashtbl.find_opt shard.shed_by_vin victim.vin));
        Obs.incr t.m_shed;
        enqueue ();
        `Shed victim
      | Reject ->
        t.rejected <- t.rejected + 1;
        Obs.incr t.m_rejected;
        `Rejected
    end
  end

let advance t ~now =
  Obs.with_span ~cat:"fleet" "fleet.advance" @@ fun () ->
  Array.iter
    (fun (sh : shard) ->
      List.iter
        (fun vin ->
          let s = Hashtbl.find sh.sessions vin in
          (match s.state with
          | Active inc -> (
            try Feed.advance inc.feed ~upto:now (step t sh s inc)
            with e -> quarantine t s ~at:now e)
          | In_quarantine _ | Evicted _ -> ());
          match t.cfg.evict_idle_after, s.state with
          | Some idle, Active inc
            when s.frames > 0 && now -. s.last_frame >= idle ->
            (* Idle watchdog: close the stream out cleanly (drain is a
               no-op when advance already passed the end) and reap. *)
            (try
               Feed.drain inc.feed (step t sh s inc);
               finalize_incarnation t sh s inc
             with e -> quarantine t s ~at:now e);
            (match s.state with
            | Active _ ->
              s.state <- Evicted (Evicted_idle s.last_frame);
              Obs.incr t.m_evicted_idle
            | In_quarantine _ | Evicted _ -> ())
          | _ -> ())
        (List.rev sh.roster))
    t.shards;
  publish_gauges t;
  publish_status_now t

let summary_of_session s =
  let total = s.v_true + s.v_false + s.v_unknown in
  { s_vin = s.vin;
    s_disposition =
      (match s.state with
      | Active _ -> Served
      | In_quarantine { fault; _ } -> Quarantined fault
      | Evicted d -> d);
    s_faults = List.rev s.faults;
    s_restarts = s.restarts;
    s_frames = s.frames;
    s_shed = 0;  (* filled in from the shard's shed table *)
    s_dropped = s.dropped;
    s_ticks = s.ticks;
    s_true = s.v_true;
    s_false = s.v_false;
    s_unknown = s.v_unknown;
    s_availability =
      (if total = 0 then 0.0
       else float_of_int (s.v_true + s.v_false) /. float_of_int total);
    s_digest = s.digest;
    s_stream = Option.map Buffer.contents s.buf }

let drain_shard t (shard : shard) =
  flush_shard t shard;
  List.iter
    (fun vin ->
      let s = Hashtbl.find shard.sessions vin in
      match s.state with
      | Active inc -> (
        try
          Feed.drain inc.feed (step t shard s inc);
          finalize_incarnation t shard s inc
        with e -> quarantine t s ~at:s.last_frame e)
      | In_quarantine _ | Evicted _ -> ())
    (List.rev shard.roster)

let shutdown t =
  match t.cached_summary with
  | Some s -> s
  | None ->
    Obs.with_span ~cat:"fleet" "fleet.shutdown" @@ fun () ->
    t.closed <- true;
    over_shards t (Array.to_list t.shards) (drain_shard t);
    let sessions = ref [] in
    let quarantines = ref 0 and restarts = ref 0 in
    Array.iter
      (fun (sh : shard) ->
        let summarised = Hashtbl.create 16 in
        List.iter
          (fun vin ->
            let s = Hashtbl.find sh.sessions vin in
            quarantines := !quarantines + List.length s.faults;
            restarts := !restarts + s.restarts;
            let row = summary_of_session s in
            let row =
              { row with
                s_shed =
                  Option.value ~default:0
                    (Hashtbl.find_opt sh.shed_by_vin vin) }
            in
            Hashtbl.replace summarised vin ();
            sessions := row :: !sessions)
          (List.rev sh.roster);
        (* A VIN whose every frame was shed before one was processed has
           shed accounting but no session — report it rather than lose
           the drops. *)
        Hashtbl.iter
          (fun vin shed ->
            if not (Hashtbl.mem summarised vin) then
              sessions :=
                { s_vin = vin;
                  s_disposition = Served;
                  s_faults = [];
                  s_restarts = 0;
                  s_frames = 0;
                  s_shed = shed;
                  s_dropped = 0;
                  s_ticks = 0;
                  s_true = 0;
                  s_false = 0;
                  s_unknown = 0;
                  s_availability = 0.0;
                  s_digest = digest_seed;
                  s_stream =
                    (if t.cfg.record_verdicts then Some "" else None) }
                :: !sessions)
          sh.shed_by_vin)
      t.shards;
    let sessions =
      List.sort (fun a b -> String.compare a.s_vin b.s_vin) !sessions
    in
    if Obs.on () then
      List.iter
        (fun row -> Obs.observe t.m_availability row.s_availability)
        sessions;
    let shard_stats =
      Array.to_list
        (Array.map
           (fun sh ->
             { sh_id = sh.sh_index;
               sh_sessions = Hashtbl.length sh.sessions;
               sh_frames = sh.frames_in;
               sh_shed = sh.shed;
               sh_queue_high_water = sh.queue_hw })
           t.shards)
    in
    let summary =
      { sessions;
        shard_stats;
        frames_total =
          List.fold_left (fun a sh -> a + sh.sh_frames) 0 shard_stats;
        shed_total = List.fold_left (fun a sh -> a + sh.sh_shed) 0 shard_stats;
        rejected_total = t.rejected;
        blocked_flushes = t.blocked;
        quarantines_total = !quarantines;
        restarts_total = !restarts }
    in
    publish_gauges t;
    publish_status_now t;
    t.cached_summary <- Some summary;
    summary

let disposition_label = function
  | Served -> "served"
  | Quarantined _ -> "quarantined"
  | Evicted_faulted _ -> "evicted:fault"
  | Evicted_idle _ -> "evicted:idle"

let render_summary ?(max_sessions = 40) summary =
  let b = Buffer.create 1024 in
  let served, quarantined, ev_fault, ev_idle =
    List.fold_left
      (fun (s, q, f, i) row ->
        match row.s_disposition with
        | Served -> (s + 1, q, f, i)
        | Quarantined _ -> (s, q + 1, f, i)
        | Evicted_faulted _ -> (s, q, f + 1, i)
        | Evicted_idle _ -> (s, q, f, i + 1))
      (0, 0, 0, 0) summary.sessions
  in
  Printf.bprintf b
    "fleet: %d sessions (%d served, %d quarantined, %d evicted-fault, %d \
     evicted-idle)\n"
    (List.length summary.sessions)
    served quarantined ev_fault ev_idle;
  Printf.bprintf b
    "frames: %d admitted, %d shed, %d rejected, %d blocked-flushes; %d \
     quarantines, %d restarts\n"
    summary.frames_total summary.shed_total summary.rejected_total
    summary.blocked_flushes summary.quarantines_total summary.restarts_total;
  List.iter
    (fun sh ->
      Printf.bprintf b "shard %d: sessions=%d frames=%d shed=%d queue_hw=%d\n"
        sh.sh_id sh.sh_sessions sh.sh_frames sh.sh_shed sh.sh_queue_high_water)
    summary.shard_stats;
  Printf.bprintf b "%-12s %-13s %6s %6s %6s/%-6s/%-6s %6s %4s %5s %s\n" "vin"
    "disposition" "frames" "ticks" "T" "F" "U" "avail" "rst" "shed" "digest";
  let shown = ref 0 in
  List.iter
    (fun row ->
      if !shown < max_sessions then begin
        incr shown;
        Printf.bprintf b
          "%-12s %-13s %6d %6d %6d/%-6d/%-6d %6.3f %4d %5d %016x\n" row.s_vin
          (disposition_label row.s_disposition)
          row.s_frames row.s_ticks row.s_true row.s_false row.s_unknown
          row.s_availability row.s_restarts row.s_shed row.s_digest
      end)
    summary.sessions;
  let hidden = List.length summary.sessions - !shown in
  if hidden > 0 then Printf.bprintf b "... (%d more sessions)\n" hidden;
  let faulted =
    List.filter (fun row -> row.s_faults <> []) summary.sessions
  in
  if faulted <> [] then begin
    Buffer.add_string b "faults:\n";
    List.iter
      (fun row ->
        List.iter
          (fun f ->
            Printf.bprintf b "  %s: %s at tick %d (restarts %d)\n" row.s_vin
              f.f_exn f.f_tick f.f_restarts)
          row.s_faults)
      faulted
  end;
  Buffer.contents b

let isolated_stream ?(period = 0.01) ?(watchdog_k = 3.0) ?stale_hold
    ?(periods = fun _ -> None) ~specs updates =
  let trace = Trace.Trace.create () in
  List.iter
    (fun (time, ups) ->
      List.iter
        (fun (name, value) ->
          Trace.Trace.append trace (Trace.Record.make ~time ~name ~value))
        ups)
    updates;
  let staleness = Monitor_oracle.Oracle.stale_deadlines ~k:watchdog_k ~periods in
  let snaps = Trace.Multirate.snapshots ~staleness trace ~period in
  let wrapped = List.map (Spec.stale_guarded ?hold:stale_hold) specs in
  let shared = Online.shared_for wrapped in
  (* Deliberately one one-root plan per rule, NOT the shared plan the live
     sessions run: a [--verify] digest comparison against this replay is
     then an end-to-end check that sharing subterms across rules changes
     no verdict and no resolution tick. *)
  let monitors = Array.of_list (List.map (Online.create ~shared) wrapped) in
  let names =
    Array.of_list (List.map (fun (s : Spec.t) -> s.Spec.name) wrapped)
  in
  let buf = Buffer.create 1024 in
  let digest = ref digest_seed in
  let record j tick time v =
    digest := digest_mix (digest_mix (digest_mix !digest tick) j) (verdict_tag v);
    Buffer.add_string buf (verdict_line names.(j) tick time v)
  in
  List.iter
    (fun snap ->
      Array.iteri (fun j m -> Online.step_iter m snap (record j)) monitors)
    snaps;
  Array.iteri
    (fun j m ->
      let n = Online.finalize_resolved m in
      for i = 0 to n - 1 do
        record j
          (Online.resolved_tick m i)
          (Online.resolved_time m i)
          (Online.resolved_verdict m i)
      done)
    monitors;
  (Buffer.contents buf, !digest)
