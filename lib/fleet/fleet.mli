(** Fleet stream server: many vehicles, one monitor process.

    The paper's bolt-on box watches a single vehicle; a deployment watches
    a fleet.  This module multiplexes thousands of per-VIN monitor
    sessions — each an incremental snapshot feed ({!Monitor_trace.Multirate.Feed})
    driving a set of stale-guarded online monitors ({!Monitor_mtl.Online})
    over a shared signal environment — behind one ingest interface.
    Sessions are sharded by VIN hash so a {!Monitor_util.Pool} can step
    the shards in parallel; because shards partition the VIN space and
    each shard processes its queue in FIFO order, per-session verdict
    streams are byte-identical at any [-j] and identical to a
    single-session run of the same frames (the chaos property suite
    enforces both).

    Robustness is the point, and it comes in four pieces:

    - {b Overload}: each shard owns a bounded ingest queue with a
      pluggable {!overload} policy — apply backpressure ([Block]), shed
      the oldest queued frame ([Shed_oldest], the drop is returned to the
      caller and recorded so the affected session's signals go stale and
      its verdicts degrade to Unknown rather than silently lying), or
      refuse the new frame ([Reject]).
    - {b Fault isolation}: an exception while stepping one session
      quarantines {e that session} — exception text, backtrace and last
      tick are captured, mirroring {!Monitor_inject.Campaign}[.guarded]'s
      [Errored] rows — while the shard keeps serving its other sessions.
      A quarantined session is restarted (fresh feed, fresh monitors)
      after a deterministic exponential backoff
      ({!Monitor_util.Retry.backoff} on a VIN-derived seed) up to
      [max_restarts] times, then permanently evicted.
    - {b Watchdogs}: {!advance} moves the fleet clock without frames;
      a session whose signals have outlived their
      {!Monitor_oracle.Oracle.stale_deadlines} deadline degrades to
      Unknown verdicts, and a session idle past [evict_idle_after] is
      reaped.
    - {b Graceful drain}: {!shutdown} stops intake, flushes every queue,
      drains every feed through the offline stopping rule, finalizes the
      monitors, and returns one deterministic per-session summary.
      Idempotent.

    Determinism contract: with equal [config] (including [seed]) and an
    equal ingest sequence, surviving sessions' verdict streams — and the
    whole {!summary} — are byte-identical whatever pool size serves the
    shards, because restart backoff delays are pure functions of
    [(seed, vin, attempt)] and no decision reads a wall clock. *)

module Value = Monitor_signal.Value
module Spec = Monitor_mtl.Spec

(** {1 Input} *)

type frame = {
  vin : string;  (** session key — vehicle identity *)
  time : float;  (** observation timestamp, per-VIN non-decreasing *)
  updates : (string * Value.t) list;
      (** decoded signal observations at [time] (e.g. one CAN frame's
          worth of {!Monitor_can.Dbc.decode_frame} output) *)
}

(** What a full ingest queue does with the overflow. *)
type overload =
  | Block
      (** Backpressure: the calling (producer) domain flushes the full
          shard inline, then enqueues.  Nothing is lost; the producer
          pays the latency. *)
  | Shed_oldest
      (** Drop the oldest queued frame to admit the new one.  The victim
          is returned ([`Shed]) and counted against its session; the gap
          surfaces as staleness, degrading that session's verdicts to
          Unknown instead of computing them over a silently-holey
          stream. *)
  | Reject  (** Refuse the new frame ([`Rejected]); the queue is kept. *)

type config = {
  specs : Spec.t list;
      (** rules every session monitors; each is wrapped with
          {!Spec.stale_guarded} before evaluation *)
  period : float;  (** reference-clock tick period (seconds) *)
  periods : string -> float option;
      (** per-signal publication period, as {!Monitor_oracle.Oracle.check_stale_aware}
          takes it; feeds the staleness deadlines [watchdog_k * period] *)
  watchdog_k : float;
      (** staleness multiplier [k] of {!Monitor_oracle.Oracle.stale_deadlines} *)
  stale_hold : float option;
      (** [?hold] for {!Spec.stale_guarded} ([None] = its default) *)
  shards : int;  (** session shards; VINs are FNV-hashed across them *)
  queue_capacity : int;  (** per-shard ingest queue bound *)
  overload : overload;
  max_restarts : int;
      (** quarantine restarts before permanent eviction *)
  backoff_base : float;
      (** base (seconds) of the restart backoff schedule *)
  evict_idle_after : float option;
      (** reap sessions silent this long at an {!advance} ([None]: never) *)
  seed : int64;
      (** root of every derived stream (restart jitter); part of the
          determinism contract *)
  record_verdicts : bool;
      (** keep each session's rendered verdict stream (memory ∝ ticks);
          the running digest is maintained regardless *)
  robust_gauges : bool;
      (** additionally run each session's rules through one fused
          quantitative monitor ({!Monitor_mtl.Robust.Online.Fused}, same
          plan and shared signal layout) and keep a fleet-wide per-rule
          minimum of the resolved
          robustness upper bounds — published as the
          [cps_fleet_min_robustness{rule}] gauge and readable via
          {!min_robustness}.  One float per rule per shard; verdict
          streams, digests and dispositions are unaffected. *)
  inject_fault : (vin:string -> tick:int -> unit) option;
      (** chaos hook, called before stepping each tick; an exception it
          raises is a session fault like any other.  [tick] counts
          cumulatively across restarts. *)
  publish_status : bool;
      (** rebuild the {!published_status} JSON document after every
          {!pump}/{!advance}/{!shutdown}; off by default because the
          walk is O(sessions) per pump *)
  recorder : Recorder.config option;
      (** give every session a {!Recorder} flight ring; rule violations
          and quarantines then write post-mortem bundles under the
          config's directory ([None]: no recording, no bundles).  A
          bundle that fails to write is counted
          ([cps_postmortem_errors_total], [bundle_errors] in
          {!published_status}) and changes no verdict or disposition. *)
}

val default_config : specs:Spec.t list -> config
(** [period = 0.01], [periods = fun _ -> None], [watchdog_k = 3.0],
    [stale_hold = None], [shards = 8], [queue_capacity = 1024],
    [overload = Shed_oldest], [max_restarts = 2], [backoff_base = 0.05],
    [evict_idle_after = None], [seed = 1L], [record_verdicts = true],
    [robust_gauges = false], [inject_fault = None],
    [publish_status = false], [recorder = None].  Override fields with
    [{ (default_config ...) with ... }]. *)

(** {1 Serving} *)

type t

val create :
  ?pool:Monitor_util.Pool.t -> ?progress:Monitor_obs.Progress.t -> config -> t
(** A fresh fleet.  [pool] parallelises shard stepping in {!pump} and
    {!shutdown}; without it (or with a zero-worker pool) shards are
    stepped sequentially in the caller — results are identical either
    way.  Sessions are created lazily on a VIN's first frame.

    [progress] is stepped once per admitted frame and its note is kept
    at ["live=N quarantined=M"] — the caller {!Monitor_obs.Progress.start}s
    it with the expected frame total (heartbeats go to stderr, so
    verdict streams and summaries stay byte-identical either way).
    @raise Invalid_argument on [shards < 1], [queue_capacity < 1] or
    [period <= 0]. *)

val ingest : t -> frame -> [ `Accepted | `Rejected | `Shed of frame ]
(** Enqueue one frame on its VIN's shard.  On a full queue the
    {!overload} policy decides: [Block] flushes inline and accepts,
    [Shed_oldest] accepts and returns the evicted oldest frame,
    [Reject] returns [`Rejected].  After {!shutdown} has begun every
    frame is [`Rejected] (counted, not raised).  Single producer:
    [ingest]/[pump]/[advance]/[shutdown] must be called from one domain
    (workers only ever step shards handed to them by {!pump}). *)

val pump : t -> unit
(** Drain every non-empty shard queue, stepping the queued frames
    through their sessions — in parallel over the pool when one was
    given ({!Monitor_util.Pool.try_submit}; a shard the pool cannot take
    is flushed inline rather than busy-waiting).  Frames for a
    quarantined session are dropped and counted until its backoff
    deadline passes, which triggers the restart. *)

val advance : t -> now:float -> unit
(** Watchdog sweep: cut every session's feed up to [now] without
    observations, so signals whose staleness deadline has passed mark
    stale and verdicts degrade to Unknown; then reap sessions whose last
    frame is older than [evict_idle_after].  Call between {!pump}s (same
    single-producer discipline). *)

val live_sessions : t -> int
(** Sessions currently active or quarantined (not evicted). *)

val published_status : t -> string
(** The latest /sessions JSON document: per-VIN state (verdict counts,
    availability, min robustness, restarts, quarantine backoff deadline,
    recorder occupancy, bundles written and bundle write errors),
    per-shard queue depth and
    high-water, and fleet totals.  Rebuilt by the producer domain at
    every {!pump}/{!advance}/{!shutdown} when the config set
    [publish_status], and published through an atomic cell — safe to
    call from any domain at any time (the status-endpoint route does). *)

val min_robustness : t -> (string * float) list
(** Per rule (evaluation order), the fleet-wide minimum resolved
    robustness upper bound so far — the live severity ranking of what the
    fleet has come closest to violating.  Rules with no resolved tick yet
    are omitted; always [[]] unless the config set [robust_gauges].
    Producer-domain read: call between {!pump}s, like {!ingest}. *)

(** {1 Drain and summary} *)

type fault = {
  f_exn : string;       (** [Printexc.to_string] of the session's crash *)
  f_backtrace : string; (** backtrace if recording was enabled, else "" *)
  f_tick : int;         (** cumulative ticks stepped when it crashed *)
  f_restarts : int;     (** restarts already consumed before this fault *)
}

type disposition =
  | Served  (** alive through the drain *)
  | Quarantined of fault
      (** still in backoff at drain time — reported, never lost *)
  | Evicted_faulted of fault  (** restart budget exhausted *)
  | Evicted_idle of float     (** reaped by the idle watchdog; last frame time *)

type session_summary = {
  s_vin : string;
  s_disposition : disposition;
  s_faults : fault list;  (** every quarantine event, oldest first *)
  s_restarts : int;
  s_frames : int;     (** frames delivered into the session's feed *)
  s_shed : int;       (** frames shed from this VIN's stream by overload *)
  s_dropped : int;    (** frames dropped while quarantined or evicted *)
  s_ticks : int;      (** snapshots stepped, cumulative across restarts *)
  s_true : int;
  s_false : int;
  s_unknown : int;    (** verdict counts over all rules and ticks *)
  s_availability : float;  (** (true + false) / total verdicts, 0 if none *)
  s_digest : int;     (** FNV-1a digest of the (tick, rule, verdict) stream *)
  s_stream : string option;
      (** rendered verdict lines when [record_verdicts] *)
}

type shard_summary = {
  sh_id : int;
  sh_sessions : int;
  sh_frames : int;        (** frames admitted to this shard's queue *)
  sh_shed : int;
  sh_queue_high_water : int;
}

type summary = {
  sessions : session_summary list;  (** sorted by VIN *)
  shard_stats : shard_summary list;
  frames_total : int;
  shed_total : int;
  rejected_total : int;
  blocked_flushes : int;  (** inline flushes forced by the [Block] policy *)
  quarantines_total : int;
  restarts_total : int;
}

val shutdown : t -> summary
(** Graceful drain: stop intake ([ingest] now rejects), flush every
    queue, drain every live feed through the offline stopping rule,
    finalize its monitors (final verdicts join the stream), and build
    the summary.  Idempotent: later calls return the same summary
    without re-draining. *)

val render_summary : ?max_sessions:int -> summary -> string
(** Deterministic human-readable report: fleet totals, per-shard stats,
    a per-session table (VIN order, truncated to [max_sessions],
    default 40) and one line per fault.  Streams are not included. *)

(** {1 Reference oracle} *)

val isolated_stream :
  ?period:float -> ?watchdog_k:float -> ?stale_hold:float ->
  ?periods:(string -> float option) -> specs:Spec.t list ->
  (float * (string * Value.t) list) list -> string * int
(** [(stream, digest)] a fault-free fleet session would produce for this
    one vehicle's observations — computed over the {e offline}
    {!Monitor_trace.Multirate.snapshots} path rather than the feed, so
    fleet-vs-isolated equality is a genuine differential test of the
    incremental snapshot construction, and each rule runs as its own
    one-root plan, so equality also checks that sharing subterms across
    rules changes nothing.  Defaults match
    {!default_config}.  A [Served] session with [s_restarts = 0] fed the
    same [(time, updates)] list (in order, nothing shed) has exactly
    this stream and digest. *)
