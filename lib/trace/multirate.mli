(** Turning an asynchronous bus trace into a synchronous snapshot stream.

    Automotive buses publish different messages at different periods; the
    paper's platform updated some messages four times slower than the rest,
    and jitter sometimes delayed a slow message so that five fast updates
    landed between two slow updates (§V-C1).  This module reconstructs the
    monitor's synchronous view: one snapshot per tick of a reference clock,
    each signal holding its most recent sample, with freshness flags so
    change-sensitive expressions can skip held repeats. *)

val snapshots :
  ?staleness:(string -> float option) -> Trace.t -> period:float ->
  Snapshot.t list
(** [snapshots trace ~period] samples the trace at [t0, t0+period, ...]
    where [t0] is the first record time.  Records with a timestamp [<= tick]
    are visible at that tick; a signal is [fresh] at a tick iff at least one
    record for it arrived in the half-open window [(previous tick, tick]].
    Signals not yet observed are absent from the snapshot.

    [staleness] is the degraded-channel policy: for each signal it may
    return a maximum acceptable age in seconds (typically [k] times the
    signal's publication period).  A held sample older than that at a tick
    is marked {!Snapshot.entry.stale}; [None] (and the default policy)
    means the signal never goes stale, which preserves the historical
    hold-last-value semantics.
    @raise Invalid_argument if [period <= 0] or a record time is not
    finite (an infinite end would mean infinitely many ticks). *)

(** {2 Incremental (streaming) snapshot construction}

    The same synchronous-view reconstruction as {!snapshots}, driven
    observation by observation: feed signal updates as they arrive and
    receive each snapshot through a callback the moment its tick can no
    longer change.  This is the form a long-running stream server uses —
    per-session state is one signal table plus a tick cursor, never the
    trace.  Feeding a whole trace record by record and then {!Feed.drain}ing
    yields exactly [snapshots trace ~period] (qcheck-enforced). *)
module Feed : sig
  type t

  val create : ?staleness:(string -> float option) -> period:float -> unit -> t
  (** [staleness] as in {!snapshots}.
      @raise Invalid_argument if [period <= 0]. *)

  val observe :
    t -> time:float -> (string * Monitor_signal.Value.t) list ->
    (Snapshot.t -> unit) -> unit
  (** [observe t ~time updates emit] first [emit]s every tick that the
      stream reaching [time] completes (a tick at [t_cut] absorbs
      observations with time [<= t_cut + eps], so ticks strictly before
      [time] are done), then records [updates] as observations at
      [time].  The first observation fixes the tick origin, exactly as
      the first record of a trace does.  Observations are expected in
      non-decreasing time order; a late observation is not fatal — it is
      simply held and surfaces at the next cut (degraded input, not an
      error).
      @raise Invalid_argument if [time] is not finite: every tick before
      an infinite time would be due. *)

  val advance : t -> upto:float -> (Snapshot.t -> unit) -> unit
  (** Cut every tick completed by the clock reaching [upto] without
      recording any observation — the watchdog path: a silent stream's
      held signals age past their staleness deadlines and its verdicts
      degrade to Unknown instead of stalling.  No-op before the first
      {!observe} (no origin, no ticks).
      @raise Invalid_argument if [upto] is not finite. *)

  val drain : t -> (Snapshot.t -> unit) -> unit
  (** End of stream: cut the final tick(s) using the offline stopping
      rule (the last tick is the first at or beyond the last observation
      time, [eps]-adjusted), so a drained feed has emitted exactly the
      snapshots {!snapshots} computes for the equivalent trace.  Safe to
      call once more after {!advance} has already passed the end. *)

  val started : t -> bool
  (** Has the feed seen its first observation (and thus its tick origin)? *)

  val last_observed : t -> float option
  (** Time of the latest observation, if any. *)

  val ticks_cut : t -> int
  (** Snapshots emitted so far. *)
end

val at_updates_of :
  ?staleness:(string -> float option) -> Trace.t -> clock_signal:string ->
  Snapshot.t list
(** Event-based alternative: one snapshot per observation of
    [clock_signal], mirroring a monitor that wakes on a particular message.
    Freshness is relative to the previous wake-up.  [staleness] as in
    {!snapshots}. *)
