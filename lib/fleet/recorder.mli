(** Per-session flight recorder: a bounded ring of recent input plus
    post-mortem bundle writing.

    The paper's engineers judged each violation from the raw trace
    (§V-A); a live fleet session has no raw trace left by the time a rule
    fires — the frames have been consumed.  The recorder keeps just
    enough of them: a ring of the last [window] seconds (capped at
    [max_frames]) of a session's ingested frames, plus the running
    verdict digest at each tick.  When the session violates a rule or
    crashes into quarantine, {!bundle} freezes the ring into a
    self-contained on-disk post-mortem that replays standalone through
    [repro check].

    Memory bound: at most [max_frames] frames and [max_frames] tick
    digests per session, evicted oldest-first by both count and age —
    the ring never grows with session lifetime.

    Determinism: the slice, manifest and explanation are pure functions
    of the session's input prefix and configuration — no wall clock, no
    hostnames — so a [-j 8] fleet writes byte-identical bundles to a
    [-j 1] run (the metrics snapshot, an explicit convenience copy of
    the process-wide registry, is the one documented exception).  Bundle
    caps are {e per session}, so which bundles exist never depends on
    cross-session scheduling. *)

type config = {
  window : float;      (** seconds of frames retained (ring age bound) *)
  max_frames : int;    (** hard cap on retained frames and tick digests *)
  dir : string;        (** directory bundles are written under *)
  bundle_limit : int;  (** max bundles one session may write *)
}

val default_config : dir:string -> config
(** [window = 5.0], [max_frames = 2048], [bundle_limit = 4]. *)

type t
(** One session's recorder.  Single-writer, like the session itself: the
    shard worker stepping the session is the only domain that touches
    it. *)

val create : config -> t
(** @raise Invalid_argument on [window <= 0], [max_frames < 1] or
    [bundle_limit < 0]. *)

(** {1 Recording} *)

val record_frame :
  t -> time:float -> (string * Monitor_signal.Value.t) list -> unit
(** Append one ingested frame, then evict from the front anything older
    than [time - window] or beyond [max_frames]. *)

val record_tick : t -> tick:int -> time:float -> digest:int -> unit
(** Append the session's verdict digest as it stood after [tick],
    bounded like the frame ring. *)

val frames : t -> int
(** Current ring occupancy, for tests and the status endpoint. *)

val bundles_written : t -> int
(** Bundles actually on disk. *)

val bundle_errors : t -> int
(** Bundles that failed to write (also counted process-wide in
    [cps_postmortem_errors_total]). *)

(** {1 Post-mortem} *)

val slice : t -> Monitor_trace.Trace.t
(** The ring as a trace: every retained frame's updates as records in
    arrival order — the candump slice a bundle persists. *)

val bundle :
  t ->
  vin:string ->
  seed:int64 ->
  reason:[ `Violation of string | `Crash of string ] ->
  tick:int ->
  time:float ->
  digest:int ->
  explain:string option ->
  (string option, string) result
(** Write one post-mortem bundle directory under [config.dir]: [Ok (Some
    path)] once written, [Ok None] once the session's [bundle_limit] is
    spent (failed attempts count against it), [Error msg] when the
    filesystem refused — never an exception, so a full disk or an
    unwritable directory cannot reach the session.  The
    directory is named [<vin>-t<tick>-<violation-<rule>|crash>]
    (sanitised) and holds:

    - [slice.csv] — {!slice} in the CSV trace format [repro check]
      reads; replaying it standalone reproduces the verdict;
    - [explain.txt] — the violating rule's subformula tree rebuilt from
      the slice (violations only; [explain] is the rendered text);
    - [metrics.prom] — the live registry's Prometheus text at bundle
      time;
    - [MANIFEST.json] — vin, derived seed, reason, tick, time, verdict
      digest, slice extent, and the replay command.

    Directories (including [config.dir]) are created as needed.  The
    bundle is assembled under a hidden temporary name and renamed into
    place, replacing an existing bundle of the same name, so a reader
    never sees half a bundle; a failed write leaves nothing behind. *)
