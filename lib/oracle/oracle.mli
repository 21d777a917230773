(** The monitor-based test oracle: run a set of rules over a captured bus
    trace and classify each as satisfied or violated, with the violation
    episodes a test engineer would triage. *)

type episode = {
  start_time : float;
  end_time : float;    (** time of the last False tick in the episode *)
  duration : float;    (** [end_time - start_time]; 0 for one-tick blips *)
  ticks : int;         (** number of False verdicts in the episode *)
  intensity : float option;
      (** peak |severity| over the episode's False ticks, when the spec
          declares a severity expression *)
}

type status =
  | Satisfied   (** no False verdict; some ticks may be Unknown *)
  | Violated    (** at least one False verdict *)

type rule_outcome = {
  spec : Monitor_mtl.Spec.t;
  status : status;
  episodes : episode list;       (** in time order *)
  ticks_total : int;
  ticks_true : int;
  ticks_false : int;
  ticks_unknown : int;
  availability : float;
      (** fraction of ticks with a {e definite} verdict,
          [(ticks_true + ticks_false) / ticks_total] — how much of the
          trace the rule actually covered once warm-up and staleness
          inhibition are accounted for; 0 for an empty trace *)
  robustness : float option;
      (** whole-trace robustness when the check ran with [~robust:true]
          ({!Monitor_mtl.Robust.min_upper}): how close the trace provably
          came to violating the rule, in the units of its comparisons.
          Negative for violated rules — the distance by which the worst
          tick failed ([-inf] when a boolean leaf, not a margin, decided
          it); small positive values flag near-misses Table I's boolean
          column cannot distinguish from comfortable passes. *)
}

val default_period : float
(** 0.01 s — the fast message period, the rate the paper's monitor ran at. *)

val snapshots_of_trace :
  ?period:float -> ?staleness:(string -> float option) ->
  Monitor_trace.Trace.t -> Monitor_trace.Snapshot.t list
(** [staleness] is the per-signal maximum age passed through to
    {!Monitor_trace.Multirate.snapshots}; omitted, no signal is ever
    marked stale (the historical behaviour). *)

val check_spec :
  ?preflight:Monitor_analysis.Speclint.env ->
  ?period:float -> ?robust:bool ->
  Monitor_mtl.Spec.t -> Monitor_trace.Trace.t -> rule_outcome
(** Offline evaluation over the whole log — the paper's workflow.

    [preflight] runs {!Monitor_analysis.Speclint} over the spec(s) first
    and raises [Invalid_argument] listing the diagnostics if any are
    [Error]-severity — a defective rule fails loudly before the campaign
    runs, instead of silently returning evidence-free verdicts.

    [robust] (default false) additionally evaluates the rule on the
    quantitative kernel ({!Monitor_mtl.Robust}) and fills the outcome's
    [robustness] field — the input to severity-ranked reporting. *)

val check :
  ?preflight:Monitor_analysis.Speclint.env ->
  ?period:float -> ?robust:bool ->
  Monitor_mtl.Spec.t list -> Monitor_trace.Trace.t -> rule_outcome list
(** The snapshot stream is cut and transposed to columns once, and the
    rule set is compiled into one whole-spec plan ({!Monitor_mtl.Plan},
    run by {!Monitor_mtl.Plan_exec}): every rule comes out of a single
    trace traversal, subterms shared across rules evaluated once, each
    operator O(n) in trace length independent of its window widths.
    [preflight] and [robust] as in {!check_spec}. *)

val stale_deadlines :
  ?k:float -> periods:(string -> float option) -> string -> float option
(** The deadline derivation {!check_stale_aware} applies, as a reusable
    staleness policy: a signal's maximum acceptable age is
    [k * its expected period] (default [k = 3]); signals [periods] does
    not know never go stale.  Pass the result to
    {!Monitor_trace.Multirate.snapshots} or a
    {!Monitor_trace.Multirate.Feed} — the fleet stream server derives
    its per-session watchdogs from exactly this policy. *)

val check_stale_aware :
  ?preflight:Monitor_analysis.Speclint.env ->
  ?period:float -> ?k:float -> ?hold:float -> ?robust:bool ->
  periods:(string -> float option) -> Monitor_mtl.Spec.t list ->
  Monitor_trace.Trace.t -> rule_outcome list
(** Degraded-mode evaluation: a signal with no fresh sample within
    [k * its expected period] (default [k = 3]) is marked stale, and each
    spec is wrapped with {!Monitor_mtl.Spec.stale_guarded} so rules over
    stale inputs report Unknown — and re-warm for [hold] seconds after
    data returns — instead of guessing True/False.  [periods] gives each
    signal's expected period in seconds (e.g.
    {!Monitor_can.Dbc.signal_period}); signals it does not know keep the
    always-fresh behaviour. *)

val check_spec_online :
  ?preflight:Monitor_analysis.Speclint.env ->
  ?period:float -> ?robust:bool ->
  Monitor_mtl.Spec.t -> Monitor_trace.Trace.t -> rule_outcome
(** Same verdicts through the constant-memory online monitor
    ({!check_online} on the one rule); [robust] streams the incremental
    quantitative executor alongside and folds the running minimum of its
    resolved upper bounds. *)

val check_online :
  ?preflight:Monitor_analysis.Speclint.env ->
  ?period:float -> ?robust:bool ->
  Monitor_mtl.Spec.t list -> Monitor_trace.Trace.t -> rule_outcome list
(** The whole rule set through one fused incremental monitor
    ({!Monitor_mtl.Online.Fused}): a single pass per tick advances every
    rule, with subterms shared across rules advanced once.  Verdict
    streams are byte-identical to per-rule {!check_spec_online} runs.
    [robust] streams one fused incremental robust monitor
    ({!Monitor_mtl.Robust.Online.Fused}) over the same plan and signal
    environment. *)

val status_letter : status -> string
(** ["S"] or ["V"] — Table I notation. *)

val episodes_of_verdicts :
  ?severity:float option array -> times:float array ->
  Monitor_mtl.Verdict.t array -> episode list
(** Group consecutive False ticks (Unknown does not break an episode).
    [severity.(i)] is |severity| at tick [i] when computable. *)
