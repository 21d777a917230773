(** Quantitative robustness semantics (DESIGN.md §14).

    Boolean verdicts say {e whether} a rule held; robustness says {e by
    how much}.  Every comparison atom evaluates to its signed margin —
    positive when satisfied, negative when violated, the distance in
    signal units to the verdict flipping — and the connectives and
    bounded temporal operators aggregate margins with the usual
    min/max/inf/sup algebra (Deshmukh et al.'s robust interpretation of
    the logic).  A rule that "passed by 0.02 m/s²" and one that passed
    by 3 m/s² both map to [True] in the boolean kernels; here they rank
    differently, which is what the severity-ordered Table I report and
    the fleet gauges consume.

    Partiality is first-class: evaluation produces an {e interval}
    [[lo, hi]] of possible robustness values rather than a point.
    Definite atoms yield degenerate point intervals; [Unknown] atoms
    (undefined expressions, unknown machines), staleness-suppressed
    ticks and incomplete windows widen the side that unseen or unusable
    samples could still move.  At a definite boolean verdict the
    interval collapses to the signed infinities, embedding the boolean
    lattice: [True] is [[+inf, +inf]], [False] is [[-inf, -inf]],
    [Unknown] is [[-inf, +inf]].

    Three kernels mirror the boolean ones and are differentially tested
    tick-for-tick against each other ([test/test_differential.ml]):

    - {!eval_plan} (and {!eval_columns} on a one-root plan) — columnar
      array passes over a whole-spec {!Plan}; sliding windows in
      amortised O(1) per tick via monotonic-wedge deques (the min/max
      generalisation of the boolean three-counter window).
    - {!Naive} — the executable definition: per-tick window re-scan.
    - {!Online} — incremental over a {!Plan}; per-operator [[lo, hi]]
      intervals shrink tick by tick and collapse at trace end.

    NaN follows the IEEE analysis the linter performs on comparisons: a
    NaN operand makes the {e margin} meaningless, so the atom falls back
    to the boolean embedding of its IEEE verdict (every comparison with
    NaN is false) — an injected NaN still shows up as [-inf], never as a
    quiet NaN propagating through the aggregation.

    Warm-up triggers stay boolean: the degree of "has the trigger fired
    recently" is not meaningful, and evaluating triggers on the boolean
    kernels guarantees the set of suppressed ticks is exactly the
    boolean semantics' (suppressed ticks read [[-inf, +inf]]). *)

(** {1 The degree algebra} *)

type bounds = {
  lo : float;  (** robustness is at least this *)
  hi : float;  (** robustness is at most this *)
}
(** A closed interval of possible robustness values, [lo <= hi].  Never
    NaN: partiality is expressed by widening to the infinities. *)

val unknown_bounds : bounds
(** [[-inf, +inf]] — nothing is known. *)

val point : float -> bounds

val of_verdict : Verdict.t -> bounds
(** The boolean embedding: see {!Verdict.robust_lower}. *)

val verdict_of : bounds -> Verdict.t
(** Sign reading of an interval: [True] if [lo > 0], [False] if
    [hi < 0], else [Unknown].  This is a {e reading}, not the boolean
    kernel's verdict — at an exact-zero margin (e.g. [Eq] holding) the
    boolean verdict is [True] while the robustness is the point [0]. *)

val margin : Formula.comparison -> float -> float -> float
(** [margin op a b] is the signed satisfaction degree of [a op b]:
    [b -. a] for [Lt]/[Le], [a -. b] for [Gt]/[Ge], [-|a - b|] for
    [Eq], [|a - b|] for [Ne].  When the arithmetic yields NaN (a NaN
    operand, or [inf - inf]) the result falls back to [+inf]/[-inf]
    according to the actual IEEE comparison, so the returned margin is
    never NaN. *)

val magnitude : float -> float
(** [|x|], with NaN mapped to [+inf] — the "exceptional values are
    maximally severe" convention the oracle's severity episodes use. *)

(** {1 Offline evaluation} *)

type outcome = {
  times : float array;
  lo : float array;  (** per-tick robustness lower bounds *)
  hi : float array;  (** per-tick robustness upper bounds *)
}

val min_upper : outcome -> float option
(** The whole-trace robustness of a rule: the minimum over ticks of the
    per-tick upper bound — how close the log provably came to violation
    ([-inf] once any tick is definitely [False]).  [None] on an empty
    trace. *)

val eval : Spec.t -> Monitor_trace.Snapshot.t list -> outcome
(** Snapshots must be in strictly increasing time order;
    @raise Invalid_argument otherwise, naming the offending tick. *)

val eval_array : Spec.t -> Monitor_trace.Snapshot.t array -> outcome

val eval_columns :
  Spec.t -> Monitor_trace.Snapshot.t array -> Monitor_trace.Columns.t ->
  outcome
(** The fast path with the stream transposition amortised across rules,
    as {!Offline.eval_columns}. *)

val eval_plan :
  Plan.t -> Monitor_trace.Snapshot.t array -> Monitor_trace.Columns.t ->
  outcome array
(** Robustness bounds for every rule of a plan in one pass, as
    {!Offline.eval_plan}.  Warm-up triggers are evaluated boolean over
    the same DAG, so the suppressed tick sets coincide with the boolean
    pass. *)

val severity_values :
  Spec.t -> Monitor_trace.Columns.t -> float option array option
(** Per-tick [|severity|] when the spec declares a severity expression
    ([None] otherwise; [None] entries where the expression is
    undefined).  NaN maps to [+inf] via {!magnitude}.  This is the
    algebra the oracle's episode ranking is defined on; the oracle
    delegates here so the legacy [?severity] column and the robustness
    ranking cannot drift apart. *)

(** The naive reference — the semantics of record for robustness, the
    same way {!Offline.Naive} is for verdicts.  Per-tick window
    re-scans, stateful expression evaluators, O(n·w). *)
module Naive : sig
  val eval : Spec.t -> Monitor_trace.Snapshot.t list -> outcome

  val eval_array : Spec.t -> Monitor_trace.Snapshot.t array -> outcome
end

(** {1 Online (incremental) evaluation} *)

type bool_shared = Online.shared
(** Robust monitors share the boolean monitors' signal environment: a
    {!Online.shared_for} environment drives both kinds over one
    snapshot stream, paying the per-tick refresh once. *)

module Online : sig
  (** The incremental robust kernel: a one-root plan executor on the
      same flat-state substrate as the boolean {!Online} (shared signal
      slots, slot-compiled expressions, one tick-time ring, every node's
      bounds in one pair of float slabs read through cursors; memory
      bounded by window sizes, never trace length), producing per-tick
      robustness {!bounds} instead of verdicts.  Warm-up triggers run
      as boolean plan nodes, advanced exactly as {!Online.Fused}
      advances them.

      Resolved intervals are exactly {!eval_columns}'s.  Before a tick
      resolves, {!pending_bounds} reports a sound interval for it —
      one that always brackets the final value and only shrinks as
      further snapshots arrive — so a live dashboard can show "this
      rule's margin is at most 0.3" while the window is still open.
      Staleness (via a [Warmup] wrapper) widens the interval to
      {!unknown_bounds} rather than producing a definite sign. *)

  type t

  type resolution = {
    tick : int;       (** 0-based index of the tick this is about *)
    time : float;     (** that tick's timestamp *)
    bounds : bounds;  (** final for resolved ticks; a bracketing
                          interval for pending ones *)
  }

  val create : ?shared:bool_shared -> Spec.t -> t
  (** [?shared] must cover the spec's signals, as {!Online.create}. *)

  val step : t -> Monitor_trace.Snapshot.t -> resolution list
  (** Feed the next snapshot (strictly increasing times;
      @raise Invalid_argument otherwise).  Returns every tick whose
      robustness interval became final, oldest first. *)

  val finalize : t -> resolution list
  (** End of log: collapses every still-pending obligation, widening
      what the log cannot decide.  The monitor must not be stepped
      afterwards. *)

  val step_resolved : t -> Monitor_trace.Snapshot.t -> int
  (** Non-allocating form of {!step}: the number of newly final ticks;
      read them with the [resolved_*] accessors before the next
      step/finalize call retires the batch. *)

  val finalize_resolved : t -> int

  val resolved_tick : t -> int -> int
  val resolved_time : t -> int -> float
  val resolved_lo : t -> int -> float
  val resolved_hi : t -> int -> float
  (** Entry [i] of the current batch (0 = oldest).
      @raise Invalid_argument outside the last batch. *)

  val step_iter :
    t -> Monitor_trace.Snapshot.t ->
    (int -> float -> float -> float -> unit) -> unit
  (** [step_iter t snap f] steps and calls [f tick time lo hi] per
      newly final tick, oldest first. *)

  val pending : t -> int
  (** Ticks whose interval is not yet final. *)

  val pending_bounds : t -> resolution list
  (** A sound bracketing interval for every pending tick, oldest
      first: each interval contains the tick's final robustness and,
      re-queried after further steps, never widens.  Cold path — walks
      the operator tree; intended for dashboards and the interval-
      soundness property test, not the per-tick hot loop. *)

  val modes : t -> (string * string) list
  (** Current (post-step) state of each machine. *)

  (** One incremental robust monitor over a whole-spec {!Plan}, the
      robust counterpart of {!Online.Fused}: subterms shared across
      rules advance once per tick, each reader of a shared node reads
      its ring through a cursor of its own, and every rule's resolved intervals — values and resolution timing
      — are exactly a one-root {!create} monitor's. *)
  module Fused : sig
    type program
    (** A plan compiled for incremental robust execution: node kinds,
        child references, slot-compiled leaves, window offsets, ring
        sizing facts and the boolean program of its warm-up triggers
        and masks.  Immutable, so monitors on different domains share
        one. *)

    type t
    (** One stream's monitor: a handful of flat arrays over a
        {!program}. *)

    val compile : ?shared:bool_shared -> Plan.t -> program
    (** As {!Online.Fused.compile}. *)

    val instantiate : ?shared:bool_shared -> program -> t
    (** A fresh monitor; [?shared] as {!Online.Fused.instantiate}. *)

    val create : ?shared:bool_shared -> Plan.t -> t
    (** [instantiate ?shared (compile ?shared plan)]; [?shared] must
        cover every signal of every rule in the plan. *)

    val instance_bytes : program -> period:float -> int
    (** Bytes of one monitor's own state (the program and the signal
        slots are shared and not counted) once it has sized its rings
        for a stream whose ticks are [period] seconds apart, as
        {!Online.Fused.instance_bytes}.  A monitor holds more only if
        its stream is denser than that, if the plan has state machines
        or unbounded windows, or after {!finalize_iter} (which resolves
        every pending tick at once). *)

    val rule_count : t -> int

    val step_iter :
      t -> Monitor_trace.Snapshot.t ->
      (int -> int -> float -> float -> float -> unit) -> unit
    (** [step_iter t snap f] feeds the next snapshot (strictly increasing
        times; @raise Invalid_argument otherwise) and calls
        [f rule tick time lo hi] for every newly final tick of every
        rule — per rule oldest first, rules in [plan.specs] order. *)

    val finalize_iter :
      t -> (int -> int -> float -> float -> float -> unit) -> unit
    (** End of log: collapses every still-pending obligation and reports
        it as {!step_iter} does.  The monitor must not be stepped
        afterwards. *)
  end
end
