(** Offline (whole-log) evaluation.

    The paper performed all its monitoring offline on stored log data; this
    evaluator does the same: given the full snapshot stream it computes the
    spec's verdict at every tick.

    Two kernels implement the bounded-window operators:

    - {!eval_plan} — the columnar plan executor, which {!eval},
      {!eval_array} and {!eval_columns} run on a one-root plan
      ({!Plan.compile} [[spec]]): leaves evaluate columnar against the
      array-backed stream ({!Monitor_trace.Columns}, no per-tick
      snapshot lookup) and windows aggregate in amortised O(1) per tick
      (three verdict counters slide with the window, completeness bounds
      precomputed as index ranges).  O(n) per operator in trace length,
      independent of window width.
    - {!Naive.eval} — the executable definition of the semantics: every
      tick re-scans every sample in its window, O(n·w).  It is preserved
      as the semantics of record; the plan executors' tick-for-tick
      equivalence to it is enforced by the differential test suites, not
      assumed.

    See DESIGN.md §9 for the per-operator complexity table and the
    equivalence argument. *)

type outcome = {
  times : float array;
  verdicts : Verdict.t array;  (** verdict of the formula at each tick *)
  modes : (string * string array) list;
      (** per machine, the post-transition state at each tick *)
}

val eval : Spec.t -> Monitor_trace.Snapshot.t list -> outcome
(** Snapshots must be in strictly increasing time order.
    @raise Invalid_argument naming the offending tick index and both
    timestamps otherwise ({!Naive.eval} raises the identical exception).

    Semantics of bounded operators over the finite log, with [T] the set of
    sample times:
    - [Always [a,b] f] at time [t]: [False] if [f] is [False] at some
      sample in [\[t+a, t+b\]]; [Unknown] if the window runs past the log's
      end or contains an [Unknown] without a [False]; else [True] (an empty
      complete window is vacuously [True]).
    - [Eventually] is the dual ([True] dominates; an empty complete window
      is [False]).
    - [Once [a,b] f] at [t] looks at samples in [\[t-b, t-a\]]; a window
      truncated by the log's start yields [Unknown] unless a [True] (for
      [Once]) or [False] (for [Historically]) already decides it — this is
      the "warm-up" behaviour.
    - [Warmup (trigger, hold, body)] is [Unknown] at [t] when [trigger] was
      [True] at some sample in [\[t-hold, t\]], else the verdict of
      [body]. *)

val eval_array : Spec.t -> Monitor_trace.Snapshot.t array -> outcome
(** {!eval} over an array-backed stream.  Builds the columnar view
    internally; callers evaluating many specs over one log should build it
    once and use {!eval_columns} instead. *)

val eval_columns :
  Spec.t -> Monitor_trace.Snapshot.t array -> Monitor_trace.Columns.t ->
  outcome
(** The fast path with the stream transposition amortised across rules:
    [cols] must be [Monitor_trace.Columns.of_snapshots snaps].  The
    snapshots are still needed for state-machine guards, which step tick
    by tick. *)

val eval_plan :
  Plan.t -> Monitor_trace.Snapshot.t array -> Monitor_trace.Columns.t ->
  outcome array
(** Every rule of a plan in one pass over its node array, indexed like
    [plan.specs]: each shared node's column is computed once and read by
    all its consumers, and a node's column is overwritten in place by its
    parent when that parent is its only consumer.  State machines step
    per rule; only machine-free subterms are shared (see {!Plan}).
    [cols] as in {!eval_columns}. *)

(** The naive reference evaluator — the semantics of record.  Same
    signatures, same outcomes; per-tick snapshot-based leaf evaluation and
    an O(n·w) per-tick window re-scan instead of columnar leaves and the
    sliding kernel.  Exists to be differentially tested against and to
    anchor the benchmark speedup numbers (BENCH_3.json). *)
module Naive : sig
  val eval : Spec.t -> Monitor_trace.Snapshot.t list -> outcome

  val eval_array : Spec.t -> Monitor_trace.Snapshot.t array -> outcome
end

(** {2 Pieces of the plan executor, for {!Robust}}

    {!Robust} keeps warm-up triggers boolean — the degree of "has the
    trigger fired recently" is not meaningful, and evaluating the trigger
    on this module's kernels guarantees the set of suppressed ticks is
    identical to the boolean semantics'. *)

val run_machines :
  Spec.t -> Monitor_trace.Snapshot.t array -> string array * string array array
(** Step every state machine of the spec through the whole log once:
    [(names, modes)] with [modes.(j).(i)] machine [j]'s post-transition
    state at tick [i].  Guards see pre-step modes, as in {!Online}.  Both
    arrays are empty when the spec has no machines. *)

val plan_machines :
  Plan.t -> Monitor_trace.Snapshot.t array ->
  (string array * string array array) array
(** {!run_machines} for every rule of the plan. *)

val node_modes :
  (string array * string array array) array -> Plan.node ->
  string -> string array option
(** The per-machine mode columns a node's atoms evaluate under: its
    owning rule's ([plan_machines]), none for shareable nodes. *)

val plan_node_verdicts :
  col:(int -> Verdict.t array) -> own:(int -> bool) ->
  mode_arr:(string -> string array option) -> float array ->
  Monitor_trace.Columns.t -> Plan.node -> Verdict.t array
(** The verdict column of one plan node from its children's columns
    [col c]; [own c] permits overwriting child [c]'s column in place
    (this node is its only consumer). *)

val eval_subformula_naive :
  Formula.t ->
  mode_lookup_at:(int -> string -> string option) ->
  Monitor_trace.Snapshot.t array ->
  Verdict.t array
(** Naive-path boolean evaluation of one subformula (per-tick leaves,
    window re-scan) — the reference {!Robust.Naive} builds on. *)

val mask_scan : float array -> Verdict.t array -> hold:float -> Verdict.t array
(** The warm-up suppression window: [True] at tick [k] iff the trigger
    verdicts contain a [True] in [[t_k - hold, t_k]] (fast kernel). *)

val mask_rescan :
  float array -> Verdict.t array -> hold:float -> Verdict.t array
(** Naive form of {!mask_scan} — same outcome, per-tick re-scan. *)

val count : Verdict.t array -> Verdict.t -> int

val satisfied : outcome -> bool
(** No [False] verdict anywhere. *)

val first_violation : outcome -> (int * float) option
(** Index and time of the first [False] verdict. *)
