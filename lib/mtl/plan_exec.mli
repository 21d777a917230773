(** Columnar (offline) execution of a whole-spec {!Plan}.

    One pass over the plan's topologically ordered node array evaluates
    every rule against a single trace traversal: each shared node's
    column is computed once and consumed by all its parents.  The
    single-rule entry points ({!Offline.eval}, {!Robust.eval} and their
    [_array]/[_columns] forms) are these executors on a one-root plan;
    the differential suites check both against the naive references
    ({!Offline.Naive}, {!Robust.Naive}).

    State machines remain per-rule state: each rule's machines step
    exactly as the naive kernels step them, and only machine-free
    subterms are shared across rules (see {!Plan}). *)

val eval_columns :
  Plan.t -> Monitor_trace.Snapshot.t array -> Monitor_trace.Columns.t ->
  Offline.outcome array
(** Boolean verdicts for every rule, indexed like [plan.specs].  [cols]
    must be [Columns.of_snapshots snaps], as {!Offline.eval_columns};
    this is {!Offline.eval_plan}. *)

val eval_columns_robust :
  Plan.t -> Monitor_trace.Snapshot.t array -> Monitor_trace.Columns.t ->
  Robust.outcome array
(** Robustness bounds for every rule.  Warm-up triggers are evaluated
    boolean over the same DAG, so the suppressed tick sets coincide
    with the boolean pass; this is {!Robust.eval_plan}. *)
