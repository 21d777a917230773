(** Vacuity and coverage accounting.

    The paper notes that expert-derived rules "may not provide as clear a
    notion of monitoring coverage" (§III-C).  One measurable piece of that:
    a guarded rule (an implication) that passed only because its premise
    never held delivers {e no} evidence about the consequent — a test whose
    oracle was never armed.  For each top-level implication (descending
    through [always]-style wrappers and conjunctions of implications), this
    module counts how often the premise actually held in the log. *)

type guard_report = {
  premise : Monitor_mtl.Formula.t;
  armed_ticks : int;        (** ticks where the premise was True *)
  unknown_ticks : int;      (** ticks where the premise was Unknown *)
  total_ticks : int;
}

type t = {
  spec : Monitor_mtl.Spec.t;
  guards : guard_report list;  (** empty when the formula has no guard *)
  vacuous : bool;
      (** true iff the spec has at least one guard and no guard was ever
          armed — a satisfied verdict carries no evidence *)
}

val analyze :
  ?period:float -> Monitor_mtl.Spec.t -> Monitor_trace.Trace.t -> t

val analyze_snapshots :
  Monitor_mtl.Spec.t -> Monitor_trace.Snapshot.t list -> t

val analyze_many :
  ?period:float -> Monitor_mtl.Spec.t list -> Monitor_trace.Trace.t -> t list
(** One report per spec.  The snapshot stream is cut and transposed
    once, and every premise of every spec is evaluated as one rule of a
    single plan ({!Monitor_mtl.Plan_exec}), so adding coverage accounting
    to a campaign costs one shared plan pass rather than one trace
    conversion per premise. *)

val armed_ticks : t -> int
(** Ticks where at least one guard was armed, approximated from the
    per-guard counts as their maximum; [total_ticks] for unguarded specs
    (an unguarded rule gathers evidence on every tick). *)

val total_ticks : t -> int
(** Trace length in ticks seen by the analysis; 0 when the spec is
    unguarded (no premise was evaluated). *)

val render : t -> string
