(** Static analysis and reporting over a whole-spec evaluation plan.

    {!Monitor_mtl.Plan.compile} hash-conses a rule set into one shared
    DAG; this module layers the linter's interval analysis
    ({!Speclint.possible_verdicts}) and a cost model on top:

    - which subterms are shared across rules and how many per-tick
      subterm evaluations the fused traversal saves;
    - which nodes the declared signal ranges decide statically
      (always-true / always-false) and which branches are consequently
      dead (a decided sibling short-circuits the connective);
    - per-node signal dependency sets and window extents (horizon and
      history depth), hence each rule's decision latency;
    - a per-rule cost comparison — tree-walked (every consuming edge
      re-walks its subtree) versus fused (distinct DAG nodes);
    - cross-rule duplicate and subsumption pairs
      ({!Speclint.overlap_pairs}).

    All facts are report-only: the executors run the raw plan, so the
    analysis can mislabel a listing but can never change a verdict.
    [repro plan] renders this as text, Graphviz ([--dot]) or JSON
    ([--json]). *)

type decided = Always_true | Always_false

type node_fact = {
  id : int;
  cost : int;            (** per-tick unit cost of this node *)
  signals : string list; (** distinct signals the subterm reads *)
  horizon : float;       (** future extent, seconds *)
  history : float;       (** past extent, seconds *)
  decided : decided option;
      (** statically decided by the declared in-range values, in the
          definite-verdict projection: which of True/False the node
          takes whenever its inputs are defined (it can still read
          Unknown during warm-up or staleness) — the same projection
          the linter's always-true/false-cmp codes report on *)
  live : bool;
      (** reachable from some root through edges no decided sibling
          short-circuits (in the same projection) *)
}

type rule_fact = {
  name : string;
  root : int;
  tree_cost : int;   (** per-rule tree walk: every edge re-walks *)
  fused_cost : int;  (** distinct DAG nodes reachable from the root *)
  horizon : float;
  history : float;
}

type t = {
  plan : Monitor_mtl.Plan.t;
  nodes : node_fact array;   (** indexed like [plan.nodes] *)
  rules : rule_fact array;   (** indexed like [plan.specs] *)
  total_tree_cost : int;
  total_fused_cost : int;
  overlaps : (int * int * [ `Duplicate | `Subsumed ]) list;
  session_bytes : int;
      (** one stream's incremental boolean monitor state at a 10 ms tick
          period ({!Monitor_mtl.Online.Fused.instance_bytes}) *)
  session_bytes_robust : int;
      (** the same for the robust monitor
          ({!Monitor_mtl.Robust.Online.Fused.instance_bytes}) *)
}

val analyze : ?env:Speclint.env -> Monitor_mtl.Spec.t list -> t
(** [env] supplies the DBC/defs-derived ranges the interval analysis
    folds with; without it nothing is decided and the structural facts
    (sharing, costs, extents) still report. *)

val dead_nodes : t -> int list
val shared_nodes : t -> int list

val render : t -> string
(** Human-readable: summary, per-rule costs, and the instruction
    listing with per-node facts. *)

val to_dot : t -> string
(** Graphviz digraph: shared nodes doubled, dead branches dashed,
    decided nodes coloured. *)

val to_json : t -> string
(** One JSON object: [rules], [nodes], [overlaps], [summary]. *)
