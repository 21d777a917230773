(** Online (incremental, constant-memory) monitoring.

    The paper monitored offline but notes "there is no fundamental reason
    the monitoring could not be done at runtime".  This monitor is that
    runtime form: feed it snapshots one at a time; verdicts for a tick are
    emitted as soon as they are decidable — immediately for past-time
    formulas, after at most {!Formula.horizon} seconds for bounded-future
    ones.  Memory use is bounded by the formula's window sizes, never by
    trace length (the property that lets a bolt-on box keep up with a live
    bus).

    A monitor is a one-root {!Fused} plan ({!Plan.compile} [[spec]])
    with a batch interface.  The kernel is incremental per-tick
    evaluation over flat state (DESIGN.md §12): leaves read per-signal
    slots refreshed once per tick, each temporal operator slides a
    three-counter window over its child's ring by monotone index advance,
    and every node's output is a ring of verdict bytes in one slab.  The
    rings are sized from the formula's horizon and the stream's tick
    spacing and then reused, so a steady-state {!step_resolved} of a
    machine-free spec performs {e no} minor-heap allocation (asserted by
    [test/test_online_alloc.ml]); per-operator cost is amortised O(1) per
    tick.

    [step]/[finalize] produce exactly the verdicts {!Offline.eval} assigns,
    in tick order — this equivalence (and the equivalence of both to the
    naive reference {!Offline.Naive}) is enforced by the differential
    property suite in [test/test_differential.ml]. *)

type t

type resolution = {
  tick : int;       (** 0-based index of the tick the verdict is about *)
  time : float;     (** that tick's timestamp *)
  verdict : Verdict.t;
}

type shared
(** A signal environment shared by several monitors running over the same
    snapshot stream.  Refreshing the per-signal slots from a snapshot is
    the dominant per-tick cost once the operators are amortised-O(1); with
    a shared environment the first monitor stepped with a given snapshot
    (compared by pointer) pays for the refresh and the others reuse it.
    Sharing is safe for monitors stepped with differing snapshots too —
    the pointer check simply never hits. *)

val shared_for : Spec.t list -> shared
(** Environment covering every signal mentioned by any of [specs]. *)

val create : ?shared:shared -> Spec.t -> t
(** [?shared] must come from a {!shared_for} whose spec list included this
    spec (more precisely: covers its signals);
    @raise Invalid_argument otherwise. *)

val step : t -> Monitor_trace.Snapshot.t -> resolution list
(** Feed the next snapshot (strictly increasing times;
    @raise Invalid_argument otherwise).  Returns every verdict that became
    decidable, oldest first.  Convenience wrapper over {!step_resolved}
    that allocates the list. *)

val finalize : t -> resolution list
(** End of log: resolves all still-pending ticks, using [Unknown] for
    obligations the log cannot decide.  The monitor must not be stepped
    afterwards. *)

(** {2 Streaming (non-allocating) interface}

    The zero-allocation path: [step_resolved] returns how many verdicts
    became decidable; the [resolved_*] accessors index into that batch
    (0 = oldest).  A batch stays readable until the next
    [step_resolved]/[finalize_resolved] call retires it.  Ticks resolve in
    order, so concatenating the batches enumerates ticks [0, 1, 2, ...]
    with no gaps. *)

val step_resolved : t -> Monitor_trace.Snapshot.t -> int
(** Like {!step}, but returns only the number of newly resolved ticks and
    allocates nothing in the steady state (machine-free specs, buffers
    warmed past the horizon, telemetry off). *)

val finalize_resolved : t -> int
(** Like {!finalize}: resolves everything still pending and returns the
    size of the final batch. *)

val resolved_tick : t -> int -> int
val resolved_time : t -> int -> float
val resolved_verdict : t -> int -> Verdict.t
(** Read entry [i] of the current batch.
    @raise Invalid_argument if [i] is outside the batch returned by the
    last {!step_resolved}/{!finalize_resolved}. *)

val resolved_get : t -> int -> resolution
(** Entry [i] of the current batch as a record (allocates). *)

val step_iter :
  t -> Monitor_trace.Snapshot.t -> (int -> float -> Verdict.t -> unit) -> unit
(** [step_iter t snap f] steps and calls [f tick time verdict] for each
    newly resolved tick, oldest first. *)

val pending : t -> int
(** Ticks whose verdict is not yet resolved. *)

val modes : t -> (string * string) list
(** Current (post-step) state of each machine. *)

(** {2 Fused whole-spec monitoring}

    One incremental monitor over a whole-spec {!Plan}: every rule
    advances in a single pass per tick over the plan's topologically
    ordered node array, and each subterm shared across rules (or within
    one rule) is advanced once instead of once per occurrence.  Every
    rule's verdict stream — content {e and} resolution timing — is
    byte-identical to a dedicated one-root monitor's ({!create} +
    {!step}), which is what lets the fleet's [--verify] replay compare
    the two; the equivalence is enforced by the batch-identity property
    in [test/test_plan.ml].

    Machines remain per-rule state (only machine-free subterms are
    shared, see {!Plan}), and steady-state steps of machine-free plans
    allocate nothing. *)
module Fused : sig
  type program
  (** A plan compiled for incremental execution: node kinds, child
      references, slot-compiled leaves, window offsets and ring sizing
      facts.  Immutable, so monitors on different domains share one. *)

  type t
  (** One stream's monitor: a handful of flat arrays over a {!program}. *)

  val compile : ?shared:shared -> Plan.t -> program
  (** Compile against [shared]'s signal slots (must cover every signal
      of every rule in the plan; use {!shared_for} on [plan.specs]), or
      against the plan's own signals. *)

  val instantiate : ?shared:shared -> program -> t
  (** A fresh monitor.  [?shared] must have the slot layout the program
      was compiled against (a {!shared_for} over the same specs);
      @raise Invalid_argument otherwise. *)

  val create : ?shared:shared -> Plan.t -> t
  (** [instantiate ?shared (compile ?shared plan)]. *)

  val instance_bytes : program -> period:float -> int
  (** Bytes of one monitor's own state (the program and the signal slots
      are shared and not counted) once it has sized its rings for a
      stream whose ticks are [period] seconds apart — the computation the
      rings are laid out and grown by.  A monitor holds more only if its
      stream is denser than that, if the plan has state machines, or if
      it has unbounded windows (whose rings grow with the stream; the
      figure counts them at their initial 4096 ticks). *)

  val rule_count : t -> int

  val step_iter :
    t ->
    Monitor_trace.Snapshot.t ->
    (int -> int -> float -> Verdict.t -> unit) ->
    unit
  (** [step_iter t snap f] feeds the next snapshot (strictly increasing
      times; @raise Invalid_argument otherwise) and calls
      [f rule tick time verdict] for every newly resolved tick of every
      rule — per rule oldest first, rules in [plan.specs] order.
      Allocates nothing in the steady state for machine-free plans. *)

  val finalize_iter : t -> (int -> int -> float -> Verdict.t -> unit) -> unit
  (** End of log: resolves every still-pending tick of every rule
      ([Unknown] where the log cannot decide) and reports them through
      [f] as {!step_iter} does.  The monitor must not be stepped
      afterwards. *)

  val modes : t -> int -> (string * string) list
  (** Current (post-step) state of rule [r]'s machines. *)
end

(** {2 Substrate, for {!Robust.Online} only}

    The robust incremental executor runs its own node kinds over the same
    per-tick substrate: flat signal slots, slot-compiled expressions and
    immediate formulas, ring sizing, and a boolean program and instance
    that own the clock, the tick-time ring, the signal refresh and the
    per-rule machines and run the warm-up masks as boolean plan nodes,
    built and advanced exactly as {!Fused} builds and advances them.
    This module re-exports that substrate so there is exactly one
    implementation of each piece; it is not a stable API and nothing
    outside [lib/mtl] should touch it. *)
module Internal : sig
  type signals
  (** The flat per-signal slot state behind {!shared}. *)

  (** All-float scratch record the expression evaluator writes through;
      concrete so callers read [acc]/[def] as unboxed field loads. *)
  type estate = {
    mutable acc : float;     (** value of the node just evaluated *)
    mutable def : float;     (** 1.0 defined / 0.0 undefined *)
    mutable dt : float;      (** time since the previous tick *)
    mutable dt_def : float;  (** 0.0 on the first tick *)
    mutable now : float;     (** current tick time *)
    mutable last : float;    (** previous tick time *)
    mutable first : float;   (** time of tick 0 *)
  }

  type env
  type enode
  type vnode

  type node
  (** A warm-up mask: a boolean node with one reader. *)

  type dag
  (** Build-time table of boolean plan nodes. *)

  type cprog
  (** A compiled boolean program (what {!Fused.program} is). *)

  type core
  (** A boolean instance: nodes, clock, tick-time ring, signal
      environment and per-rule machines. *)

  val env_est : env -> estate
  val compile_expr : signals -> int ref -> Expr.t -> enode
  val eval_expr : env -> enode -> unit
  val compile_vnode : signals -> string array -> int ref -> Formula.t -> vnode
  val eval_vnode : env -> vnode -> Verdict.t

  val dag_create : Plan.t -> dag
  (** An empty table for the plan's nodes; a node built into it with
      more than one consuming edge keeps its entries until the slowest
      reader has passed them. *)

  val dag_add :
    dag -> signals -> string array -> int ref -> int -> Plan.node -> unit
  (** Build plan node [id] (children must be built already) against the
      machine table of its owner. *)

  val dag_mask : dag -> trigger:int -> hold:float -> ret:float -> node
  (** A private warm-up suppression window over built node [trigger]:
      [True] at [t] iff the trigger was [True] in [[t - hold, t]].  Its
      one reader may leave [ret] seconds of its verdicts unconsumed. *)

  val dag_span : dag -> float -> unit
  (** Make the tick-time ring keep at least this many seconds of ticks
      (for nodes built outside the dag that read tick times). *)

  val core_compile :
    ?shared:shared -> Plan.t ->
    (signals -> (int -> string array) -> int ref -> dag * 'a) ->
    cprog * 'a
  (** [core_compile plan build]: [build sg names_of nhist] compiles the
      boolean nodes into a dag, [names_of owner] being the machine table
      a node of that owner resolves [in_mode] against; ['a] is whatever
      else [build] compiled against the same signals and history. *)

  val core_instantiate : ?shared:shared -> cprog -> core
  (** As {!Fused.instantiate}. *)

  val core_words : cprog -> period:float -> int
  (** Words of a core's own state, as {!Fused.instance_bytes} / 8. *)

  val presize : dt:float -> float -> int
  (** Ring capacity, in ticks, a ring retaining that many seconds is
      laid out at when ticks are [dt] apart. *)

  val settled_ticks : period:float -> float -> int
  (** The capacity such a ring settles at once grown. *)

  val pow2_at_least : int -> int

  val core_check : who:string -> core -> Monitor_trace.Snapshot.t -> unit
  (** Validate the next snapshot; [who] prefixes the error messages. *)

  val core_advance : core -> Monitor_trace.Snapshot.t -> unit
  (** Step the clock, the tick-time ring, the signal slots and the
      machines to a checked snapshot and advance every boolean node
      once. *)

  val core_finalize : who:string -> core -> unit
  val core_env : core -> env
  val core_ticks : core -> int

  val core_times : core -> float array
  (** The tick-time ring: tick [k]'s time at [k land (length - 1)].
      Replaced when it grows, so re-read it after {!core_ensure_floor}. *)

  val core_ensure_floor : core -> int -> unit
  (** Keep tick [floor] onward in the tick-time ring across the next
      push. *)

  val core_modes : core -> int -> (string * string) list

  val out_hi : env -> node -> int
  val out_cursor : env -> node -> int
  val out_verdict : env -> node -> int -> Verdict.t
  val out_consume_to : env -> node -> int -> unit
  (** A mask's output ring in the core [env]: ticks [[out_cursor,
      out_hi)] are resolved and retained; [out_verdict env n tick] reads
      one of them and [out_consume_to env n tick] retires those below
      [tick]. *)
end
