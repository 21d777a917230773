(** Whole-spec evaluation plans.

    [compile specs] hash-conses every rule body into one shared DAG with
    common-subexpression elimination across rules: structurally equal
    subterms become a single node evaluated once per trace traversal, no
    matter how many rules (or positions within a rule) mention them.  The
    node array is topologically ordered — children strictly precede
    parents — so both the columnar offline executors ({!Plan_exec}) and
    the incremental online executor ({!Online.Fused}) can evaluate all
    rules in a single flat left-to-right pass over the array.

    The builder performs {e no} rewriting: nodes hold the raw formula
    subterms, so a rule's verdict stream from a whole plan is
    byte-identical to its one-root plan's ([compile [spec]]) by
    structural induction, independent of any simplifier.  Subterms that
    read state machines ([in_mode]) are tagged with their owning rule
    and never shared across rules — each
    spec instantiates its own machines, so textually identical mode
    references in two rules denote different state. *)

type window_op = W_always | W_eventually | W_historically | W_once

type shape =
  | Atom  (** leaf for the kernels: [Const]/[Cmp]/[Bool_signal]/[Fresh]/
              [Known]/[Stale]/[In_mode] *)
  | Not of int
  | And of int * int
  | Or of int * int
  | Implies of int * int
  | Window of { op : window_op; lo : float; hi : float; child : int }
  | Warmup of { trigger : int; hold : float; body : int }

type node = {
  form : Formula.t;  (** the raw subformula this node evaluates *)
  shape : shape;     (** same constructor, children as node ids *)
  owner : int;       (** rule index if the subtree reads that rule's state
                         machines; [-1] when shareable across rules *)
  mutable uses : int;  (** consuming edges: parent references plus one per
                           rule whose root this is; [> 1] means shared *)
}

type t = {
  specs : Spec.t array;
  nodes : node array;  (** topologically ordered, children first *)
  roots : int array;   (** [roots.(r)] is rule [r]'s body node *)
}

val compile : Spec.t list -> t

val window_offsets :
  window_op -> lo:float -> hi:float -> float * float * Window.sem
(** [(lo_off, hi_off, sem)]: a window node at tick [t] aggregates its
    child over [[t + lo_off, t + hi_off]] under [sem]. *)

val rule_count : t -> int
val node_count : t -> int

val shared_count : t -> int
(** Nodes with more than one consuming edge. *)

val saved_count : t -> int
(** Subterm evaluations avoided per traversal versus one tree walk per
    rule: total edges minus materialised nodes. *)

val signals : t -> string list
(** Distinct signal names across all rules, first-use order. *)

val children : node -> int list

val reachable : t -> int -> bool array
(** [reachable t r] marks the DAG nodes rule [r]'s root depends on. *)
