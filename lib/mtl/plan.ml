(* Whole-spec evaluation plans: every rule body of a loaded spec file
   hash-consed into one shared DAG (see plan.mli and DESIGN.md §15).

   The builder does structural common-subexpression elimination only —
   no rewriting.  That sharing changes no verdict is then an induction
   over node kinds (a shared node computes exactly what its private copy
   in a rule's one-root plan computes), not a theorem about rewrite
   soundness; the rewrite-based facts (what Interval
   analysis could additionally fold or prune) are computed separately by
   Monitor_analysis.Specplan and reported, never silently applied. *)

type window_op = W_always | W_eventually | W_historically | W_once

type shape =
  | Atom
  | Not of int
  | And of int * int
  | Or of int * int
  | Implies of int * int
  | Window of { op : window_op; lo : float; hi : float; child : int }
  | Warmup of { trigger : int; hold : float; body : int }

type node = {
  form : Formula.t;
  shape : shape;
  owner : int;
  mutable uses : int;
}

type t = {
  specs : Spec.t array;
  nodes : node array;
  roots : int array;
}

(* Hash-consing key: one constructor of the formula with children already
   interned to node ids.  Two structurally equal subtrees produce equal
   keys by induction, so interning is O(size) with small keys — the whole
   Formula.t only ever appears in atom keys.  Keys are compared with the
   polymorphic hash table: atoms containing a NaN constant never unify
   with anything (NaN <> NaN structurally), which merely costs a shared
   node, never soundness. *)
type key =
  | K_atom of Formula.t
  | K_not of int
  | K_and of int * int
  | K_or of int * int
  | K_implies of int * int
  | K_window of window_op * float * float * int
  | K_warmup of int * float * int

let is_atom (f : Formula.t) =
  match f with
  | Formula.Const _ | Formula.Cmp _ | Formula.Bool_signal _ | Formula.Fresh _
  | Formula.Known _ | Formula.Stale _ | Formula.In_mode _ -> true
  | Formula.Not _ | Formula.And _ | Formula.Or _ | Formula.Implies _
  | Formula.Always _ | Formula.Eventually _ | Formula.Historically _
  | Formula.Once _ | Formula.Warmup _ -> false

(* Does the subformula read state machines?  Such subtrees are owned by
   their rule — each spec instantiates its own machines, so a machine
   reference in rule 2 and a textually identical one in rule 4 denote
   different state and must not share a node. *)
let rec has_modes (f : Formula.t) =
  match f with
  | Formula.In_mode _ -> true
  | Formula.Const _ | Formula.Cmp _ | Formula.Bool_signal _ | Formula.Fresh _
  | Formula.Known _ | Formula.Stale _ -> false
  | Formula.Not g -> has_modes g
  | Formula.And (a, b) | Formula.Or (a, b) | Formula.Implies (a, b) ->
    has_modes a || has_modes b
  | Formula.Always (_, g) | Formula.Eventually (_, g)
  | Formula.Historically (_, g) | Formula.Once (_, g) -> has_modes g
  | Formula.Warmup { trigger; body; _ } -> has_modes trigger || has_modes body

let compile spec_list =
  let specs = Array.of_list spec_list in
  let tbl : (int * key, int) Hashtbl.t = Hashtbl.create 64 in
  let nodes = ref (Array.make 64 None) in
  let len = ref 0 in
  let push node =
    if !len = Array.length !nodes then begin
      let bigger = Array.make (2 * !len) None in
      Array.blit !nodes 0 bigger 0 !len;
      nodes := bigger
    end;
    !nodes.(!len) <- Some node;
    incr len;
    !len - 1
  in
  let get id =
    match !nodes.(id) with Some n -> n | None -> assert false
  in
  let use id = (get id).uses <- (get id).uses + 1 in
  let intern_key owner form shape key =
    let okey = (owner, key) in
    match Hashtbl.find_opt tbl okey with
    | Some id -> id
    | None ->
      let id = push { form; shape; owner; uses = 0 } in
      Hashtbl.add tbl okey id;
      (* A fresh node establishes its child edges exactly once; an
         interned hit reuses the existing edges. *)
      (match shape with
      | Atom -> ()
      | Not c -> use c
      | And (a, b) | Or (a, b) | Implies (a, b) ->
        use a;
        use b
      | Window { child; _ } -> use child
      | Warmup { trigger; body; _ } ->
        use trigger;
        use body);
      id
  in
  let rec intern rule (f : Formula.t) =
    let owner = if has_modes f then rule else -1 in
    if is_atom f then intern_key owner f Atom (K_atom f)
    else
      match f with
      | Formula.Not g ->
        let c = intern rule g in
        intern_key owner f (Not c) (K_not c)
      | Formula.And (a, b) ->
        let a = intern rule a in
        let b = intern rule b in
        intern_key owner f (And (a, b)) (K_and (a, b))
      | Formula.Or (a, b) ->
        let a = intern rule a in
        let b = intern rule b in
        intern_key owner f (Or (a, b)) (K_or (a, b))
      | Formula.Implies (a, b) ->
        let a = intern rule a in
        let b = intern rule b in
        intern_key owner f (Implies (a, b)) (K_implies (a, b))
      | Formula.Always (i, g) ->
        let c = intern rule g in
        intern_key owner f
          (Window { op = W_always; lo = i.Formula.lo; hi = i.Formula.hi;
                    child = c })
          (K_window (W_always, i.Formula.lo, i.Formula.hi, c))
      | Formula.Eventually (i, g) ->
        let c = intern rule g in
        intern_key owner f
          (Window { op = W_eventually; lo = i.Formula.lo; hi = i.Formula.hi;
                    child = c })
          (K_window (W_eventually, i.Formula.lo, i.Formula.hi, c))
      | Formula.Historically (i, g) ->
        let c = intern rule g in
        intern_key owner f
          (Window { op = W_historically; lo = i.Formula.lo; hi = i.Formula.hi;
                    child = c })
          (K_window (W_historically, i.Formula.lo, i.Formula.hi, c))
      | Formula.Once (i, g) ->
        let c = intern rule g in
        intern_key owner f
          (Window { op = W_once; lo = i.Formula.lo; hi = i.Formula.hi;
                    child = c })
          (K_window (W_once, i.Formula.lo, i.Formula.hi, c))
      | Formula.Warmup { trigger; hold; body } ->
        let tr = intern rule trigger in
        let bd = intern rule body in
        intern_key owner f
          (Warmup { trigger = tr; hold; body = bd })
          (K_warmup (tr, hold, bd))
      | Formula.Const _ | Formula.Cmp _ | Formula.Bool_signal _
      | Formula.Fresh _ | Formula.Known _ | Formula.Stale _
      | Formula.In_mode _ -> assert false
  in
  let roots =
    Array.mapi
      (fun r (spec : Spec.t) ->
        let id = intern r spec.Spec.formula in
        use id;
        id)
      specs
  in
  { specs;
    nodes = Array.init !len (fun i -> get i);
    roots }

(* Future operators look at [t + lo, t + hi], past ones at
   [t - hi, t - lo]. *)
let window_offsets op ~lo ~hi =
  match op with
  | W_always -> (lo, hi, Window.Universal)
  | W_eventually -> (lo, hi, Window.Existential)
  | W_historically -> (-.hi, -.lo, Window.Universal)
  | W_once -> (-.hi, -.lo, Window.Existential)

let rule_count t = Array.length t.specs

let node_count t = Array.length t.nodes

let shared_count t =
  Array.fold_left (fun acc n -> if n.uses > 1 then acc + 1 else acc) 0 t.nodes

(* Edges of the DAG minus nodes actually materialised: how many subterm
   evaluations CSE avoids per trace traversal, compared to one tree walk
   per rule. *)
let saved_count t =
  Array.fold_left (fun acc n -> acc + n.uses - 1) 0 t.nodes

let signals t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.add seen s ();
            out := s :: !out
          end)
        (Formula.signals spec.Spec.formula))
    t.specs;
  List.rev !out

let children n =
  match n.shape with
  | Atom -> []
  | Not c -> [ c ]
  | And (a, b) | Or (a, b) | Implies (a, b) -> [ a; b ]
  | Window { child; _ } -> [ child ]
  | Warmup { trigger; body; _ } -> [ trigger; body ]

(* Per-rule reachable node sets, for cost reporting: which DAG nodes does
   rule [r]'s root depend on? *)
let reachable t r =
  let marked = Array.make (Array.length t.nodes) false in
  let rec go id =
    if not marked.(id) then begin
      marked.(id) <- true;
      List.iter go (children t.nodes.(id))
    end
  in
  go t.roots.(r);
  marked
