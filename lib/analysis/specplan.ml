(* Whole-spec static analysis over the fused evaluation plan.

   Plan.compile already did the structural work — hash-consing every
   rule body into one shared, topologically ordered DAG.  This module
   layers the linter's interval analysis and a cost model on top and
   reports the facts: which subterms are shared (and how many
   evaluations that saves per tick), which nodes are statically decided
   by the declared signal ranges, which branches are dead because a
   sibling decides the connective, what each window's extent costs in
   buffered ticks, and what each rule costs tree-walked versus fused.

   Everything here is report-only.  The executors run the raw plan —
   their agreement with the naive references is checked differentially
   — so a wrong fact here can mislabel a listing but can never corrupt a
   verdict. *)

module Formula = Monitor_mtl.Formula
module Spec = Monitor_mtl.Spec
module Plan = Monitor_mtl.Plan
module Pretty = Monitor_util.Pretty

type decided = Always_true | Always_false

type node_fact = {
  id : int;
  cost : int;
  signals : string list;
  horizon : float;
  history : float;
  decided : decided option;
  live : bool;
}

type rule_fact = {
  name : string;
  root : int;
  tree_cost : int;
  fused_cost : int;
  horizon : float;
  history : float;
}

type t = {
  plan : Plan.t;
  nodes : node_fact array;
  rules : rule_fact array;
  total_tree_cost : int;
  total_fused_cost : int;
  overlaps : (int * int * [ `Duplicate | `Subsumed ]) list;
  session_bytes : int;
  session_bytes_robust : int;
}

(* Unit cost of advancing one node by one tick: leaves pay for the
   compiled expression walk, connectives for a byte op, windows for the
   amortised ring update, warm-up for mask plus combine.  Crude, but
   the ratios match the kernels' relative per-node work closely enough
   to rank rules and to price sharing. *)
let node_cost (n : Plan.node) =
  match n.Plan.shape with
  | Plan.Atom -> 2
  | Plan.Not _ | Plan.And _ | Plan.Or _ | Plan.Implies _ -> 1
  | Plan.Window _ -> 3
  | Plan.Warmup _ -> 4

let dedup_signals names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun s ->
      if Hashtbl.mem seen s then false
      else begin
        Hashtbl.add seen s ();
        true
      end)
    names

let analyze ?env:(lenv = Speclint.env ()) (specs : Spec.t list) =
  let plan = Plan.compile specs in
  let nnodes = Array.length plan.Plan.nodes in
  let decided = Array.make nnodes None in
  (* Decided in the definite-verdict projection: any signal sample can
     be missing at the stream's start, so [can_unknown] is almost always
     on; what the ranges do decide is which of True/False the node takes
     {e whenever its inputs are defined} — the same projection the
     linter's always-true/false-cmp codes report on. *)
  Array.iteri
    (fun id (n : Plan.node) ->
      let o = Speclint.possible_verdicts lenv n.Plan.form in
      if o.Speclint.can_true && not o.Speclint.can_false then
        decided.(id) <- Some Always_true
      else if o.Speclint.can_false && not o.Speclint.can_true then
        decided.(id) <- Some Always_false)
    plan.Plan.nodes;
  (* Liveness: DFS from the roots that skips edges a decided sibling
     short-circuits.  Reachable-but-not-live nodes are statically dead
     branches — work a rewriting compiler could drop. *)
  let live = Array.make nnodes false in
  let rec mark id =
    if not live.(id) then begin
      live.(id) <- true;
      let dec c = decided.(c) in
      match plan.Plan.nodes.(id).Plan.shape with
      | Plan.Atom -> ()
      | Plan.Not c -> mark c
      | Plan.And (a, b) ->
        if dec b <> Some Always_false then mark a;
        if dec a <> Some Always_false then mark b
      | Plan.Or (a, b) ->
        if dec b <> Some Always_true then mark a;
        if dec a <> Some Always_true then mark b
      | Plan.Implies (a, b) ->
        if dec b <> Some Always_true then mark a;
        if dec a <> Some Always_false then mark b
      | Plan.Window { child; _ } -> mark child
      | Plan.Warmup { trigger; body; _ } ->
        if dec trigger <> Some Always_false then mark trigger;
        mark body
    end
  in
  Array.iter mark plan.Plan.roots;
  let cost = Array.map node_cost plan.Plan.nodes in
  (* Tree cost: what walking each rule as its own tree pays — every
     consuming edge re-walks the subtree.  Memoizable because the DAG is
     acyclic. *)
  let tree_cost = Array.make nnodes 0 in
  Array.iteri
    (fun id (n : Plan.node) ->
      tree_cost.(id) <-
        cost.(id)
        + List.fold_left (fun acc c -> acc + tree_cost.(c)) 0 (Plan.children n))
    plan.Plan.nodes;
  let fused_cost_of r =
    let reach = Plan.reachable plan r in
    let acc = ref 0 in
    Array.iteri (fun id m -> if m then acc := !acc + cost.(id)) reach;
    !acc
  in
  let rules =
    Array.mapi
      (fun r root ->
        let spec = plan.Plan.specs.(r) in
        { name = spec.Spec.name;
          root;
          tree_cost = tree_cost.(root);
          fused_cost = fused_cost_of r;
          horizon = Formula.horizon spec.Spec.formula;
          history = Formula.history_depth spec.Spec.formula })
      plan.Plan.roots
  in
  let nodes =
    Array.mapi
      (fun id (n : Plan.node) ->
        { id;
          cost = cost.(id);
          signals = dedup_signals (Formula.signals n.Plan.form);
          horizon = Formula.horizon n.Plan.form;
          history = Formula.history_depth n.Plan.form;
          decided = decided.(id);
          live = live.(id) })
      plan.Plan.nodes
  in
  { plan;
    nodes;
    rules;
    total_tree_cost = Array.fold_left (fun a r -> a + r.tree_cost) 0 rules;
    total_fused_cost = Array.fold_left (fun a c -> a + c) 0 cost;
    overlaps = Speclint.overlap_pairs specs;
    session_bytes =
      Monitor_mtl.Online.Fused.(instance_bytes (compile plan) ~period:0.01);
    session_bytes_robust =
      Monitor_mtl.Robust.Online.Fused.(
        instance_bytes (compile plan) ~period:0.01) }

let dead_nodes t =
  let out = ref [] in
  Array.iteri
    (fun id (f : node_fact) -> if not f.live then out := id :: !out)
    t.nodes;
  List.rev !out

let shared_nodes t =
  let out = ref [] in
  Array.iteri
    (fun id (n : Plan.node) -> if n.Plan.uses > 1 then out := id :: !out)
    t.plan.Plan.nodes;
  List.rev !out

(* Rendering ---------------------------------------------------------------- *)

let opcode (n : Plan.node) =
  let w op lo hi c =
    Printf.sprintf "%s[%s,%s] n%d" op (Pretty.float_exact lo)
      (Pretty.float_exact hi) c
  in
  match n.Plan.shape with
  | Plan.Atom -> "atom"
  | Plan.Not c -> Printf.sprintf "not n%d" c
  | Plan.And (a, b) -> Printf.sprintf "and n%d n%d" a b
  | Plan.Or (a, b) -> Printf.sprintf "or n%d n%d" a b
  | Plan.Implies (a, b) -> Printf.sprintf "implies n%d n%d" a b
  | Plan.Window { op = Plan.W_always; lo; hi; child } -> w "always" lo hi child
  | Plan.Window { op = Plan.W_eventually; lo; hi; child } ->
    w "eventually" lo hi child
  | Plan.Window { op = Plan.W_historically; lo; hi; child } ->
    w "historically" lo hi child
  | Plan.Window { op = Plan.W_once; lo; hi; child } -> w "once" lo hi child
  | Plan.Warmup { trigger; hold; body } ->
    Printf.sprintf "warmup n%d hold=%s n%d" trigger (Pretty.float_exact hold)
      body

let truncate_text limit s =
  if String.length s <= limit then s else String.sub s 0 (limit - 3) ^ "..."

let fact_suffix (f : node_fact) (n : Plan.node) =
  let tags = ref [] in
  if not f.live then tags := "dead" :: !tags;
  (match f.decided with
   | Some Always_true -> tags := "always-true" :: !tags
   | Some Always_false -> tags := "always-false" :: !tags
   | None -> ());
  if n.Plan.owner >= 0 then
    tags := Printf.sprintf "rule=%d" n.Plan.owner :: !tags;
  if n.Plan.uses > 1 then tags := Printf.sprintf "uses=%d" n.Plan.uses :: !tags;
  match !tags with
  | [] -> ""
  | tags -> Printf.sprintf "  {%s}" (String.concat " " (List.rev tags))

let render t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let nrules = Array.length t.rules in
  add "plan: %d rule%s, %d nodes (%d shared, %d evaluations saved per tick)\n"
    nrules
    (if nrules = 1 then "" else "s")
    (Plan.node_count t.plan) (Plan.shared_count t.plan)
    (Plan.saved_count t.plan);
  add "cost: %d fused vs %d per-rule trees (%.0f%% of tree cost)\n"
    t.total_fused_cost t.total_tree_cost
    (if t.total_tree_cost = 0 then 100.0
     else 100.0 *. float_of_int t.total_fused_cost
          /. float_of_int t.total_tree_cost);
  add "state: %d bytes per stream at a 10 ms tick period (robust: %d)\n"
    t.session_bytes t.session_bytes_robust;
  let dead = dead_nodes t in
  if dead <> [] then
    add "dead: %d node%s statically unreachable under declared ranges (%s)\n"
      (List.length dead)
      (if List.length dead = 1 then "" else "s")
      (String.concat " " (List.map (Printf.sprintf "n%d") dead));
  List.iter
    (fun (i, j, kind) ->
      match kind with
      | `Duplicate ->
        add "overlap: rule %s duplicates rule %s\n" t.rules.(j).name
          t.rules.(i).name
      | `Subsumed ->
        add "overlap: rule %s is subsumed by rule %s\n" t.rules.(i).name
          t.rules.(j).name)
    t.overlaps;
  add "\nrules:\n";
  Array.iter
    (fun r ->
      add "  %-24s root=n%-4d cost %4d fused / %4d tree   horizon %ss past %ss\n"
        r.name r.root r.fused_cost r.tree_cost
        (Pretty.float_exact r.horizon)
        (Pretty.float_exact r.history))
    t.rules;
  add "\nplan listing:\n";
  Array.iteri
    (fun id (n : Plan.node) ->
      add "  n%-4d %-28s ; %s%s\n" id (opcode n)
        (truncate_text 56 (Formula.to_string n.Plan.form))
        (fact_suffix t.nodes.(id) n))
    t.plan.Plan.nodes;
  Buffer.contents buf

let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph specplan {\n  rankdir=BT;\n  node [fontname=\"monospace\"];\n";
  Array.iteri
    (fun id (n : Plan.node) ->
      let f = t.nodes.(id) in
      let shape = if n.Plan.uses > 1 then "doubleoctagon" else "box" in
      let style = if f.live then "solid" else "dashed" in
      let extra =
        match f.decided with
        | Some Always_true -> ",color=green"
        | Some Always_false -> ",color=red"
        | None -> ""
      in
      add "  n%d [shape=%s,style=%s%s,label=\"n%d: %s\"];\n" id shape style
        extra id
        (dot_escape (truncate_text 40 (opcode n)));
      List.iter (fun c -> add "  n%d -> n%d;\n" c id) (Plan.children n))
    t.plan.Plan.nodes;
  Array.iteri
    (fun r root ->
      add "  r%d [shape=plaintext,label=\"%s\"];\n  n%d -> r%d;\n" r
        t.rules.(r).name root r)
    t.plan.Plan.roots;
  add "}\n";
  Buffer.contents buf

let to_json t =
  let esc = Monitor_obs.Metrics.json_escape in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\"rules\":[";
  Array.iteri
    (fun r (rf : rule_fact) ->
      if r > 0 then add ",";
      add
        "{\"name\":\"%s\",\"root\":%d,\"tree_cost\":%d,\"fused_cost\":%d,\
         \"horizon\":%s,\"history\":%s}"
        (esc rf.name) rf.root rf.tree_cost rf.fused_cost
        (Pretty.float_exact rf.horizon)
        (Pretty.float_exact rf.history))
    t.rules;
  add "],\"nodes\":[";
  Array.iteri
    (fun id (n : Plan.node) ->
      let f = t.nodes.(id) in
      if id > 0 then add ",";
      add
        "{\"id\":%d,\"op\":\"%s\",\"formula\":\"%s\",\"owner\":%d,\
         \"uses\":%d,\"cost\":%d,\"live\":%b"
        id (esc (opcode n))
        (esc (Formula.to_string n.Plan.form))
        n.Plan.owner n.Plan.uses f.cost f.live;
      (match f.decided with
       | Some Always_true -> add ",\"decided\":true"
       | Some Always_false -> add ",\"decided\":false"
       | None -> ());
      add ",\"signals\":[%s]}"
        (String.concat ","
           (List.map (fun s -> Printf.sprintf "\"%s\"" (esc s)) f.signals)))
    t.plan.Plan.nodes;
  add "],\"overlaps\":[";
  List.iteri
    (fun k (i, j, kind) ->
      if k > 0 then add ",";
      add "{\"kind\":\"%s\",\"redundant\":\"%s\",\"covered_by\":\"%s\"}"
        (match kind with `Duplicate -> "duplicate" | `Subsumed -> "subsumed")
        (esc
           (match kind with
            | `Duplicate -> t.rules.(j).name
            | `Subsumed -> t.rules.(i).name))
        (esc
           (match kind with
            | `Duplicate -> t.rules.(i).name
            | `Subsumed -> t.rules.(j).name)))
    t.overlaps;
  add
    "],\"summary\":{\"nodes\":%d,\"shared\":%d,\"saved_per_tick\":%d,\
     \"fused_cost\":%d,\"tree_cost\":%d,\"session_bytes\":%d,\
     \"session_bytes_robust\":%d}}"
    (Plan.node_count t.plan) (Plan.shared_count t.plan)
    (Plan.saved_count t.plan) t.total_fused_cost t.total_tree_cost
    t.session_bytes t.session_bytes_robust;
  Buffer.contents buf
