type outcome = {
  times : float array;
  verdicts : Verdict.t array;
  modes : (string * string array) list;
}

let time_eps = Window.time_eps

(* Both evaluators (and the differential tests) must observe the same
   exception on a malformed stream, so the check lives in one place and is
   labelled identically for the fast and the naive path. *)
let check_times = Window.check_times "Offline.eval"

(* State machines run once through the whole log.  Guards see every
   machine's pre-step (previous tick) state; the formula sees post-step
   states — the same convention as Online.  Machines are indexed by
   position, not an assoc list, so the per-tick work is two array sweeps. *)
let run_machines (spec : Spec.t) snaps =
  let n = Array.length snaps in
  let machines = Array.of_list spec.Spec.machines in
  let m = Array.length machines in
  if m = 0 then ([||], [||])
  else begin
  let names = Array.map (fun (mc : State_machine.t) -> mc.State_machine.name) machines in
  let runtimes = Array.map State_machine.start machines in
  let modes = Array.map (fun _ -> Array.make n "") machines in
  let pre = Array.make m "" in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      pre.(j) <- State_machine.current runtimes.(j)
    done;
    let pre_lookup name =
      let rec find j =
        if j >= m then None
        else if String.equal names.(j) name then Some pre.(j)
        else find (j + 1)
      in
      find 0
    in
    for j = 0 to m - 1 do
      modes.(j).(i) <- State_machine.step runtimes.(j) ~mode_lookup:pre_lookup snaps.(i)
    done
  done;
  (names, modes)
  end

(* Naive leaf evaluation: compile once, step over every tick in order (the
   expression evaluators carry prev/delta history, so the iteration order
   is part of the semantics).  The fast path instead evaluates leaves
   columnar — see [eval_columns] below. *)
let eval_leaf formula snaps mode_lookup_at =
  let compiled = Immediate.compile_exn formula in
  let n = Array.length snaps in
  let out = Array.make n Verdict.Unknown in
  for i = 0 to n - 1 do
    out.(i) <- Immediate.eval compiled ~mode_lookup:(mode_lookup_at i) snaps.(i)
  done;
  out

(* The naive reference's formula walk: evaluate a formula to its
   whole-log verdict array, [leaf] supplying the immediate fragment and
   [scan] the window rescan.  The production path evaluates plans
   instead (see [eval_plan] below). *)
let eval_formula ~leaf ~scan times =
  let rec eval_f (f : Formula.t) =
    match f with
    | Formula.Const _ | Formula.Cmp _ | Formula.Bool_signal _ | Formula.Fresh _
    | Formula.Known _ | Formula.Stale _ | Formula.In_mode _ -> leaf f
    (* Every subformula's verdict array is freshly allocated and uniquely
       owned here, so the connectives overwrite their left operand instead
       of allocating a third array — on long traces these 8n-byte
       temporaries otherwise dominate the garbage produced per log. *)
    | Formula.Not g ->
      let v = eval_f g in
      for k = 0 to Array.length v - 1 do
        v.(k) <- Verdict.not_ v.(k)
      done;
      v
    | Formula.And (a, b) ->
      let va = eval_f a and vb = eval_f b in
      for k = 0 to Array.length va - 1 do
        va.(k) <- Verdict.and_ va.(k) vb.(k)
      done;
      va
    | Formula.Or (a, b) ->
      let va = eval_f a and vb = eval_f b in
      for k = 0 to Array.length va - 1 do
        va.(k) <- Verdict.or_ va.(k) vb.(k)
      done;
      va
    | Formula.Implies (a, b) ->
      let va = eval_f a and vb = eval_f b in
      for k = 0 to Array.length va - 1 do
        va.(k) <- Verdict.implies va.(k) vb.(k)
      done;
      va
    | Formula.Always (i, g) ->
      scan times (eval_f g) ~lo_off:i.Formula.lo ~hi_off:i.Formula.hi
        ~sem:Window.Universal
    | Formula.Eventually (i, g) ->
      scan times (eval_f g) ~lo_off:i.Formula.lo ~hi_off:i.Formula.hi
        ~sem:Window.Existential
    | Formula.Historically (i, g) ->
      scan times (eval_f g) ~lo_off:(-.i.Formula.hi) ~hi_off:(-.i.Formula.lo)
        ~sem:Window.Universal
    | Formula.Once (i, g) ->
      scan times (eval_f g) ~lo_off:(-.i.Formula.hi) ~hi_off:(-.i.Formula.lo)
        ~sem:Window.Existential
    | Formula.Warmup { trigger; hold; body } ->
      let vt = eval_f trigger in
      let vb = eval_f body in
      (* "trigger seen within the last [hold] seconds", truncated at the
         log start without becoming Unknown: warm-up windows shorter than
         [hold] simply have less to suppress. *)
      let suppress = scan times vt ~lo_off:(-.hold) ~hi_off:0.0 ~sem:Window.Mask in
      for k = 0 to Array.length times - 1 do
        match suppress.(k) with
        | Verdict.True -> vb.(k) <- Verdict.Unknown
        | Verdict.False | Verdict.Unknown -> ()
      done;
      vb
  in
  eval_f

let mode_outcome names modes =
  List.combine (Array.to_list names) (Array.to_list modes)

(* Naive evaluation skeleton: per-tick snapshot-based leaves. *)
let eval_with ~scan (spec : Spec.t) snaps =
  let n = Array.length snaps in
  let times = Array.map (fun s -> s.Monitor_trace.Snapshot.time) snaps in
  check_times times;
  let names, modes = run_machines spec snaps in
  let mode_lookup_at i machine =
    let m = Array.length names in
    let rec find j =
      if j >= m then None
      else if String.equal names.(j) machine then Some modes.(j).(i)
      else find (j + 1)
    in
    find 0
  in
  let leaf f = eval_leaf f snaps mode_lookup_at in
  let verdicts =
    if n = 0 then [||] else eval_formula ~leaf ~scan times spec.Spec.formula
  in
  { times; verdicts; modes = mode_outcome names modes }

(* Fast kernel: both window endpoints are monotone in the tick index, so
   three verdict counters slide over the child array in amortised O(1) per
   tick — the bucket-count form of a monotonic-deque window minimum, exact
   here because verdicts form a three-point chain.  Window completeness is
   also monotone, so it is precomputed as an index range instead of two
   float comparisons per tick. *)
let window_scan times child ~lo_off ~hi_off ~sem =
  let n = Array.length times in
  let out = Array.make n Verdict.Unknown in
  if n > 0 then begin
    let t_first = times.(0) and t_last = times.(n - 1) in
    (* complete(k) <=> first_complete <= k <= last_complete *)
    let first_complete = ref 0 in
    while
      !first_complete < n && times.(!first_complete) +. lo_off +. time_eps < t_first
    do
      incr first_complete
    done;
    let last_complete = ref (n - 1) in
    while !last_complete >= 0 && times.(!last_complete) +. hi_off -. time_eps > t_last do
      decr last_complete
    done;
    let lo = ref 0 and hi = ref (-1) in
    let nt = ref 0 and nf = ref 0 and nu = ref 0 in
    let count delta j =
      match child.(j) with
      | Verdict.True -> nt := !nt + delta
      | Verdict.False -> nf := !nf + delta
      | Verdict.Unknown -> nu := !nu + delta
    in
    for k = 0 to n - 1 do
      let wlo = times.(k) +. lo_off -. time_eps in
      let whi = times.(k) +. hi_off +. time_eps in
      while !hi + 1 < n && times.(!hi + 1) <= whi do
        incr hi;
        count 1 !hi
      done;
      while !lo <= !hi && times.(!lo) < wlo do
        count (-1) !lo;
        incr lo
      done;
      let complete = k >= !first_complete && k <= !last_complete in
      out.(k) <- Window.decide sem ~nt:!nt ~nf:!nf ~nu:!nu ~complete
    done
  end;
  out

module Obs = Monitor_obs.Obs

let m_ticks_fused =
  Obs.counter ~labels:[ ("kernel", "offline_fused") ]
    ~help:"Ticks evaluated, per kernel" "cps_kernel_ticks_total"

let m_ticks_naive =
  Obs.counter ~labels:[ ("kernel", "naive") ]
    ~help:"Ticks evaluated, per kernel" "cps_kernel_ticks_total"

let mask_scan times verdicts ~hold =
  window_scan times verdicts ~lo_off:(-.hold) ~hi_off:0.0 ~sem:Window.Mask

(* Columnar plan execution ---------------------------------------------------

   One pass over a plan's topologically ordered node array evaluates
   every rule against one trace traversal, each shared node's column
   computed once.  Machines still step per rule, tick by tick over the
   snapshots — their guards are stateful and they are per-spec state —
   but everything else reads the columns. *)

let no_modes _ = None

let mode_arr_of names modes machine =
  let m = Array.length names in
  let rec find j =
    if j >= m then None
    else if String.equal names.(j) machine then Some modes.(j)
    else find (j + 1)
  in
  find 0

(* Per rule, [(names, modes)] from [run_machines]. *)
let plan_machines (plan : Plan.t) snaps =
  Array.map (fun spec -> run_machines spec snaps) plan.Plan.specs

(* The [mode_arr] a node's atoms evaluate under: its owning rule's
   machines, none for shareable nodes. *)
let node_modes machines (node : Plan.node) =
  if node.Plan.owner < 0 then no_modes
  else
    let names, modes = machines.(node.Plan.owner) in
    mode_arr_of names modes

(* The verdict column of one plan node, from its children's columns
   [col c].  [own c] holds when this node is child [c]'s only consumer:
   the child's column is then overwritten in place instead of copied,
   as [eval_formula] above does with its uniquely owned subformula
   arrays.  Windows always write a fresh column. *)
let plan_node_verdicts ~col ~own ~mode_arr times cols (node : Plan.node) =
  let n = cols.Monitor_trace.Columns.n in
  let fresh () = Array.make n Verdict.Unknown in
  match node.Plan.shape with
  | Plan.Atom -> Immediate.eval_trace_exn node.Plan.form ~mode_arr cols
  | Plan.Not c ->
    let v = col c in
    let o = if own c then v else fresh () in
    for k = 0 to n - 1 do
      o.(k) <- Verdict.not_ v.(k)
    done;
    o
  | Plan.And (a, b) ->
    let va = col a and vb = col b in
    let o = if own a then va else if own b then vb else fresh () in
    for k = 0 to n - 1 do
      o.(k) <- Verdict.and_ va.(k) vb.(k)
    done;
    o
  | Plan.Or (a, b) ->
    let va = col a and vb = col b in
    let o = if own a then va else if own b then vb else fresh () in
    for k = 0 to n - 1 do
      o.(k) <- Verdict.or_ va.(k) vb.(k)
    done;
    o
  | Plan.Implies (a, b) ->
    let va = col a and vb = col b in
    let o = if own a then va else if own b then vb else fresh () in
    for k = 0 to n - 1 do
      o.(k) <- Verdict.implies va.(k) vb.(k)
    done;
    o
  | Plan.Window { op; lo; hi; child } ->
    let lo_off, hi_off, sem = Plan.window_offsets op ~lo ~hi in
    window_scan times (col child) ~lo_off ~hi_off ~sem
  | Plan.Warmup { trigger; hold; body } ->
    (* "Trigger seen within the last [hold] seconds", truncated at the log
       start without becoming Unknown: warm-up windows shorter than
       [hold] simply have less to suppress. *)
    let suppress = mask_scan times (col trigger) ~hold in
    let vb = if own body then col body else Array.copy (col body) in
    for k = 0 to n - 1 do
      match suppress.(k) with
      | Verdict.True -> vb.(k) <- Verdict.Unknown
      | Verdict.False | Verdict.Unknown -> ()
    done;
    vb

let eval_plan (plan : Plan.t) snaps cols =
  Obs.with_span ~cat:"kernel"
    ~args:[ ("rules", string_of_int (Plan.rule_count plan)) ]
    "plan.eval"
  @@ fun () ->
  let alloc0 = Gc.allocated_bytes () in
  let n = cols.Monitor_trace.Columns.n in
  let times = cols.Monitor_trace.Columns.times in
  check_times times;
  let machines = plan_machines plan snaps in
  let nodes = plan.Plan.nodes in
  let memo = Array.make (Array.length nodes) [||] in
  let col c = memo.(c) and own c = nodes.(c).Plan.uses = 1 in
  if n > 0 then
    Array.iteri
      (fun id node ->
        memo.(id) <-
          plan_node_verdicts ~col ~own ~mode_arr:(node_modes machines node)
            times cols node)
      nodes;
  let outcomes =
    Array.mapi
      (fun r root ->
        let names, modes = machines.(r) in
        { times;
          verdicts = (if n = 0 then [||] else memo.(root));
          modes = mode_outcome names modes })
      plan.Plan.roots
  in
  (* The expression columns and verdict arrays above are major-heap
     allocations the 5.1 pacer does not count (see Columns.of_snapshots);
     request a slice sized to what this evaluation actually allocated so
     campaigns that evaluate trace after trace keep a flat heap. *)
  let words = int_of_float ((Gc.allocated_bytes () -. alloc0) /. 8.0) in
  if words > 0 then ignore (Gc.major_slice words);
  Obs.add m_ticks_fused (n * Plan.rule_count plan);
  outcomes

let eval_columns spec snaps cols =
  (eval_plan (Plan.compile [ spec ]) snaps cols).(0)

let eval_array spec snaps =
  eval_columns spec snaps (Monitor_trace.Columns.of_snapshots snaps)

let eval spec snapshots = eval_array spec (Array.of_list snapshots)

module Naive = struct
  (* The executable definition of the window semantics: at every tick,
     locate the window afresh and re-examine every sample inside it.
     O(n * w) overall, no state carried between ticks — deliberately the
     most literal transcription of the documented semantics, kept as the
     reference the fast kernels are differentially tested against. *)
  let window_rescan times child ~lo_off ~hi_off ~sem =
    let n = Array.length times in
    let out = Array.make n Verdict.Unknown in
    for k = 0 to n - 1 do
      let wlo = times.(k) +. lo_off -. time_eps in
      let whi = times.(k) +. hi_off +. time_eps in
      (* Walk from tick [k] to the first sample at or after the window
         start, then sweep to the window end. *)
      let j = ref k in
      while !j > 0 && times.(!j - 1) >= wlo do
        decr j
      done;
      while !j < n && times.(!j) < wlo do
        incr j
      done;
      let nt = ref 0 and nf = ref 0 and nu = ref 0 in
      while !j < n && times.(!j) <= whi do
        (match child.(!j) with
        | Verdict.True -> incr nt
        | Verdict.False -> incr nf
        | Verdict.Unknown -> incr nu);
        incr j
      done;
      (* The log covers the window iff it extends to both endpoints. *)
      let complete =
        times.(n - 1) >= times.(k) +. hi_off -. time_eps
        && times.(0) <= times.(k) +. lo_off +. time_eps
      in
      out.(k) <- Window.decide sem ~nt:!nt ~nf:!nf ~nu:!nu ~complete
    done;
    out

  let eval_array spec snaps =
    Obs.add m_ticks_naive (Array.length snaps);
    eval_with ~scan:window_rescan spec snaps

  let eval spec snapshots = eval_array spec (Array.of_list snapshots)
end

(* Boolean evaluation of a bare subformula on the naive path, for
   [Robust.Naive]'s warm-up triggers: the set of suppressed ticks then
   provably coincides with this module's.  [mode_lookup_at] comes from
   [run_machines] on the enclosing spec. *)
let eval_subformula_naive f ~mode_lookup_at snaps =
  let times = Array.map (fun s -> s.Monitor_trace.Snapshot.time) snaps in
  let leaf f = eval_leaf f snaps mode_lookup_at in
  eval_formula ~leaf ~scan:Naive.window_rescan times f

let mask_rescan times verdicts ~hold =
  Naive.window_rescan times verdicts ~lo_off:(-.hold) ~hi_off:0.0
    ~sem:Window.Mask

let count verdicts v =
  Array.fold_left
    (fun acc x -> if Verdict.equal x v then acc + 1 else acc)
    0 verdicts

let satisfied outcome = count outcome.verdicts Verdict.False = 0

let first_violation outcome =
  let n = Array.length outcome.verdicts in
  let rec go i =
    if i >= n then None
    else if Verdict.equal outcome.verdicts.(i) Verdict.False then
      Some (i, outcome.times.(i))
    else go (i + 1)
  in
  go 0
