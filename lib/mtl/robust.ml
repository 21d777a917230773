(* Quantitative robustness semantics — see robust.mli and DESIGN.md §14.

   Everything here is interval-valued: a tick's robustness is a pair of
   floats [lo <= hi], degenerate where the trace decides the value
   exactly, widened to the infinities where partiality (Unknown atoms,
   staleness suppression, incomplete windows) leaves it open.  The three
   kernels mirror the boolean ones structurally — same window membership
   predicates, same completeness criteria, same warm-up machinery — so
   the differential suite can compare them tick for tick. *)

module Snapshot = Monitor_trace.Snapshot
module Columns = Monitor_trace.Columns

let time_eps = Window.time_eps

(* Degree algebra --------------------------------------------------------- *)

(* min/max over interval bounds.  Bounds are never NaN (the margin
   fallback below guarantees it), so the plain comparison form is exact
   and stays out of the way of the compiler's float unboxing. *)
let fmin (a : float) (b : float) = if a <= b then a else b
let fmax (a : float) (b : float) = if a >= b then a else b

let magnitude x = if Float.is_nan x then Float.infinity else Float.abs x

let cmp_holds (op : Formula.comparison) (a : float) (b : float) =
  match op with
  | Formula.Lt -> a < b
  | Formula.Le -> a <= b
  | Formula.Gt -> a > b
  | Formula.Ge -> a >= b
  | Formula.Eq -> a = b
  | Formula.Ne -> a <> b

let margin op (a : float) (b : float) =
  let m =
    match op with
    | Formula.Lt | Formula.Le -> b -. a
    | Formula.Gt | Formula.Ge -> a -. b
    | Formula.Eq -> -.Float.abs (a -. b)
    | Formula.Ne -> Float.abs (a -. b)
  in
  (* A NaN margin (NaN operand, or inf - inf) carries no distance; fall
     back to the boolean embedding of the atom's IEEE verdict so NaN on
     the wire still reads as a definite -inf/+inf, never as NaN. *)
  if Float.is_nan m then
    if cmp_holds op a b then Float.infinity else Float.neg_infinity
  else m

type bounds = { lo : float; hi : float }

let unknown_bounds = { lo = Float.neg_infinity; hi = Float.infinity }

let point x = { lo = x; hi = x }

let of_verdict v = { lo = Verdict.robust_lower v; hi = Verdict.robust_upper v }

let verdict_of b =
  if b.lo > 0.0 then Verdict.True
  else if b.hi < 0.0 then Verdict.False
  else Verdict.Unknown

(* Offline kernels --------------------------------------------------------- *)

type outcome = {
  times : float array;
  lo : float array;
  hi : float array;
}

let min_upper o =
  let n = Array.length o.hi in
  if n = 0 then None
  else begin
    let m = ref o.hi.(0) in
    for i = 1 to n - 1 do
      m := fmin !m o.hi.(i)
    done;
    Some !m
  end

(* Shared evaluation skeleton, the robust analogue of
   Offline.eval_formula: [leaf] supplies atom bounds, [scan] the window
   kernel, [bool_sub]/[mask] the boolean trigger evaluation and warm-up
   suppression window.

   Bound pairs use a point-sharing representation: when a subformula's
   interval is degenerate at every tick (pure comparisons with no data
   gaps — the common case), [lo] and [hi] are the SAME array (physical
   equality), so connectives run one loop over one array instead of two
   over four.  Every pair is still freshly allocated and uniquely owned
   per subformula, so connectives overwrite operands in place; they
   just pick the operand that keeps the result shared when they can.
   On long traces this halves the float traffic, which is what keeps
   the robust kernel within the benched ratio of the boolean one. *)
let combine2 op (la, ha) (lb, hb) =
  let n = Array.length la in
  if la == ha && lb == hb then begin
    for k = 0 to n - 1 do
      la.(k) <- op la.(k) lb.(k)
    done;
    (la, la)
  end
  else if la == ha then begin
    (* Shared left, split right: the result splits; write into b. *)
    for k = 0 to n - 1 do
      let x = la.(k) in
      lb.(k) <- op x lb.(k);
      hb.(k) <- op x hb.(k)
    done;
    (lb, hb)
  end
  else begin
    (* Split left (right shared or split): write into a. *)
    for k = 0 to n - 1 do
      la.(k) <- op la.(k) lb.(k);
      ha.(k) <- op ha.(k) hb.(k)
    done;
    (la, ha)
  end

let eval_formula ~leaf ~scan ~bool_sub ~mask times =
  let rec eval_f (f : Formula.t) : float array * float array =
    match f with
    | Formula.Const _ | Formula.Cmp _ | Formula.Bool_signal _ | Formula.Fresh _
    | Formula.Known _ | Formula.Stale _ | Formula.In_mode _ -> leaf f
    | Formula.Not g ->
      let l, h = eval_f g in
      if l == h then begin
        for k = 0 to Array.length l - 1 do
          l.(k) <- -.l.(k)
        done;
        (l, l)
      end
      else begin
        for k = 0 to Array.length l - 1 do
          let x = l.(k) in
          l.(k) <- -.h.(k);
          h.(k) <- -.x
        done;
        (l, h)
      end
    | Formula.And (a, b) ->
      let la, ha = eval_f a in
      combine2 fmin (la, ha) (eval_f b)
    | Formula.Or (a, b) ->
      let la, ha = eval_f a in
      combine2 fmax (la, ha) (eval_f b)
    | Formula.Implies (a, b) ->
      (* max(neg a, b); read both of a's bounds before overwriting. *)
      let la, ha = eval_f a in
      let lb, hb = eval_f b in
      let n = Array.length la in
      if la == ha && lb == hb then begin
        for k = 0 to n - 1 do
          la.(k) <- fmax (-.la.(k)) lb.(k)
        done;
        (la, la)
      end
      else if la == ha then begin
        for k = 0 to n - 1 do
          let x = -.la.(k) in
          lb.(k) <- fmax x lb.(k);
          hb.(k) <- fmax x hb.(k)
        done;
        (lb, hb)
      end
      else begin
        for k = 0 to n - 1 do
          let na_lo = -.ha.(k) and na_hi = -.la.(k) in
          la.(k) <- fmax na_lo lb.(k);
          ha.(k) <- fmax na_hi hb.(k)
        done;
        (la, ha)
      end
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
      (* The trigger is evaluated boolean (see the .mli): the set of
         suppressed ticks is exactly the boolean kernels'. *)
      let vt = bool_sub trigger in
      let bl, bh0 = eval_f body in
      let suppress = mask times vt ~hold in
      (* Suppression widens to [-inf, +inf], so a shared body must split
         on the first suppressed tick (and only then). *)
      let bh = ref bh0 in
      for k = 0 to Array.length times - 1 do
        match suppress.(k) with
        | Verdict.True ->
          if !bh == bl then bh := Array.copy bl;
          bl.(k) <- Float.neg_infinity;
          !bh.(k) <- Float.infinity
        | Verdict.False | Verdict.Unknown -> ()
      done;
      (bl, !bh)
  in
  eval_f

(* Fast window kernel: the boolean three-counter slide generalises to a
   pair of monotonic-wedge deques (sliding-window minimum/maximum).
   Window membership and completeness are byte-for-byte the boolean
   window_scan's; only the aggregation differs.  Each tick index is
   pushed once and popped at most once from each wedge: amortised O(1)
   per tick, independent of window width.

   A shared (point) child needs only ONE wedge — its lo and hi columns
   are the same array — and when every window is complete the output is
   itself a point, so the sharing survives the scan.  The wedge index
   arrays are pure scratch, reused across every window of one rule via
   [scratch] instead of reallocated per scan. *)
type scan_scratch = { mutable ql : int array; mutable qh : int array }

let scratch_make () = { ql = [||]; qh = [||] }

let scratch_arrays scratch n =
  if Array.length scratch.ql < n then begin
    scratch.ql <- Array.make n 0;
    scratch.qh <- Array.make n 0
  end;
  (scratch.ql, scratch.qh)

let window_scan scratch times (cl, ch) ~lo_off ~hi_off ~sem =
  let n = Array.length times in
  if n = 0 then
    let out = [||] in
    (out, out)
  else begin
    let shared_child = cl == ch in
    let universal =
      match sem with
      | Window.Universal -> true
      | Window.Existential | Window.Mask -> false
    in
    let t_first = times.(0) and t_last = times.(n - 1) in
    let first_complete = ref 0 in
    while
      !first_complete < n
      && times.(!first_complete) +. lo_off +. time_eps < t_first
    do
      incr first_complete
    done;
    let last_complete = ref (n - 1) in
    while
      !last_complete >= 0 && times.(!last_complete) +. hi_off -. time_eps > t_last
    do
      decr last_complete
    done;
    (* Incompleteness widens exactly one side, so only complete-everywhere
       scans of a point child stay a point. *)
    let out_lo = Array.make n 0.0 in
    let out_hi =
      if shared_child && !first_complete = 0 && !last_complete = n - 1 then
        out_lo
      else Array.make n 0.0
    in
    (* Index wedges over [cl]/[ch]; front = in-window min (universal)
       or max (existential).  Tails only ever hold <= n pushes. *)
    let ql, qh = scratch_arrays scratch n in
    let ql_head = ref 0 and ql_tail = ref 0 in
    let qh_head = ref 0 and qh_tail = ref 0 in
    let push j =
      if universal then begin
        while !ql_tail > !ql_head && cl.(ql.(!ql_tail - 1)) >= cl.(j) do
          decr ql_tail
        done;
        if not shared_child then
          while !qh_tail > !qh_head && ch.(qh.(!qh_tail - 1)) >= ch.(j) do
            decr qh_tail
          done
      end
      else begin
        while !ql_tail > !ql_head && cl.(ql.(!ql_tail - 1)) <= cl.(j) do
          decr ql_tail
        done;
        if not shared_child then
          while !qh_tail > !qh_head && ch.(qh.(!qh_tail - 1)) <= ch.(j) do
            decr qh_tail
          done
      end;
      ql.(!ql_tail) <- j;
      incr ql_tail;
      if not shared_child then begin
        qh.(!qh_tail) <- j;
        incr qh_tail
      end
    in
    let identity = if universal then Float.infinity else Float.neg_infinity in
    let lo = ref 0 and hi = ref (-1) in
    for k = 0 to n - 1 do
      let wlo = times.(k) +. lo_off -. time_eps in
      let whi = times.(k) +. hi_off +. time_eps in
      while !hi + 1 < n && times.(!hi + 1) <= whi do
        incr hi;
        push !hi
      done;
      while !lo <= !hi && times.(!lo) < wlo do
        incr lo
      done;
      while !ql_tail > !ql_head && ql.(!ql_head) < !lo do
        incr ql_head
      done;
      let m_lo =
        if !ql_tail > !ql_head then cl.(ql.(!ql_head)) else identity
      in
      let m_hi =
        if shared_child then m_lo
        else begin
          while !qh_tail > !qh_head && qh.(!qh_head) < !lo do
            incr qh_head
          done;
          if !qh_tail > !qh_head then ch.(qh.(!qh_head)) else identity
        end
      in
      let complete = k >= !first_complete && k <= !last_complete in
      (* When the output is shared every tick is complete, so both
         decisions collapse to [m_lo = m_hi] and the double write is
         harmless. *)
      out_hi.(k) <- Window.decide_robust_hi sem ~m_hi ~complete;
      out_lo.(k) <- Window.decide_robust_lo sem ~m_lo ~complete
    done;
    (out_lo, out_hi)
  end

(* Bounds of one atom, columnar.  Only comparisons carry a genuine
   margin; every other atom is the embedding of its boolean verdict.
   Leaves start as a shared point pair and split lazily at the first
   tick whose interval is not degenerate (a data gap, or an Unknown
   verdict) — fully-defined comparison columns, the common case, then
   cost one array instead of two. *)
let split_at l i =
  let h = Array.make (Array.length l) 0.0 in
  Array.blit l 0 h 0 i;
  h

let leaf_columns ~mode_arr cols (f : Formula.t) =
  let n = cols.Columns.n in
  match f with
  | Formula.Cmp (ea, op, eb) ->
    let ca = Expr.eval_trace ea cols and cb = Expr.eval_trace eb cols in
    let l = Array.make n 0.0 in
    let h = ref l in
    for i = 0 to n - 1 do
      if Expr.defined_at ca i && Expr.defined_at cb i then begin
        let m = margin op ca.Expr.cv.(i) cb.Expr.cv.(i) in
        l.(i) <- m;
        if !h != l then !h.(i) <- m
      end
      else begin
        if !h == l then h := split_at l i;
        l.(i) <- Float.neg_infinity;
        !h.(i) <- Float.infinity
      end
    done;
    (l, !h)
  | _ ->
    let v = Immediate.eval_trace_exn f ~mode_arr cols in
    let l = Array.make n 0.0 in
    let h = ref l in
    for i = 0 to n - 1 do
      (match v.(i) with
      | Verdict.Unknown -> if !h == l then h := split_at l i
      | Verdict.True | Verdict.False -> ());
      l.(i) <- Verdict.robust_lower v.(i);
      if !h != l then !h.(i) <- Verdict.robust_upper v.(i)
    done;
    (l, !h)

module Obs = Monitor_obs.Obs

let m_ticks_fused_robust =
  Obs.counter ~labels:[ ("kernel", "offline_robust_fused") ]
    ~help:"Ticks evaluated, per kernel" "cps_kernel_ticks_total"

let m_ticks_naive_robust =
  Obs.counter ~labels:[ ("kernel", "naive_robust") ]
    ~help:"Ticks evaluated, per kernel" "cps_kernel_ticks_total"

let m_ticks_online_robust =
  Obs.counter ~labels:[ ("kernel", "online_robust") ]
    ~help:"Ticks evaluated, per kernel" "cps_kernel_ticks_total"

(* Columnar plan execution ----------------------------------------------------

   The robust counterpart of Offline.eval_plan: per-node [(lo, hi)]
   column pairs in [eval_formula]'s point-sharing representation.  A
   node overwrites a child it exclusively owns ([uses = 1]) in place
   when the result keeps that operand's sharing shape, and otherwise
   writes fresh arrays; either way it writes the same float expressions,
   and a result is a point iff both operands are, so the bounds are
   bit-identical whoever owns what.  Warm-up
   triggers are evaluated boolean, lazily and only for the nodes
   warm-ups reference. *)

(* Output of a binary node over [(la, ha)] and [(lb, hb)]. *)
let combine2_owned op n ~own_a ~own_b (la, ha) (lb, hb) =
  if la == ha && lb == hb then begin
    let o = if own_a then la else if own_b then lb else Array.make n 0.0 in
    for k = 0 to n - 1 do
      o.(k) <- op la.(k) lb.(k)
    done;
    (o, o)
  end
  else begin
    let ol, oh =
      if own_a && la != ha then (la, ha)
      else if own_b && lb != hb then (lb, hb)
      else (Array.make n 0.0, Array.make n 0.0)
    in
    for k = 0 to n - 1 do
      let xl = op la.(k) lb.(k) and xh = op ha.(k) hb.(k) in
      ol.(k) <- xl;
      oh.(k) <- xh
    done;
    (ol, oh)
  end

let eval_plan (plan : Plan.t) snaps cols =
  Obs.with_span ~cat:"kernel"
    ~args:[ ("rules", string_of_int (Plan.rule_count plan)) ]
    "plan.eval_robust"
  @@ fun () ->
  let alloc0 = Gc.allocated_bytes () in
  let n = cols.Columns.n in
  let times = cols.Columns.times in
  Window.check_times "Robust.eval" times;
  let machines = Offline.plan_machines plan snaps in
  let nodes = plan.Plan.nodes in
  let nnodes = Array.length nodes in
  let own c = nodes.(c).Plan.uses = 1 in
  let memo = Array.make nnodes ([||], [||]) in
  let bool_memo = Array.make nnodes None in
  let rec bool_of id =
    match bool_memo.(id) with
    | Some v -> v
    | None ->
      let node = nodes.(id) in
      let v =
        Offline.plan_node_verdicts ~col:bool_of ~own
          ~mode_arr:(Offline.node_modes machines node) times cols node
      in
      bool_memo.(id) <- Some v;
      v
  in
  let fresh () = Array.make n 0.0 in
  if n > 0 then begin
    let scratch = scratch_make () in
    Array.iteri
      (fun id (node : Plan.node) ->
        let out =
          match node.Plan.shape with
          | Plan.Atom ->
            leaf_columns ~mode_arr:(Offline.node_modes machines node) cols
              node.Plan.form
          | Plan.Not c ->
            let l, h = memo.(c) in
            if l == h then begin
              let o = if own c then l else fresh () in
              for k = 0 to n - 1 do
                o.(k) <- -.l.(k)
              done;
              (o, o)
            end
            else begin
              let ol, oh = if own c then (l, h) else (fresh (), fresh ()) in
              for k = 0 to n - 1 do
                let xl = -.h.(k) and xh = -.l.(k) in
                ol.(k) <- xl;
                oh.(k) <- xh
              done;
              (ol, oh)
            end
          | Plan.And (a, b) ->
            combine2_owned fmin n ~own_a:(own a) ~own_b:(own b) memo.(a) memo.(b)
          | Plan.Or (a, b) ->
            combine2_owned fmax n ~own_a:(own a) ~own_b:(own b) memo.(a) memo.(b)
          | Plan.Implies (a, b) ->
            (* max(neg a, b) *)
            let la, ha = memo.(a) and lb, hb = memo.(b) in
            if la == ha && lb == hb then begin
              let o = if own a then la else if own b then lb else fresh () in
              for k = 0 to n - 1 do
                o.(k) <- fmax (-.la.(k)) lb.(k)
              done;
              (o, o)
            end
            else begin
              let ol, oh =
                if own a && la != ha then (la, ha)
                else if own b && lb != hb then (lb, hb)
                else (fresh (), fresh ())
              in
              for k = 0 to n - 1 do
                let xl = fmax (-.ha.(k)) lb.(k)
                and xh = fmax (-.la.(k)) hb.(k) in
                ol.(k) <- xl;
                oh.(k) <- xh
              done;
              (ol, oh)
            end
          | Plan.Window { op; lo; hi; child } ->
            let lo_off, hi_off, sem = Plan.window_offsets op ~lo ~hi in
            window_scan scratch times memo.(child) ~lo_off ~hi_off ~sem
          | Plan.Warmup { trigger; hold; body } ->
            let suppress = Offline.mask_scan times (bool_of trigger) ~hold in
            let ml, mh = memo.(body) in
            let bl = if own body then ml else Array.copy ml in
            (* Suppression widens to [-inf, +inf], so a point body splits
               on the first suppressed tick (and only then). *)
            let bh =
              ref
                (if mh == ml then bl
                 else if own body then mh
                 else Array.copy mh)
            in
            for k = 0 to n - 1 do
              match suppress.(k) with
              | Verdict.True ->
                if !bh == bl then bh := Array.copy bl;
                bl.(k) <- Float.neg_infinity;
                !bh.(k) <- Float.infinity
              | Verdict.False | Verdict.Unknown -> ()
            done;
            (bl, !bh)
        in
        memo.(id) <- out)
      nodes
  end;
  let outcomes =
    Array.map
      (fun root ->
        let lo, hi = if n = 0 then ([||], [||]) else memo.(root) in
        { times; lo; hi })
      plan.Plan.roots
  in
  (* Same pacing note as Offline.eval_plan: these are major-heap
     allocations the pacer does not count. *)
  let words = int_of_float ((Gc.allocated_bytes () -. alloc0) /. 8.0) in
  if words > 0 then ignore (Gc.major_slice words);
  Obs.add m_ticks_fused_robust (n * Plan.rule_count plan);
  outcomes

let eval_columns spec snaps cols =
  (eval_plan (Plan.compile [ spec ]) snaps cols).(0)

let eval_array spec snaps =
  eval_columns spec snaps (Columns.of_snapshots snaps)

let eval spec snapshots = eval_array spec (Array.of_list snapshots)

let severity_values (spec : Spec.t) cols =
  match spec.Spec.severity with
  | None -> None
  | Some expr ->
    let col = Expr.eval_trace expr cols in
    let n = cols.Columns.n in
    let out = Array.make n None in
    for i = 0 to n - 1 do
      if Expr.defined_at col i then out.(i) <- Some (magnitude col.Expr.cv.(i))
    done;
    Some out

module Naive = struct
  (* Executable definition: locate the window afresh at every tick and
     fold min/max over every sample inside it.  Same membership and
     completeness predicates as Offline.Naive.window_rescan. *)
  let window_rescan times (cl, ch) ~lo_off ~hi_off ~sem =
    let n = Array.length times in
    let out_lo = Array.make n 0.0 and out_hi = Array.make n 0.0 in
    let universal =
      match sem with
      | Window.Universal -> true
      | Window.Existential | Window.Mask -> false
    in
    let identity = if universal then Float.infinity else Float.neg_infinity in
    for k = 0 to n - 1 do
      let wlo = times.(k) +. lo_off -. time_eps in
      let whi = times.(k) +. hi_off +. time_eps in
      let j = ref k in
      while !j > 0 && times.(!j - 1) >= wlo do
        decr j
      done;
      while !j < n && times.(!j) < wlo do
        incr j
      done;
      let m_lo = ref identity and m_hi = ref identity in
      while !j < n && times.(!j) <= whi do
        if universal then begin
          m_lo := fmin !m_lo cl.(!j);
          m_hi := fmin !m_hi ch.(!j)
        end
        else begin
          m_lo := fmax !m_lo cl.(!j);
          m_hi := fmax !m_hi ch.(!j)
        end;
        incr j
      done;
      let complete =
        times.(n - 1) >= times.(k) +. hi_off -. time_eps
        && times.(0) <= times.(k) +. lo_off +. time_eps
      in
      out_lo.(k) <- Window.decide_robust_lo sem ~m_lo:!m_lo ~complete;
      out_hi.(k) <- Window.decide_robust_hi sem ~m_hi:!m_hi ~complete
    done;
    (out_lo, out_hi)

  (* Per-tick leaves: stateful expression evaluators for comparisons
     (stepped once per tick, in tick order), immediate boolean
     evaluation embedded for everything else. *)
  let leaf_snaps ~mode_lookup_at snaps (f : Formula.t) =
    let n = Array.length snaps in
    match f with
    | Formula.Cmp (ea, op, eb) ->
      let va = Expr.evaluator ea and vb = Expr.evaluator eb in
      let l = Array.make n 0.0 and h = Array.make n 0.0 in
      for i = 0 to n - 1 do
        let ra = Expr.eval va snaps.(i) in
        let rb = Expr.eval vb snaps.(i) in
        match (ra, rb) with
        | Expr.Defined a, Expr.Defined b ->
          let m = margin op a b in
          l.(i) <- m;
          h.(i) <- m
        | _, _ ->
          l.(i) <- Float.neg_infinity;
          h.(i) <- Float.infinity
      done;
      (l, h)
    | _ ->
      let v = Offline.eval_subformula_naive f ~mode_lookup_at snaps in
      let l = Array.make n 0.0 and h = Array.make n 0.0 in
      for i = 0 to n - 1 do
        l.(i) <- Verdict.robust_lower v.(i);
        h.(i) <- Verdict.robust_upper v.(i)
      done;
      (l, h)

  let eval_array (spec : Spec.t) snaps =
    let n = Array.length snaps in
    let times = Array.map (fun s -> s.Snapshot.time) snaps in
    Window.check_times "Robust.eval" times;
    let names, modes = Offline.run_machines spec snaps in
    let mode_lookup_at i machine =
      let m = Array.length names in
      let rec find j =
        if j >= m then None
        else if String.equal names.(j) machine then Some modes.(j).(i)
        else find (j + 1)
      in
      find 0
    in
    let lo, hi =
      if n = 0 then ([||], [||])
      else
        eval_formula
          ~leaf:(leaf_snaps ~mode_lookup_at snaps)
          ~scan:window_rescan
          ~bool_sub:(fun f ->
            Offline.eval_subformula_naive f ~mode_lookup_at snaps)
          ~mask:Offline.mask_rescan times spec.Spec.formula
    in
    Obs.add m_ticks_naive_robust n;
    { times; lo; hi }

  let eval spec snapshots = eval_array spec (Array.of_list snapshots)
end

(* Online (incremental) executor -------------------------------------------- *)

type bool_shared = Online.shared

module OI = Online.Internal

module Online = struct
  (* Program and instance, as in the boolean executor (DESIGN.md §14): a
     plan compiles once into an immutable program, and each stream runs
     an instance of a few flat arrays over it:

     - [ints]: per node its resolved count [hi] (ticks [0, hi) are
       resolved) and its ring's place in the bound slabs (offset and
       capacity mask, packed); per window its read cursor into the
       child's ring, how many entries from there it has admitted, the
       head and tail counters of its two wedges and their place in [wq];
       one base per node with several readers and one cursor per rule
       report;
     - [lo]/[hi]: every node's ring of resolved bounds, a node's entry
       for absolute tick [k] at [off + (k land mask)] of both slabs;
     - [wq]: the windows' monotonic wedges, as child ticks (their low 32
       bits: a wedge holds ticks of its child's retained entries);
     - a boolean instance: the clock, the one tick-time ring, the signal
       slots, the machines, and the warm-up triggers and masks.

     Readers consume through cursors, as in the boolean executor: a
     connective's cursor is its own [hi], a window's is the oldest child
     entry inside its front pending tick's window, and a node with
     several readers keeps its entries until the slowest has passed
     them.  A window reads its child's ring in place and its wedges hold
     child ticks, so no node copies another's output.

     There is no early resolution (a window's robustness needs every
     sample even once its sign is settled), so a node resolves tick [t]
     exactly [Formula.horizon] after it, up to one tick of spacing.  A
     ring therefore retains only what its reader waits for: a
     connective's child the connective's horizon minus its own, a
     window's child the window's reach back from its end, a report
     nothing between steps. *)

  let i_hi = 0
  let i_lay = 1
  let i_cursor = 2
  let i_counted = 3
  let i_lh = 4  (* lower-bound wedge: head, then tail (i_lh + 1) *)
  let i_hh = 6  (* upper-bound wedge: head, then tail *)
  let i_wlay = 8
  let window_ints = 9

  (* The boolean executor's ring-layout packing (offset [lsl 32]
     capacity mask), repeated here because calls into another module are
     not inlined and these run on every entry read and write. *)
  let lay_off lay = lay lsr 32
  let lay_mask lay = lay land 0xFFFF_FFFF
  let lay_make ~off ~mask = (off lsl 32) lor mask

  type rwindow = {
    ws : int;
    wsb : int;  (* the slot holding the ring's lowest retained tick *)
    universal : bool;
    lo_off : float;  (* window of tick t is [t + lo_off, t + hi_off] *)
    hi_off : float;
    wc : int;  (* child node *)
  }

  (* [op]: 0 and (min), 1 or (max), 2 implies (max of the negated left
     and the right).  [sb] is the slot holding the node's lowest retained
     tick: its one reader's cursor, or its own base when it is a hub. *)
  type rnode =
    | R_cmp of {
        s : int;
        sb : int;
        op : Formula.comparison;
        ea : OI.enode;
        eb : OI.enode;
      }
    | R_atom of { s : int; sb : int; v : OI.vnode }
    | R_not of { s : int; sb : int; c : int }
    | R_bin of { s : int; sb : int; op : int; a : int; b : int }
    | R_warmup of { s : int; sb : int; m : OI.node; c : int }
        (* [m] is the boolean suppression window over the warm-up's
           trigger: its verdict is [True] exactly on suppressed ticks. *)
    | R_window of rwindow

  type prog = {
    bprog : OI.cprog;        (* the boolean part: triggers and masks *)
    exec : rnode array;      (* execution order, children first *)
    hubs : int array array;  (* per hub: its base slot, then its cursors *)
    slots : int array;       (* every node's first slot, ring order *)
    bases : int array;       (* per ring: its [sb] *)
    rets : float array;      (* per ring: seconds of ticks it retains *)
    wins : int array;        (* every window's first slot, wedge order *)
    wspans : float array;    (* per window: the seconds its wedges span *)
    template : int array;    (* initial [ints]: one-entry rings *)
    out_s : int array;       (* per rule: report node and cursor *)
    out_c : int array;
  }

  type inst = {
    ints : int array;
    mutable lo : float array;
    mutable hi : float array;
    mutable wq : Bytes.t;
    core : OI.core;
    env : OI.env;
    est : OI.estate;
    prog : prog;
    mutable sized : bool;
  }

  (* Rings ---------------------------------------------------------------- *)

  (* Re-lay the bound slabs out with ring [k] (in [prog.slots] order) at
     capacity [caps.(k)], copying every ring's retained entries. *)
  let relayout r caps =
    let ints = r.ints and p = r.prog in
    let total = Array.fold_left ( + ) 0 caps in
    let lo = Array.make total 0.0 and hi = Array.make total 0.0 in
    let off = ref 0 in
    Array.iteri
      (fun k s ->
        let lay = ints.(s + i_lay) in
        let o = lay_off lay and m = lay_mask lay in
        let no = !off and nm = caps.(k) - 1 in
        for t = ints.(p.bases.(k)) to ints.(s + i_hi) - 1 do
          lo.(no + (t land nm)) <- r.lo.(o + (t land m));
          hi.(no + (t land nm)) <- r.hi.(o + (t land m))
        done;
        ints.(s + i_lay) <- lay_make ~off:no ~mask:nm;
        off := no + caps.(k))
      p.slots;
    r.lo <- lo;
    r.hi <- hi

  (* The same for the wedges: window [k]'s two wedges side by side at
     capacity [caps.(k)] each, four bytes an entry. *)
  let wrelayout r caps =
    let ints = r.ints in
    let wq = Bytes.make (8 * Array.fold_left ( + ) 0 caps) '\000' in
    let off = ref 0 in
    Array.iteri
      (fun k s ->
        let lay = ints.(s + i_wlay) in
        let o = lay_off lay and m = lay_mask lay in
        let no = !off and nm = caps.(k) - 1 in
        for side = 0 to 1 do
          let h = s + i_lh + (2 * side) in
          for q = ints.(h) to ints.(h + 1) - 1 do
            Bytes.set_int32_ne wq
              (4 * (no + (side * (nm + 1)) + (q land nm)))
              (Bytes.get_int32_ne r.wq (4 * (o + (side * (m + 1)) + (q land m))))
          done
        done;
        ints.(s + i_wlay) <- lay_make ~off:no ~mask:nm;
        off := no + (2 * caps.(k)))
      r.prog.wins;
    r.wq <- wq

  let doubled ints field s slots =
    Array.map
      (fun s' ->
        let cap = lay_mask ints.(s' + field) + 1 in
        if s' = s then 2 * cap else cap)
      slots

  (* Make room for tick [hi] in node [s]'s ring, whose lowest retained
     tick is in slot [sb], and count it resolved; returns its index in
     the slabs, where the caller writes both bounds. *)
  let reserve r s sb =
    let ints = r.ints in
    let hi = Array.unsafe_get ints s in
    if hi - Array.unsafe_get ints sb > lay_mask (Array.unsafe_get ints (s + i_lay))
    then relayout r (doubled ints i_lay s r.prog.slots);
    let lay = Array.unsafe_get ints (s + i_lay) in
    Array.unsafe_set ints s (hi + 1);
    lay_off lay + (hi land lay_mask lay)

  (* Index of node [c]'s entry for tick [t] in the slabs. *)
  let at r c t =
    let lay = Array.unsafe_get r.ints (c + i_lay) in
    lay_off lay + (t land lay_mask lay)

  (* Byte offset in [wq] of entry [q] of window [s]'s wedge [side] (0
     lower bounds, 1 upper bounds). *)
  let wat r s side q =
    let lay = Array.unsafe_get r.ints (s + i_wlay) in
    let m = lay_mask lay in
    4 * (lay_off lay + (side * (m + 1)) + (q land m))

  (* The child tick in entry [q] of window [s]'s wedge [side]: entries
     keep a tick's low 32 bits, and every entry is a tick the child [c]
     resolved less than 2^32 ticks ago. *)
  let wtick r s side c q =
    let v = Int32.to_int (Bytes.get_int32_ne r.wq (wat r s side q)) in
    let chi = Array.unsafe_get r.ints c in
    chi - ((chi - v) land 0xFFFF_FFFF)

  let wset r s side q k =
    Bytes.set_int32_ne r.wq (wat r s side q) (Int32.of_int k)

  (* At the second tick the stream's spacing is known: size every ring
     and wedge for it. *)
  let size r =
    r.sized <- true;
    let dt = r.est.OI.dt and p = r.prog and ints = r.ints in
    relayout r
      (Array.mapi
         (fun k s ->
           max (OI.presize ~dt p.rets.(k))
             (OI.pow2_at_least (ints.(s + i_hi) - ints.(p.bases.(k)) + 1)))
         p.slots);
    wrelayout r
      (Array.mapi
         (fun k s ->
           let held h = ints.(h + 1) - ints.(h) in
           max (OI.presize ~dt p.wspans.(k))
             (OI.pow2_at_least (1 + max (held (s + i_lh)) (held (s + i_hh)))))
         p.wins)

  (* Words of an instance's own blocks (the programs and the signal
     slots are shared and not counted) for a machine-free plan on a
     stream [period] seconds apart, every ring and wedge at the capacity
     [size] and growth settle it at. *)
  let instance_words (p : prog) ~period =
    let settled = OI.settled_ticks ~period in
    let sum spans = Array.fold_left (fun acc s -> acc + settled s) 0 spans in
    let record = 1 + 9 in
    OI.core_words p.bprog ~period
    + record
    + (1 + Array.length p.template)
    + (2 * (1 + sum p.rets))
    + (1 + (((8 * sum p.wspans) + 8) / 8))

  (* Node advance --------------------------------------------------------- *)

  (* Monotonic wedge: a deque of child ticks whose bounds improve
     strictly toward the back — the streaming form of the offline index
     wedges.  Front = current in-window min (universal) or max
     (existential).  Entries are in tick order; domination (a later
     sample at least as good) discards an entry permanently, sound
     because both window endpoints only ever advance.  Push child tick
     [k], whose bound is in slab [v], onto wedge [side] of window [s]. *)
  let wedge_push r s side c universal v k =
    let ints = r.ints in
    let h = s + i_lh + (2 * side) in
    let x = v.(at r c k) in
    let popping = ref true in
    while !popping && ints.(h + 1) > ints.(h) do
      let y = v.(at r c (wtick r s side c (ints.(h + 1) - 1))) in
      if if universal then y >= x else y <= x then ints.(h + 1) <- ints.(h + 1) - 1
      else popping := false
    done;
    if ints.(h + 1) - ints.(h) > lay_mask ints.(s + i_wlay) then
      wrelayout r (doubled ints i_wlay s r.prog.wins);
    wset r s side ints.(h + 1) k;
    ints.(h + 1) <- ints.(h + 1) + 1

  (* Resolve the window's pending ticks [hi, next_tick) front first.  The
     child's entries from the cursor are the window: the first [counted]
     of them lie inside the front pending tick's window and feed the
     wedges.  A tick resolves exactly when its window closes — the same
     closure and completeness predicates as the boolean kernel — so
     past-time operators still resolve at their own tick. *)
  let advance_window r finalizing w =
    let ints = r.ints in
    let s = w.ws and c = w.wc in
    let cc = s + i_cursor and cn = s + i_counted in
    let next = OI.core_ticks r.core in
    let go = ref true in
    while !go do
      let p = ints.(s) in
      if p >= next then go := false
      else begin
        let times = OI.core_times r.core in
        let tm = Array.length times - 1 in
        let p_time = times.(p land tm) in
        let wlo = p_time +. w.lo_off -. time_eps in
        let whi = p_time +. w.hi_off +. time_eps in
        (* Slide past admitted samples the window start has passed, and
           expire the wedge fronts among them (wedges are in tick order,
           so only fronts can be stale). *)
        while ints.(cn) > 0 && times.(ints.(cc) land tm) < wlo do
          ints.(cc) <- ints.(cc) + 1;
          ints.(cn) <- ints.(cn) - 1
        done;
        for side = 0 to 1 do
          let h = s + i_lh + (2 * side) in
          while ints.(h) < ints.(h + 1) && wtick r s side c ints.(h) < ints.(cc)
          do
            ints.(h) <- ints.(h) + 1
          done
        done;
        (* Admit resolved samples the window end has reached.  A sample
           already behind the window start is passed over: the endpoints
           only advance, so no later window can contain it either. *)
        let chi = ints.(c) in
        let admitting = ref true in
        while !admitting && ints.(cc) + ints.(cn) < chi do
          let k = ints.(cc) + ints.(cn) in
          let t = times.(k land tm) in
          if t <= whi then begin
            if t >= wlo then begin
              wedge_push r s 0 c w.universal r.lo k;
              wedge_push r s 1 c w.universal r.hi k;
              ints.(cn) <- ints.(cn) + 1
            end
            else begin
              assert (ints.(cn) = 0);
              ints.(cc) <- ints.(cc) + 1
            end
          end
          else admitting := false
        done;
        if
          finalizing
          || chi > 0
             && times.((chi - 1) land tm) >= p_time +. w.hi_off -. time_eps
        then begin
          let est = r.est in
          let complete =
            est.OI.now >= p_time +. w.hi_off -. time_eps
            && est.OI.first <= p_time +. w.lo_off +. time_eps
          in
          let sem = if w.universal then Window.Universal else Window.Existential in
          let identity = if w.universal then Float.infinity else Float.neg_infinity in
          let m_lo =
            if ints.(s + i_lh) < ints.(s + i_lh + 1) then
              r.lo.(at r c (wtick r s 0 c ints.(s + i_lh)))
            else identity
          in
          let m_hi =
            if ints.(s + i_hh) < ints.(s + i_hh + 1) then
              r.hi.(at r c (wtick r s 1 c ints.(s + i_hh)))
            else identity
          in
          let rl = Window.decide_robust_lo sem ~m_lo ~complete in
          let rh = Window.decide_robust_hi sem ~m_hi ~complete in
          let j = reserve r s w.wsb in
          r.lo.(j) <- rl;
          r.hi.(j) <- rh
        end
        else go := false
      end
    done;
    (* Pending ticks, the window and the child's latest tick keep their
       times across the next push. *)
    let chi = ints.(c) in
    let floor = if ints.(s) < ints.(cc) then ints.(s) else ints.(cc) in
    OI.core_ensure_floor r.core
      (if chi > 0 && chi - 1 < floor then chi - 1 else floor)

  (* One node's own per-tick work, children already advanced this tick.
     A connective's children are read from its own [hi] on, so resolving
     a tick is consuming it. *)
  let advance_node r finalizing nd =
    match nd with
    | R_cmp { s; sb; op; ea; eb } ->
      if not finalizing then begin
        let est = r.est in
        OI.eval_expr r.env ea;
        let a = est.OI.acc and ad = est.OI.def in
        OI.eval_expr r.env eb;
        let b = est.OI.acc and bd = est.OI.def in
        let j = reserve r s sb in
        if ad <> 0.0 && bd <> 0.0 then begin
          let m = margin op a b in
          r.lo.(j) <- m;
          r.hi.(j) <- m
        end
        else begin
          r.lo.(j) <- Float.neg_infinity;
          r.hi.(j) <- Float.infinity
        end
      end
    | R_atom { s; sb; v } ->
      if not finalizing then begin
        let verdict = OI.eval_vnode r.env v in
        let j = reserve r s sb in
        r.lo.(j) <- Verdict.robust_lower verdict;
        r.hi.(j) <- Verdict.robust_upper verdict
      end
    | R_not { s; sb; c } ->
      let ints = r.ints in
      for t = ints.(s) to ints.(c) - 1 do
        let i = at r c t in
        let nl = -.r.hi.(i) and nh = -.r.lo.(i) in
        let j = reserve r s sb in
        r.lo.(j) <- nl;
        r.hi.(j) <- nh
      done
    | R_bin { s; sb; op; a; b } ->
      let ints = r.ints in
      let t1 = if ints.(a) < ints.(b) then ints.(a) else ints.(b) in
      for t = ints.(s) to t1 - 1 do
        let ai = at r a t and bi = at r b t in
        let al = r.lo.(ai) and ah = r.hi.(ai) in
        let bl = r.lo.(bi) and bh = r.hi.(bi) in
        let j = reserve r s sb in
        if op = 0 then begin
          r.lo.(j) <- fmin al bl;
          r.hi.(j) <- fmin ah bh
        end
        else if op = 1 then begin
          r.lo.(j) <- fmax al bl;
          r.hi.(j) <- fmax ah bh
        end
        else begin
          r.lo.(j) <- fmax (-.ah) bl;
          r.hi.(j) <- fmax (-.al) bh
        end
      done
    | R_warmup { s; sb; m; c } ->
      let ints = r.ints in
      let mh = OI.out_hi r.env m in
      let t1 = if mh < ints.(c) then mh else ints.(c) in
      for t = ints.(s) to t1 - 1 do
        let suppressed =
          match OI.out_verdict r.env m t with
          | Verdict.True -> true
          | Verdict.False | Verdict.Unknown -> false
        in
        let i = at r c t in
        let l = r.lo.(i) and h = r.hi.(i) in
        let j = reserve r s sb in
        if suppressed then begin
          r.lo.(j) <- Float.neg_infinity;
          r.hi.(j) <- Float.infinity
        end
        else begin
          r.lo.(j) <- l;
          r.hi.(j) <- h
        end
      done;
      OI.out_consume_to r.env m ints.(s)
    | R_window w -> advance_window r finalizing w

  (* A hub retains entries until its slowest reader has passed them. *)
  let retire_hubs r =
    let hubs = r.prog.hubs and ints = r.ints in
    for h = 0 to Array.length hubs - 1 do
      let hub = Array.unsafe_get hubs h in
      let m = ref max_int in
      for i = 1 to Array.length hub - 1 do
        let c = ints.(hub.(i)) in
        if c < !m then m := c
      done;
      ints.(hub.(0)) <- !m
    done

  (* Boolean nodes first: they never read robust ones. *)
  let advance r snapshot =
    OI.core_advance r.core snapshot;
    if (not r.sized) && OI.core_ticks r.core >= 2 then size r;
    retire_hubs r;
    let exec = r.prog.exec in
    for i = 0 to Array.length exec - 1 do
      advance_node r false (Array.unsafe_get exec i)
    done

  (* The end of the log resolves every pending tick at once: lay every
     ring out once with room for all of them, instead of doubling rings
     one after another as they fill. *)
  let finish ~who r =
    OI.core_finalize ~who r.core;
    retire_hubs r;
    let next = OI.core_ticks r.core and ints = r.ints and p = r.prog in
    relayout r
      (Array.mapi
         (fun k s ->
           max
             (lay_mask ints.(s + i_lay) + 1)
             (OI.pow2_at_least (next - ints.(p.bases.(k)) + 1)))
         p.slots);
    let exec = r.prog.exec in
    for i = 0 to Array.length exec - 1 do
      advance_node r true (Array.unsafe_get exec i)
    done

  (* Program ------------------------------------------------------------- *)

  (* Which plan nodes run robust and which boolean, with each node's
     consuming-edge count per domain: the robust domain is what the
     roots reach other than through warm-up triggers; triggers and
     everything below them run boolean.  A node can be in both. *)
  let domains (plan : Plan.t) =
    let nodes = plan.Plan.nodes in
    let nn = Array.length nodes in
    let r_uses = Array.make nn 0 and b_uses = Array.make nn 0 in
    let bump uses c = uses.(c) <- uses.(c) + 1 in
    Array.iter (bump r_uses) plan.Plan.roots;
    (* Descending ids visit every parent before its children. *)
    for id = nn - 1 downto 0 do
      let node = nodes.(id) in
      if r_uses.(id) > 0 then begin
        match node.Plan.shape with
        | Plan.Warmup { trigger; body; _ } ->
          bump b_uses trigger;
          bump r_uses body
        | Plan.Atom | Plan.Not _ | Plan.And _ | Plan.Or _ | Plan.Implies _
        | Plan.Window _ ->
          List.iter (bump r_uses) (Plan.children node)
      end;
      if b_uses.(id) > 0 then List.iter (bump b_uses) (Plan.children node)
    done;
    (r_uses, b_uses)

  (* A robust node at slots [s] with its horizon and every reader's
     cursor; its base slot is settled once its readers are known. *)
  type built = {
    bs : int;
    mutable sb : int;
    ret : float ref;
    lag : float;
    mutable cursors : int list;
  }

  let compile ?shared (plan : Plan.t) =
    let r_uses, b_uses = domains plan in
    let nints = ref 0 in
    let alloc k =
      let s = !nints in
      nints := s + k;
      s
    in
    let bprog, (exec, wins, outs) =
      OI.core_compile ?shared plan (fun sg names_of nhist ->
          let bdag = OI.dag_create plan in
          let built = Array.make (Array.length plan.Plan.nodes) None in
          let exec = ref [] and wins = ref [] in
          let get id = match built.(id) with Some n -> n | None -> assert false in
          (* One consuming edge, reading through [cursor], into a built
             node whose reader may leave [ret] seconds of it unconsumed. *)
          let edge id ~cursor ~ret =
            let n = get id in
            if ret > !(n.ret) then n.ret := ret;
            n.cursors <- cursor :: n.cursors;
            n.bs
          in
          Array.iteri
            (fun id (pnode : Plan.node) ->
              let names = names_of pnode.Plan.owner in
              if b_uses.(id) > 0 then OI.dag_add bdag sg names nhist id pnode;
              if r_uses.(id) > 0 then begin
                let lag = Formula.horizon pnode.Plan.form in
                (* A connective holds a child's entries until its slowest
                   child catches up. *)
                let input c ~cursor =
                  edge c ~cursor ~ret:(lag -. (get c).lag)
                in
                let bin op a b =
                  let s = alloc 2 in
                  let a = input a ~cursor:s in
                  let b = input b ~cursor:s in
                  (s, fun sb -> R_bin { s; sb; op; a; b })
                in
                let s, mk =
                  match pnode.Plan.shape with
                  | Plan.Atom -> (
                    let s = alloc 2 in
                    match pnode.Plan.form with
                    | Formula.Cmp (a, op, b) ->
                      let ea = OI.compile_expr sg nhist a in
                      let eb = OI.compile_expr sg nhist b in
                      (s, fun sb -> R_cmp { s; sb; op; ea; eb })
                    | f ->
                      let v = OI.compile_vnode sg names nhist f in
                      (s, fun sb -> R_atom { s; sb; v }))
                  | Plan.Not c ->
                    let s = alloc 2 in
                    let c = input c ~cursor:s in
                    (s, fun sb -> R_not { s; sb; c })
                  | Plan.And (a, b) -> bin 0 a b
                  | Plan.Or (a, b) -> bin 1 a b
                  | Plan.Implies (a, b) -> bin 2 a b
                  | Plan.Window { op; lo; hi; child } ->
                    let lo_off, hi_off, sem = Plan.window_offsets op ~lo ~hi in
                    let universal =
                      match sem with
                      | Window.Universal -> true
                      | Window.Existential | Window.Mask -> false
                    in
                    let s = alloc window_ints in
                    (* The child's entries from the front pending tick's
                       window start up to its latest resolved tick. *)
                    let c =
                      edge child ~cursor:(s + i_cursor)
                        ~ret:(Float.max 0.0 hi_off -. lo_off)
                    in
                    OI.dag_span bdag (lag +. Float.max 0.0 (-.lo_off));
                    wins := (s, hi_off -. lo_off) :: !wins;
                    ( s,
                      fun sb ->
                        R_window
                          { ws = s; wsb = sb; universal; lo_off; hi_off; wc = c }
                    )
                  | Plan.Warmup { trigger; hold; body } ->
                    let m = OI.dag_mask bdag ~trigger ~hold ~ret:lag in
                    let s = alloc 2 in
                    let c = input body ~cursor:s in
                    (s, fun sb -> R_warmup { s; sb; m; c })
                in
                let n = { bs = s; sb = -1; ret = ref 0.0; lag; cursors = [] } in
                exec := (n, mk) :: !exec;
                built.(id) <- Some n
              end)
            plan.Plan.nodes;
          (* The report edges, each through a cursor of its own; a
             report consumes everything resolved at every step. *)
          let outs =
            Array.map
              (fun id ->
                OI.dag_span bdag (get id).lag;
                let cursor = alloc 1 in
                (edge id ~cursor ~ret:0.0, cursor))
              plan.Plan.roots
          in
          (bdag, (List.rev !exec, List.rev !wins, outs)))
    in
    let exec = Array.of_list exec in
    (* A node with one reader retains from that reader's cursor; a hub
       from its own base, the minimum over its readers' cursors. *)
    Array.iter
      (fun (n, _) ->
        match n.cursors with [ c ] -> n.sb <- c | _ -> n.sb <- alloc 1)
      exec;
    let rings = Array.map fst exec in
    let wins = Array.of_list wins in
    let template = Array.make !nints 0 in
    Array.iteri
      (fun k n -> template.(n.bs + i_lay) <- lay_make ~off:k ~mask:0)
      rings;
    Array.iteri
      (fun k (s, _) -> template.(s + i_wlay) <- lay_make ~off:(2 * k) ~mask:0)
      wins;
    let hubs =
      List.filter_map
        (fun n ->
          match n.cursors with
          | [ c ] when c = n.sb -> None
          | cursors -> Some (Array.of_list (n.sb :: List.rev cursors)))
        (Array.to_list rings)
    in
    { bprog;
      exec = Array.map (fun (n, mk) -> mk n.sb) exec;
      hubs = Array.of_list hubs;
      slots = Array.map (fun n -> n.bs) rings;
      bases = Array.map (fun n -> n.sb) rings;
      rets = Array.map (fun n -> !(n.ret)) rings;
      wins = Array.map fst wins;
      wspans = Array.map snd wins;
      template;
      out_s = Array.map fst outs;
      out_c = Array.map snd outs }

  let instantiate ?shared (p : prog) =
    let core = OI.core_instantiate ?shared p.bprog in
    let env = OI.core_env core in
    { ints = Array.copy p.template;
      lo = Array.make (Array.length p.slots) 0.0;
      hi = Array.make (Array.length p.slots) 0.0;
      wq = Bytes.make (8 * Array.length p.wins) '\000';
      core;
      env;
      est = OI.env_est env;
      prog = p;
      sized = false }

  (* Single-rule monitor -------------------------------------------------- *)

  (* A one-root plan with a batch interface: the root's ring from the
     report cursor holds the current batch, retired by the next step. *)
  type t = {
    r : inst;
    root : int;
    cursor : int;
    mutable reported : int;  (* entries from the cursor already handed out *)
  }

  type resolution = { tick : int; time : float; bounds : bounds }

  let create ?shared (spec : Spec.t) =
    let p = compile ?shared (Plan.compile [ spec ]) in
    { r = instantiate ?shared p; root = p.out_s.(0); cursor = p.out_c.(0);
      reported = 0 }

  (* The batch stays readable until the next call: keep its times. *)
  let settle t =
    let ints = t.r.ints in
    t.reported <- ints.(t.root) - ints.(t.cursor);
    OI.core_ensure_floor t.r.core ints.(t.cursor);
    t.reported

  let step_resolved t snapshot =
    OI.core_check ~who:"Robust.Online.step" t.r.core snapshot;
    (* Retire the batch handed out by the previous call. *)
    let ints = t.r.ints in
    ints.(t.cursor) <- ints.(t.cursor) + t.reported;
    t.reported <- 0;
    advance t.r snapshot;
    Obs.incr m_ticks_online_robust;
    settle t

  let finalize_resolved t =
    finish ~who:"Robust.Online.finalize" t.r;
    (* Retire the last step's batch; what remains is the final one. *)
    let ints = t.r.ints in
    ints.(t.cursor) <- ints.(t.cursor) + t.reported;
    settle t

  let check_resolved_index t i =
    if i < 0 || i >= t.reported then
      invalid_arg "Robust.Online: resolved index out of range"

  let resolved_tick t i =
    check_resolved_index t i;
    t.r.ints.(t.cursor) + i

  let resolved_time t i =
    check_resolved_index t i;
    let times = OI.core_times t.r.core in
    times.((t.r.ints.(t.cursor) + i) land (Array.length times - 1))

  let resolved_lo t i =
    check_resolved_index t i;
    t.r.lo.(at t.r t.root (t.r.ints.(t.cursor) + i))

  let resolved_hi t i =
    check_resolved_index t i;
    t.r.hi.(at t.r t.root (t.r.ints.(t.cursor) + i))

  let resolved_get t i =
    { tick = resolved_tick t i;
      time = resolved_time t i;
      bounds = { lo = resolved_lo t i; hi = resolved_hi t i } }

  let batch_list t n =
    let rec collect i acc =
      if i < 0 then acc else collect (i - 1) (resolved_get t i :: acc)
    in
    collect (n - 1) []

  let step t snapshot = batch_list t (step_resolved t snapshot)

  let finalize t = batch_list t (finalize_resolved t)

  let step_iter t snapshot f =
    let n = step_resolved t snapshot in
    for i = 0 to n - 1 do
      f (resolved_tick t i) (resolved_time t i) (resolved_lo t i)
        (resolved_hi t i)
    done

  let pending t = OI.core_ticks t.r.core - t.r.ints.(t.cursor) - t.reported

  let node_at (p : prog) s =
    let first = function
      | R_cmp { s; _ } | R_atom { s; _ } | R_not { s; _ } | R_bin { s; _ }
      | R_warmup { s; _ } -> s
      | R_window w -> w.ws
    in
    match Array.find_opt (fun nd -> first nd = s) p.exec with
    | Some nd -> nd
    | None -> assert false

  (* Sound bracketing interval for one unresolved tick: what is already
     known from resolved subresults, widened where the future can still
     move the value.  Cold path — recursive walk, allocates freely. *)
  let rec node_bounds r s (tick : int) (time : float) : float * float =
    let ints = r.ints in
    let nd = node_at r.prog s in
    let sb =
      match nd with
      | R_cmp { sb; _ } | R_atom { sb; _ } | R_not { sb; _ } | R_bin { sb; _ }
      | R_warmup { sb; _ } -> sb
      | R_window w -> w.wsb
    in
    if tick >= ints.(sb) && tick < ints.(s) then begin
      let j = at r s tick in
      (r.lo.(j), r.hi.(j))
    end
    else if tick < ints.(sb) then (Float.neg_infinity, Float.infinity)
    else
      match nd with
      | R_cmp _ | R_atom _ -> (Float.neg_infinity, Float.infinity)
      | R_not { c; _ } ->
        let l, h = node_bounds r c tick time in
        (-.h, -.l)
      | R_bin { op; a; b; _ } ->
        let la, ha = node_bounds r a tick time in
        let lb, hb = node_bounds r b tick time in
        if op = 0 then (fmin la lb, fmin ha hb)
        else if op = 1 then (fmax la lb, fmax ha hb)
        else (fmax (-.ha) lb, fmax (-.la) hb)
      | R_warmup { m; c; _ } ->
        if tick >= OI.out_cursor r.env m && tick < OI.out_hi r.env m then begin
          match OI.out_verdict r.env m tick with
          | Verdict.True -> (Float.neg_infinity, Float.infinity)
          | Verdict.False | Verdict.Unknown -> node_bounds r c tick time
        end
        else (Float.neg_infinity, Float.infinity)
      | R_window w ->
        (* Already-resolved in-window samples bound the aggregate from
           one side; unresolved future samples can only push it
           further, and completeness may widen the other side — so
           only that one side is reported.  The samples are the wedge
           on that side and the child entries not yet admitted. *)
        let wlo = time +. w.lo_off -. time_eps in
        let whi = time +. w.hi_off +. time_eps in
        let times = OI.core_times r.core in
        let tm = Array.length times - 1 in
        let side = if w.universal then 1 else 0 in
        let v = if w.universal then r.hi else r.lo in
        let m =
          ref (if w.universal then Float.infinity else Float.neg_infinity)
        in
        let take k =
          let st = times.(k land tm) in
          if st >= wlo && st <= whi then
            m := if w.universal then fmin !m v.(at r w.wc k)
                 else fmax !m v.(at r w.wc k)
        in
        let h = w.ws + i_lh + (2 * side) in
        for q = ints.(h) to ints.(h + 1) - 1 do
          take (wtick r w.ws side w.wc q)
        done;
        for k = ints.(w.ws + i_cursor) + ints.(w.ws + i_counted) to ints.(w.wc) - 1 do
          take k
        done;
        if w.universal then (Float.neg_infinity, !m) else (!m, Float.infinity)

  let pending_bounds t =
    let r = t.r in
    let times = OI.core_times r.core in
    let out = ref [] in
    for k = OI.core_ticks r.core - 1 downto r.ints.(t.root) do
      let time = times.(k land (Array.length times - 1)) in
      let l, h = node_bounds r t.root k time in
      out := { tick = k; time; bounds = { lo = l; hi = h } } :: !out
    done;
    !out

  let modes t = OI.core_modes t.r.core 0

  (* Whole-plan monitor --------------------------------------------------- *)

  module Fused = struct
    type program = prog
    type t = inst

    let compile = compile
    let instantiate = instantiate
    let create ?shared plan = instantiate ?shared (compile ?shared plan)
    let instance_bytes p ~period = 8 * instance_words p ~period
    let rule_count t = Array.length t.prog.out_s

    (* Report every rule's new entries through [f] and move its cursor
       past them. *)
    let report t f =
      let p = t.prog and ints = t.ints in
      for r = 0 to Array.length p.out_s - 1 do
        let s = p.out_s.(r) and c = p.out_c.(r) in
        let hi = ints.(s) in
        for k = ints.(c) to hi - 1 do
          let times = OI.core_times t.core in
          let j = at t s k in
          f r k times.(k land (Array.length times - 1)) t.lo.(j) t.hi.(j)
        done;
        ints.(c) <- hi
      done

    let step_iter t snapshot f =
      OI.core_check ~who:"Robust.Online.step" t.core snapshot;
      advance t snapshot;
      Obs.add m_ticks_online_robust (Array.length t.prog.out_s);
      report t f

    let finalize_iter t f =
      finish ~who:"Robust.Online.finalize" t;
      report t f
  end
end
