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
  (* Bounds ring: the robust counterpart of the boolean kernel's
     verdict outbuf — per-node resolved (lo, hi, time) triples in tick
     order, grown by doubling, reused forever after. *)
  type rbuf = {
    mutable bl : float array;
    mutable bh : float array;
    mutable bt : float array;
    mutable bhead : int;
    mutable blen : int;
    mutable bbase : int;
  }

  let rbuf_create () =
    { bl = Array.make 16 0.0; bh = Array.make 16 0.0; bt = Array.make 16 0.0;
      bhead = 0; blen = 0; bbase = 0 }

  let rbuf_grow b =
    let cap = Array.length b.bl in
    let nl = Array.make (cap * 2) 0.0 in
    let nh = Array.make (cap * 2) 0.0 in
    let nt = Array.make (cap * 2) 0.0 in
    for i = 0 to b.blen - 1 do
      let j = b.bhead + i in
      let j = if j >= cap then j - cap else j in
      nl.(i) <- b.bl.(j);
      nh.(i) <- b.bh.(j);
      nt.(i) <- b.bt.(j)
    done;
    b.bl <- nl;
    b.bh <- nh;
    b.bt <- nt;
    b.bhead <- 0

  let rbuf_reserve b =
    if b.blen = Array.length b.bl then rbuf_grow b;
    let j = b.bhead + b.blen in
    let cap = Array.length b.bl in
    let j = if j >= cap then j - cap else j in
    b.blen <- b.blen + 1;
    j

  let rbuf_phys b i =
    let j = b.bhead + i in
    let cap = Array.length b.bl in
    if j >= cap then j - cap else j

  let rbuf_consume b k =
    let h = b.bhead + k in
    let cap = Array.length b.bl in
    b.bhead <- (if h >= cap then h - cap else h);
    b.blen <- b.blen - k;
    b.bbase <- b.bbase + k

  (* Times-only ring for pending ticks. *)
  type pring = {
    mutable pv : float array;
    mutable phead : int;
    mutable plen : int;
  }

  let pring_create () = { pv = Array.make 16 0.0; phead = 0; plen = 0 }

  let pring_grow p =
    let cap = Array.length p.pv in
    let nv = Array.make (cap * 2) 0.0 in
    for i = 0 to p.plen - 1 do
      let j = p.phead + i in
      let j = if j >= cap then j - cap else j in
      nv.(i) <- p.pv.(j)
    done;
    p.pv <- nv;
    p.phead <- 0

  let pring_push p t =
    if p.plen = Array.length p.pv then pring_grow p;
    let j = p.phead + p.plen in
    let cap = Array.length p.pv in
    let j = if j >= cap then j - cap else j in
    p.pv.(j) <- t;
    p.plen <- p.plen + 1

  let pring_pop p =
    let h = p.phead + 1 in
    let cap = Array.length p.pv in
    p.phead <- (if h >= cap then h - cap else h);
    p.plen <- p.plen - 1

  let pring_phys p i =
    let j = p.phead + i in
    let cap = Array.length p.pv in
    if j >= cap then j - cap else j

  (* Monotonic wedge: a (time, value) deque whose values improve
     strictly toward the back — the streaming form of the offline
     index wedges.  Front = current in-window min (universal) or max
     (existential).  Entries are in time order; domination (a later
     sample at least as good) discards an entry permanently, sound
     because both window endpoints only ever advance. *)
  type wedge = {
    mutable qt : float array;
    mutable qv : float array;
    mutable qhead : int;
    mutable qlen : int;
  }

  let wedge_create () =
    { qt = Array.make 16 0.0; qv = Array.make 16 0.0; qhead = 0; qlen = 0 }

  let wedge_phys w i =
    let j = w.qhead + i in
    let cap = Array.length w.qt in
    if j >= cap then j - cap else j

  let wedge_grow w =
    let cap = Array.length w.qt in
    let nt = Array.make (cap * 2) 0.0 in
    let nv = Array.make (cap * 2) 0.0 in
    for i = 0 to w.qlen - 1 do
      let j = wedge_phys w i in
      nt.(i) <- w.qt.(j);
      nv.(i) <- w.qv.(j)
    done;
    w.qt <- nt;
    w.qv <- nv;
    w.qhead <- 0

  let wedge_push w ~universal t v =
    (if universal then
       while w.qlen > 0 && w.qv.(wedge_phys w (w.qlen - 1)) >= v do
         w.qlen <- w.qlen - 1
       done
     else
       while w.qlen > 0 && w.qv.(wedge_phys w (w.qlen - 1)) <= v do
         w.qlen <- w.qlen - 1
       done);
    if w.qlen = Array.length w.qt then wedge_grow w;
    let j = wedge_phys w w.qlen in
    w.qt.(j) <- t;
    w.qv.(j) <- v;
    w.qlen <- w.qlen + 1

  let wedge_drop_front w =
    let h = w.qhead + 1 in
    let cap = Array.length w.qt in
    w.qhead <- (if h >= cap then h - cap else h);
    w.qlen <- w.qlen - 1

  (* All-float window state, kept in one record so per-tick writes stay
     unboxed (the same discipline as the boolean kernel's tfloats). *)
  type rtfloats = {
    mutable r_child_max : float;
    mutable r_first_in : float;
    mutable r_last_in : float;
    mutable r_wlo : float;
    mutable r_whi : float;
  }

  type rnode = { rkind : rkind; rout : rbuf }

  and rkind =
    | R_leaf of rleaf
    | R_not of rnode
    | R_and of rnode * rnode
    | R_or of rnode * rnode
    | R_implies of rnode * rnode
    | R_temporal of rtemporal
    | R_warmup of { w_mask : OI.node; w_body : rnode }
        (* [w_mask] is the boolean suppression window over the warm-up's
           trigger, a plan node advanced as Online.Fused advances it: its
           resolved verdict is [True] exactly on suppressed ticks. *)
    | R_tap of rtap

  and rleaf =
    | RL_cmp of Formula.comparison * OI.enode * OI.enode
    | RL_atom of OI.vnode

  and rtemporal = {
    r_universal : bool;
    r_lo_off : float;
    r_hi_off : float;
    r_child : rnode;
    future : rbuf;  (* resolved child samples not yet admitted *)
    wl : wedge;     (* in-window lower bounds *)
    wh : wedge;     (* in-window upper bounds *)
    r_pend : pring; (* pending tick times *)
    rtf : rtfloats;
    mutable r_any_child : bool;
    mutable r_saw_input : bool;
  }

  (* A non-destructive reader of a shared robust node, exactly the
     boolean kernel's tap: it copies the hub's newly resolved entries
     (absolute tick >= [r_copied]) into its own ring for one consumer. *)
  and rtap = { r_src : rnode; mutable r_copied : int }

  let rtemporal ~universal ~lo_off ~hi_off child =
    { rkind =
        R_temporal
          { r_universal = universal; r_lo_off = lo_off; r_hi_off = hi_off;
            r_child = child;
            future = rbuf_create ();
            wl = wedge_create ();
            wh = wedge_create ();
            r_pend = pring_create ();
            rtf =
              { r_child_max = Float.neg_infinity;
                r_first_in = 0.0;
                r_last_in = 0.0;
                r_wlo = 0.0;
                r_whi = 0.0 };
            r_any_child = false;
            r_saw_input = false };
      rout = rbuf_create () }

  (* Drains --------------------------------------------------------------- *)

  let r_drain_not child out =
    let c = child.rout in
    let k = c.blen in
    if k > 0 then begin
      for i = 0 to k - 1 do
        let src = rbuf_phys c i in
        let nl = -.c.bh.(src) and nh = -.c.bl.(src) and t = c.bt.(src) in
        let j = rbuf_reserve out in
        out.bl.(j) <- nl;
        out.bh.(j) <- nh;
        out.bt.(j) <- t
      done;
      rbuf_consume c k
    end

  (* op2: 0 = and (min), 1 = or (max), 2 = implies (max of negated
     left and right). *)
  let r_drain_bin op2 left right out =
    let a = left.rout and b = right.rout in
    let k = if a.blen < b.blen then a.blen else b.blen in
    if k > 0 then begin
      assert (a.bbase = b.bbase);
      for i = 0 to k - 1 do
        let ai = rbuf_phys a i and bi = rbuf_phys b i in
        let al = a.bl.(ai) and ah = a.bh.(ai) in
        let blo = b.bl.(bi) and bhi = b.bh.(bi) in
        let t = a.bt.(ai) in
        let ol, oh =
          if op2 = 0 then (fmin al blo, fmin ah bhi)
          else if op2 = 1 then (fmax al blo, fmax ah bhi)
          else (fmax (-.ah) blo, fmax (-.al) bhi)
        in
        let j = rbuf_reserve out in
        out.bl.(j) <- ol;
        out.bh.(j) <- oh;
        out.bt.(j) <- t
      done;
      rbuf_consume a k;
      rbuf_consume b k
    end

  let r_drain_warmup w_mask body out =
    let m_len = OI.out_len w_mask in
    let b = body.rout in
    let k = if m_len < b.blen then m_len else b.blen in
    if k > 0 then begin
      assert (OI.out_base w_mask = b.bbase);
      for i = 0 to k - 1 do
        let suppressed =
          match OI.out_verdict w_mask i with
          | Verdict.True -> true
          | Verdict.False | Verdict.Unknown -> false
        in
        let src = rbuf_phys b i in
        let ol = if suppressed then Float.neg_infinity else b.bl.(src) in
        let oh = if suppressed then Float.infinity else b.bh.(src) in
        let t = b.bt.(src) in
        let j = rbuf_reserve out in
        out.bl.(j) <- ol;
        out.bh.(j) <- oh;
        out.bt.(j) <- t
      done;
      OI.out_consume w_mask k;
      rbuf_consume b k
    end

  let r_tap_drain tap out =
    let s = tap.r_src.rout in
    let start = tap.r_copied - s.bbase in
    if start < s.blen then begin
      for i = start to s.blen - 1 do
        let src = rbuf_phys s i in
        let l = s.bl.(src) and h = s.bh.(src) and t = s.bt.(src) in
        let j = rbuf_reserve out in
        out.bl.(j) <- l;
        out.bh.(j) <- h;
        out.bt.(j) <- t
      done;
      tap.r_copied <- s.bbase + s.blen
    end

  (* Window machinery ----------------------------------------------------- *)

  let r_absorb_child tp =
    let c = tp.r_child.rout in
    let k = c.blen in
    if k > 0 then begin
      for i = 0 to k - 1 do
        let src = rbuf_phys c i in
        let l = c.bl.(src) and h = c.bh.(src) and t = c.bt.(src) in
        let j = rbuf_reserve tp.future in
        tp.future.bl.(j) <- l;
        tp.future.bh.(j) <- h;
        tp.future.bt.(j) <- t
      done;
      tp.rtf.r_child_max <- c.bt.(rbuf_phys c (k - 1));
      tp.r_any_child <- true;
      rbuf_consume c k
    end

  (* Expire wedge fronts the window start has passed.  Wedge entries
     are in time order, so only fronts can be stale. *)
  let r_drop_passed tp =
    while tp.wl.qlen > 0 && tp.wl.qt.(tp.wl.qhead) < tp.rtf.r_wlo do
      wedge_drop_front tp.wl
    done;
    while tp.wh.qlen > 0 && tp.wh.qt.(tp.wh.qhead) < tp.rtf.r_wlo do
      wedge_drop_front tp.wh
    done

  (* Admit resolved samples the window end has reached.  A sample
     already behind the window start is discarded: the endpoints only
     advance, so no later window can contain it either. *)
  let rec r_admit_reached tp =
    if tp.future.blen > 0 then begin
      let j = rbuf_phys tp.future 0 in
      let t = tp.future.bt.(j) in
      if t <= tp.rtf.r_whi then begin
        if t >= tp.rtf.r_wlo then begin
          wedge_push tp.wl ~universal:tp.r_universal t tp.future.bl.(j);
          wedge_push tp.wh ~universal:tp.r_universal t tp.future.bh.(j)
        end;
        rbuf_consume tp.future 1;
        r_admit_reached tp
      end
    end

  (* Unlike the boolean kernel there is no early resolution: a window's
     robustness needs every sample even once its boolean verdict is
     stable (one more sample can still lower the min).  A tick resolves
     exactly when its window closes — the same closure and completeness
     predicates as the boolean kernel — so past-time operators still
     resolve at their own tick. *)
  let rec r_try_resolve ~finalizing tp out =
    if tp.r_pend.plen > 0 then begin
      let p_time = tp.r_pend.pv.(tp.r_pend.phead) in
      tp.rtf.r_wlo <- p_time +. tp.r_lo_off -. time_eps;
      tp.rtf.r_whi <- p_time +. tp.r_hi_off +. time_eps;
      r_drop_passed tp;
      r_admit_reached tp;
      let window_closed =
        finalizing
        || (tp.r_any_child
           && tp.rtf.r_child_max >= p_time +. tp.r_hi_off -. time_eps)
      in
      if window_closed then begin
        let complete =
          tp.r_saw_input
          && tp.rtf.r_last_in >= p_time +. tp.r_hi_off -. time_eps
          && tp.rtf.r_first_in <= p_time +. tp.r_lo_off +. time_eps
        in
        let sem =
          if tp.r_universal then Window.Universal else Window.Existential
        in
        let identity =
          if tp.r_universal then Float.infinity else Float.neg_infinity
        in
        let m_lo = if tp.wl.qlen > 0 then tp.wl.qv.(tp.wl.qhead) else identity in
        let m_hi = if tp.wh.qlen > 0 then tp.wh.qv.(tp.wh.qhead) else identity in
        let rl = Window.decide_robust_lo sem ~m_lo ~complete in
        let rh = Window.decide_robust_hi sem ~m_hi ~complete in
        pring_pop tp.r_pend;
        let j = rbuf_reserve out in
        out.bl.(j) <- rl;
        out.bh.(j) <- rh;
        out.bt.(j) <- p_time;
        r_try_resolve ~finalizing tp out
      end
    end

  (* Advancing ------------------------------------------------------------ *)

  (* One node's own per-tick work, its children already advanced this
     tick (the executor walks nodes in plan order). *)
  let r_advance_self env node time =
    match node.rkind with
    | R_leaf (RL_cmp (op, ea, eb)) ->
      let est = OI.env_est env in
      OI.eval_expr env ea;
      let a = est.OI.acc and ad = est.OI.def in
      OI.eval_expr env eb;
      let b = est.OI.acc and bd = est.OI.def in
      let o = node.rout in
      let j = rbuf_reserve o in
      if ad <> 0.0 && bd <> 0.0 then begin
        let m = margin op a b in
        o.bl.(j) <- m;
        o.bh.(j) <- m
      end
      else begin
        o.bl.(j) <- Float.neg_infinity;
        o.bh.(j) <- Float.infinity
      end;
      o.bt.(j) <- time
    | R_leaf (RL_atom v) ->
      let verdict = OI.eval_vnode env v in
      let o = node.rout in
      let j = rbuf_reserve o in
      o.bl.(j) <- Verdict.robust_lower verdict;
      o.bh.(j) <- Verdict.robust_upper verdict;
      o.bt.(j) <- time
    | R_not c -> r_drain_not c node.rout
    | R_and (a, b) -> r_drain_bin 0 a b node.rout
    | R_or (a, b) -> r_drain_bin 1 a b node.rout
    | R_implies (a, b) -> r_drain_bin 2 a b node.rout
    | R_temporal tp ->
      if not tp.r_saw_input then begin
        tp.rtf.r_first_in <- time;
        tp.r_saw_input <- true
      end;
      tp.rtf.r_last_in <- time;
      pring_push tp.r_pend time;
      r_absorb_child tp;
      r_try_resolve ~finalizing:false tp node.rout
    | R_warmup { w_mask; w_body } -> r_drain_warmup w_mask w_body node.rout
    | R_tap tap -> r_tap_drain tap node.rout

  let r_finalize_self node =
    match node.rkind with
    | R_leaf _ -> ()
    | R_not c -> r_drain_not c node.rout
    | R_and (a, b) -> r_drain_bin 0 a b node.rout
    | R_or (a, b) -> r_drain_bin 1 a b node.rout
    | R_implies (a, b) -> r_drain_bin 2 a b node.rout
    | R_temporal tp ->
      r_absorb_child tp;
      r_try_resolve ~finalizing:true tp node.rout
    | R_warmup { w_mask; w_body } -> r_drain_warmup w_mask w_body node.rout
    | R_tap tap -> r_tap_drain tap node.rout

  (* Plan executor -------------------------------------------------------- *)

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

  (* The robust nodes ride on a boolean core: it owns the clock, the
     signal slots and the machines, and runs the warm-up triggers and
     their masks; it reports nothing itself. *)
  type core = {
    bcore : OI.core;
    env : OI.env;
    rexec : rnode array;    (* robust nodes and taps, execution order *)
    rhubs : rbuf array;     (* shared robust rings, retired once per tick *)
    outs : rnode array;     (* per rule: its root, or a private tap of it *)
  }

  let core_create ?shared (plan : Plan.t) =
    let r_uses, b_uses = domains plan in
    let bcore, (rexec, rhubs, outs) =
      OI.core_build ?shared plan (fun sg names_of nhist ->
          let bdag = OI.dag_create plan b_uses in
          let built = Array.make (Array.length plan.Plan.nodes) None in
          let exec = ref [] and hubs = ref [] in
          let push n = exec := n :: !exec in
          let node kind = { rkind = kind; rout = rbuf_create () } in
          let edge id =
            let n = match built.(id) with Some n -> n | None -> assert false in
            if r_uses.(id) > 1 then begin
              let tap = node (R_tap { r_src = n; r_copied = 0 }) in
              push tap;
              tap
            end
            else n
          in
          Array.iteri
            (fun id (pnode : Plan.node) ->
              let names = names_of pnode.Plan.owner in
              if b_uses.(id) > 0 then OI.dag_add bdag sg names nhist id pnode;
              if r_uses.(id) > 0 then begin
                let n =
                  match pnode.Plan.shape with
                  | Plan.Atom -> (
                    match pnode.Plan.form with
                    | Formula.Cmp (a, op, b) ->
                      let ea = OI.compile_expr sg nhist a in
                      let eb = OI.compile_expr sg nhist b in
                      node (R_leaf (RL_cmp (op, ea, eb)))
                    | f ->
                      node (R_leaf (RL_atom (OI.compile_vnode sg names nhist f))))
                  | Plan.Not c -> node (R_not (edge c))
                  | Plan.And (a, b) ->
                    let l = edge a in
                    node (R_and (l, edge b))
                  | Plan.Or (a, b) ->
                    let l = edge a in
                    node (R_or (l, edge b))
                  | Plan.Implies (a, b) ->
                    let l = edge a in
                    node (R_implies (l, edge b))
                  | Plan.Window { op; lo; hi; child } ->
                    let lo_off, hi_off, sem = Plan.window_offsets op ~lo ~hi in
                    let universal =
                      match sem with
                      | Window.Universal -> true
                      | Window.Existential | Window.Mask -> false
                    in
                    rtemporal ~universal ~lo_off ~hi_off (edge child)
                  | Plan.Warmup { trigger; hold; body } ->
                    let w_mask = OI.dag_mask bdag ~trigger ~hold in
                    node (R_warmup { w_mask; w_body = edge body })
                in
                push n;
                if r_uses.(id) > 1 then hubs := n.rout :: !hubs;
                built.(id) <- Some n
              end)
            plan.Plan.nodes;
          let outs = Array.map edge plan.Plan.roots in
          ( bdag,
            [||],
            ( Array.of_list (List.rev !exec),
              Array.of_list (List.rev !hubs),
              outs ) ))
    in
    { bcore; env = OI.core_env bcore; rexec; rhubs; outs }

  let retire_hubs hubs =
    for i = 0 to Array.length hubs - 1 do
      let h = Array.unsafe_get hubs i in
      rbuf_consume h h.blen
    done

  (* Boolean nodes first: they never read robust ones. *)
  let advance_nodes bcore env nodes rhubs snapshot =
    OI.core_advance bcore snapshot;
    let time = snapshot.Snapshot.time in
    for i = 0 to Array.length nodes - 1 do
      r_advance_self env (Array.unsafe_get nodes i) time
    done;
    retire_hubs rhubs

  let core_advance c snapshot =
    advance_nodes c.bcore c.env c.rexec c.rhubs snapshot

  let core_finalize ~who c =
    OI.core_finalize ~who c.bcore;
    let nodes = c.rexec in
    for i = 0 to Array.length nodes - 1 do
      r_finalize_self (Array.unsafe_get nodes i)
    done;
    retire_hubs c.rhubs

  (* Single-rule monitor -------------------------------------------------- *)

  (* The core's per-step fields are copied in so a step touches one
     record, not two. *)
  type t = {
    bcore : OI.core;
    env : OI.env;
    rexec : rnode array;
    rhubs : rbuf array;
    root : rbuf;
    proot : pring;  (* times of ticks not yet resolved at the root *)
    mutable reported : int;
    core : core;
  }

  type resolution = { tick : int; time : float; bounds : bounds }

  let create ?shared (spec : Spec.t) =
    let core = core_create ?shared (Plan.compile [ spec ]) in
    { bcore = core.bcore; env = core.env; rexec = core.rexec;
      rhubs = core.rhubs; root = core.outs.(0).rout; proot = pring_create ();
      reported = 0; core }

  let settle t =
    let n = t.root.blen in
    for _ = 1 to n do
      pring_pop t.proot
    done;
    t.reported <- n;
    n

  let step_resolved t snapshot =
    OI.core_check ~who:"Robust.Online.step" t.bcore snapshot;
    rbuf_consume t.root t.reported;
    t.reported <- 0;
    pring_push t.proot snapshot.Snapshot.time;
    advance_nodes t.bcore t.env t.rexec t.rhubs snapshot;
    Obs.incr m_ticks_online_robust;
    settle t

  let finalize_resolved t =
    core_finalize ~who:"Robust.Online.finalize" t.core;
    (* Retire the last step's batch; what remains is the final one. *)
    rbuf_consume t.root t.reported;
    settle t

  let check_resolved_index t i =
    if i < 0 || i >= t.reported then
      invalid_arg "Robust.Online: resolved index out of range"

  let resolved_tick t i =
    check_resolved_index t i;
    t.root.bbase + i

  let resolved_time t i =
    check_resolved_index t i;
    t.root.bt.(rbuf_phys t.root i)

  let resolved_lo t i =
    check_resolved_index t i;
    t.root.bl.(rbuf_phys t.root i)

  let resolved_hi t i =
    check_resolved_index t i;
    t.root.bh.(rbuf_phys t.root i)

  let resolved_get t i =
    check_resolved_index t i;
    let o = t.root in
    let j = rbuf_phys o i in
    { tick = o.bbase + i;
      time = o.bt.(j);
      bounds = { lo = o.bl.(j); hi = o.bh.(j) } }

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

  let pending t = t.proot.plen + (t.root.blen - t.reported)

  (* Sound bracketing interval for one unresolved tick: what is already
     known from resolved subresults, widened where the future can still
     move the value.  Cold path — recursive walk, allocates freely. *)
  let rec node_bounds nd (tick : int) (time : float) : float * float =
    let o = nd.rout in
    if tick >= o.bbase && tick < o.bbase + o.blen then begin
      let j = rbuf_phys o (tick - o.bbase) in
      (o.bl.(j), o.bh.(j))
    end
    else if tick < o.bbase then (Float.neg_infinity, Float.infinity)
    else
      match nd.rkind with
      | R_leaf _ -> (Float.neg_infinity, Float.infinity)
      | R_tap tap -> node_bounds tap.r_src tick time
      | R_not c ->
        let l, h = node_bounds c tick time in
        (-.h, -.l)
      | R_and (a, b) ->
        let la, ha = node_bounds a tick time in
        let lb, hb = node_bounds b tick time in
        (fmin la lb, fmin ha hb)
      | R_or (a, b) ->
        let la, ha = node_bounds a tick time in
        let lb, hb = node_bounds b tick time in
        (fmax la lb, fmax ha hb)
      | R_implies (a, b) ->
        let la, ha = node_bounds a tick time in
        let lb, hb = node_bounds b tick time in
        (fmax (-.ha) lb, fmax (-.la) hb)
      | R_warmup { w_mask; w_body } ->
        let mb = OI.out_base w_mask and ml = OI.out_len w_mask in
        if tick >= mb && tick < mb + ml then begin
          match OI.out_verdict w_mask (tick - mb) with
          | Verdict.True -> (Float.neg_infinity, Float.infinity)
          | Verdict.False | Verdict.Unknown -> node_bounds w_body tick time
        end
        else (Float.neg_infinity, Float.infinity)
      | R_temporal tp ->
        (* Already-resolved in-window samples bound the aggregate from
           one side; unresolved future samples can only push it
           further, and completeness may widen the other side — so
           only that one side is reported. *)
        let wlo = time +. tp.r_lo_off -. time_eps in
        let whi = time +. tp.r_hi_off +. time_eps in
        if tp.r_universal then begin
          let m = ref Float.infinity in
          for i = 0 to tp.wh.qlen - 1 do
            let j = wedge_phys tp.wh i in
            let st = tp.wh.qt.(j) in
            if st >= wlo && st <= whi then m := fmin !m tp.wh.qv.(j)
          done;
          for i = 0 to tp.future.blen - 1 do
            let j = rbuf_phys tp.future i in
            let st = tp.future.bt.(j) in
            if st >= wlo && st <= whi then m := fmin !m tp.future.bh.(j)
          done;
          (Float.neg_infinity, !m)
        end
        else begin
          let m = ref Float.neg_infinity in
          for i = 0 to tp.wl.qlen - 1 do
            let j = wedge_phys tp.wl i in
            let st = tp.wl.qt.(j) in
            if st >= wlo && st <= whi then m := fmax !m tp.wl.qv.(j)
          done;
          for i = 0 to tp.future.blen - 1 do
            let j = rbuf_phys tp.future i in
            let st = tp.future.bt.(j) in
            if st >= wlo && st <= whi then m := fmax !m tp.future.bl.(j)
          done;
          (!m, Float.infinity)
        end

  let pending_bounds t =
    let first = OI.core_ticks t.bcore - t.proot.plen in
    let out = ref [] in
    for i = t.proot.plen - 1 downto 0 do
      let time = t.proot.pv.(pring_phys t.proot i) in
      let l, h = node_bounds t.core.outs.(0) (first + i) time in
      out :=
        { tick = first + i; time; bounds = { lo = l; hi = h } } :: !out
    done;
    !out

  let modes t = OI.core_modes t.bcore 0

  (* Whole-plan monitor --------------------------------------------------- *)

  module Fused = struct
    type t = core

    let create = core_create

    let rule_count t = Array.length t.outs

    (* Drain every rule's report ring through [f], then retire it. *)
    let report t f =
      for r = 0 to Array.length t.outs - 1 do
        let o = (Array.unsafe_get t.outs r).rout in
        let k = o.blen in
        if k > 0 then begin
          for i = 0 to k - 1 do
            let j = rbuf_phys o i in
            f r (o.bbase + i) o.bt.(j) o.bl.(j) o.bh.(j)
          done;
          rbuf_consume o k
        end
      done

    let step_iter (t : t) snapshot f =
      OI.core_check ~who:"Robust.Online.step" t.bcore snapshot;
      core_advance t snapshot;
      Obs.add m_ticks_online_robust (Array.length t.outs);
      report t f

    let finalize_iter t f =
      core_finalize ~who:"Robust.Online.finalize" t;
      report t f
  end
end
