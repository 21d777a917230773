type resolution = { tick : int; time : float; verdict : Verdict.t }

let time_eps = Window.time_eps

(* Incremental per-tick evaluation with amortised-O(1) window state and
   zero steady-state allocation (DESIGN.md §12).

   The previous kernel pushed a heap-allocated [resolution] record through
   a [Queue.t] per node per tick and kept per-operator [future]/[counted]
   queue pairs, so the steady state churned the minor heap in proportion
   to formula size.  This kernel keeps the same dataflow — every node
   resolves a prefix of the tick stream, parents consume their children's
   output destructively — over the nodes of a {!Plan}, advanced children
   first by one array pass per tick, and stores it all in flat reusable
   state:

   - node outputs are ring buffers of verdict bytes + times (grown by
     doubling, then reused forever);
   - each temporal operator holds one window ring whose front [counted]
     entries are inside the current pending tick's window, summarised by
     the three counters [nt]/[nf]/[nu] (the same three-counter shape as
     [Offline.window_scan]);
   - pending ticks are a times-only ring — the tick numbers are implicit
     in the ring base, advanced monotonically as verdicts resolve;
   - leaf evaluation reads flat per-signal slots (the online analogue of
     [Trace.Columns]) refreshed once per tick by a merge walk over the
     sorted snapshot entries, and expression history lives in one flat
     float array per monitor instead of per-node [result ref]s.

   Allocation discipline: after the rings reach the formula's horizon, a
   [step] of a machine-free spec performs no minor-heap allocation at all
   (asserted by [test/test_online_alloc.ml]).  The rules that make this
   hold are (a) no float may cross a function boundary unless it is
   already boxed (the snapshot's own [time] field qualifies), so ring
   pushes reserve an index and let the caller store into the float array
   directly; (b) all mutable per-tick floats live in float arrays or
   all-float records (mixed records box their float fields on every
   write); (c) no options, no queues, no closures on the per-tick path. *)

(* Verdict <-> byte codes for ring storage. *)
let code_true = '\000'
let code_false = '\001'
let code_unknown = '\002'

let code_of_verdict = function
  | Verdict.True -> code_true
  | Verdict.False -> code_false
  | Verdict.Unknown -> code_unknown

let verdict_of_code c =
  if c = code_true then Verdict.True
  else if c = code_false then Verdict.False
  else Verdict.Unknown

let code_not c =
  if c = code_true then code_false
  else if c = code_false then code_true
  else code_unknown

(* Flat per-signal state ------------------------------------------------- *)

let fl_present = 1
let fl_fresh = 2
let fl_stale = 4

type signals = {
  sig_names : string array;  (* sorted ascending, unique *)
  sig_flags : Bytes.t;       (* presence/freshness/staleness bits *)
  sig_floats : float array;  (* value coerced to float *)
  sig_bools : Bytes.t;       (* value coerced to bool *)
  sig_lasts : float array;   (* last_update *)
  (* Shape cache: the entry names of the last snapshot (in order) and the
     slot each one resolved to (-1 = not a monitored signal).  Successive
     snapshots of one stream almost always carry the same name strings —
     physically the same, since producers reuse them — so the steady-state
     walk is a pointer comparison per entry instead of a string
     comparison.  Any mismatch falls back to the merge walk, which
     re-records the shape. *)
  mutable shape_names : string array;
  mutable shape_slots : int array;
  mutable shape_valid : bool;
  (* The snapshot the slots currently reflect, compared by pointer.  When
     several monitors share one [signals] (see {!shared_for}), the first
     one stepped with a given snapshot pays for the walk and the rest see
     the pointer match and skip it. *)
  mutable last_snap : Monitor_trace.Snapshot.t;
}

let never_snap : Monitor_trace.Snapshot.t =
  { Monitor_trace.Snapshot.time = Float.nan; entries = [] }

let signals_make names =
  let arr = Array.of_list (List.sort_uniq String.compare names) in
  let n = Array.length arr in
  { sig_names = arr;
    sig_flags = Bytes.make n '\000';
    sig_floats = Array.make n 0.0;
    sig_bools = Bytes.make n '\000';
    sig_lasts = Array.make n 0.0;
    shape_names = [||];
    shape_slots = [||];
    shape_valid = false;
    last_snap = never_snap }

let slot_of_name sg name =
  let lo = ref 0 and hi = ref (Array.length sg.sig_names - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare name sg.sig_names.(mid) in
    if c = 0 then found := mid
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  if !found < 0 then invalid_arg ("Online: unknown signal slot " ^ name);
  !found

(* Byte-lexicographic string comparison, open-coded: [String.compare] goes
   through the generic [caml_compare] C call, which at ~100 comparisons
   per tick dominates the whole kernel.  Same order as [String.compare]
   (unsigned bytes, shorter prefix first), which both sides of the merge
   walk are sorted by. *)
(* Top-level recursion, not a nested [let rec]: a local function with free
   variables is a closure allocation per call in Closure-mode native code,
   which is exactly what the steady state must not do. *)
let rec str_cmp_from (a : string) (b : string) lmin i =
  if i = lmin then String.length a - String.length b
  else begin
    let ca = Char.code (String.unsafe_get a i)
    and cb = Char.code (String.unsafe_get b i) in
    if ca <> cb then ca - cb else str_cmp_from a b lmin (i + 1)
  end

let str_cmp (a : string) (b : string) =
  if a == b then 0
  else begin
    let la = String.length a and lb = String.length b in
    str_cmp_from a b (if la < lb then la else lb) 0
  end

(* Store one snapshot entry into slot [i].  Only pointers and an int cross
   the call boundary, so nothing boxes. *)
let store_entry sg i (e : Monitor_trace.Snapshot.entry) =
  let fl =
    fl_present
    lor (if e.fresh then fl_fresh else 0)
    lor (if e.stale then fl_stale else 0)
  in
  Bytes.unsafe_set sg.sig_flags i (Char.unsafe_chr fl);
  (match e.value with
  | Monitor_signal.Value.Float x ->
    sg.sig_floats.(i) <- x;
    Bytes.unsafe_set sg.sig_bools i
      (if (not (Float.is_nan x)) && x <> 0.0 then '\001' else '\000')
  | Monitor_signal.Value.Bool b ->
    sg.sig_floats.(i) <- (if b then 1.0 else 0.0);
    Bytes.unsafe_set sg.sig_bools i (if b then '\001' else '\000')
  | Monitor_signal.Value.Enum k ->
    sg.sig_floats.(i) <- float_of_int k;
    Bytes.unsafe_set sg.sig_bools i (if k <> 0 then '\001' else '\000'));
  sg.sig_lasts.(i) <- e.last_update

(* Steady-state walk: replay the recorded shape as long as the entry names
   are physically the ones seen last tick.  Returns false on the first
   mismatch (different pointer, extra or missing entries), leaving the
   caller to re-zero the flags and fall back to the merge walk. *)
let rec fast_walk sg len k entries =
  if k = len then (match entries with [] -> true | _ :: _ -> false)
  else
    match entries with
    | [] -> false
    | (name, e) :: rest ->
      if name == Array.unsafe_get sg.shape_names k then begin
        let i = Array.unsafe_get sg.shape_slots k in
        if i >= 0 then store_entry sg i e;
        fast_walk sg len (k + 1) rest
      end
      else false

(* Full refresh from a snapshot: both sides are sorted by name, so one
   merge walk suffices — no hashing, no allocation beyond (re)sizing the
   shape arrays when the entry count changes.  Entries without a slot
   (signals the formula never mentions) are skipped; slots without an
   entry keep their flags cleared.  Duplicate names in a snapshot resolve
   to the first entry, like [List.assoc_opt] over the stably-sorted
   entries did — later duplicates record slot -1, so a shape replay makes
   the same choice. *)
let rec skip_slots sg n i name =
  if i < n && str_cmp sg.sig_names.(i) name < 0 then
    skip_slots sg n (i + 1) name
  else i

let rec rebuild_walk sg n k i entries =
  match entries with
  | [] -> ()
  | (name, (e : Monitor_trace.Snapshot.entry)) :: rest ->
    sg.shape_names.(k) <- name;
    let i = skip_slots sg n i name in
    if i < n && str_cmp sg.sig_names.(i) name = 0 then begin
      sg.shape_slots.(k) <- i;
      store_entry sg i e;
      rebuild_walk sg n (k + 1) (i + 1) rest
    end
    else begin
      sg.shape_slots.(k) <- (-1);
      rebuild_walk sg n (k + 1) i rest
    end

let update_signals sg (snap : Monitor_trace.Snapshot.t) =
  let n = Array.length sg.sig_names in
  if n = 0 || snap == sg.last_snap then ()
  else begin
    Bytes.fill sg.sig_flags 0 n '\000';
    let entries = snap.Monitor_trace.Snapshot.entries in
    if
      not
        (sg.shape_valid
        && fast_walk sg (Array.length sg.shape_names) 0 entries)
    then begin
      (* The fast walk may have stored a prefix before mismatching; start
         the merge walk from clean flags. *)
      Bytes.fill sg.sig_flags 0 n '\000';
      let len = List.length entries in
      if Array.length sg.shape_names <> len then begin
        sg.shape_names <- Array.make len "";
        sg.shape_slots <- Array.make len (-1)
      end;
      rebuild_walk sg n 0 0 entries;
      sg.shape_valid <- true
    end;
    sg.last_snap <- snap
  end

(* Slot-compiled expressions --------------------------------------------- *)

(* The compiled form of [Expr.t]: signal names become slot indices and the
   [result ref]/[fresh_hist ref] history cells become indices into one
   flat [hval]/[hdef] pair per monitor.  Semantics are transcribed from
   [Expr.step] — in particular both operands of every binary node are
   always evaluated, so [prev]/[delta]/[rate]/[fresh_delta] histories
   advance on every tick exactly as the reference evaluator's do. *)
type enode =
  | E_const of float
  | E_signal of int
  | E_prev of enode * int
  | E_delta of enode * int
  | E_rate of enode * int
  | E_fresh_delta of int * int  (* slot, base of a 2-cell history *)
  | E_age of int
  | E_neg of enode
  | E_abs of enode
  | E_add of enode * enode
  | E_sub of enode * enode
  | E_mul of enode * enode
  | E_div of enode * enode
  | E_min of enode * enode
  | E_max of enode * enode

(* All-float scratch record (flat, so the per-tick writes do not box). *)
type estate = {
  mutable acc : float;    (* value of the node just evaluated *)
  mutable def : float;    (* 1.0 defined / 0.0 undefined *)
  mutable dt : float;     (* time since the previous tick *)
  mutable dt_def : float; (* 0.0 on the first tick *)
  mutable now : float;    (* current tick time *)
}

type env = {
  sg : signals;
  est : estate;
  hval : float array;        (* expression history values *)
  hdef : Bytes.t;            (* definedness / fresh-sample count *)
  post_modes : string array; (* post-step machine modes, refreshed per tick *)
}

(* Stdlib [Float.min]/[Float.max] semantics (NaN-propagating, -0.0 < +0.0),
   inlined locally so no float crosses a non-inlinable call boundary. *)
let fmin (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

let fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

let rec eval_expr env node =
  let est = env.est in
  match node with
  | E_const x ->
    est.acc <- x;
    est.def <- 1.0
  | E_signal i ->
    let fl = Char.code (Bytes.unsafe_get env.sg.sig_flags i) in
    if fl land fl_present <> 0 && fl land fl_stale = 0 then begin
      est.acc <- env.sg.sig_floats.(i);
      est.def <- 1.0
    end
    else begin
      est.acc <- 0.0;
      est.def <- 0.0
    end
  | E_prev (c, h) ->
    eval_expr env c;
    let cur = est.acc and cur_def = est.def in
    est.acc <- env.hval.(h);
    est.def <- (if Bytes.unsafe_get env.hdef h <> '\000' then 1.0 else 0.0);
    env.hval.(h) <- cur;
    Bytes.unsafe_set env.hdef h (if cur_def <> 0.0 then '\001' else '\000')
  | E_delta (c, h) ->
    eval_expr env c;
    let cur = est.acc and cur_def = est.def in
    let prev = env.hval.(h) in
    let prev_def = Bytes.unsafe_get env.hdef h <> '\000' in
    env.hval.(h) <- cur;
    Bytes.unsafe_set env.hdef h (if cur_def <> 0.0 then '\001' else '\000');
    if cur_def <> 0.0 && prev_def then est.acc <- cur -. prev
    else est.def <- 0.0
  | E_rate (c, h) ->
    eval_expr env c;
    let cur = est.acc and cur_def = est.def in
    let prev = env.hval.(h) in
    let prev_def = Bytes.unsafe_get env.hdef h <> '\000' in
    env.hval.(h) <- cur;
    Bytes.unsafe_set env.hdef h (if cur_def <> 0.0 then '\001' else '\000');
    if cur_def <> 0.0 && prev_def && est.dt_def <> 0.0 && est.dt > 0.0 then
      est.acc <- (cur -. prev) /. est.dt
    else est.def <- 0.0
  | E_fresh_delta (slot, h) ->
    (* hdef.(h) counts fresh samples seen (saturating at 2); hval.(h) and
       hval.(h+1) are the previous and latest fresh values. *)
    let fl = Char.code (Bytes.unsafe_get env.sg.sig_flags slot) in
    if fl land fl_fresh <> 0 then begin
      let x = env.sg.sig_floats.(slot) in
      if Bytes.unsafe_get env.hdef h = '\000' then begin
        env.hval.(h + 1) <- x;
        Bytes.unsafe_set env.hdef h '\001'
      end
      else begin
        env.hval.(h) <- env.hval.(h + 1);
        env.hval.(h + 1) <- x;
        Bytes.unsafe_set env.hdef h '\002'
      end
    end;
    if Bytes.unsafe_get env.hdef h = '\002' then begin
      est.acc <- env.hval.(h + 1) -. env.hval.(h);
      est.def <- 1.0
    end
    else est.def <- 0.0
  | E_age slot ->
    let fl = Char.code (Bytes.unsafe_get env.sg.sig_flags slot) in
    if fl land fl_present <> 0 then begin
      est.acc <- est.now -. env.sg.sig_lasts.(slot);
      est.def <- 1.0
    end
    else est.def <- 0.0
  | E_neg c ->
    eval_expr env c;
    est.acc <- -.est.acc
  | E_abs c ->
    eval_expr env c;
    est.acc <- Float.abs est.acc
  | E_add (a, b) ->
    eval_expr env a;
    let va = est.acc and da = est.def in
    eval_expr env b;
    est.acc <- va +. est.acc;
    est.def <- da *. est.def
  | E_sub (a, b) ->
    eval_expr env a;
    let va = est.acc and da = est.def in
    eval_expr env b;
    est.acc <- va -. est.acc;
    est.def <- da *. est.def
  | E_mul (a, b) ->
    eval_expr env a;
    let va = est.acc and da = est.def in
    eval_expr env b;
    est.acc <- va *. est.acc;
    est.def <- da *. est.def
  | E_div (a, b) ->
    eval_expr env a;
    let va = est.acc and da = est.def in
    eval_expr env b;
    est.acc <- va /. est.acc;
    est.def <- da *. est.def
  | E_min (a, b) ->
    eval_expr env a;
    let va = est.acc and da = est.def in
    eval_expr env b;
    est.acc <- fmin va est.acc;
    est.def <- da *. est.def
  | E_max (a, b) ->
    eval_expr env a;
    let va = est.acc and da = est.def in
    eval_expr env b;
    est.acc <- fmax va est.acc;
    est.def <- da *. est.def

(* Slot-compiled immediate formulas -------------------------------------- *)

type vnode =
  | V_const of Verdict.t
  | V_cmp of Formula.comparison * enode * enode
  | V_bool of int
  | V_fresh of int
  | V_known of int
  | V_stale of int
  | V_in_mode of int * string  (* machine index, -1 if unknown machine *)
  | V_not of vnode
  | V_and of vnode * vnode
  | V_or of vnode * vnode
  | V_implies of vnode * vnode

let rec eval_vnode env v =
  match v with
  | V_const verdict -> verdict
  | V_cmp (op, a, b) ->
    let est = env.est in
    (* Both sides evaluated unconditionally, as in [Immediate.eval]. *)
    eval_expr env a;
    let va = est.acc and da = est.def in
    eval_expr env b;
    if da <> 0.0 && est.def <> 0.0 then begin
      let vb = est.acc in
      (* IEEE semantics: any comparison involving NaN is false. *)
      let r =
        match op with
        | Formula.Lt -> va < vb
        | Formula.Le -> va <= vb
        | Formula.Gt -> va > vb
        | Formula.Ge -> va >= vb
        | Formula.Eq -> va = vb
        | Formula.Ne -> va <> vb
      in
      Verdict.of_bool r
    end
    else Verdict.Unknown
  | V_bool i ->
    let fl = Char.code (Bytes.unsafe_get env.sg.sig_flags i) in
    if fl land fl_present <> 0 && fl land fl_stale = 0 then
      Verdict.of_bool (Bytes.unsafe_get env.sg.sig_bools i <> '\000')
    else Verdict.Unknown
  | V_fresh i ->
    Verdict.of_bool
      (Char.code (Bytes.unsafe_get env.sg.sig_flags i) land fl_fresh <> 0)
  | V_known i ->
    if Char.code (Bytes.unsafe_get env.sg.sig_flags i) land fl_present <> 0
    then Verdict.True
    else Verdict.False
  | V_stale i ->
    Verdict.of_bool
      (Char.code (Bytes.unsafe_get env.sg.sig_flags i) land fl_stale <> 0)
  | V_in_mode (j, s) ->
    if j < 0 then Verdict.Unknown
    else Verdict.of_bool (String.equal env.post_modes.(j) s)
  | V_not a -> Verdict.not_ (eval_vnode env a)
  | V_and (a, b) -> Verdict.and_ (eval_vnode env a) (eval_vnode env b)
  | V_or (a, b) -> Verdict.or_ (eval_vnode env a) (eval_vnode env b)
  | V_implies (a, b) -> Verdict.implies (eval_vnode env a) (eval_vnode env b)

(* Output rings ----------------------------------------------------------- *)

(* A ring of (verdict byte, time) pairs for a contiguous run of ticks;
   [obase] is the tick of the front entry.  Capacity doubles on demand and
   is then reused — the steady state never allocates.  [reserve] hands the
   caller a physical index instead of taking the float, so the time is
   stored by the caller with a plain array write and never boxed across
   the call. *)
type outbuf = {
  mutable ov : Bytes.t;
  mutable ot : float array;
  mutable ohead : int;
  mutable olen : int;
  mutable obase : int;
}

let outbuf_create () =
  { ov = Bytes.create 16; ot = Array.make 16 0.0; ohead = 0; olen = 0;
    obase = 0 }

let outbuf_grow o =
  let cap = Bytes.length o.ov in
  let nv = Bytes.create (cap * 2) in
  let nt = Array.make (cap * 2) 0.0 in
  for i = 0 to o.olen - 1 do
    let j = o.ohead + i in
    let j = if j >= cap then j - cap else j in
    Bytes.unsafe_set nv i (Bytes.unsafe_get o.ov j);
    nt.(i) <- o.ot.(j)
  done;
  o.ov <- nv;
  o.ot <- nt;
  o.ohead <- 0

let outbuf_reserve o =
  if o.olen = Bytes.length o.ov then outbuf_grow o;
  let j = o.ohead + o.olen in
  let cap = Bytes.length o.ov in
  let j = if j >= cap then j - cap else j in
  o.olen <- o.olen + 1;
  j

let outbuf_phys o i =
  let j = o.ohead + i in
  let cap = Bytes.length o.ov in
  if j >= cap then j - cap else j

let outbuf_consume o k =
  let h = o.ohead + k in
  let cap = Bytes.length o.ov in
  o.ohead <- (if h >= cap then h - cap else h);
  o.olen <- o.olen - k;
  o.obase <- o.obase + k

(* A times-only ring for the pending ticks of a temporal operator. *)
type fring = {
  mutable fv : float array;
  mutable fhead : int;
  mutable flen : int;
}

let fring_create () = { fv = Array.make 16 0.0; fhead = 0; flen = 0 }

let fring_grow p =
  let cap = Array.length p.fv in
  let nv = Array.make (cap * 2) 0.0 in
  for i = 0 to p.flen - 1 do
    let j = p.fhead + i in
    let j = if j >= cap then j - cap else j in
    nv.(i) <- p.fv.(j)
  done;
  p.fv <- nv;
  p.fhead <- 0

let fring_reserve p =
  if p.flen = Array.length p.fv then fring_grow p;
  let j = p.fhead + p.flen in
  let cap = Array.length p.fv in
  let j = if j >= cap then j - cap else j in
  p.flen <- p.flen + 1;
  j

let fring_pop p =
  let h = p.fhead + 1 in
  let cap = Array.length p.fv in
  p.fhead <- (if h >= cap then h - cap else h);
  p.flen <- p.flen - 1

(* Node tree -------------------------------------------------------------- *)

type node = {
  kind : kind;
  out : outbuf;
}

and kind =
  | Leaf of vnode
  | Not1 of node
  | Bin of {
      op : Verdict.t -> Verdict.t -> Verdict.t;
      left : node;
      right : node;
    }
  | Temporal of temporal
  | Tap of tap

(* A non-destructive reader of a shared node's output.  The consumption
   protocol above is destructive — each parent drains its child's ring —
   so a node shared by several parents in a plan DAG gets one [Tap] per
   consuming edge:
   the tap copies newly resolved entries (absolute tick >= [copied]) out
   of the shared "hub" node's ring into its own private ring, which its
   parent then drains destructively as usual.  The driver retires a
   hub's entries once per tick, after every tap has copied them. *)
and tap = {
  src : node;
  mutable copied : int;  (* absolute tick up to which entries are copied *)
}

(* Sliding-window state.  The window ring holds resolved child verdicts in
   tick order; its front [counted] entries are the samples inside the
   front pending tick's window [t + lo_off, t + hi_off], always summarised
   exactly by [nt]/[nf]/[nu].  Both window endpoints are monotone across
   pending ticks, so every child resolution is admitted once ([counted]
   grows) and dropped once (ring front retires): amortised O(1) per tick.
   The mutable floats live in the all-float [tfloats] record so the
   per-tick writes stay unboxed. *)
and temporal = {
  sem : Window.sem;
  lo_off : float;  (* window of tick t is [t + lo_off, t + hi_off] *)
  hi_off : float;
  child : node;
  window : outbuf;
  mutable counted : int;
  mutable nt : int;
  mutable nf : int;
  mutable nu : int;
  pend : fring;  (* times of input ticks not yet resolved *)
  tf : tfloats;
  mutable any_child_resolved : bool;
  mutable saw_input : bool;
}

and tfloats = {
  mutable child_max_time : float;  (* latest resolved child tick time *)
  mutable first_input : float;
  mutable last_input : float;
  (* Scratch endpoints of the front pending tick's window, refreshed at
     the top of each resolution round.  Kept here (all-float record, so
     the writes are flat) instead of being passed as arguments so no
     float crosses a call boundary on the per-tick path. *)
  mutable wlo : float;
  mutable whi : float;
}

let mask_combine m b =
  match m with
  | Verdict.True -> Verdict.Unknown
  | Verdict.False | Verdict.Unknown -> b

let temporal ~lo_off ~hi_off ~sem child =
  { kind =
      Temporal
        { sem; lo_off; hi_off; child;
          window = outbuf_create ();
          counted = 0; nt = 0; nf = 0; nu = 0;
          pend = fring_create ();
          tf =
            { child_max_time = Float.neg_infinity;
              first_input = 0.0;
              last_input = 0.0;
              wlo = 0.0;
              whi = 0.0 };
          any_child_resolved = false;
          saw_input = false };
    out = outbuf_create () }

(* Compilation ------------------------------------------------------------ *)

let rec compile_expr sg nhist (e : Expr.t) =
  let alloc k =
    let h = !nhist in
    nhist := h + k;
    h
  in
  match e with
  | Expr.Const x -> E_const x
  | Expr.Signal s -> E_signal (slot_of_name sg s)
  | Expr.Prev c ->
    let c = compile_expr sg nhist c in
    E_prev (c, alloc 1)
  | Expr.Delta c ->
    let c = compile_expr sg nhist c in
    E_delta (c, alloc 1)
  | Expr.Rate c ->
    let c = compile_expr sg nhist c in
    E_rate (c, alloc 1)
  | Expr.Fresh_delta s -> E_fresh_delta (slot_of_name sg s, alloc 2)
  | Expr.Age s -> E_age (slot_of_name sg s)
  | Expr.Neg c -> E_neg (compile_expr sg nhist c)
  | Expr.Abs c -> E_abs (compile_expr sg nhist c)
  | Expr.Add (a, b) ->
    let a = compile_expr sg nhist a in
    E_add (a, compile_expr sg nhist b)
  | Expr.Sub (a, b) ->
    let a = compile_expr sg nhist a in
    E_sub (a, compile_expr sg nhist b)
  | Expr.Mul (a, b) ->
    let a = compile_expr sg nhist a in
    E_mul (a, compile_expr sg nhist b)
  | Expr.Div (a, b) ->
    let a = compile_expr sg nhist a in
    E_div (a, compile_expr sg nhist b)
  | Expr.Min (a, b) ->
    let a = compile_expr sg nhist a in
    E_min (a, compile_expr sg nhist b)
  | Expr.Max (a, b) ->
    let a = compile_expr sg nhist a in
    E_max (a, compile_expr sg nhist b)

let machine_index machine_names name =
  let rec go j =
    if j >= Array.length machine_names then -1
    else if String.equal machine_names.(j) name then j
    else go (j + 1)
  in
  go 0

let rec compile_vnode sg machine_names nhist (f : Formula.t) =
  match f with
  | Formula.Const b -> V_const (Verdict.of_bool b)
  | Formula.Cmp (a, op, b) ->
    let a = compile_expr sg nhist a in
    V_cmp (op, a, compile_expr sg nhist b)
  | Formula.Bool_signal s -> V_bool (slot_of_name sg s)
  | Formula.Fresh s -> V_fresh (slot_of_name sg s)
  | Formula.Known s -> V_known (slot_of_name sg s)
  | Formula.Stale s -> V_stale (slot_of_name sg s)
  | Formula.In_mode (m, s) -> V_in_mode (machine_index machine_names m, s)
  | Formula.Not g -> V_not (compile_vnode sg machine_names nhist g)
  | Formula.And (a, b) ->
    let a = compile_vnode sg machine_names nhist a in
    V_and (a, compile_vnode sg machine_names nhist b)
  | Formula.Or (a, b) ->
    let a = compile_vnode sg machine_names nhist a in
    V_or (a, compile_vnode sg machine_names nhist b)
  | Formula.Implies (a, b) ->
    let a = compile_vnode sg machine_names nhist a in
    V_implies (a, compile_vnode sg machine_names nhist b)
  | Formula.Always _ | Formula.Eventually _ | Formula.Historically _
  | Formula.Once _ | Formula.Warmup _ ->
    invalid_arg "Online: temporal formula in immediate position"

(* Resolution machinery --------------------------------------------------- *)

let count tp delta c =
  if c = code_true then tp.nt <- tp.nt + delta
  else if c = code_false then tp.nf <- tp.nf + delta
  else tp.nu <- tp.nu + delta

let drain_not child out =
  let c = child.out in
  let k = c.olen in
  if k > 0 then begin
    for i = 0 to k - 1 do
      let src = outbuf_phys c i in
      let j = outbuf_reserve out in
      Bytes.unsafe_set out.ov j (code_not (Bytes.unsafe_get c.ov src));
      out.ot.(j) <- c.ot.(src)
    done;
    outbuf_consume c k
  end

let drain_bin op left right out =
  let l = left.out and r = right.out in
  let k = if l.olen < r.olen then l.olen else r.olen in
  if k > 0 then begin
    assert (l.obase = r.obase);
    for i = 0 to k - 1 do
      let li = outbuf_phys l i and ri = outbuf_phys r i in
      let v =
        op
          (verdict_of_code (Bytes.unsafe_get l.ov li))
          (verdict_of_code (Bytes.unsafe_get r.ov ri))
      in
      let j = outbuf_reserve out in
      Bytes.unsafe_set out.ov j (code_of_verdict v);
      out.ot.(j) <- l.ot.(li)
    done;
    outbuf_consume l k;
    outbuf_consume r k
  end

let tap_drain tap out =
  let s = tap.src.out in
  let start = tap.copied - s.obase in
  if start < s.olen then begin
    for i = start to s.olen - 1 do
      let src = outbuf_phys s i in
      let j = outbuf_reserve out in
      Bytes.unsafe_set out.ov j (Bytes.unsafe_get s.ov src);
      out.ot.(j) <- s.ot.(src)
    done;
    tap.copied <- s.obase + s.olen
  end

let absorb_child tp =
  let c = tp.child.out in
  let k = c.olen in
  if k > 0 then begin
    for i = 0 to k - 1 do
      let src = outbuf_phys c i in
      let j = outbuf_reserve tp.window in
      Bytes.unsafe_set tp.window.ov j (Bytes.unsafe_get c.ov src);
      tp.window.ot.(j) <- c.ot.(src)
    done;
    tp.tf.child_max_time <- c.ot.(outbuf_phys c (k - 1));
    tp.any_child_resolved <- true;
    outbuf_consume c k
  end

(* Slide: drop counted samples the window start has passed. *)
let rec drop_passed tp =
  if tp.counted > 0 then begin
    let w = tp.window in
    if w.ot.(w.ohead) < tp.tf.wlo then begin
      count tp (-1) (Bytes.unsafe_get w.ov w.ohead);
      outbuf_consume w 1;
      tp.counted <- tp.counted - 1;
      drop_passed tp
    end
  end

(* Admit resolved samples the window end has reached.  A sample already
   behind the window start (possible when the start jumped past it
   between pending ticks) is discarded: no later window, all further
   right, can contain it.  Times are monotone, so that can only happen
   with no counted samples at all — the discard target is the ring
   front. *)
let rec admit_reached tp =
  let w = tp.window in
  if tp.counted < w.olen then begin
    let j = outbuf_phys w tp.counted in
    let t = w.ot.(j) in
    if t <= tp.tf.whi then begin
      if t >= tp.tf.wlo then begin
        count tp 1 (Bytes.unsafe_get w.ov j);
        tp.counted <- tp.counted + 1
      end
      else begin
        assert (tp.counted = 0);
        outbuf_consume w 1
      end;
      admit_reached tp
    end
  end

let rec try_resolve_temporal ~finalizing tp out =
  if tp.pend.flen > 0 then begin
    let p_time = tp.pend.fv.(tp.pend.fhead) in
    tp.tf.wlo <- p_time +. tp.lo_off -. time_eps;
    tp.tf.whi <- p_time +. tp.hi_off +. time_eps;
    drop_passed tp;
    admit_reached tp;
    (* Resolve before the window closes only with the operator's
       dominating verdict: future samples can only add to the counts, so
       it alone is stable under every extension of the window. *)
    let early = Window.early_dominant tp.sem ~nt:tp.nt ~nf:tp.nf in
    if not (Verdict.equal early Verdict.Unknown) then begin
      fring_pop tp.pend;
      let j = outbuf_reserve out in
      Bytes.unsafe_set out.ov j (code_of_verdict early);
      out.ot.(j) <- p_time;
      try_resolve_temporal ~finalizing tp out
    end
    else begin
      (* The window cannot gain samples once the child has resolved a tick
         at (or within the epsilon of) the window's end: all future ticks
         have strictly greater times.  This makes past-time operators
         resolve at their own tick. *)
      let window_closed =
        finalizing
        || (tp.any_child_resolved
           && tp.tf.child_max_time >= p_time +. tp.hi_off -. time_eps)
      in
      if window_closed then begin
        let complete =
          tp.saw_input
          && tp.tf.last_input >= p_time +. tp.hi_off -. time_eps
          && tp.tf.first_input <= p_time +. tp.lo_off +. time_eps
        in
        let verdict =
          Window.decide tp.sem ~nt:tp.nt ~nf:tp.nf ~nu:tp.nu ~complete
        in
        fring_pop tp.pend;
        let j = outbuf_reserve out in
        Bytes.unsafe_set out.ov j (code_of_verdict verdict);
        out.ot.(j) <- p_time;
        try_resolve_temporal ~finalizing tp out
      end
    end
  end

(* One node's own per-tick work, children already advanced this tick:
   the plan executors call it over a topologically ordered node array,
   where a shared child is advanced once however many parents consume
   it. *)
let advance_self env node time =
  match node.kind with
  | Leaf v ->
    let verdict = eval_vnode env v in
    let o = node.out in
    let j = outbuf_reserve o in
    Bytes.unsafe_set o.ov j (code_of_verdict verdict);
    o.ot.(j) <- time
  | Not1 child -> drain_not child node.out
  | Bin { op; left; right } -> drain_bin op left right node.out
  | Temporal tp ->
    if not tp.saw_input then begin
      tp.tf.first_input <- time;
      tp.saw_input <- true
    end;
    tp.tf.last_input <- time;
    let j = fring_reserve tp.pend in
    tp.pend.fv.(j) <- time;
    absorb_child tp;
    try_resolve_temporal ~finalizing:false tp node.out
  | Tap tap -> tap_drain tap node.out

let finalize_self node =
  match node.kind with
  | Leaf _ -> ()
  | Not1 child -> drain_not child node.out
  | Bin { op; left; right } -> drain_bin op left right node.out
  | Temporal tp ->
    absorb_child tp;
    try_resolve_temporal ~finalizing:true tp node.out
  | Tap tap -> tap_drain tap node.out

(* Plan DAGs -------------------------------------------------------------- *)

(* Build-time table of one executor's boolean nodes over a {!Plan}: the
   node built for each plan id, how many consuming edges each id has in
   this executor, and the execution order accumulated so far.  Plan ids
   are topologically ordered, so adding them in id order builds children
   first.  A node with more than one consumer is a hub, read through one
   [Tap] per edge. *)
type dag = {
  d_built : node option array;
  d_uses : int array;
  mutable d_exec : node list;    (* execution order, reversed *)
  mutable d_hubs : outbuf list;  (* hub rings, reversed *)
}

let dag_create (plan : Plan.t) uses =
  { d_built = Array.make (Array.length plan.Plan.nodes) None;
    d_uses = uses;
    d_exec = [];
    d_hubs = [] }

let dag_push d n = d.d_exec <- n :: d.d_exec

(* One consuming edge into plan node [id]: the node itself when the edge
   is its only consumer, else a fresh tap scheduled right before the
   consumer. *)
let dag_edge d id =
  let n = match d.d_built.(id) with Some n -> n | None -> assert false in
  if d.d_uses.(id) > 1 then begin
    let tap = { kind = Tap { src = n; copied = 0 }; out = outbuf_create () } in
    dag_push d tap;
    tap
  end
  else n

(* A warm-up's suppression window: [True] at tick [t] iff the trigger was
   [True] somewhere in [t - hold, t].  Private to its warm-up, so it joins
   the execution order directly. *)
let dag_mask d ~trigger ~hold =
  let mask =
    temporal ~lo_off:(-.hold) ~hi_off:0.0 ~sem:Window.Mask (dag_edge d trigger)
  in
  dag_push d mask;
  mask

let dag_bin d op a b =
  let left = dag_edge d a in
  { kind = Bin { op; left; right = dag_edge d b }; out = outbuf_create () }

let dag_add d sg names nhist id (pnode : Plan.node) =
  let n =
    match pnode.Plan.shape with
    | Plan.Atom ->
      { kind = Leaf (compile_vnode sg names nhist pnode.Plan.form);
        out = outbuf_create () }
    | Plan.Not c -> { kind = Not1 (dag_edge d c); out = outbuf_create () }
    | Plan.And (a, b) -> dag_bin d Verdict.and_ a b
    | Plan.Or (a, b) -> dag_bin d Verdict.or_ a b
    | Plan.Implies (a, b) -> dag_bin d Verdict.implies a b
    | Plan.Window { op; lo; hi; child } ->
      let lo_off, hi_off, sem = Plan.window_offsets op ~lo ~hi in
      temporal ~lo_off ~hi_off ~sem (dag_edge d child)
    | Plan.Warmup { trigger; hold; body } ->
      let mask = dag_mask d ~trigger ~hold in
      { kind = Bin { op = mask_combine; left = mask; right = dag_edge d body };
        out = outbuf_create () }
  in
  dag_push d n;
  if d.d_uses.(id) > 1 then d.d_hubs <- n.out :: d.d_hubs;
  d.d_built.(id) <- Some n

let retire_hubs hubs =
  for i = 0 to Array.length hubs - 1 do
    let h = Array.unsafe_get hubs i in
    outbuf_consume h h.olen
  done

(* Boolean plan executor ----------------------------------------------------

   One flat record holds everything a step touches: the built nodes in
   execution order (children and taps first), the hub rings retired once
   per tick after every tap copied them, each rule's report node, the
   clock, the signal environment and the rules' state machines.

   Machines stay per-rule state: the runtimes of all rules are
   concatenated into one array, and each rule compiles its [in_mode]
   atoms against a padded name table that exposes only its own slice (at
   global indices), so mode references resolve rule-locally. *)
type mfloats = { mutable last_time : float }

(* Field order is deliberate: the minor GC promotes a monitor's objects
   in field order, and with the report nodes first the fleet's
   interleaved sessions ran about 15 % faster than with the node array
   first. *)
type core = {
  outs : node array;  (* per rule: its root, or a private tap of it *)
  nodes : node array;
  hubs : outbuf array;
  env : env;
  machines : State_machine.runtime array;  (* all rules, concatenated *)
  machine_names : string array;
  pre_modes : string array;
  mach_off : int array;  (* per rule: first machine and machine count *)
  mach_len : int array;
  pre_lookups : (string -> string option) array;  (* per rule *)
  mf : mfloats;
  mutable next_tick : int;
  mutable finalized : bool;
}

type shared = signals

let shared_for specs =
  signals_make
    (List.concat_map (fun s -> Formula.signals s.Spec.formula) specs)

(* [build sg names_of nhist] compiles the executor's nodes into a dag and
   returns it with the report nodes; [names_of owner] is the machine
   table a plan node of that owner resolves [in_mode] against.  The
   expression history is sized afterwards, from what compilation
   allocated. *)
let core_build ?shared (plan : Plan.t) build =
  let specs = Array.to_list plan.Plan.specs in
  let sg =
    match shared with
    | Some sg -> sg
    | None -> signals_make (Plan.signals plan)
  in
  let machines =
    Array.of_list
      (List.concat_map
         (fun (s : Spec.t) -> List.map State_machine.start s.Spec.machines)
         specs)
  in
  let machine_names =
    Array.of_list
      (List.concat_map
         (fun (s : Spec.t) ->
           List.map (fun (m : State_machine.t) -> m.State_machine.name)
             s.Spec.machines)
         specs)
  in
  let mach_len =
    Array.of_list
      (List.map (fun (s : Spec.t) -> List.length s.Spec.machines) specs)
  in
  let mach_off = Array.make (Array.length mach_len) 0 in
  for r = 1 to Array.length mach_len - 1 do
    mach_off.(r) <- mach_off.(r - 1) + mach_len.(r - 1)
  done;
  let pre_modes = Array.map State_machine.current machines in
  let post_modes = Array.map State_machine.current machines in
  let padded =
    Array.mapi
      (fun r off ->
        Array.mapi
          (fun j name -> if j >= off && j < off + mach_len.(r) then name else "")
          machine_names)
      mach_off
  in
  let nhist = ref 0 in
  let d, outs, extra =
    build sg (fun owner -> if owner < 0 then [||] else padded.(owner)) nhist
  in
  let env =
    { sg;
      est = { acc = 0.0; def = 0.0; dt = 0.0; dt_def = 0.0; now = 0.0 };
      hval = Array.make (max 1 !nhist) 0.0;
      hdef = Bytes.make (max 1 !nhist) '\000';
      post_modes }
  in
  let pre_lookups =
    Array.map
      (fun names name ->
        let j = machine_index names name in
        if j < 0 then None else Some pre_modes.(j))
      padded
  in
  ( { nodes = Array.of_list (List.rev d.d_exec);
      hubs = Array.of_list (List.rev d.d_hubs);
      outs; env; machines; machine_names; pre_modes; mach_off; mach_len;
      pre_lookups;
      mf = { last_time = Float.neg_infinity };
      next_tick = 0;
      finalized = false },
    extra )

(* Validate the next snapshot without touching any state; [who] names
   the caller in error messages. *)
let core_check ~who c snapshot =
  if c.finalized then invalid_arg (who ^ ": monitor already finalized");
  let time = snapshot.Monitor_trace.Snapshot.time in
  if time <= c.mf.last_time then
    invalid_arg
      (Printf.sprintf
         "%s: snapshot times must be strictly increasing (tick %d has time \
          %.9g, tick %d has time %.9g)"
         who (c.next_tick - 1) c.mf.last_time c.next_tick time)

(* Bring the clock, the signal slots and the machines up to a checked
   snapshot, then advance every node once. *)
let core_advance c snapshot =
  let time = snapshot.Monitor_trace.Snapshot.time in
  let est = c.env.est in
  est.now <- time;
  if c.next_tick = 0 then est.dt_def <- 0.0
  else begin
    est.dt <- time -. c.mf.last_time;
    est.dt_def <- 1.0
  end;
  c.mf.last_time <- time;
  c.next_tick <- c.next_tick + 1;
  update_signals c.env.sg snapshot;
  (* Machines first, rule by rule: guards see pre-step modes through
     their rule's own name table, the formula sees post-step modes — the
     same convention as Offline.eval. *)
  let nmach = Array.length c.machines in
  if nmach > 0 then begin
    for j = 0 to nmach - 1 do
      c.pre_modes.(j) <- State_machine.current c.machines.(j)
    done;
    for r = 0 to Array.length c.mach_off - 1 do
      let lookup = c.pre_lookups.(r) in
      for j = c.mach_off.(r) to c.mach_off.(r) + c.mach_len.(r) - 1 do
        ignore (State_machine.step c.machines.(j) ~mode_lookup:lookup snapshot)
      done
    done;
    for j = 0 to nmach - 1 do
      c.env.post_modes.(j) <- State_machine.current c.machines.(j)
    done
  end;
  let nodes = c.nodes in
  for i = 0 to Array.length nodes - 1 do
    advance_self c.env (Array.unsafe_get nodes i) time
  done;
  retire_hubs c.hubs

let core_finalize ~who c =
  if c.finalized then invalid_arg (who ^ ": already finalized");
  c.finalized <- true;
  let nodes = c.nodes in
  for i = 0 to Array.length nodes - 1 do
    finalize_self (Array.unsafe_get nodes i)
  done;
  retire_hubs c.hubs

(* Window occupancy: ticks buffered by the temporal operators. *)
let core_pending c =
  Array.fold_left
    (fun acc n ->
      match n.kind with
      | Temporal tp -> acc + tp.pend.flen
      | Leaf _ | Not1 _ | Bin _ | Tap _ -> acc)
    0 c.nodes

let core_modes c r =
  List.init c.mach_len.(r) (fun i ->
      let j = c.mach_off.(r) + i in
      (c.machine_names.(j), State_machine.current c.machines.(j)))

(* The whole-plan executor: every rule advances in a single pass over the
   topologically ordered node array, each shared subterm's node advanced
   once per tick.  Because a hub's output stream is exactly what a
   private copy of its subtree would emit (same inputs, same
   deterministic state evolution), every rule's verdict stream — content
   and resolution timing — is independent of what else the plan holds:
   the whole plan and one one-root plan per rule are batch-identical
   (test_plan's incremental property).

   Steady state allocates nothing: after the rings reach the plan's
   horizon, a step of a machine-free plan performs no minor-heap
   allocation (test_online_alloc). *)
let core_create ?shared (plan : Plan.t) =
  fst
    (core_build ?shared plan (fun sg names_of nhist ->
         let d =
           dag_create plan
             (Array.map (fun (n : Plan.node) -> n.Plan.uses) plan.Plan.nodes)
         in
         Array.iteri
           (fun id (n : Plan.node) ->
             dag_add d sg (names_of n.Plan.owner) nhist id n)
           plan.Plan.nodes;
         (d, Array.map (dag_edge d) plan.Plan.roots, ())))

module Obs = Monitor_obs.Obs

(* Single-rule monitor ---------------------------------------------------- *)

(* A one-root plan with a batch interface: the root's ring holds the
   current batch, retired by the next step. *)
type t = {
  core : core;
  root : outbuf;
  mutable reported : int;  (* front entries of [root] already handed out *)
}

let create ?shared (spec : Spec.t) =
  let core = core_create ?shared (Plan.compile [ spec ]) in
  { core; root = core.outs.(0).out; reported = 0 }

let m_ticks_online =
  Obs.counter ~labels:[ ("kernel", "online") ]
    ~help:"Ticks evaluated, per kernel" "cps_kernel_ticks_total"

let m_pending_high_water =
  Obs.gauge
    ~help:"High-water mark of unresolved ticks buffered by online monitors \
           (window occupancy)"
    "cps_online_pending_high_water"

let m_step_seconds =
  Obs.histogram ~labels:[ ("kernel", "online") ]
    ~help:"Per-tick latency of the incremental online kernel"
    "cps_online_step_seconds"

let step_resolved t snapshot =
  core_check ~who:"Online.step" t.core snapshot;
  (* Retire the batch handed out by the previous call. *)
  outbuf_consume t.root t.reported;
  t.reported <- 0;
  if Obs.on () then begin
    let t0 = Obs.time_start () in
    core_advance t.core snapshot;
    Obs.observe_since m_step_seconds t0;
    Obs.incr m_ticks_online;
    Obs.gauge_max m_pending_high_water (float_of_int (core_pending t.core))
  end
  else begin
    core_advance t.core snapshot;
    Obs.incr m_ticks_online
  end;
  t.reported <- t.root.olen;
  t.reported

let finalize_resolved t =
  core_finalize ~who:"Online.finalize" t.core;
  (* Retire the last step's batch; what remains is the final one. *)
  outbuf_consume t.root t.reported;
  t.reported <- t.root.olen;
  t.reported

let check_resolved_index t i =
  if i < 0 || i >= t.reported then
    invalid_arg "Online: resolved index out of range"

let resolved_tick t i =
  check_resolved_index t i;
  t.root.obase + i

let resolved_time t i =
  check_resolved_index t i;
  t.root.ot.(outbuf_phys t.root i)

let resolved_verdict t i =
  check_resolved_index t i;
  verdict_of_code (Bytes.get t.root.ov (outbuf_phys t.root i))

let resolved_get t i =
  check_resolved_index t i;
  let o = t.root in
  let j = outbuf_phys o i in
  { tick = o.obase + i;
    time = o.ot.(j);
    verdict = verdict_of_code (Bytes.get o.ov j) }

let batch_list t n =
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (resolved_get t i :: acc)
  in
  collect (n - 1) []

let step t snapshot = batch_list t (step_resolved t snapshot)

let step_iter t snapshot f =
  let n = step_resolved t snapshot in
  for i = 0 to n - 1 do
    f (resolved_tick t i) (resolved_time t i) (resolved_verdict t i)
  done

let finalize t = batch_list t (finalize_resolved t)

let pending t = core_pending t.core + (t.root.olen - t.reported)

let modes t = core_modes t.core 0

(* Whole-plan monitor ----------------------------------------------------- *)

module Fused = struct
  type t = core

  let create = core_create

  let rule_count t = Array.length t.outs

  let m_ticks_online_fused =
    Obs.counter ~labels:[ ("kernel", "online_fused") ]
      ~help:"Ticks evaluated, per kernel" "cps_kernel_ticks_total"

  (* Drain every rule's report ring through [f], then retire it. *)
  let report t f =
    for r = 0 to Array.length t.outs - 1 do
      let o = (Array.unsafe_get t.outs r).out in
      let k = o.olen in
      if k > 0 then begin
        for i = 0 to k - 1 do
          let j = outbuf_phys o i in
          f r (o.obase + i) o.ot.(j) (verdict_of_code (Bytes.unsafe_get o.ov j))
        done;
        outbuf_consume o k
      end
    done

  let step_iter t snapshot f =
    core_check ~who:"Online.step" t snapshot;
    core_advance t snapshot;
    Obs.add m_ticks_online_fused (Array.length t.outs);
    report t f

  let finalize_iter t f =
    core_finalize ~who:"Online.finalize" t;
    report t f

  let modes = core_modes
end

(* Substrate re-exported for the robust executor -------------------------- *)

(* [Robust.Online] runs robust nodes over the same substrate: the flat
   signal slots, the slot-compiled expression and immediate-formula
   evaluators, and a boolean core — clock, machines, and the warm-up
   masks as boolean plan nodes built and advanced exactly as {!Fused}
   builds and advances them.  Re-exporting keeps exactly one
   implementation of each piece.  [estate] is concrete (an all-float
   record) so the robust kernel reads [acc]/[def] as unboxed field
   loads. *)
module Internal = struct
  type nonrec signals = signals

  type nonrec estate = estate = {
    mutable acc : float;
    mutable def : float;
    mutable dt : float;
    mutable dt_def : float;
    mutable now : float;
  }

  type nonrec env = env
  type nonrec enode = enode
  type nonrec vnode = vnode
  type nonrec node = node
  type nonrec dag = dag
  type nonrec core = core

  let env_est (e : env) = e.est
  let compile_expr = compile_expr
  let eval_expr = eval_expr
  let compile_vnode = compile_vnode
  let eval_vnode = eval_vnode
  let dag_create = dag_create
  let dag_add = dag_add
  let dag_mask = dag_mask
  let core_build = core_build
  let core_check = core_check
  let core_advance = core_advance
  let core_finalize = core_finalize
  let core_env c = c.env
  let core_ticks c = c.next_tick
  let core_modes = core_modes
  let out_len (n : node) = n.out.olen
  let out_base (n : node) = n.out.obase

  let out_verdict (n : node) i =
    verdict_of_code (Bytes.get n.out.ov (outbuf_phys n.out i))

  let out_consume (n : node) k = outbuf_consume n.out k
end
