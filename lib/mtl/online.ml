type resolution = { tick : int; time : float; verdict : Verdict.t }

let time_eps = Window.time_eps

(* Incremental per-tick evaluation with amortised-O(1) window state and
   zero steady-state allocation (DESIGN.md §12).

   Every node resolves a prefix of the tick stream and its parents
   consume that output in order, over the nodes of a {!Plan} advanced
   children first by one array pass per tick.  The state is flat:

   - node outputs are rings of verdict bytes in one slab, indexed by
     absolute tick; the ticks' times live once, in one tick-time ring;
   - each temporal operator reads its child's ring in place from its
     cursor: the front [counted] entries are inside the current pending
     tick's window, summarised by the three counters [nt]/[nf]/[nu] (the
     same three-counter shape as [Offline.window_scan]); its pending
     ticks are the range from its resolved count to the current tick;
   - leaf evaluation reads flat per-signal slots (the online analogue of
     [Trace.Columns]) refreshed once per tick by a merge walk over the
     sorted snapshot entries, and expression history lives in one flat
     float array per monitor instead of per-node [result ref]s.

   Allocation discipline: once the rings are sized, a [step] of a
   machine-free spec performs no minor-heap allocation at all (asserted
   by [test/test_online_alloc.ml]).  The rules that make this hold are
   (a) no float may cross a function boundary unless it is already boxed
   (the snapshot's own [time] field qualifies); (b) all mutable per-tick
   floats live in float arrays or all-float records (mixed records box
   their float fields on every write); (c) no options, no queues, no
   closures on the per-tick path. *)

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
  mutable last : float;   (* previous tick time; -inf before the first *)
  mutable first : float;  (* time of tick 0 *)
}

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

(* Program and instance -----------------------------------------------------

   A plan runs as an immutable {e program}, compiled once (node kinds,
   child references, slot-compiled leaves, window offsets, ring sizing
   facts), and any number of per-stream {e instances}, each a handful of
   flat arrays (DESIGN.md §12):

   - [ints]: per node its resolved count [hi] (ticks [0, hi) are
     resolved) and its ring's place in the slab (offset and capacity
     mask, packed); per window its read cursor and counters; one base
     per node with several readers and one cursor per rule report;
   - [slab]: every node's ring of verdict bytes, a node's entry for
     absolute tick [k] at [off + (k land mask)];
   - [times]: one tick-time ring indexed by absolute tick, shared by
     every node of the instance, instead of a float time beside every
     verdict;
   - [hval]/[hdef]: the expressions' history.

   Each consuming edge reads its child's ring through a cursor: a
   connective's own [hi] (it has consumed exactly the ticks it resolved),
   a window's cursor, or a report cursor.  A child with one consumer
   retains entries from that cursor, so consuming retires them; a child
   with several consumers (a hub) has a base of its own, set to its
   slowest cursor once per tick.  A window reads its child's ring in
   place: the entries from its cursor are its window, so no node copies
   another's output.

   Ring capacities come from the plan's horizons and history depths and
   the stream's own tick spacing (sized when the second tick arrives);
   every write checks its ring's room and the whole slab is re-laid out
   as one block when a stream is denser than that. *)

(* Per-node [ints] layout: [hi], then offset [lsl 32] capacity mask;
   windows add their cursor and counters. *)
let i_hi = 0
let i_lay = 1
let i_cursor = 2
let i_counted = 3
let i_nt = 4
let i_nf = 5
let i_nu = 6
let lay_off lay = lay lsr 32
let lay_mask lay = lay land 0xFFFF_FFFF
let lay_make ~off ~mask = (off lsl 32) lor mask

type pwindow = {
  ws : int;
  wsb : int;  (* the slot holding the ring's lowest retained tick *)
  sem : Window.sem;
  lo_off : float;  (* window of tick t is [t + lo_off, t + hi_off] *)
  hi_off : float;
  wc : int;   (* child node *)
}

(* [op]: 0 and, 1 or, 2 implies, 3 warm-up mask combine (left = mask).
   [sb] is the slot holding the node's lowest retained tick: its one
   reader's cursor, or its own base when it is a hub. *)
type pnode =
  | P_leaf of { s : int; sb : int; v : vnode }
  | P_not of { s : int; sb : int; c : int }
  | P_bin of { s : int; sb : int; op : int; a : int; b : int }
  | P_window of pwindow

type prog = {
  exec : pnode array;       (* execution order, children first *)
  hubs : int array array;   (* per hub: its base slot, then its cursors *)
  slots : int array;        (* every node's first slot, ring order *)
  bases : int array;        (* per ring: its [sb] *)
  rets : float array;       (* per ring: seconds of ticks it must retain *)
  tspan : float;            (* seconds of tick times the instance needs *)
  template : int array;     (* initial [ints]: one-entry rings *)
  nhist : int;
  names : string array;     (* the signal slot table compiled against *)
  out_s : int array;        (* per rule: report node and cursor *)
  out_c : int array;
  specs : Spec.t array;
  machine_names : string array;
  mach_off : int array;     (* per rule: first machine and machine count *)
  mach_len : int array;
  padded : string array array;
}

(* The per-step arrays come first: the minor GC promotes a record's
   blocks in field order, which places them next to each other. *)
type inst = {
  ints : int array;
  mutable slab : Bytes.t;
  mutable times : float array;
  est : estate;
  sg : signals;
  hval : float array;        (* expression history values *)
  hdef : Bytes.t;            (* definedness / fresh-sample count *)
  prog : prog;
  machines : State_machine.runtime array;  (* all rules, concatenated *)
  pre_modes : string array;
  post_modes : string array; (* post-step machine modes, refreshed per tick *)
  pre_lookups : (string -> string option) array;  (* per rule *)
  mutable next_tick : int;
  mutable sized : bool;
  mutable finalized : bool;
}

type env = inst

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


(* Rings ------------------------------------------------------------------ *)

let pow2_at_least n =
  let rec go c = if c >= n then c else go (2 * c) in
  go 1

(* Ring capacity, in ticks, for [span] seconds of ticks [dt] apart: the
   span's ticks, the one being written and slack for the epsilon of the
   window endpoints, as a power of two.  [None] for an unbounded span,
   whose ring grows with the stream. *)
let span_ticks ~dt span =
  let n = Float.ceil (span /. dt) +. 2.0 in
  if n <= float_of_int (1 lsl 40) then Some (pow2_at_least (int_of_float n))
  else None

(* Rings are pre-sized to at most [max_presize] ticks (a misjudged
   spacing must not lay out a huge slab); a ring that must hold more
   doubles on demand up to its [span_ticks]. *)
let max_presize = 4096

let presize ~dt span =
  match span_ticks ~dt span with
  | Some n -> min n max_presize
  | None -> max_presize

(* Re-lay the slab out with ring [k] (in [prog.slots] order) at capacity
   [caps.(k)], copying every ring's retained entries. *)
let relayout b caps =
  let ints = b.ints and old = b.slab and p = b.prog in
  let slab = Bytes.make (Array.fold_left ( + ) 0 caps) code_unknown in
  let off = ref 0 in
  Array.iteri
    (fun k s ->
      let lay = ints.(s + i_lay) in
      let o = lay_off lay and m = lay_mask lay in
      let no = !off and nm = caps.(k) - 1 in
      for t = ints.(p.bases.(k)) to ints.(s + i_hi) - 1 do
        Bytes.unsafe_set slab (no + (t land nm))
          (Bytes.unsafe_get old (o + (t land m)))
      done;
      ints.(s + i_lay) <- lay_make ~off:no ~mask:nm;
      off := no + caps.(k))
    p.slots;
  b.slab <- slab

let grow b s =
  relayout b
    (Array.map
       (fun s' ->
         let cap = lay_mask b.ints.(s' + i_lay) + 1 in
         if s' = s then 2 * cap else cap)
       b.prog.slots)

(* Append the verdict of tick [hi] to node [s]'s ring, whose lowest
   retained tick is in slot [sb]. *)
let emit b s sb code =
  let ints = b.ints in
  let hi = Array.unsafe_get ints s in
  if hi - Array.unsafe_get ints sb > lay_mask (Array.unsafe_get ints (s + i_lay))
  then grow b s;
  let lay = Array.unsafe_get ints (s + i_lay) in
  Bytes.unsafe_set b.slab (lay_off lay + (hi land lay_mask lay)) code;
  Array.unsafe_set ints s (hi + 1)

let code_at b c t =
  let lay = Array.unsafe_get b.ints (c + i_lay) in
  Bytes.unsafe_get b.slab (lay_off lay + (t land lay_mask lay))

(* Keep tick [floor] onward in the tick-time ring across the next push. *)
let ensure_floor b floor =
  let next = b.next_tick and cap = Array.length b.times in
  if next - floor >= cap then begin
    let ncap = pow2_at_least (max (2 * cap) (next - floor + 1)) in
    let nt = Array.make ncap 0.0 in
    for t = max 0 (next - cap) to next - 1 do
      nt.(t land (ncap - 1)) <- b.times.(t land (cap - 1))
    done;
    b.times <- nt
  end

(* At the second tick the stream's spacing is known: size every ring and
   the tick-time ring for it. *)
let size b =
  b.sized <- true;
  let dt = b.est.dt and p = b.prog and ints = b.ints in
  relayout b
    (Array.mapi
       (fun k s ->
         max (presize ~dt p.rets.(k))
           (pow2_at_least (ints.(s + i_hi) - ints.(p.bases.(k)) + 1)))
       p.slots);
  let need = presize ~dt p.tspan in
  if need > Array.length b.times then ensure_floor b (b.next_tick - need + 1)

(* Words of an instance's own blocks (the program and the signal slots
   are shared and not counted) for a machine-free plan on a stream
   [period] seconds apart: every ring at the capacity [size] and growth
   settle it at.  An unbounded span counts its pre-size. *)
let settled_ticks ~period span =
  match span_ticks ~dt:period span with Some n -> n | None -> max_presize

let instance_words_at (p : prog) ~period =
  let settled = settled_ticks ~period in
  let slab = Array.fold_left (fun acc r -> acc + settled r) 0 p.rets in
  let times = settled p.tspan in
  let hist = max 1 p.nhist in
  let record = 1 + 15 and est = 1 + 7 in
  record + est
  + (1 + Array.length p.template)
  + (1 + ((slab + 8) / 8))
  + (1 + times)
  + (1 + hist)
  + (1 + ((hist + 8) / 8))

(* Node advance ------------------------------------------------------------ *)

(* [table.[op * 9 + a * 3 + b]]: the connective [op] on verdict codes. *)
let bin_table =
  let mask_combine m v =
    match m with
    | Verdict.True -> Verdict.Unknown
    | Verdict.False | Verdict.Unknown -> v
  in
  let ops = [| Verdict.and_; Verdict.or_; Verdict.implies; mask_combine |] in
  Bytes.to_string
    (Bytes.init 36 (fun i ->
         code_of_verdict
           (ops.(i / 9)
              (verdict_of_code (Char.chr (i / 3 mod 3)))
              (verdict_of_code (Char.chr (i mod 3))))))

let count ints s delta c =
  if c = code_true then ints.(s + i_nt) <- ints.(s + i_nt) + delta
  else if c = code_false then ints.(s + i_nf) <- ints.(s + i_nf) + delta
  else ints.(s + i_nu) <- ints.(s + i_nu) + delta

(* Resolve the window's pending ticks [hi, next_tick) front first.  The
   child's entries from the cursor are the window: the first [counted] of
   them lie inside the front pending tick's window and are summarised by
   [nt]/[nf]/[nu].  Both window endpoints are monotone across pending
   ticks, so every child entry is admitted once and retired once:
   amortised O(1) per tick.  Resolve before the window closes only with
   the operator's dominating verdict (future samples only add to the
   counts); otherwise once the child has resolved a tick at (or within
   the epsilon of) the window's end, which makes past-time operators
   resolve at their own tick. *)
let advance_window b finalizing w =
  let ints = b.ints in
  let s = w.ws and c = w.wc in
  let cc = s + i_cursor in
  let next = b.next_tick in
  let go = ref true in
  while !go do
    let p = Array.unsafe_get ints s in
    if p >= next then go := false
    else begin
      let times = b.times in
      let tm = Array.length times - 1 in
      let p_time = Array.unsafe_get times (p land tm) in
      let wlo = p_time +. w.lo_off -. time_eps in
      let whi = p_time +. w.hi_off +. time_eps in
      (* Slide: drop counted samples the window start has passed. *)
      while
        ints.(s + i_counted) > 0
        && Array.unsafe_get times (ints.(cc) land tm) < wlo
      do
        count ints s (-1) (code_at b c ints.(cc));
        ints.(cc) <- ints.(cc) + 1;
        ints.(s + i_counted) <- ints.(s + i_counted) - 1
      done;
      (* Admit resolved samples the window end has reached.  A sample
         already behind the window start (the start jumped past it
         between pending ticks) is retired: no later window, all further
         right, can contain it.  Times are monotone, so that happens only
         with nothing counted. *)
      let chi = ints.(c) in
      let admitting = ref true in
      while !admitting && ints.(cc) + ints.(s + i_counted) < chi do
        let k = ints.(cc) + ints.(s + i_counted) in
        let t = Array.unsafe_get times (k land tm) in
        if t <= whi then begin
          if t >= wlo then begin
            count ints s 1 (code_at b c k);
            ints.(s + i_counted) <- ints.(s + i_counted) + 1
          end
          else begin
            assert (ints.(s + i_counted) = 0);
            ints.(cc) <- ints.(cc) + 1
          end
        end
        else admitting := false
      done;
      let early =
        Window.early_dominant w.sem ~nt:ints.(s + i_nt) ~nf:ints.(s + i_nf)
      in
      if not (Verdict.equal early Verdict.Unknown) then
        emit b s w.wsb (code_of_verdict early)
      else if
        finalizing
        || chi > 0
           && Array.unsafe_get times ((chi - 1) land tm)
              >= p_time +. w.hi_off -. time_eps
      then begin
        let complete =
          b.est.now >= p_time +. w.hi_off -. time_eps
          && b.est.first <= p_time +. w.lo_off +. time_eps
        in
        emit b s w.wsb
          (code_of_verdict
             (Window.decide w.sem ~nt:ints.(s + i_nt) ~nf:ints.(s + i_nf)
                ~nu:ints.(s + i_nu) ~complete))
      end
      else go := false
    end
  done;
  (* Pending ticks, the window and the child's latest tick keep their
     times across the next push. *)
  let chi = ints.(c) in
  let floor = if ints.(s) < ints.(cc) then ints.(s) else ints.(cc) in
  ensure_floor b (if chi > 0 && chi - 1 < floor then chi - 1 else floor)

(* One node's own per-tick work, children already advanced this tick:
   a shared child is advanced once however many parents read it.  A
   connective's children are read from its own [hi] on, so resolving a
   tick is consuming it. *)
let advance_node b finalizing pn =
  match pn with
  | P_leaf { s; sb; v } ->
    if not finalizing then emit b s sb (code_of_verdict (eval_vnode b v))
  | P_not { s; sb; c } ->
    let ints = b.ints in
    for t = ints.(s) to ints.(c) - 1 do
      emit b s sb (code_not (code_at b c t))
    done
  | P_bin { s; sb; op; a; b = r } ->
    let ints = b.ints in
    let t0 = ints.(s) in
    let t1 = if ints.(a) < ints.(r) then ints.(a) else ints.(r) in
    let base = op * 9 in
    for t = t0 to t1 - 1 do
      emit b s sb
        (String.unsafe_get bin_table
           (base + (3 * Char.code (code_at b a t)) + Char.code (code_at b r t)))
    done
  | P_window w -> advance_window b finalizing w

(* A hub retains entries until its slowest reader has passed them. *)
let retire_hubs b =
  let hubs = b.prog.hubs and ints = b.ints in
  for h = 0 to Array.length hubs - 1 do
    let hub = Array.unsafe_get hubs h in
    let m = ref max_int in
    for i = 1 to Array.length hub - 1 do
      let c = ints.(hub.(i)) in
      if c < !m then m := c
    done;
    ints.(hub.(0)) <- !m
  done

(* Plan DAGs -------------------------------------------------------------- *)

(* Build-time table of one executor's boolean nodes over a {!Plan}: the
   node built for each plan id with its retention and lag, how many
   consuming edges each id has in this executor, and the program
   accumulated so far.  Plan ids are topologically ordered, so adding
   them in id order builds children first.  A node with more than one
   consumer is a hub, with a base of its own.  A
   node's lag is its formula's horizon: how long after tick [t] its
   verdict at [t] may stay pending; a ring retains what its slowest
   reader has not yet consumed. *)
type built = {
  bs : int;
  mutable sb : int;
  ret : float ref;
  lag : float;
  mutable cursors : int list;  (* hubs: every reader's cursor *)
}

type dag = {
  d_built : built option array;
  mutable d_nints : int;
  mutable d_exec : (built * (int -> pnode)) list;  (* reversed *)
  mutable d_tspan : float;
  mutable d_outs : (int * int) array;
}

let dag_create (plan : Plan.t) =
  { d_built = Array.make (Array.length plan.Plan.nodes) None;
    d_nints = 0;
    d_exec = [];
    d_tspan = 0.0;
    d_outs = [||] }

let dag_alloc d k =
  let s = d.d_nints in
  d.d_nints <- s + k;
  s

(* A node at slots [s]; its base slot is settled once its readers are
   known. *)
let dag_node d ~s ~lag mk =
  let n = { bs = s; sb = -1; ret = ref 0.0; lag; cursors = [] } in
  d.d_exec <- (n, mk) :: d.d_exec;
  n

(* One consuming edge, reading through [cursor], into a built node whose
   reader may leave [ret] seconds of its entries unconsumed. *)
let edge_of n ~cursor ~ret =
  if ret > !(n.ret) then n.ret := ret;
  n.cursors <- cursor :: n.cursors;
  n.bs

let built d id = match d.d_built.(id) with Some n -> n | None -> assert false

let dag_edge d id ~cursor ~ret = edge_of (built d id) ~cursor ~ret

let window_node d ~s ~lag ~sem ~lo_off ~hi_off c =
  let span = lag +. Float.max 0.0 (-.lo_off) in
  if span > d.d_tspan then d.d_tspan <- span;
  dag_node d ~s ~lag (fun wsb ->
      P_window { ws = s; wsb; sem; lo_off; hi_off; wc = c })

(* A warm-up's suppression window: [True] at tick [t] iff the trigger was
   [True] somewhere in [t - hold, t].  Private to its warm-up, whose lag
   is [ret]. *)
let dag_mask_built d ~trigger ~hold ~ret =
  let lag = (built d trigger).lag in
  let s = dag_alloc d 7 in
  let c =
    dag_edge d trigger ~cursor:(s + i_cursor) ~ret:(lag +. hold)
  in
  let m =
    window_node d ~s ~lag ~sem:Window.Mask ~lo_off:(-.hold)
      ~hi_off:0.0 c
  in
  m.ret := ret;
  m

type mask = { m_s : int; m_sb : int }

let dag_mask d ~trigger ~hold ~ret =
  let m = dag_mask_built d ~trigger ~hold ~ret in
  let cursor = dag_alloc d 1 in
  ignore (edge_of m ~cursor ~ret);
  { m_s = m.bs; m_sb = cursor }

let dag_add d sg names nhist id (pnode : Plan.node) =
  let lag = Formula.horizon pnode.Plan.form in
  let bin op a b =
    let s = dag_alloc d 2 in
    let a = dag_edge d a ~cursor:s ~ret:lag in
    let b = dag_edge d b ~cursor:s ~ret:lag in
    dag_node d ~s ~lag (fun sb -> P_bin { s; sb; op; a; b })
  in
  let n =
    match pnode.Plan.shape with
    | Plan.Atom ->
      let v = compile_vnode sg names nhist pnode.Plan.form in
      let s = dag_alloc d 2 in
      dag_node d ~s ~lag (fun sb -> P_leaf { s; sb; v })
    | Plan.Not c ->
      let s = dag_alloc d 2 in
      let c = dag_edge d c ~cursor:s ~ret:lag in
      dag_node d ~s ~lag (fun sb -> P_not { s; sb; c })
    | Plan.And (a, b) -> bin 0 a b
    | Plan.Or (a, b) -> bin 1 a b
    | Plan.Implies (a, b) -> bin 2 a b
    | Plan.Window { op; lo; hi; child } ->
      let lo_off, hi_off, sem = Plan.window_offsets op ~lo ~hi in
      let s = dag_alloc d 7 in
      let c =
        dag_edge d child ~cursor:(s + i_cursor)
          ~ret:(lag +. Float.max 0.0 (-.lo_off))
      in
      window_node d ~s ~lag ~sem ~lo_off ~hi_off c
    | Plan.Warmup { trigger; hold; body } ->
      let m = dag_mask_built d ~trigger ~hold ~ret:lag in
      let s = dag_alloc d 2 in
      let a = edge_of m ~cursor:s ~ret:lag in
      let b = dag_edge d body ~cursor:s ~ret:lag in
      dag_node d ~s ~lag (fun sb -> P_bin { s; sb; op = 3; a; b })
  in
  d.d_built.(id) <- Some n

(* The report edges of the rule roots, each through a cursor of its own. *)
let dag_roots d (plan : Plan.t) =
  d.d_outs <-
    Array.map
      (fun id ->
        let n = built d id in
        if n.lag > d.d_tspan then d.d_tspan <- n.lag;
        let cursor = dag_alloc d 1 in
        (edge_of n ~cursor ~ret:n.lag, cursor))
      plan.Plan.roots

(* Boolean program and instances --------------------------------------------

   Machines stay per-instance state: the runtimes of all rules are
   concatenated into one array, and each rule compiles its [in_mode]
   atoms against a padded name table that exposes only its own slice (at
   global indices), so mode references resolve rule-locally. *)

type shared = signals

let shared_for specs =
  signals_make
    (List.concat_map (fun s -> Formula.signals s.Spec.formula) specs)

(* [build sg names_of nhist] compiles the executor's nodes into a dag and
   returns it with whatever else it compiled against the same signals
   and history; [names_of owner] is the machine table a plan node of
   that owner resolves [in_mode] against. *)
let compile_core ?shared (plan : Plan.t) build =
  let specs = plan.Plan.specs in
  let sg =
    match shared with
    | Some sg -> sg
    | None -> signals_make (Plan.signals plan)
  in
  let machine_names =
    Array.of_list
      (List.concat_map
         (fun (s : Spec.t) ->
           List.map (fun (m : State_machine.t) -> m.State_machine.name)
             s.Spec.machines)
         (Array.to_list specs))
  in
  let mach_len =
    Array.map (fun (s : Spec.t) -> List.length s.Spec.machines) specs
  in
  let mach_off = Array.make (Array.length mach_len) 0 in
  for r = 1 to Array.length mach_len - 1 do
    mach_off.(r) <- mach_off.(r - 1) + mach_len.(r - 1)
  done;
  let padded =
    Array.mapi
      (fun r off ->
        Array.mapi
          (fun j name -> if j >= off && j < off + mach_len.(r) then name else "")
          machine_names)
      mach_off
  in
  let nhist = ref 0 in
  let d, extra =
    build sg (fun owner -> if owner < 0 then [||] else padded.(owner)) nhist
  in
  let exec = Array.of_list (List.rev d.d_exec) in
  (* A node with one reader retains from that reader's cursor; a hub
     from its own base, the minimum over its readers' cursors. *)
  Array.iter
    (fun (n, _) ->
      match n.cursors with
      | [ c ] -> n.sb <- c
      | _ -> n.sb <- dag_alloc d 1)
    exec;
  let rings = Array.map fst exec in
  let template = Array.make d.d_nints 0 in
  Array.iteri
    (fun k n -> template.(n.bs + i_lay) <- lay_make ~off:k ~mask:0)
    rings;
  let hubs =
    List.filter_map
      (fun n ->
        match n.cursors with
        | [ c ] when c = n.sb -> None
        | cursors -> Some (Array.of_list (n.sb :: List.rev cursors)))
      (Array.to_list rings)
  in
  ( { exec = Array.map (fun (n, mk) -> mk n.sb) exec;
      hubs = Array.of_list hubs;
      slots = Array.map (fun n -> n.bs) rings;
      bases = Array.map (fun n -> n.sb) rings;
      rets = Array.map (fun n -> !(n.ret)) rings;
      tspan = d.d_tspan;
      template;
      nhist = !nhist;
      names = sg.sig_names;
      out_s = Array.map fst d.d_outs;
      out_c = Array.map snd d.d_outs;
      specs;
      machine_names;
      mach_off;
      mach_len;
      padded },
    extra )

let same_layout a b =
  a == b
  || Array.length a = Array.length b
     && Array.for_all2 String.equal a b

let instantiate ?shared (p : prog) =
  let sg =
    match shared with
    | Some sg ->
      if not (same_layout sg.sig_names p.names) then
        invalid_arg "Online: shared signals differ from the program's slots";
      sg
    | None -> signals_make (Array.to_list p.names)
  in
  let machines =
    Array.of_list
      (List.concat_map
         (fun (s : Spec.t) -> List.map State_machine.start s.Spec.machines)
         (Array.to_list p.specs))
  in
  let nmach = Array.length machines in
  let pre_modes = Array.map State_machine.current machines in
  let pre_lookups =
    if nmach = 0 then [||]
    else
      Array.map
        (fun names name ->
          let j = machine_index names name in
          if j < 0 then None else Some pre_modes.(j))
        p.padded
  in
  { ints = Array.copy p.template;
    slab = Bytes.make (Array.length p.slots) code_unknown;
    times = Array.make 1 0.0;
    est =
      { acc = 0.0; def = 0.0; dt = 0.0; dt_def = 0.0; now = 0.0;
        last = Float.neg_infinity; first = 0.0 };
    sg;
    hval = Array.make (max 1 p.nhist) 0.0;
    hdef = Bytes.make (max 1 p.nhist) '\000';
    prog = p;
    machines;
    pre_modes;
    post_modes = Array.map State_machine.current machines;
    pre_lookups;
    next_tick = 0;
    sized = false;
    finalized = false }

(* Validate the next snapshot without touching any state; [who] names
   the caller in error messages. *)
let core_check ~who b snapshot =
  if b.finalized then invalid_arg (who ^ ": monitor already finalized");
  let time = snapshot.Monitor_trace.Snapshot.time in
  if time <= b.est.last then
    invalid_arg
      (Printf.sprintf
         "%s: snapshot times must be strictly increasing (tick %d has time \
          %.9g, tick %d has time %.9g)"
         who (b.next_tick - 1) b.est.last b.next_tick time)

(* Bring the clock, the tick-time ring, the signal slots and the machines
   up to a checked snapshot, then advance every node once. *)
let core_advance b snapshot =
  let time = snapshot.Monitor_trace.Snapshot.time in
  let est = b.est in
  est.now <- time;
  if b.next_tick = 0 then begin
    est.dt_def <- 0.0;
    est.first <- time
  end
  else begin
    est.dt <- time -. est.last;
    est.dt_def <- 1.0;
    if not b.sized then size b
  end;
  est.last <- time;
  let k = b.next_tick in
  let times = b.times in
  Array.unsafe_set times (k land (Array.length times - 1)) time;
  b.next_tick <- k + 1;
  update_signals b.sg snapshot;
  (* Machines first, rule by rule: guards see pre-step modes through
     their rule's own name table, the formula sees post-step modes — the
     same convention as Offline.eval. *)
  let nmach = Array.length b.machines in
  if nmach > 0 then begin
    let p = b.prog in
    for j = 0 to nmach - 1 do
      b.pre_modes.(j) <- State_machine.current b.machines.(j)
    done;
    for r = 0 to Array.length p.mach_off - 1 do
      let lookup = b.pre_lookups.(r) in
      for j = p.mach_off.(r) to p.mach_off.(r) + p.mach_len.(r) - 1 do
        ignore (State_machine.step b.machines.(j) ~mode_lookup:lookup snapshot)
      done
    done;
    for j = 0 to nmach - 1 do
      b.post_modes.(j) <- State_machine.current b.machines.(j)
    done
  end;
  retire_hubs b;
  let exec = b.prog.exec in
  for i = 0 to Array.length exec - 1 do
    advance_node b false (Array.unsafe_get exec i)
  done

let core_finalize ~who b =
  if b.finalized then invalid_arg (who ^ ": already finalized");
  b.finalized <- true;
  retire_hubs b;
  let exec = b.prog.exec in
  for i = 0 to Array.length exec - 1 do
    advance_node b true (Array.unsafe_get exec i)
  done

(* Window occupancy: ticks buffered by the temporal operators. *)
let core_pending b =
  Array.fold_left
    (fun acc pn ->
      match pn with
      | P_window w -> acc + (b.next_tick - b.ints.(w.ws))
      | P_leaf _ | P_not _ | P_bin _ -> acc)
    0 b.prog.exec

let core_modes b r =
  let p = b.prog in
  List.init p.mach_len.(r) (fun i ->
      let j = p.mach_off.(r) + i in
      (p.machine_names.(j), State_machine.current b.machines.(j)))

(* The whole-plan program: every rule advances in a single pass over the
   topologically ordered node array, each shared subterm's node advanced
   once per tick.  Because a hub's output stream is exactly what a
   private copy of its subtree would emit (same inputs, same
   deterministic state evolution), every rule's verdict stream — content
   and resolution timing — is independent of what else the plan holds:
   the whole plan and one one-root plan per rule are batch-identical
   (test_plan's incremental property).

   Steady state allocates nothing: once the rings are sized, a step of a
   machine-free plan performs no minor-heap allocation
   (test_online_alloc). *)
let compile_plan ?shared (plan : Plan.t) =
  fst
    (compile_core ?shared plan (fun sg names_of nhist ->
         let d = dag_create plan in
         Array.iteri
           (fun id (n : Plan.node) ->
             dag_add d sg (names_of n.Plan.owner) nhist id n)
           plan.Plan.nodes;
         dag_roots d plan;
         (d, ())))

module Obs = Monitor_obs.Obs

(* Single-rule monitor ---------------------------------------------------- *)

(* A one-root plan with a batch interface: the root's ring from the
   report cursor holds the current batch, retired by the next step. *)
type t = {
  core : inst;
  root : int;
  cursor : int;
  mutable reported : int;  (* entries from the cursor already handed out *)
}

let create ?shared (spec : Spec.t) =
  let p = compile_plan ?shared (Plan.compile [ spec ]) in
  let core = instantiate ?shared p in
  { core; root = p.out_s.(0); cursor = p.out_c.(0); reported = 0 }

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

(* The batch stays readable until the next call: keep its times. *)
let settle t =
  let ints = t.core.ints in
  t.reported <- ints.(t.root) - ints.(t.cursor);
  ensure_floor t.core ints.(t.cursor);
  t.reported

let step_resolved t snapshot =
  core_check ~who:"Online.step" t.core snapshot;
  (* Retire the batch handed out by the previous call. *)
  let ints = t.core.ints in
  ints.(t.cursor) <- ints.(t.cursor) + t.reported;
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
  settle t

let finalize_resolved t =
  core_finalize ~who:"Online.finalize" t.core;
  (* Retire the last step's batch; what remains is the final one. *)
  let ints = t.core.ints in
  ints.(t.cursor) <- ints.(t.cursor) + t.reported;
  settle t

let check_resolved_index t i =
  if i < 0 || i >= t.reported then
    invalid_arg "Online: resolved index out of range"

let resolved_tick t i =
  check_resolved_index t i;
  t.core.ints.(t.cursor) + i

let resolved_time t i =
  check_resolved_index t i;
  let times = t.core.times in
  times.((t.core.ints.(t.cursor) + i) land (Array.length times - 1))

let resolved_verdict t i =
  check_resolved_index t i;
  verdict_of_code (code_at t.core t.root (t.core.ints.(t.cursor) + i))

let resolved_get t i =
  { tick = resolved_tick t i;
    time = resolved_time t i;
    verdict = resolved_verdict t i }

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

let pending t = core_pending t.core + (t.core.ints.(t.root) - t.core.ints.(t.cursor) - t.reported)

let modes t = core_modes t.core 0

(* Whole-plan monitor ----------------------------------------------------- *)

module Fused = struct
  type program = prog
  type t = inst

  let compile = compile_plan
  let instantiate = instantiate
  let create ?shared plan = instantiate ?shared (compile_plan ?shared plan)
  let instance_bytes p ~period = 8 * instance_words_at p ~period

  let rule_count t = Array.length t.prog.out_s

  let m_ticks_online_fused =
    Obs.counter ~labels:[ ("kernel", "online_fused") ]
      ~help:"Ticks evaluated, per kernel" "cps_kernel_ticks_total"

  (* Report every rule's new entries through [f] and move its cursor
     past them. *)
  let report t f =
    let p = t.prog and ints = t.ints in
    for r = 0 to Array.length p.out_s - 1 do
      let s = p.out_s.(r) and c = p.out_c.(r) in
      let hi = ints.(s) in
      for k = ints.(c) to hi - 1 do
        let times = t.times in
        f r k times.(k land (Array.length times - 1)) (verdict_of_code (code_at t s k))
      done;
      ints.(c) <- hi
    done

  let step_iter t snapshot f =
    core_check ~who:"Online.step" t snapshot;
    core_advance t snapshot;
    Obs.add m_ticks_online_fused (Array.length t.prog.out_s);
    report t f

  let finalize_iter t f =
    core_finalize ~who:"Online.finalize" t;
    report t f

  let modes = core_modes
end

(* Substrate re-exported for the robust executor -------------------------- *)

(* [Robust.Online] runs robust nodes over the same substrate: the flat
   signal slots, the slot-compiled expression and immediate-formula
   evaluators, ring sizing, and a boolean program and instance — clock,
   tick-time ring, machines, and the warm-up masks as boolean plan nodes
   built and advanced exactly as {!Fused} builds and advances them.
   Re-exporting keeps exactly one implementation of each piece.
   [estate] is concrete (an all-float record) so the robust kernel reads
   [acc]/[def] as unboxed field loads. *)
module Internal = struct
  type nonrec signals = signals

  type nonrec estate = estate = {
    mutable acc : float;
    mutable def : float;
    mutable dt : float;
    mutable dt_def : float;
    mutable now : float;
    mutable last : float;
    mutable first : float;
  }

  type nonrec env = env
  type nonrec enode = enode
  type nonrec vnode = vnode
  type node = mask
  type nonrec dag = dag
  type cprog = prog
  type core = inst

  let env_est (e : env) = e.est
  let compile_expr = compile_expr
  let eval_expr = eval_expr
  let compile_vnode = compile_vnode
  let eval_vnode = eval_vnode
  let dag_create = dag_create
  let dag_add = dag_add
  let dag_mask = dag_mask
  let dag_span d span = if span > d.d_tspan then d.d_tspan <- span
  let core_compile = compile_core
  let core_instantiate = instantiate
  let core_words = instance_words_at
  let presize = presize

  let settled_ticks = settled_ticks
  let pow2_at_least = pow2_at_least
  let core_check = core_check
  let core_advance = core_advance
  let core_finalize = core_finalize
  let core_env (c : core) = c
  let core_ticks c = c.next_tick
  let core_times c = c.times
  let core_ensure_floor = ensure_floor
  let core_modes = core_modes
  let out_hi (e : env) n = e.ints.(n.m_s)
  let out_cursor (e : env) n = e.ints.(n.m_sb)
  let out_verdict (e : env) n t = verdict_of_code (code_at e n.m_s t)
  let out_consume_to (e : env) n t = e.ints.(n.m_sb) <- t
end
