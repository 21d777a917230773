(* Both entry points share a single pass: walk the time-ordered records,
   cutting a snapshot at each tick boundary.  State per signal: most recent
   value, its timestamp, and whether it was refreshed since the last cut. *)

type state = {
  mutable value : Monitor_signal.Value.t;
  mutable last_update : float;
  mutable refreshed : bool;
}

module Obs = Monitor_obs.Obs

let m_snapshots =
  Obs.counter ~help:"Snapshots cut from record streams"
    "cps_multirate_snapshots_total"

let m_stale_marks =
  Obs.counter ~help:"Per-signal stale marks stamped into snapshots"
    "cps_multirate_stale_marks_total"

let no_staleness (_ : string) : float option = None

let cut ?(staleness = no_staleness) states time =
  let entries =
    Hashtbl.fold
      (fun name st acc ->
        let stale =
          match staleness name with
          | Some max_age -> time -. st.last_update > max_age
          | None -> false
        in
        if stale then Obs.incr m_stale_marks;
        ( name,
          { Snapshot.value = st.value;
            fresh = st.refreshed;
            stale;
            last_update = st.last_update } )
        :: acc)
      states []
  in
  Hashtbl.iter (fun _ st -> st.refreshed <- false) states;
  Obs.incr m_snapshots;
  Snapshot.make ~time ~entries

let absorb states (r : Record.t) =
  match Hashtbl.find_opt states r.name with
  | Some st ->
    st.value <- r.value;
    st.last_update <- r.time;
    st.refreshed <- true
  | None ->
    Hashtbl.add states r.name
      { value = r.value; last_update = r.time; refreshed = true }

let snapshots ?staleness trace ~period =
  if period <= 0.0 then invalid_arg "Multirate.snapshots: period must be positive";
  match Trace.start_time trace, Trace.end_time trace with
  | None, _ | _, None -> []
  | Some t0, Some t_end ->
    (* Records are time-ordered, so finite ends bound every time but a
       NaN, which stops the absorb loop short and is caught below. *)
    if not (Float.is_finite t0 && Float.is_finite t_end) then
      invalid_arg "Multirate.snapshots: non-finite record time";
    let states = Hashtbl.create 16 in
    let out = ref [] in
    let n = Trace.length trace in
    let idx = ref 0 in
    let tick = ref 0 in
    let eps = period *. 1e-6 in
    let continue = ref true in
    while !continue do
      let t_cut = t0 +. (float_of_int !tick *. period) in
      while !idx < n && (Trace.get trace !idx).Record.time <= t_cut +. eps do
        absorb states (Trace.get trace !idx);
        incr idx
      done;
      out := cut ?staleness states t_cut :: !out;
      if t_cut >= t_end -. eps then continue := false else incr tick
    done;
    if !idx < n && Float.is_nan (Trace.get trace !idx).Record.time then
      invalid_arg "Multirate.snapshots: non-finite record time";
    List.rev !out

(* Incremental form of [snapshots]: the same cut-at-tick-boundaries pass,
   but driven observation by observation so a live stream (the fleet
   server's per-VIN sessions) can use it without materialising a trace.
   Equivalence with the offline pass is qcheck-enforced in
   test/test_trace.ml: feeding a whole trace record by record and then
   draining yields byte-identical snapshots. *)
module Feed = struct
  type feed = {
    f_states : (string, state) Hashtbl.t;
    f_staleness : (string -> float option) option;
    f_period : float;
    f_eps : float;
    mutable f_t0 : float option;     (* first observation; tick origin *)
    mutable f_next_tick : int;       (* index of the next uncut tick *)
    mutable f_last_cut : float option;
    mutable f_t_end : float;         (* latest observation time *)
  }

  type t = feed

  let create ?staleness ~period () =
    if period <= 0.0 then
      invalid_arg "Multirate.Feed.create: period must be positive";
    { f_states = Hashtbl.create 16;
      f_staleness = staleness;
      f_period = period;
      f_eps = period *. 1e-6;
      f_t0 = None;
      f_next_tick = 0;
      f_last_cut = None;
      f_t_end = neg_infinity }

  let started t = Option.is_some t.f_t0

  let last_observed t = if started t then Some t.f_t_end else None

  let ticks_cut t = t.f_next_tick

  let next_cut_time t t0 =
    t0 +. (float_of_int t.f_next_tick *. t.f_period)

  let cut_one t emit t_cut =
    emit (cut ?staleness:t.f_staleness t.f_states t_cut);
    t.f_last_cut <- Some t_cut;
    t.f_next_tick <- t.f_next_tick + 1

  (* Cut every tick that can no longer gain an observation: a tick at
     [t_cut] absorbs records with time [<= t_cut + eps], so once the
     stream has reached [horizon] every tick with [t_cut + eps < horizon]
     is complete.  This is exactly the offline pass's absorb-then-cut
     order, replayed lazily. *)
  let cut_until t ~horizon emit =
    match t.f_t0 with
    | None -> ()
    | Some t0 ->
      while next_cut_time t t0 +. t.f_eps < horizon do
        cut_one t emit (next_cut_time t t0)
      done

  (* Every tick before an infinite horizon is due: refuse instead of
     cutting forever. *)
  let check_finite who time =
    if not (Float.is_finite time) then
      invalid_arg ("Multirate.Feed." ^ who ^ ": non-finite time")

  let observe t ~time updates emit =
    check_finite "observe" time;
    (match t.f_t0 with
    | None -> t.f_t0 <- Some time
    | Some _ -> cut_until t ~horizon:time emit);
    if time > t.f_t_end then t.f_t_end <- time;
    List.iter
      (fun (name, value) ->
        absorb t.f_states { Record.time; name; value })
      updates

  let advance t ~upto emit =
    check_finite "advance" upto;
    cut_until t ~horizon:upto emit

  let drain t emit =
    match t.f_t0 with
    | None -> ()
    | Some t0 ->
      (* Offline stopping rule: keep cutting until a tick lands at or
         beyond [t_end - eps] — at least one tick even for a one-record
         stream.  A watchdog [advance] past the last observation has
         already satisfied this, and the drain cuts nothing more. *)
      let due () =
        match t.f_last_cut with
        | None -> true
        | Some last -> last < t.f_t_end -. t.f_eps
      in
      while due () do
        cut_one t emit (next_cut_time t t0)
      done
end

let at_updates_of ?staleness trace ~clock_signal =
  let states = Hashtbl.create 16 in
  let out = ref [] in
  Trace.iter
    (fun r ->
      absorb states r;
      if String.equal r.Record.name clock_signal then
        out := cut ?staleness states r.Record.time :: !out)
    trace;
  List.rev !out
