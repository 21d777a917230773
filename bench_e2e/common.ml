(* What every workload shares: the clock, sample statistics, the result a
   run reports, and the timed program set-up. *)

module Spec = Monitor_mtl.Spec
module Plan = Monitor_mtl.Plan
module Dbc = Monitor_can.Dbc

let now = Monitor_obs.Clock.now_ns

let ms_of_ns ns = float_of_int ns /. 1e6

(* Growable float buffer; campaign runs add from pool workers, hence the
   lock. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int; lock : Mutex.t }

  let create () = { a = Array.make 256 0.0; n = 0; lock = Mutex.create () }

  let add t x =
    Mutex.protect t.lock (fun () ->
        if t.n = Array.length t.a then begin
          let b = Array.make (2 * t.n) 0.0 in
          Array.blit t.a 0 b 0 t.n;
          t.a <- b
        end;
        t.a.(t.n) <- x;
        t.n <- t.n + 1)

  let to_array t = Mutex.protect t.lock (fun () -> Array.sub t.a 0 t.n)
end

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

type result = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let new_result () =
  { values = Hashtbl.create 64; attempted = 0; failed = 0; problems = [] }

let set r name v = Hashtbl.replace r.values name v

let check r ok what = if not ok then r.problems <- what :: r.problems

(* A layer's busy time per unit of work, 0 when the workload did none. *)
let per r name ~ns ~count =
  set r name (if count = 0 then 0.0 else float_of_int ns /. float_of_int count)

(* The process's peak resident set (VmHWM) in MB, from the kernel's own
   accounting. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

(* The highest percentile, up to [cap], that leaves at least ten of [n]
   requests beyond it: for a replay run of fewer than twenty replays,
   the median. *)
let tail_quantile ~cap n =
  Float.max 0.5 (Float.min cap (1.0 -. (10.0 /. float_of_int (max n 1))))

(* The end-to-end numbers of a run.  [work] holds (frames, ns) pairs, one
   per request or one for the whole run; throughput is the median of
   their ratio, so the seconds in which another tenant of the host
   saturates the memory system move some requests, not the result.
   [latencies] holds every request's latency: a 10 ms batch from its
   release to its verdicts, a replay, a campaign run.  Deadline misses
   count requests later than the bus's 10 ms period.  Peak memory is read
   here, at the end of the measured loop, before the correctness checks
   allocate. *)
let set_end_to_end r ~work ~latencies =
  let rates =
    Array.of_list
      (List.filter_map
         (fun (frames, ns) ->
           if ns > 0 then Some (float_of_int frames /. (float_of_int ns /. 1e9)) else None)
         work)
  in
  let n = Array.length latencies in
  set r "frames_per_s" (median rates);
  set r "latency_p50_ms" (median latencies);
  (* The end-to-end tail stops at p90.  Above it, fleet_live's batches
     are decided by post-mortem bundle writes, and how many bundles a run
     writes depends on whether the seed's drives hold a rule violation:
     0 to 33 in a 20 s run.  p95 and p99 then measure the seed, not the
     code; p99 is kept as a layer metric, beside the bundle counts. *)
  set r "latency_tail_ms" (quantile latencies (tail_quantile ~cap:0.90 n));
  set r "latency_p99_ms" (quantile latencies (tail_quantile ~cap:0.99 n));
  let missed = Array.fold_left (fun a l -> if l > 10.0 then a + 1 else a) 0 latencies in
  set r "deadline_miss_ratio" (if n = 0 then 0.0 else float_of_int missed /. float_of_int n);
  set r "mem_peak_mb" (peak_rss_mb ())

(* How late the generator issued each request. *)
let set_lags r lags_ms =
  set r "gen.lag_p99_ms" (quantile lags_ms 0.99);
  set r "gen.lag_max_ms" (Array.fold_left Float.max 0.0 lags_ms)

(* Allocation over the untraced half of a run.  Promoted words are the
   ones that outlived a minor collection: what a batch too large for the
   minor heap costs the major heap. *)
module Gc_window = struct
  type t = { minor : float; promoted : float; major : int }

  let start () =
    let s = Gc.quick_stat () in
    { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words;
      major = s.Gc.major_collections }

  let finish r t ~frames =
    let s = Gc.quick_stat () in
    let per x = if frames = 0 then 0.0 else x /. float_of_int frames in
    set r "gc.minor_words_per_frame" (per (s.Gc.minor_words -. t.minor));
    set r "gc.promoted_words_per_frame" (per (s.Gc.promoted_words -. t.promoted));
    set r "gc.major_collections" (float_of_int (s.Gc.major_collections - t.major))
end

(* The program's start-up, as a deployed monitor pays it: parse the spec
   file and the DBC, compile the fused plan, then whatever the workload
   adds (a fleet, a domain pool).  It runs [reps] times, [setup_gap_s]
   apart, and the median is reported; the last repetition's state is the
   one the workload uses.  The pause makes each start-up run from cold
   caches, as a monitor's does, and lets the scheduler place successive
   start-ups on either CPU: back to back they all land on one, and on a
   shared host one vCPU can be half again as slow as the other for
   minutes at a time. *)
type program = { specs : Spec.t list; dbc : Dbc.t; plan : Plan.t }

let load ~spec_text ~dbc_text =
  let specs =
    match Monitor_mtl.Spec_file.of_string spec_text with
    | Ok specs -> specs
    | Error e -> failwith ("spec file: " ^ e)
  in
  let dbc =
    match Monitor_can.Dbc_text.of_string dbc_text with
    | Ok dbc -> dbc
    | Error e -> failwith ("DBC: " ^ e)
  in
  let t0 = now () in
  let plan = Plan.compile specs in
  ({ specs; dbc; plan }, now () - t0)

let setup_gap_s = 0.03

let set_up r ~reps ~spec_text ~dbc_text ~extra ~dispose =
  let times = Array.make reps 0.0 in
  let compiles = Array.make reps 0.0 in
  let state = ref None in
  for i = 0 to reps - 1 do
    Option.iter (fun (_, x) -> dispose x) !state;
    Unix.sleepf setup_gap_s;
    let t0 = now () in
    let program, compile_ns = load ~spec_text ~dbc_text in
    let x = extra program in
    times.(i) <- float_of_int (now () - t0) /. 1e9;
    compiles.(i) <- float_of_int compile_ns /. 1e3;
    state := Some (program, x)
  done;
  set r "setup_s" (median times);
  set r "plan.compile_us" (median compiles);
  match !state with
  | Some (program, x) ->
    set r "plan.nodes" (float_of_int (Plan.node_count program.plan));
    (program, x)
  | None -> assert false

(* Where a run may write: a fresh directory under the working directory,
   removed again by the caller. *)
let scratch_dir name =
  let base = ".bench_build" in
  let dir = Filename.concat base (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  let rec rm path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  rm dir;
  if not (Sys.file_exists base) then Sys.mkdir base 0o755;
  ( dir,
    fun () ->
      rm dir;
      try Sys.rmdir base with Sys_error _ -> () (* another run still uses it *) )
