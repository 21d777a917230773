module Value = Monitor_signal.Value
module Trace = Monitor_trace

type config = {
  window : float;
  max_frames : int;
  dir : string;
  bundle_limit : int;
}

let default_config ~dir =
  { window = 5.0; max_frames = 2048; dir; bundle_limit = 4 }

type entry = { at : float; updates : (string * Value.t) list }

type t = {
  cfg : config;
  ring : entry Queue.t;
  digests : (int * float * int) Queue.t;  (* (tick, time, digest) *)
  mutable written : int;
  mutable errors : int;
}

let m_errors =
  Monitor_obs.Obs.counter ~help:"Post-mortem bundles that failed to write"
    "cps_postmortem_errors_total"

let create cfg =
  if cfg.window <= 0.0 then invalid_arg "Recorder.create: window <= 0";
  if cfg.max_frames < 1 then invalid_arg "Recorder.create: max_frames < 1";
  if cfg.bundle_limit < 0 then invalid_arg "Recorder.create: bundle_limit < 0";
  { cfg; ring = Queue.create (); digests = Queue.create (); written = 0;
    errors = 0 }

(* Evict by count first (hard memory bound), then by age; both are
   amortised O(1) per recorded item. *)
let trim q ~max_len ~cutoff ~age =
  while Queue.length q > max_len do
    ignore (Queue.pop q)
  done;
  let rec by_age () =
    match Queue.peek_opt q with
    | Some x when age x < cutoff ->
      ignore (Queue.pop q);
      by_age ()
    | _ -> ()
  in
  by_age ()

let record_frame t ~time updates =
  Queue.push { at = time; updates } t.ring;
  trim t.ring ~max_len:t.cfg.max_frames ~cutoff:(time -. t.cfg.window)
    ~age:(fun e -> e.at)

let record_tick t ~tick ~time ~digest =
  Queue.push (tick, time, digest) t.digests;
  trim t.digests ~max_len:t.cfg.max_frames ~cutoff:(time -. t.cfg.window)
    ~age:(fun (_, at, _) -> at)

let frames t = Queue.length t.ring
let bundles_written t = t.written
let bundle_errors t = t.errors

let slice t =
  let tr = Trace.Trace.create () in
  Queue.iter
    (fun e ->
      List.iter
        (fun (name, value) ->
          Trace.Trace.append tr (Trace.Record.make ~time:e.at ~name ~value))
        e.updates)
    t.ring;
  tr

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    s

(* Sessions on different shards share [config.dir], so a concurrent
   creation of the same directory is not an error. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let manifest_json ~vin ~seed ~reason ~tick ~time ~digest ~slice_frames
    ~slice_start ~slice_stop =
  let esc = Monitor_obs.Metrics.json_escape in
  let kind, what =
    match reason with
    | `Violation rule -> ("violation", rule)
    | `Crash exn_text -> ("crash", exn_text)
  in
  Printf.sprintf
    "{\"format\":\"cps-postmortem-1\",\"vin\":\"%s\",\"seed\":\"%Ld\",\
     \"reason\":{\"kind\":\"%s\",\"%s\":\"%s\"},\"tick\":%d,\"time\":%.6f,\
     \"digest\":\"%016x\",\"slice\":{\"frames\":%d,\"start\":%.6f,\
     \"stop\":%.6f},\"replay\":\"repro check slice.csv\"}\n"
    (esc vin) seed kind
    (match reason with `Violation _ -> "rule" | `Crash _ -> "exn")
    (esc what) tick time digest slice_frames slice_start slice_stop

(* The bundle is assembled under a hidden temporary name and renamed
   into place, so a reader never sees half a bundle; any failure removes
   the partial copy and is returned, never raised — a full disk or an
   unwritable directory must not reach the session that asked. *)
let write_bundle t ~leaf ~vin ~seed ~reason ~tick ~time ~digest ~explain =
  let dir = Filename.concat t.cfg.dir leaf in
  let tmp = Filename.concat t.cfg.dir ("." ^ leaf ^ ".tmp") in
  try
    mkdir_p t.cfg.dir;
    remove_tree tmp;
    Sys.mkdir tmp 0o755;
    let tr = slice t in
    let n = Trace.Trace.length tr in
    let slice_start, slice_stop =
      match Queue.peek_opt t.ring with
      | Some first ->
        let last = Queue.fold (fun _ e -> e.at) first.at t.ring in
        (first.at, last)
      | None -> (time, time)
    in
    Trace.Csv.save (Filename.concat tmp "slice.csv") tr;
    (match explain with
    | Some text -> write_file (Filename.concat tmp "explain.txt") text
    | None -> ());
    write_file
      (Filename.concat tmp "metrics.prom")
      (Monitor_obs.Metrics.render_prometheus Monitor_obs.Obs.registry);
    write_file
      (Filename.concat tmp "MANIFEST.json")
      (manifest_json ~vin ~seed ~reason ~tick ~time ~digest ~slice_frames:n
         ~slice_start ~slice_stop);
    remove_tree dir;
    Sys.rename tmp dir;
    Ok dir
  with Sys_error msg ->
    (try remove_tree tmp with Sys_error _ -> ());
    Error msg

let bundle t ~vin ~seed ~reason ~tick ~time ~digest ~explain =
  if t.written + t.errors >= t.cfg.bundle_limit then Ok None
  else begin
    let leaf =
      match reason with
      | `Violation rule ->
        Printf.sprintf "%s-t%d-violation-%s" (sanitize vin) tick
          (sanitize rule)
      | `Crash _ -> Printf.sprintf "%s-t%d-crash" (sanitize vin) tick
    in
    match
      write_bundle t ~leaf ~vin ~seed ~reason ~tick ~time ~digest ~explain
    with
    | Ok dir ->
      t.written <- t.written + 1;
      Ok (Some dir)
    | Error msg ->
      t.errors <- t.errors + 1;
      Monitor_obs.Obs.incr m_errors;
      Error msg
  end
