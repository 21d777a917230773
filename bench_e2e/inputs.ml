(* Input generation.  Everything here runs before any timing starts and is
   a pure function of the seed: the program under test only ever sees the
   texts built here (candump lines, the spec file, the DBC file) and the
   campaign options. *)

module Sim = Monitor_hil.Sim
module Scenario = Monitor_hil.Scenario
module Dbc = Monitor_can.Dbc
module Message = Monitor_can.Message
module Candump = Monitor_can.Candump
module Trace = Monitor_trace.Trace
module Record = Monitor_trace.Record
module Prng = Monitor_util.Prng
module Channel = Monitor_inject.Channel

let dbc = Monitor_fsracc.Io.dbc

let spec_text () = Monitor_mtl.Spec_file.to_string Monitor_oracle.Rules.all

let dbc_text () = Monitor_can.Dbc_text.to_string dbc

(* One road-mode drive of the urban following scenario: sensor noise,
   radar dropouts and the lead's speed changes give the monitor a mix of
   armed and idle rules. *)
let drive ~seed ~duration =
  let scenario = Scenario.urban_following ~duration () in
  (Sim.run (Sim.default_config ~environment:Sim.Road ~seed scenario)).Sim.trace

(* Re-encode a decoded capture into the frames a passive tap saw: a frame
   is complete when the last signal of its message has been recorded. *)
let frames_of_trace trace =
  let frames = ref [] in
  let store = Hashtbl.create 32 in
  let last_signal = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let names = Message.signal_names m in
      Hashtbl.replace last_signal (List.nth names (List.length names - 1)) m)
    (Dbc.messages dbc);
  Trace.iter
    (fun (r : Record.t) ->
      Hashtbl.replace store r.Record.name r.Record.value;
      match Hashtbl.find_opt last_signal r.Record.name with
      | Some m ->
        frames :=
          (r.Record.time, Message.encode m ~lookup:(Hashtbl.find_opt store))
          :: !frames
      | None -> ())
    trace;
  Array.of_list (List.rev !frames)

(* Fleet traffic.  Each VIN watches [window] seconds of one of the drives,
   from its own offset, through its own Bernoulli tap, with its clock
   starting at 0.  Batch [b] holds, per VIN, the candump lines of the
   frames stamped in [b * period, (b + 1) * period). *)
type traffic = {
  vins : string array;
  batches : (int * string) array array;  (* (VIN index, candump text) *)
}

let period = 0.01

let traffic ~seed ~vins:n ~drives ~window ~loss () =
  let g = Prng.create (Prng.derive seed 1) in
  let nbatches = int_of_float (Float.ceil (window /. period)) in
  let per_batch = Array.make nbatches [] in
  let drive_len =
    Array.map
      (fun frames ->
        let k = Array.length frames in
        if k = 0 then 0.0 else fst frames.(k - 1) -. fst frames.(0))
      drives
  in
  for i = 0 to n - 1 do
    let d = Prng.int g (Array.length drives) in
    let offset = Prng.float_range g 0.0 (Float.max 0.0 (drive_len.(d) -. window)) in
    let tap =
      Channel.model ~seed:(Prng.derive seed (100_000 + i)) (Channel.Bernoulli loss)
    in
    let frames = drives.(d) in
    let t0 = fst frames.(0) +. offset in
    let buf = Buffer.create 256 in
    let current = ref (-1) in
    let flush () =
      if !current >= 0 && Buffer.length buf > 0 then begin
        per_batch.(!current) <- (i, Buffer.contents buf) :: per_batch.(!current);
        Buffer.clear buf
      end
    in
    Array.iter
      (fun (t, frame) ->
        let rel = t -. t0 in
        if rel >= 0.0 && rel < window then
          match tap ~time:t frame with
          | `Deliver ->
            let b = min (nbatches - 1) (int_of_float (rel /. period)) in
            if b <> !current then begin
              flush ();
              current := b
            end;
            Buffer.add_string buf (Candump.frame_to_line ~time:rel frame);
            Buffer.add_char buf '\n'
          | `Drop | `Corrupt -> ())
      frames;
    flush ()
  done;
  { vins = Array.init n (Printf.sprintf "VIN%05d");
    batches = Array.map (fun l -> Array.of_list (List.rev l)) per_batch }

let drives ~seed ~count ~duration =
  Array.init count (fun k -> frames_of_trace (drive ~seed:(Prng.derive seed (10 + k)) ~duration))

(* The vehicles whose verdict digests are checked against the
   single-session reference: a seeded sample of distinct VINs. *)
let probe_vins ~seed ~vins ~probe =
  let order = Array.init vins Fun.id in
  Prng.shuffle (Prng.create (Prng.derive seed 2)) order;
  Array.sub order 0 (min probe vins)

(* The candump text of one vehicle's first [upto] batches. *)
let vin_text traffic ~vin ~upto =
  let b = Buffer.create 4096 in
  for k = 0 to upto - 1 do
    Array.iter
      (fun (i, text) -> if i = vin then Buffer.add_string b text)
      traffic.batches.(k)
  done;
  Buffer.contents b

let log_text ~seed ~duration =
  let frames = frames_of_trace (drive ~seed:(Prng.derive seed 20) ~duration) in
  (Candump.to_string (Array.to_list frames), Array.length frames)
