let default_period_ms = 100

(* Parsing ------------------------------------------------------------------ *)

type partial_message = {
  pm_id : int;
  pm_name : string;
  pm_dlc : int;
  mutable pm_codings : Coding.t list;  (* reversed *)
  mutable pm_period_ms : int option;
}

let strip s = String.trim s

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* "SG_ Name : 0|32@1+ (0.01,0) [0|655.35] "km/h" RX" *)
let parse_signal_line line =
  try
    Scanf.sscanf line "SG_ %s@: %d|%d@%d%c (%f,%f) [%f|%f] %S"
      (fun name start_bit length endian sign scale offset _min _max _unit ->
        let name = strip name in
        let byte_order =
          match endian with
          | 1 -> Bitfield.Little_endian
          | 0 -> Bitfield.Big_endian
          | _ -> failwith "endianness digit must be 0 or 1"
        in
        let signed =
          match sign with
          | '+' -> false
          | '-' -> true
          | _ -> failwith "sign must be + or -"
        in
        Ok
          (Coding.make ~signal_name:name ~start_bit ~length ~byte_order
             ~repr:(Coding.Scaled_int { signed; scale; offset })))
  with
  | Scanf.Scan_failure msg | Failure msg | Invalid_argument msg -> Error msg
  | End_of_file -> Error "truncated SG_ line"

let parse_message_line line =
  try
    Scanf.sscanf line "BO_ %d %s@: %d %s" (fun id name dlc _sender ->
        Ok (id, strip name, dlc))
  with
  | Scanf.Scan_failure msg | Failure msg -> Error msg
  | End_of_file -> Error "truncated BO_ line"

let parse_cycle_time line =
  try
    Scanf.sscanf line "BA_ \"GenMsgCycleTime\" BO_ %d %d;" (fun id ms ->
        Some (id, ms))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let parse_valtype line =
  try
    Scanf.sscanf line "SIG_VALTYPE_ %d %s@: %d;" (fun id name kind ->
        Some (id, strip name, kind))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let apply_valtype messages (id, signal, kind) =
  match List.find_opt (fun pm -> pm.pm_id = id) messages with
  | None -> Error (Printf.sprintf "SIG_VALTYPE_ for unknown message %d" id)
  | Some pm -> begin
    let repr =
      match kind with
      | 1 -> Ok Coding.Raw_float32
      | 2 -> Ok Coding.Raw_float64
      | k -> Error (Printf.sprintf "unsupported SIG_VALTYPE_ kind %d" k)
    in
    match repr with
    | Error _ as e -> e
    | Ok repr -> begin
      match
        List.partition
          (fun (c : Coding.t) -> String.equal c.Coding.signal_name signal)
          pm.pm_codings
      with
      | [ c ], _ -> begin
        (* Retype in place: the coding keeps its position, so a reparsed
           database prints and decodes in the original signal order. *)
        match
          Coding.make ~signal_name:signal ~start_bit:c.Coding.start_bit
            ~length:c.Coding.length ~byte_order:c.Coding.byte_order ~repr
        with
        | retyped ->
          pm.pm_codings <-
            List.map (fun c' -> if c' == c then retyped else c') pm.pm_codings;
          Ok ()
        | exception Invalid_argument msg -> Error msg
      end
      | [], _ -> Error ("SIG_VALTYPE_ for unknown signal " ^ signal)
      | _ :: _ :: _, _ -> Error ("duplicate signal " ^ signal)
    end
  end

let of_string source =
  let lines = String.split_on_char '\n' source in
  let messages = ref [] in
  let current = ref None in
  let pending_valtypes = ref [] in
  let error = ref None in
  List.iteri
    (fun lineno raw ->
      if !error = None then begin
        let line = strip raw in
        let fail msg =
          error := Some (Printf.sprintf "line %d: %s" (lineno + 1) msg)
        in
        if line = "" then ()
        else if starts_with "BO_ " line then begin
          match parse_message_line line with
          | Error msg -> fail msg
          | Ok (id, name, dlc) ->
            let pm =
              { pm_id = id; pm_name = name; pm_dlc = dlc; pm_codings = [];
                pm_period_ms = None }
            in
            messages := pm :: !messages;
            current := Some pm
        end
        else if starts_with "SG_ " line then begin
          match !current with
          | None -> fail "SG_ outside a BO_ block"
          | Some pm -> begin
            match parse_signal_line line with
            | Error msg -> fail msg
            | Ok coding -> pm.pm_codings <- coding :: pm.pm_codings
          end
        end
        else if starts_with "BA_ \"GenMsgCycleTime\"" line then begin
          match parse_cycle_time line with
          | Some (id, ms) -> begin
            match List.find_opt (fun pm -> pm.pm_id = id) !messages with
            | Some pm -> pm.pm_period_ms <- Some ms
            | None -> fail (Printf.sprintf "cycle time for unknown message %d" id)
          end
          | None -> fail "malformed GenMsgCycleTime attribute"
        end
        else if starts_with "SIG_VALTYPE_" line then begin
          match parse_valtype line with
          | Some v -> pending_valtypes := (lineno + 1, v) :: !pending_valtypes
          | None -> fail "malformed SIG_VALTYPE_ line"
        end
        else
          (* VERSION, NS_, BS_, BU_, CM_, other BA_, VAL_ ... are ignored,
             as is anything we do not understand at top level. *)
          ()
      end)
    lines;
  (match !error with
   | None ->
     List.iter
       (fun (line, v) ->
         if !error = None then
           match apply_valtype !messages v with
           | Ok () -> ()
           | Error msg -> error := Some (Printf.sprintf "line %d: %s" line msg))
       (List.rev !pending_valtypes)
   | Some _ -> ());
  match !error with
  | Some msg -> Error msg
  | None -> begin
    match
      List.rev_map
        (fun pm ->
          Message.make ~name:pm.pm_name ~id:pm.pm_id ~dlc:pm.pm_dlc
            ~period_ms:(Option.value ~default:default_period_ms pm.pm_period_ms)
            ~codings:(List.rev pm.pm_codings) ())
        !messages
    with
    | messages -> begin
      match Dbc.create messages with
      | dbc -> Ok dbc
      | exception Invalid_argument msg -> Error msg
    end
    | exception Invalid_argument msg -> Error msg
  end

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> of_string source
  | exception Sys_error msg -> Error msg

(* Printing ------------------------------------------------------------------ *)

let coding_as_scaled (c : Coding.t) =
  (* DBC SG_ lines only speak scaled integers; raw floats keep a neutral
     (1, 0) scaling here and get their SIG_VALTYPE_ marker below. *)
  match c.Coding.repr with
  | Coding.Scaled_int { signed; scale; offset } -> (signed, scale, offset)
  | Coding.Raw_float32 | Coding.Raw_float64 -> (true, 1.0, 0.0)
  | Coding.Raw_bool | Coding.Raw_enum -> (false, 1.0, 0.0)

let to_string dbc =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "VERSION \"\"\n\nBS_:\n\nBU_: Monitor\n\n";
  List.iter
    (fun (m : Message.t) ->
      Buffer.add_string buf
        (Printf.sprintf "BO_ %d %s: %d Monitor\n" m.Message.id m.Message.name
           m.Message.dlc);
      List.iter
        (fun (c : Coding.t) ->
          let signed, scale, offset = coding_as_scaled c in
          Buffer.add_string buf
            (Printf.sprintf " SG_ %s : %d|%d@%d%c (%s,%s) [0|0] \"\" Monitor\n"
               c.Coding.signal_name c.Coding.start_bit c.Coding.length
               (match c.Coding.byte_order with
                | Bitfield.Little_endian -> 1
                | Bitfield.Big_endian -> 0)
               (if signed then '-' else '+')
               (Monitor_util.Pretty.float_exact scale)
               (Monitor_util.Pretty.float_exact offset)))
        m.Message.codings;
      Buffer.add_char buf '\n')
    (Dbc.messages dbc);
  List.iter
    (fun (m : Message.t) ->
      Buffer.add_string buf
        (Printf.sprintf "BA_ \"GenMsgCycleTime\" BO_ %d %d;\n" m.Message.id
           m.Message.period_ms))
    (Dbc.messages dbc);
  List.iter
    (fun (m : Message.t) ->
      List.iter
        (fun (c : Coding.t) ->
          match c.Coding.repr with
          | Coding.Raw_float32 ->
            Buffer.add_string buf
              (Printf.sprintf "SIG_VALTYPE_ %d %s : 1;\n" m.Message.id
                 c.Coding.signal_name)
          | Coding.Raw_float64 ->
            Buffer.add_string buf
              (Printf.sprintf "SIG_VALTYPE_ %d %s : 2;\n" m.Message.id
                 c.Coding.signal_name)
          | Coding.Scaled_int _ | Coding.Raw_bool | Coding.Raw_enum -> ())
        m.Message.codings)
    (Dbc.messages dbc);
  Buffer.contents buf

let save path dbc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string dbc))
