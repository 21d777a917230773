let hex_of_bytes data =
  let buf = Buffer.create (Bytes.length data * 2) in
  Bytes.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02X" (Char.code c)))
    data;
  Buffer.contents buf

let frame_to_line ?(interface = "can0") ~time (frame : Frame.t) =
  let id =
    match frame.Frame.format with
    | Frame.Base -> Printf.sprintf "%03X" frame.Frame.id
    | Frame.Extended -> Printf.sprintf "%08X" frame.Frame.id
  in
  Printf.sprintf "(%.6f) %s %s#%s" time interface id
    (hex_of_bytes frame.Frame.data)

let to_string ?interface frames =
  String.concat ""
    (List.map
       (fun (time, frame) -> frame_to_line ?interface ~time frame ^ "\n")
       frames)

let save ?interface path frames =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?interface frames))

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let is_digit c = c >= '0' && c <= '9'

(* A plain decimal as candump prints it, [-]digits[.digits], and finite.
   [float_of_string] alone would also take OCaml literal syntax ("1_0.5",
   "0x1p3"), "inf" and "nan" — and one infinite timestamp makes the
   snapshot cut run forever. *)
let parse_time s =
  let n = String.length s in
  let start = if n > 0 && s.[0] = '-' then 1 else 0 in
  let digits = ref 0 and dots = ref 0 and other = ref false in
  for i = start to n - 1 do
    if is_digit s.[i] then incr digits
    else if s.[i] = '.' then incr dots
    else other := true
  done;
  if !other || !digits = 0 || !dots > 1 then None
  else
    match float_of_string_opt s with
    | Some t as time when Float.is_finite t -> time
    | Some _ | None -> None

let bytes_of_hex s =
  if String.length s mod 2 <> 0 then Error "odd hex payload length"
  else if not (String.for_all is_hex s) then Error "bad hex digit in payload"
  else begin
    let n = String.length s / 2 in
    let data = Bytes.create n in
    let ok = ref true in
    for i = 0 to n - 1 do
      match int_of_string_opt ("0x" ^ String.sub s (i * 2) 2) with
      | Some v -> Bytes.set data i (Char.chr v)
      | None -> ok := false
    done;
    if !ok then Ok data else Error "bad hex digit in payload"
  end

let parse_line line =
  let fail msg = Error msg in
  match String.split_on_char ' ' (String.trim line) with
  | [ time_field; _interface; frame_field ] -> begin
    let time_ok =
      String.length time_field > 2
      && time_field.[0] = '('
      && time_field.[String.length time_field - 1] = ')'
    in
    if not time_ok then fail "malformed timestamp"
    else begin
      let text = String.sub time_field 1 (String.length time_field - 2) in
      match parse_time text with
      | None -> fail "bad timestamp"
      | Some time -> begin
        match String.index_opt frame_field '#' with
        | None -> fail "missing '#' in frame"
        | Some hash -> begin
          let id_text = String.sub frame_field 0 hash in
          let payload_text =
            String.sub frame_field (hash + 1)
              (String.length frame_field - hash - 1)
          in
          match
            if id_text <> "" && String.for_all is_hex id_text then
              int_of_string_opt ("0x" ^ id_text)
            else None
          with
          | None -> fail "bad identifier"
          | Some id -> begin
            let format =
              if String.length id_text > 3 then Frame.Extended else Frame.Base
            in
            match bytes_of_hex payload_text with
            | Error msg -> fail msg
            | Ok data -> begin
              match Frame.make ~format ~id ~data () with
              | frame -> Ok (time, frame)
              | exception Invalid_argument msg -> fail msg
            end
          end
        end
      end
    end
  end
  | _ -> fail "expected '(time) iface id#data'"

type diagnostic = { line : int; reason : string }

let pp_diagnostic ppf d = Fmt.pf ppf "line %d: %s" d.line d.reason

let is_comment line =
  String.length line > 0 && line.[0] = '#'

let of_string ?(mode = `Strict) source =
  let lines = String.split_on_char '\n' source in
  let rec go lineno acc diags = function
    | [] -> Ok (List.rev acc, List.rev diags)
    | "" :: rest -> go (lineno + 1) acc diags rest
    | line :: rest when mode = `Lenient && String.trim line = "" ->
      go (lineno + 1) acc diags rest
    | line :: rest when mode = `Lenient && is_comment (String.trim line) ->
      go (lineno + 1) acc ({ line = lineno; reason = "comment" } :: diags) rest
    | line :: rest -> begin
      match parse_line line with
      | Ok entry -> go (lineno + 1) (entry :: acc) diags rest
      | Error reason -> begin
        match mode with
        | `Strict -> Error (Printf.sprintf "line %d: %s" lineno reason)
        | `Lenient ->
          go (lineno + 1) acc ({ line = lineno; reason } :: diags) rest
      end
    end
  in
  go 1 [] [] lines

let load ?mode path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> of_string ?mode source
  | exception Sys_error msg -> Error msg

type undecodable = { time : float; frame : Frame.t; reason : string }

let pp_undecodable ppf u =
  Fmt.pf ppf "t=%.6f id=0x%X: %s" u.time u.frame.Frame.id u.reason

let decode_diagnosed dbc frames =
  let trace = Monitor_trace.Trace.create () in
  let skipped = ref [] in
  List.iter
    (fun (time, frame) ->
      (* A frame whose payload does not match its DBC definition — the
         truncated final record a live tail produces, or a DLC variant
         the database does not know — is observation loss, not a crash:
         skip it and report it, exactly as the lenient line parser skips
         a mangled line.  [Message.decode] signals the mismatch with
         [Invalid_argument]. *)
      match Dbc.decode_frame dbc frame with
      | decoded ->
        List.iter
          (fun (name, value) ->
            Monitor_trace.Trace.append trace
              (Monitor_trace.Record.make ~time ~name ~value))
          decoded
      | exception Invalid_argument reason ->
        skipped := { time; frame; reason } :: !skipped)
    frames;
  (trace, List.rev !skipped)

let decode dbc frames = fst (decode_diagnosed dbc frames)
