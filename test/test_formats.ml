(* Interchange formats: DBC text and candump logs. *)

open Monitor_can
module Value = Monitor_signal.Value

let sample_dbc_text =
  {|VERSION ""

BS_:

BU_: ECU1 Monitor

BO_ 256 VehicleState: 8 ECU1
 SG_ Velocity : 0|16@1+ (0.01,0) [0|655.35] "m/s" Monitor
 SG_ EngineTemp : 16|8@1- (1,-40) [-40|215] "degC" Monitor

BO_ 512 Radar: 8 ECU1
 SG_ Range : 7|16@0+ (0.1,0) [0|6553.5] "m" Monitor

BA_ "GenMsgCycleTime" BO_ 256 10;
BA_ "GenMsgCycleTime" BO_ 512 40;
|}

let parse_sample () =
  match Dbc_text.of_string sample_dbc_text with
  | Ok dbc -> dbc
  | Error msg -> Alcotest.fail msg

let test_dbc_parse_structure () =
  let dbc = parse_sample () in
  Alcotest.(check int) "two messages" 2 (List.length (Dbc.messages dbc));
  (match Dbc.find_by_id dbc 256 with
   | Some m ->
     Alcotest.(check string) "name" "VehicleState" m.Message.name;
     Alcotest.(check int) "dlc" 8 m.Message.dlc;
     Alcotest.(check int) "period from attribute" 10 m.Message.period_ms
   | None -> Alcotest.fail "message 256 missing");
  match Dbc.find_by_id dbc 512 with
  | Some m -> Alcotest.(check int) "slow period" 40 m.Message.period_ms
  | None -> Alcotest.fail "message 512 missing"

let test_dbc_scaling_and_signedness () =
  let dbc = parse_sample () in
  let m = Option.get (Dbc.find_by_id dbc 256) in
  let frame =
    Message.encode m ~lookup:(function
      | "Velocity" -> Some (Value.Float 27.35)
      | "EngineTemp" -> Some (Value.Float (-12.0))
      | _ -> None)
  in
  let decoded = Message.decode m frame in
  (match List.assoc "Velocity" decoded with
   | Value.Float x -> Alcotest.(check (float 0.005)) "scaled roundtrip" 27.35 x
   | _ -> Alcotest.fail "float expected");
  match List.assoc "EngineTemp" decoded with
  | Value.Float x -> Alcotest.(check (float 0.5)) "signed with offset" (-12.0) x
  | _ -> Alcotest.fail "float expected"

let test_dbc_big_endian_signal () =
  let dbc = parse_sample () in
  let m = Option.get (Dbc.find_by_id dbc 512) in
  let frame =
    Message.encode m ~lookup:(function
      | "Range" -> Some (Value.Float 123.4)
      | _ -> None)
  in
  match List.assoc "Range" (Message.decode m frame) with
  | Value.Float x -> Alcotest.(check (float 0.05)) "motorola roundtrip" 123.4 x
  | _ -> Alcotest.fail "float expected"

let test_dbc_errors () =
  List.iter
    (fun (src, why, located) ->
      match Dbc_text.of_string src with
      | Error msg ->
        if located && not (String.length msg > 5 && String.sub msg 0 5 = "line ")
        then Alcotest.failf "%s: error %S names no line" why msg
      | Ok _ -> Alcotest.fail ("should reject: " ^ why)
      | exception e ->
        Alcotest.failf "%s: raised %s" why (Printexc.to_string e))
    [ ("SG_ X : 0|8@1+ (1,0) [0|1] \"\" RX\n", "signal outside message", true);
      ("BO_ 1 A: 1 E\n SG_ X : 0|8@3+ (1,0) [0|1] \"\" RX\n", "bad endian", true);
      ("BO_ 1 A: 1 E\nBO_ 1 B: 1 E\n", "duplicate id", false);
      ("BO_ 1 A: 8 E\n SG_ X : 0|65@1+ (1,0) [0|1] \"\" RX\n", "length 65", true);
      ("BO_ 1 A: 8 E\n SG_ X : 0|8@1+ (0,0) [0|1] \"\" RX\n", "zero scale", true);
      ( "BO_ 1 A: 8 E\n SG_ X : 0|8@1+ (1,0) [0|1] \"\" RX\nSIG_VALTYPE_ 1 X : 1;\n",
        "8-bit signal retyped to float32",
        true )
    ]

let test_dbc_print_reparse_behaviour () =
  (* Printing our FSRACC database and reparsing must preserve layout,
     periods and decode behaviour (raw floats via SIG_VALTYPE_). *)
  let original = Monitor_fsracc.Io.dbc in
  match Dbc_text.of_string (Dbc_text.to_string original) with
  | Error msg -> Alcotest.fail msg
  | Ok reparsed ->
    Alcotest.(check string) "print/reparse/print is byte-identical"
      (Dbc_text.to_string original) (Dbc_text.to_string reparsed);
    List.iter2
      (fun (a : Message.t) (b : Message.t) ->
        Alcotest.(check int) "id" a.Message.id b.Message.id;
        Alcotest.(check int) "period" a.Message.period_ms b.Message.period_ms)
      (Dbc.messages original) (Dbc.messages reparsed);
    (* Decode equivalence on a float-carrying frame. *)
    let m = Option.get (Dbc.find_by_name original "VehicleState") in
    let frame =
      Message.encode m ~lookup:(function
        | "Velocity" -> Some (Value.Float 31.25)
        | "ThrotPos" -> Some (Value.Float 12.5)
        | _ -> None)
    in
    let a = Dbc.decode_frame original frame in
    let b = Dbc.decode_frame reparsed frame in
    List.iter2
      (fun (n1, v1) (n2, v2) ->
        Alcotest.(check string) "signal" n1 n2;
        Alcotest.(check (float 1e-6)) "value" (Value.as_float v1)
          (Value.as_float v2))
      a b

(* Candump -------------------------------------------------------------------- *)

let test_candump_roundtrip () =
  let frames =
    [ (1.25, Frame.make ~id:0x123 ~data:(Bytes.of_string "\xDE\xAD\xBE\xEF") ());
      (1.26, Frame.make ~format:Frame.Extended ~id:0x18FF00F1
           ~data:(Bytes.of_string "\x01\x02\x03\x04\x05\x06\x07\x08") ());
      (1.27, Frame.make ~id:0x7FF ~data:Bytes.empty ()) ]
  in
  match Candump.of_string (Candump.to_string frames) with
  | Error msg -> Alcotest.fail msg
  | Ok (parsed, _) ->
    Alcotest.(check int) "count" 3 (List.length parsed);
    List.iter2
      (fun (t1, f1) (t2, f2) ->
        Alcotest.(check (float 1e-6)) "time" t1 t2;
        Alcotest.(check bool) "frame" true (Frame.equal f1 f2);
        Alcotest.(check bool) "format" true (f1.Frame.format = f2.Frame.format))
      frames parsed

let test_candump_line_format () =
  let frame = Frame.make ~id:0x123 ~data:(Bytes.of_string "\xDE\xAD") () in
  Alcotest.(check string) "canonical line" "(1.250000) can0 123#DEAD"
    (Candump.frame_to_line ~time:1.25 frame)

(* Every rejection is located.  float_of_string and int_of_string accept
   far more than candump prints: "inf"/"nan" (one infinite timestamp used
   to hang the snapshot cut) and OCaml literal syntax, under which the
   last line read as t = 10.5, id 0x12. *)
let test_candump_errors () =
  List.iter
    (fun line ->
      match Candump.of_string line with
      | Error msg ->
        Alcotest.(check bool) ("located error for " ^ line) true
          (String.length msg > 7 && String.sub msg 0 7 = "line 1:")
      | Ok _ -> Alcotest.fail ("should reject: " ^ line))
    [ "123#DEAD\n"; "(abc) can0 123#DEAD\n"; "(1.0) can0 123#DEA\n";
      "(1.0) can0 XYZ#DEAD\n"; "(inf) can0 100#00\n"; "(nan) can0 100#00\n";
      "(-inf) can0 100#00\n"; "(0x1p3) can0 123#DEAD\n";
      "(1e3) can0 123#DEAD\n"; "(1.0) can0 1_2#DEAD\n";
      "(1.0) can0 123#0_\n"; "(1.0) can0 0x12#DEAD\n";
      "(1_0.5) can0 1_2#0_\n" ]

let test_candump_lenient () =
  let text =
    "# exported by hand\n\
     (1.0) can0 123#DEAD\n\
     \n\
     garbage line\n\
     (1.5) can0 7FF#\n\
     (oops) can0 123#DEAD\n"
  in
  (match Candump.of_string text with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "strict should reject the comment line");
  match Candump.of_string ~mode:`Lenient text with
  | Error msg -> Alcotest.fail msg
  | Ok (parsed, diags) ->
    Alcotest.(check int) "frames kept" 2 (List.length parsed);
    Alcotest.(check int) "lines skipped" 3 (List.length diags);
    Alcotest.(check (list int)) "skipped line numbers" [ 1; 4; 6 ]
      (List.map (fun d -> d.Candump.line) diags);
    List.iter
      (fun d ->
        Alcotest.(check bool) "reason rendered" true
          (String.length (Fmt.str "%a" Candump.pp_diagnostic d) > 0))
      diags

let test_candump_decode_via_dbc () =
  (* Full pipeline: simulate -> frames -> candump text -> trace -> oracle. *)
  let scenario = Monitor_hil.Scenario.steady_follow ~duration:1.0 () in
  let result = Monitor_hil.Sim.run (Monitor_hil.Sim.default_config scenario) in
  (* Re-encode one message stream as candump. *)
  let m = Option.get (Dbc.find_by_name Monitor_fsracc.Io.dbc "VehicleState") in
  let frames = ref [] in
  Monitor_trace.Trace.iter
    (fun r ->
      if String.equal r.Monitor_trace.Record.name "Velocity" then
        frames :=
          ( r.Monitor_trace.Record.time,
            Message.encode m ~lookup:(fun name ->
                if String.equal name "Velocity" then
                  Some r.Monitor_trace.Record.value
                else None) )
          :: !frames)
    result.Monitor_hil.Sim.trace;
  let text = Candump.to_string (List.rev !frames) in
  match Candump.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok (parsed, _) ->
    let trace = Candump.decode Monitor_fsracc.Io.dbc parsed in
    Alcotest.(check bool) "velocity recovered" true
      (List.mem "Velocity" (Monitor_trace.Trace.signal_names trace));
    match
      Monitor_trace.Trace.last_value_before trace ~name:"Velocity" ~time:0.5
    with
    | Some v ->
      Alcotest.(check bool) "plausible speed" true
        (Float.abs (Value.as_float v -. 25.0) < 3.0)
    | None -> Alcotest.fail "no velocity sample"

let test_candump_truncated_tail_decodes_cleanly () =
  (* A live tail cut off mid-payload parses as a well-formed short frame;
     decoding it against the DBC used to raise out of [Candump.decode]
     and discard the whole capture.  It must be a clean, reported skip. *)
  let dbc = parse_sample () in
  let capture =
    "(0.000000) can0 100#0A00000000000000\n\
     (0.010000) can0 100#1400000000000000\n\
     (0.020000) can0 100#28"
  in
  match Candump.of_string capture with
  | Error msg -> Alcotest.failf "short frame must still parse: %s" msg
  | Ok (frames, _) ->
    Alcotest.(check int) "three frames parsed" 3 (List.length frames);
    let trace, skipped = Candump.decode_diagnosed dbc frames in
    (* two intact frames x two signals per VehicleState message *)
    Alcotest.(check int) "intact frames decoded" 4
      (Monitor_trace.Trace.length trace);
    (match skipped with
    | [ u ] ->
      Alcotest.(check (float 1e-9)) "truncated record time" 0.02
        u.Candump.time;
      Alcotest.(check bool) "reason recorded" true
        (String.length u.Candump.reason > 0)
    | _ -> Alcotest.fail "exactly the truncated frame skipped");
    (* And the plain [decode] path is the same trace, no exception. *)
    Alcotest.(check int) "decode never raises" 4
      (Monitor_trace.Trace.length (Candump.decode dbc frames))

let suite =
  [ ( "formats",
      [ Alcotest.test_case "dbc parse structure" `Quick test_dbc_parse_structure;
        Alcotest.test_case "dbc scaling/sign" `Quick test_dbc_scaling_and_signedness;
        Alcotest.test_case "dbc big endian" `Quick test_dbc_big_endian_signal;
        Alcotest.test_case "dbc errors" `Quick test_dbc_errors;
        Alcotest.test_case "dbc print/reparse" `Quick
          test_dbc_print_reparse_behaviour;
        Alcotest.test_case "candump roundtrip" `Quick test_candump_roundtrip;
        Alcotest.test_case "candump line format" `Quick test_candump_line_format;
        Alcotest.test_case "candump errors" `Quick test_candump_errors;
        Alcotest.test_case "candump lenient" `Quick test_candump_lenient;
        Alcotest.test_case "candump decode pipeline" `Quick
          test_candump_decode_via_dbc;
        Alcotest.test_case "candump truncated tail" `Quick
          test_candump_truncated_tail_decodes_cleanly ] ) ]
