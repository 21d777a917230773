open Monitor_trace
module Value = Monitor_signal.Value

let rcd time name value = Record.make ~time ~name ~value

let fl x = Value.Float x

let sample_trace () =
  Trace.of_list
    [ rcd 0.0 "a" (fl 1.0);
      rcd 0.0 "b" (Value.Bool false);
      rcd 0.01 "a" (fl 2.0);
      rcd 0.02 "a" (fl 3.0);
      rcd 0.04 "b" (Value.Bool true);
      rcd 0.04 "a" (fl 4.0) ]

let test_append_order () =
  let t = Trace.create () in
  Trace.append t (rcd 1.0 "x" (fl 0.0));
  Alcotest.check_raises "time regression"
    (Invalid_argument "Trace.append: record out of time order") (fun () ->
      Trace.append t (rcd 0.5 "x" (fl 0.0)))

let test_of_list_sorts () =
  let t = Trace.of_list [ rcd 2.0 "x" (fl 1.0); rcd 1.0 "x" (fl 0.0) ] in
  Alcotest.(check (float 0.0)) "sorted first" 1.0 (Trace.get t 0).Record.time

let test_duration_and_bounds () =
  let t = sample_trace () in
  Alcotest.(check (float 1e-9)) "duration" 0.04 (Trace.duration t);
  Alcotest.(check (option (float 0.0))) "start" (Some 0.0) (Trace.start_time t);
  Alcotest.(check (option (float 0.0))) "end" (Some 0.04) (Trace.end_time t);
  Alcotest.(check int) "length" 6 (Trace.length t)

let test_signal_names () =
  Alcotest.(check (list string)) "first-appearance order" [ "a"; "b" ]
    (Trace.signal_names (sample_trace ()))

let test_slice () =
  let t = Trace.slice (sample_trace ()) ~from_time:0.01 ~to_time:0.04 in
  Alcotest.(check int) "two records" 2 (Trace.length t)

let test_filter_signals () =
  let t = Trace.filter_signals (sample_trace ()) [ "b" ] in
  Alcotest.(check int) "b records" 2 (Trace.length t);
  Alcotest.(check (list string)) "only b" [ "b" ] (Trace.signal_names t)

let test_merge () =
  let t1 = Trace.of_list [ rcd 0.0 "x" (fl 1.0); rcd 0.02 "x" (fl 2.0) ] in
  let t2 = Trace.of_list [ rcd 0.01 "y" (fl 9.0) ] in
  let m = Trace.merge t1 t2 in
  Alcotest.(check int) "merged length" 3 (Trace.length m);
  Alcotest.(check string) "interleaved" "y" (Trace.get m 1).Record.name

let test_last_value_before () =
  let t = sample_trace () in
  let v = Trace.last_value_before t ~name:"a" ~time:0.015 in
  Alcotest.(check bool) "held value" true
    (match v with Some x -> Value.equal x (fl 2.0) | None -> false);
  Alcotest.(check bool) "before first" true
    (Trace.last_value_before t ~name:"b" ~time:(-1.0) = None);
  Alcotest.(check bool) "unknown signal" true
    (Trace.last_value_before t ~name:"zz" ~time:1.0 = None)

(* Multirate ------------------------------------------------------------- *)

let test_snapshots_hold_and_fresh () =
  let t = sample_trace () in
  let snaps = Multirate.snapshots t ~period:0.01 in
  Alcotest.(check int) "five ticks" 5 (List.length snaps);
  let s1 = List.nth snaps 1 in
  (* at t=0.01: a refreshed to 2.0; b held at false *)
  Alcotest.(check bool) "a fresh" true (Snapshot.is_fresh s1 "a");
  Alcotest.(check bool) "b held" false (Snapshot.is_fresh s1 "b");
  Alcotest.(check bool) "b value held" true
    (match Snapshot.value s1 "b" with
     | Some v -> Value.equal v (Value.Bool false)
     | None -> false);
  let s3 = List.nth snaps 3 in
  (* at t=0.03 nothing new arrived *)
  Alcotest.(check bool) "a stale at 0.03" false (Snapshot.is_fresh s3 "a");
  let s4 = List.nth snaps 4 in
  Alcotest.(check bool) "b fresh at 0.04" true (Snapshot.is_fresh s4 "b")

let test_snapshot_age () =
  let t = sample_trace () in
  let snaps = Multirate.snapshots t ~period:0.01 in
  let s3 = List.nth snaps 3 in
  match Snapshot.age s3 "a" with
  | Some age -> Alcotest.(check (float 1e-9)) "age of a at 0.03" 0.01 age
  | None -> Alcotest.fail "a should be known"

let test_snapshots_missing_before_first () =
  let t =
    Trace.of_list [ rcd 0.0 "a" (fl 1.0); rcd 0.05 "late" (fl 9.0) ]
  in
  let snaps = Multirate.snapshots t ~period:0.01 in
  let s0 = List.hd snaps in
  Alcotest.(check bool) "late absent at t0" true (Snapshot.value s0 "late" = None);
  let s5 = List.nth snaps 5 in
  Alcotest.(check bool) "late present at 0.05" true
    (Snapshot.value s5 "late" <> None)

let test_at_updates_of () =
  let t = sample_trace () in
  let snaps = Multirate.at_updates_of t ~clock_signal:"a" in
  Alcotest.(check int) "one per a-update" 4 (List.length snaps);
  let last = List.nth snaps 3 in
  Alcotest.(check bool) "b fresh relative to previous wake" true
    (Snapshot.is_fresh last "b")

let test_empty_trace_snapshots () =
  Alcotest.(check int) "empty" 0
    (List.length (Multirate.snapshots (Trace.create ()) ~period:0.01))

(* Csv -------------------------------------------------------------------- *)

let test_csv_roundtrip () =
  let t =
    Trace.of_list
      [ rcd 0.0 "f" (fl 1.25);
        rcd 0.01 "f" (fl Float.nan);
        rcd 0.02 "f" (fl Float.infinity);
        rcd 0.03 "f" (fl Float.neg_infinity);
        rcd 0.04 "b" (Value.Bool true);
        rcd 0.05 "e" (Value.Enum 3) ]
  in
  match Csv.of_string (Csv.to_string t) with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
    Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "record equal" true
          (Value.equal a.Record.value b.Record.value
           && Float.abs (a.Record.time -. b.Record.time) < 1e-6))
      (Trace.to_list t) (Trace.to_list t')

let test_csv_errors () =
  (match Csv.of_string "time,signal,value\n1.0,x\n" with
   | Error msg -> Alcotest.(check bool) "has a message" true (String.length msg > 0)
   | Ok _ -> Alcotest.fail "should reject");
  match Csv.of_string "0.0,x,notanumber\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject bad value"

let csv_roundtrip_prop =
  QCheck.Test.make ~name:"csv roundtrip preserves float records" ~count:200
    QCheck.(small_list (pair (float_range 0.0 100.0) float))
    (fun pairs ->
      let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) pairs in
      let t =
        Trace.of_list (List.map (fun (time, x) -> rcd time "s" (fl x)) sorted)
      in
      match Csv.of_string (Csv.to_string t) with
      | Error _ -> false
      | Ok t' ->
        Trace.length t = Trace.length t'
        && List.for_all2
             (fun a b -> Value.equal a.Record.value b.Record.value)
             (Trace.to_list t) (Trace.to_list t'))

(* Multirate.Feed: the incremental snapshot construction the fleet
   stream server runs on must agree with the offline cutter, record for
   record, flag for flag. *)

let snapshot_repr (s : Snapshot.t) =
  Fmt.str "t=%.6f %a"
    s.Snapshot.time
    (Fmt.list ~sep:Fmt.sp (fun ppf (n, (e : Snapshot.entry)) ->
         Fmt.pf ppf "%s=%a fresh=%b stale=%b last=%.6f" n Value.pp
           e.Snapshot.value e.Snapshot.fresh e.Snapshot.stale
           e.Snapshot.last_update))
    s.Snapshot.entries

let feed_all ?staleness ~period records =
  let feed = Multirate.Feed.create ?staleness ~period () in
  let out = ref [] in
  let emit s = out := s :: !out in
  List.iter
    (fun (r : Record.t) ->
      Multirate.Feed.observe feed ~time:r.Record.time
        [ (r.Record.name, r.Record.value) ]
        emit)
    records;
  Multirate.Feed.drain feed emit;
  List.rev !out

let test_feed_matches_snapshots_sample () =
  let t = sample_trace () in
  let offline = Multirate.snapshots t ~period:0.01 in
  let online = feed_all ~period:0.01 (Trace.to_list t) in
  Alcotest.(check (list string))
    "feed emits exactly the offline snapshots"
    (List.map snapshot_repr offline)
    (List.map snapshot_repr online)

let test_feed_advance_is_watchdog () =
  (* After the last observation, [advance] keeps cutting ticks; with a
     staleness deadline the held signal goes stale and a later [drain]
     adds nothing more. *)
  let staleness _ = Some 0.025 in
  let feed = Multirate.Feed.create ~staleness ~period:0.01 () in
  let out = ref [] in
  let emit s = out := s :: !out in
  Multirate.Feed.advance feed ~upto:10.0 emit;
  Alcotest.(check int) "advance before start is a no-op" 0 (List.length !out);
  Multirate.Feed.observe feed ~time:0.0 [ ("a", fl 1.0) ] emit;
  Multirate.Feed.advance feed ~upto:0.1 emit;
  let cut_by_advance = List.length !out in
  Alcotest.(check bool) "silent ticks still cut" true (cut_by_advance >= 9);
  Alcotest.(check bool) "held sample went stale" true
    (Snapshot.is_stale (List.hd !out) "a");
  Multirate.Feed.drain feed emit;
  Alcotest.(check int) "drain after advance past the end adds nothing"
    cut_by_advance (List.length !out)

let feed_equiv_prop =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* period = oneofl [ 0.01; 0.05; 0.13 ] in
      let* deadline = oneofl [ None; Some 0.02; Some 0.1 ] in
      let* steps =
        list_size (return n)
          (triple (int_range 0 30) (oneofl [ "a"; "b"; "c" ])
             (float_range 0.0 10.0))
      in
      return (period, deadline, steps))
  in
  QCheck.Test.make ~count:300
    ~name:"Feed.observe+drain emits exactly Multirate.snapshots"
    (QCheck.make
       ~print:(fun (period, deadline, steps) ->
         Printf.sprintf "period=%.2f deadline=%s n=%d" period
           (match deadline with
           | None -> "none"
           | Some d -> string_of_float d)
           (List.length steps))
       gen)
    (fun (period, deadline, steps) ->
      (* Gaps between records are multiples of period/3 so cuts land both
         on, between and far from record times. *)
      let time = ref 0.0 in
      let records =
        List.map
          (fun (gap, name, v) ->
            time := !time +. (float_of_int gap *. period /. 3.0);
            rcd !time name (fl v))
          steps
      in
      let staleness = Option.map (fun d _ -> Some d) deadline in
      let trace = Trace.of_list records in
      let offline =
        Multirate.snapshots ?staleness trace ~period |> List.map snapshot_repr
      in
      let online =
        feed_all ?staleness ~period records |> List.map snapshot_repr
      in
      if offline <> online then
        QCheck.Test.fail_reportf "offline:@.%s@.online:@.%s"
          (String.concat "\n" offline) (String.concat "\n" online);
      true)

(* A non-finite time means infinitely many ticks to cut: both cutters
   refuse it instead of looping (the fleet then quarantines the session
   rather than hanging its shard). *)
let test_non_finite_times_rejected () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ " accepted a non-finite time")
  in
  List.iter
    (fun bad ->
      raises "snapshots" (fun () ->
          Multirate.snapshots ~period:0.01
            (Trace.of_list [ rcd 0.0 "a" (fl 1.0); rcd bad "a" (fl 2.0) ]));
      let feed = Multirate.Feed.create ~period:0.01 () in
      Multirate.Feed.observe feed ~time:0.0 [ ("a", fl 1.0) ] ignore;
      raises "Feed.observe" (fun () ->
          Multirate.Feed.observe feed ~time:bad [ ("a", fl 2.0) ] ignore);
      raises "Feed.advance" (fun () ->
          Multirate.Feed.advance feed ~upto:bad ignore))
    [ Float.infinity; Float.nan ];
  (* A NaN in the middle of a trace stops the absorb loop; it must not
     silently drop the records behind it. *)
  let t = Trace.create () in
  List.iter (Trace.append t)
    [ rcd 0.0 "a" (fl 1.0); rcd Float.nan "a" (fl 2.0); rcd 0.05 "a" (fl 3.0) ];
  raises "snapshots (NaN inside)" (fun () ->
      Multirate.snapshots ~period:0.01 t)

let suite =
  [ ( "trace",
      [ Alcotest.test_case "append order" `Quick test_append_order;
        Alcotest.test_case "of_list sorts" `Quick test_of_list_sorts;
        Alcotest.test_case "duration/bounds" `Quick test_duration_and_bounds;
        Alcotest.test_case "signal names" `Quick test_signal_names;
        Alcotest.test_case "slice" `Quick test_slice;
        Alcotest.test_case "filter signals" `Quick test_filter_signals;
        Alcotest.test_case "merge" `Quick test_merge;
        Alcotest.test_case "last value before" `Quick test_last_value_before;
        Alcotest.test_case "snapshots hold/fresh" `Quick test_snapshots_hold_and_fresh;
        Alcotest.test_case "snapshot age" `Quick test_snapshot_age;
        Alcotest.test_case "missing before first" `Quick
          test_snapshots_missing_before_first;
        Alcotest.test_case "at_updates_of" `Quick test_at_updates_of;
        Alcotest.test_case "empty trace" `Quick test_empty_trace_snapshots;
        Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
        Alcotest.test_case "csv errors" `Quick test_csv_errors;
        Alcotest.test_case "feed matches snapshots" `Quick
          test_feed_matches_snapshots_sample;
        Alcotest.test_case "non-finite times rejected" `Quick
          test_non_finite_times_rejected;
        Alcotest.test_case "feed advance watchdog" `Quick
          test_feed_advance_is_watchdog;
        QCheck_alcotest.to_alcotest feed_equiv_prop;
        QCheck_alcotest.to_alcotest csv_roundtrip_prop ] ) ]
