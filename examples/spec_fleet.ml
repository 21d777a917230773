(* The deployed shape of the bolt-on box: rules loaded from a versioned
   .spec file, compiled into one plan and run side by side by a fused
   online monitor over one snapshot stream, violations surfacing through
   a live callback.

   Run with: dune exec examples/spec_fleet.exe *)

module Mtl = Monitor_mtl
module Sim = Monitor_hil.Sim
module Scenario = Monitor_hil.Scenario

let spec_source =
  {|spec decel_is_decel "decelerations must decelerate"
severity RequestedDecel / 0.5
formula BrakeRequested -> RequestedDecel <= 0.0

spec no_push_when_close "no torque into a close target"
machine tracking {
  initial clear
  states clear target
  clear -> target when VehicleAhead
  target -> clear when not VehicleAhead
}
formula
  (mode(tracking, target) and TargetRange < 10.0)
    -> (not TorqueRequested or RequestedTorque < 50.0)

spec speed_sane "reported speed stays physical"
formula Velocity >= 0.0 and Velocity < 120.0
|}

let () =
  let specs = Mtl.Spec_file.of_string_exn spec_source in
  Printf.printf "loaded %d specs from the file\n\n" (List.length specs);

  (* A faulted HIL capture to monitor. *)
  let faults =
    [ (2.0, Sim.Set ("Velocity", Monitor_signal.Value.Float (-400.0)));
      (10.0, Sim.Clear_all) ]
  in
  let result =
    Sim.run ~plan:faults
      (Sim.default_config (Scenario.steady_follow ~duration:16.0 ()))
  in

  let names = Array.of_list (List.map (fun s -> s.Mtl.Spec.name) specs) in
  let violations = Array.make (Array.length names) 0 in
  let on_verdict rule _tick time verdict =
    if Mtl.Verdict.equal verdict Mtl.Verdict.False then begin
      if violations.(rule) = 0 then
        Printf.printf "ALARM %-20s first violation about t=%.2fs\n"
          names.(rule) time;
      violations.(rule) <- violations.(rule) + 1
    end
  in
  let monitor = Mtl.Online.Fused.create (Mtl.Plan.compile specs) in
  let snapshots =
    Monitor_oracle.Oracle.snapshots_of_trace result.Sim.trace
  in
  List.iter
    (fun snap -> Mtl.Online.Fused.step_iter monitor snap on_verdict)
    snapshots;
  Mtl.Online.Fused.finalize_iter monitor on_verdict;
  print_newline ();
  Array.iteri
    (fun rule name ->
      Printf.printf "%-20s %d violating ticks\n" name violations.(rule))
    names
