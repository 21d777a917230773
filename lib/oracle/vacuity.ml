module Mtl = Monitor_mtl

type guard_report = {
  premise : Mtl.Formula.t;
  armed_ticks : int;
  unknown_ticks : int;
  total_ticks : int;
}

type t = {
  spec : Mtl.Spec.t;
  guards : guard_report list;
  vacuous : bool;
}

let premises = Mtl.Formula.guard_premises

(* Every premise of every spec evaluated as its own rule (it may use the
   spec's machines) of one plan, over one column transposition. *)
let analyze_all specs snaps =
  let premise_specs =
    List.concat_map
      (fun (spec : Mtl.Spec.t) ->
        List.map
          (Mtl.Spec.make ~machines:spec.Mtl.Spec.machines
             ~name:(spec.Mtl.Spec.name ^ "_premise"))
          (premises spec.Mtl.Spec.formula))
      specs
  in
  let outcomes =
    if premise_specs = [] then [||]
    else
      Mtl.Plan_exec.eval_columns
        (Mtl.Plan.compile premise_specs)
        snaps
        (Monitor_trace.Columns.of_snapshots snaps)
  in
  let guard (o : Mtl.Offline.outcome) premise =
    let count v = Mtl.Offline.count o.Mtl.Offline.verdicts v in
    { premise;
      armed_ticks = count Mtl.Verdict.True;
      unknown_ticks = count Mtl.Verdict.Unknown;
      total_ticks = Array.length o.Mtl.Offline.verdicts }
  in
  snd
    (List.fold_left_map
       (fun next (spec : Mtl.Spec.t) ->
         let guards =
           List.mapi
             (fun i premise -> guard outcomes.(next + i) premise)
             (premises spec.Mtl.Spec.formula)
         in
         ( next + List.length guards,
           { spec;
             guards;
             vacuous =
               guards <> []
               && List.for_all (fun g -> g.armed_ticks = 0) guards } ))
       0 specs)

let analyze_snapshots spec snapshots =
  List.hd (analyze_all [ spec ] (Array.of_list snapshots))

let analyze ?period spec trace =
  analyze_snapshots spec (Oracle.snapshots_of_trace ?period trace)

let analyze_many ?period specs trace =
  analyze_all specs (Array.of_list (Oracle.snapshots_of_trace ?period trace))

let total_ticks t =
  match t.guards with [] -> 0 | g :: _ -> g.total_ticks

(* Guards are alternative ways for the rule to arm (any premise True is
   evidence), so the per-tick union is at least the largest single count —
   a cheap, monotone lower bound that needs no per-tick storage. *)
let armed_ticks t =
  match t.guards with
  | [] -> total_ticks t
  | gs -> List.fold_left (fun acc g -> Stdlib.max acc g.armed_ticks) 0 gs

let render t =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s: %s" t.spec.Mtl.Spec.name
    (if t.vacuous then "VACUOUS (never armed)"
     else if t.guards = [] then "unguarded"
     else "armed");
  List.iter
    (fun g ->
      add "\n  premise %s: armed %d/%d ticks%s"
        (Mtl.Formula.to_string g.premise)
        g.armed_ticks g.total_ticks
        (if g.unknown_ticks > 0 then
           Printf.sprintf " (%d unknown)" g.unknown_ticks
         else ""))
    t.guards;
  Buffer.contents buf
