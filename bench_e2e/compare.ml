(* Compare two sets of benchmark runs.

   usage: compare.exe A.json B.json

   Run from the repository root: the bounds are read from BENCHMARK.json.

   A and B hold one result per line, as run.exe --json FILE appends them.
   For every workload and metric both sides measured, one row: each
   side's median, its quartiles when it has several runs, the change of
   B against A, and a verdict for the end-to-end metrics, which carry a
   bound in BENCHMARK.json:

   - unresolved: a side's quartile spread, as a share of its median, is
     wider than the bound, and the runs of the two sides overlap;
   - worse: B is worse than A by more than the bound (for setup_s, by
     more than the bound or 5 ms, whichever is larger);
   - better: B is better than A by more than the wider quartile spread;
   - same: otherwise.

   Exits 1 when any row is worse. *)

(* Quartiles as Python's statistics.quantiles(values, n=4) computes them
   (its default "exclusive" method), so these numbers match the ones the
   benchmark's acceptance is stated in. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 1 then [| d.(0); d.(0); d.(0) |]
  else
    let m = ld + 1 in
    Array.init 3 (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0)

let median values = Common.median (Array.of_list values)

let spread values =
  if List.length values < 2 then 0.0
  else
    let q = quartiles values in
    let med = median values in
    if med = 0.0 then 0.0 else (q.(2) -. q.(0)) /. Float.abs med

type declared = { name : string; better_higher : bool; bound : float option }

let read_declared path =
  let j = Json.parse (Json.read_file path) in
  let list key = Json.to_list (Option.value ~default:Json.Null (Json.member key j)) in
  let metric m =
    { name = Option.value ~default:"" (Option.bind (Json.member "name" m) Json.to_str);
      better_higher =
        Option.bind (Json.member "better" m) Json.to_str = Some "higher";
      bound = Option.bind (Json.member "bound" m) Json.to_float }
  in
  ( List.filter_map (fun w -> Option.bind (Json.member "name" w) Json.to_str) (list "workloads"),
    List.map metric (list "end_to_end") @ List.map metric (list "per_layer") )

(* (workload, metric) -> values, from a file of result lines. *)
let read_runs path =
  let table = Hashtbl.create 64 in
  String.split_on_char '\n' (Json.read_file path)
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           let j = Json.parse line in
           let workload = Option.value ~default:"" (Option.bind (Json.member "workload" j) Json.to_str) in
           match Json.member "metrics" j with
           | Some (Json.Obj kv) ->
             List.iter
               (fun (name, m) ->
                 match Option.bind (Json.member "value" m) Json.to_float with
                 | Some v ->
                   let key = (workload, name) in
                   Hashtbl.replace table key
                     (v :: Option.value ~default:[] (Hashtbl.find_opt table key))
                 | None -> ())
               kv
           | _ -> ()
         end);
  table

let setup_floor_s = 0.005

let verdict d a b =
  match d.bound with
  | None -> "-"
  | Some bound ->
    let ma = median a and mb = median b in
    let gain x y = if d.better_higher then y -. x else x -. y in
    let improvement = if ma = 0.0 then 0.0 else gain ma mb /. Float.abs ma in
    let allowed =
      if d.name = "setup_s" then Float.max bound (setup_floor_s /. Float.abs ma) else bound
    in
    let wide = Float.max (spread a) (spread b) in
    let all_better = List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.0) a) b in
    let all_worse = List.for_all (fun y -> List.for_all (fun x -> gain x y < 0.0) a) b in
    if wide > bound && not (all_better || all_worse) then "unresolved"
    else if -.improvement > allowed then "worse"
    else if improvement > wide && improvement > 0.0 then "better"
    else "same"

let describe values =
  let med = median values in
  if List.length values < 2 then Printf.sprintf "%.6g (1 run)" med
  else
    let q = quartiles values in
    Printf.sprintf "%.6g [%.6g, %.6g] (%d runs)" med q.(0) q.(2) (List.length values)

let () =
  let path_a, path_b =
    match List.tl (Array.to_list Sys.argv) with
    | [ a; b ] -> (a, b)
    | _ ->
      prerr_endline "usage: compare.exe A.json B.json";
      exit 2
  in
  let workloads, metrics = read_declared "BENCHMARK.json" in
  let runs_a = read_runs path_a and runs_b = read_runs path_b in
  let worse = ref false in
  Printf.printf "%-15s %-36s %-44s %-44s %8s  %s\n" "workload" "metric" ("A: " ^ path_a)
    ("B: " ^ path_b) "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          match (Hashtbl.find_opt runs_a (w, d.name), Hashtbl.find_opt runs_b (w, d.name)) with
          | Some a, Some b ->
            let ma = median a and mb = median b in
            let change = if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma in
            let v = verdict d a b in
            if v = "worse" then worse := true;
            Printf.printf "%-15s %-36s %-44s %-44s %+7.1f%%  %s\n" w d.name (describe a)
              (describe b) change v
          | _ -> ())
        metrics)
    workloads;
  exit (if !worse then 1 else 0)
