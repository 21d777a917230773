(* The benchmark's own span recorder.  Spans are taken around calls into
   the library's public functions, never inside the library, and kept in
   memory until the run ends.  Campaign runs record from pool worker
   domains, hence the lock; the fleet and replay loops record a handful
   of spans per request, so the lock is never contended there. *)

type span = {
  id : int;
  name : string;
  parent : int;   (* -1 for a request's root span *)
  request : int;  (* batch, replay or run index *)
  start_ns : int;
  end_ns : int;
}

let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 0

let fresh () = Atomic.fetch_and_add next_id 1

let add ~id ~name ~parent ~request ~start_ns ~end_ns =
  let s = { id; name; parent; request; start_ns; end_ns } in
  Mutex.protect lock (fun () -> recorded := s :: !recorded)

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let reset () = Mutex.protect lock (fun () -> recorded := [])

(* A span's self time is its duration minus the time its children cover.
   Children of one parent never overlap (the layers of a request run back
   to back), so the cover is the sum of their durations. *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((s.end_ns - s.start_ns)
          + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.end_ns - s.start_ns
        - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
      in
      Hashtbl.replace by_name s.name
        (self + Option.value ~default:0 (Hashtbl.find_opt by_name s.name)))
    spans;
  by_name

(* Share of the requests' wall time that the layer spans account for: the
   layers' self times over the root spans' durations. *)
let coverage spans =
  let roots = ref 0 and layers = ref 0 in
  let self = self_times spans in
  let root_names = Hashtbl.create 4 in
  List.iter
    (fun s ->
      if s.parent < 0 then begin
        roots := !roots + (s.end_ns - s.start_ns);
        Hashtbl.replace root_names s.name ()
      end)
    spans;
  Hashtbl.iter
    (fun name ns -> if not (Hashtbl.mem root_names name) then layers := !layers + ns)
    self;
  if !roots = 0 then 0.0 else float_of_int !layers /. float_of_int !roots

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"request\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
            (if i = 0 then " " else ",")
            s.id (Json.escape s.name) s.parent s.request s.start_ns s.end_ns)
        spans;
      output_string oc "]\n")
