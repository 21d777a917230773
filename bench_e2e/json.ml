(* Just enough JSON for the benchmark: reading BENCHMARK.json and result
   files, writing result lines and span dumps.  The repository has no JSON
   dependency and the benchmark adds none. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 > n then fail "short \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           Buffer.add_utf_8_uchar b (Uchar.of_int code)
         | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; members ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member key = function
  | Obj kv -> List.assoc_opt key kv
  | _ -> None

let to_list = function Arr l -> l | _ -> []

let to_float = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every digit the float carries: the values are measurements, and
   rounding would make distinct runs read alike. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> if Float.is_finite f then number f else "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kv)
    ^ "}"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
