(* bench-diff — the perf-trajectory regression gate.

   Loads two BENCH_*.json files (the committed trajectory and a fresh
   run), joins their benchmark rows by id, reports the current/baseline
   ratio per metric, and exits non-zero when any gated metric moved
   past the threshold in its bad direction: a regression like the one
   PR 6's stack-overflow fix caught by luck fails CI instead of
   sailing through.

   Rows come from the top-level "rows" array (the ufp-bench-pr8/1,
   pr9/1 and pr10/1 schemas), which is self-describing:
   {"id": ..., "value": ..., "better": "lower"|"higher", ...}; a row
   with any other "better" is informational, reported but never gated.
   Every other top-level field is ignored, so a document without a
   "rows" array joins nothing and exits 2. The provenance stamp — git
   rev, OCaml version, core count — is printed for context.

   Usage: bench-diff [--threshold R] BASELINE.json CURRENT.json
     --threshold R   gate at ratio > 1+R (lower-better) or
                     < 1/(1+R) (higher-better); default 0.25.

   Exit 0: all gated metrics within threshold.
   Exit 1: at least one regression.
   Exit 2: usage/parse error, or no gated metric joined (a silent
           no-op gate would be worse than none).

   Self-contained (no JSON library), in the spirit of
   bin/trace_check.ml. *)

exception Bad of string

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* --- parser (recursive descent over the whole file) --- *)

type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let advance c = c.i <- c.i + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance c;
      true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> raise (Bad (Printf.sprintf "expected %c, found %c" ch x))
  | None -> raise (Bad (Printf.sprintf "expected %c, found end of input" ch))

let literal c word value =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    value
  end
  else raise (Bad (Printf.sprintf "bad literal (expected %s)" word))

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some ('"' | '\\' | '/') -> Buffer.add_char buf c.s.[c.i]
      | Some 'u' ->
        if c.i + 4 >= String.length c.s then raise (Bad "truncated \\u escape");
        Buffer.add_string buf ("\\u" ^ String.sub c.s (c.i + 1) 4);
        c.i <- c.i + 4
      | _ -> raise (Bad "bad escape"));
      advance c;
      loop ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.i in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> numchar ch | None -> false) do
    advance c
  done;
  let lit = String.sub c.s start (c.i - start) in
  match float_of_string_opt lit with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "bad number %S" lit))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' -> parse_obj c
  | Some '[' -> parse_list c
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> raise (Bad (Printf.sprintf "unexpected character %c" ch))
  | None -> raise (Bad "unexpected end of input")

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then begin
    advance c;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec loop () =
      skip_ws c;
      let key = parse_string c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      fields := (key, v) :: !fields;
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        loop ()
      | Some '}' -> advance c
      | _ -> raise (Bad "expected , or } in object")
    in
    loop ();
    Obj (List.rev !fields)
  end

and parse_list c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then begin
    advance c;
    List []
  end
  else begin
    let items = ref [] in
    let rec loop () =
      let v = parse_value c in
      items := v :: !items;
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        loop ()
      | Some ']' -> advance c
      | _ -> raise (Bad "expected , or ] in array")
    in
    loop ();
    List (List.rev !items)
  end

let parse_file path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "bench-diff: %s\n" msg;
      exit 2
  in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let c = { s; i = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.i <> String.length s then raise (Bad "trailing garbage after value");
  v

(* --- row extraction --- *)

type direction = Lower | Higher | Info

type row = { r_id : string; r_dir : direction; r_value : float }

let direction_of = function
  | Some "lower" -> Lower
  | Some "higher" -> Higher
  | _ -> Info

let fields = function Obj f -> f | _ -> []

let str_field o key =
  match List.assoc_opt key (fields o) with Some (Str s) -> Some s | _ -> None

let num_field o key =
  match List.assoc_opt key (fields o) with Some (Num v) -> Some v | _ -> None

let extract_rows doc =
  match List.assoc_opt "rows" (fields doc) with
  | Some (List items) ->
    List.filter_map
      (fun item ->
        match (str_field item "id", num_field item "value") with
        | Some id, Some v ->
          Some
            {
              r_id = id;
              r_dir = direction_of (str_field item "better");
              r_value = v;
            }
        | _ -> None)
      items
  | _ -> []

let provenance_line doc =
  match List.assoc_opt "provenance" (fields doc) with
  | Some p ->
    let part key =
      match List.assoc_opt key (fields p) with
      | Some (Str s) -> Printf.sprintf "%s=%s" key s
      | Some (Num n) when Float.is_integer n ->
        Printf.sprintf "%s=%d" key (int_of_float n)
      | _ -> ""
    in
    String.concat " "
      (List.filter
         (fun s -> s <> "")
         [ part "git_rev"; part "ocaml_version"; part "recommended_domains" ])
  | None -> "(no provenance stamp)"

(* --- the gate --- *)

let () =
  let threshold = ref 0.25 in
  let paths = ref [] in
  let rec parse_args = function
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0.0 ->
        threshold := t;
        parse_args rest
      | _ ->
        prerr_endline "bench-diff: --threshold expects a positive number";
        exit 2)
    | arg :: rest ->
      paths := arg :: !paths;
      parse_args rest
    | [] -> ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let load path =
    try parse_file path
    with Bad msg ->
      Printf.eprintf "bench-diff: %s: %s\n" path msg;
      exit 2
  in
  let base_path, cur_path =
    match List.rev !paths with
    | [ b; c ] -> (b, c)
    | _ ->
      prerr_endline "usage: bench-diff [--threshold R] BASELINE.json CURRENT.json";
      exit 2
  in
  let base_doc = load base_path and cur_doc = load cur_path in
  let base_rows = extract_rows base_doc and cur_rows = extract_rows cur_doc in
  Printf.printf "baseline: %s  %s\n" base_path (provenance_line base_doc);
  Printf.printf "current : %s  %s\n" cur_path (provenance_line cur_doc);
  Printf.printf "threshold: %.2fx\n\n" (1.0 +. !threshold);
  Printf.printf "%-58s %14s %14s %8s  %s\n" "benchmark" "baseline" "current"
    "ratio" "verdict";
  let regressions = ref 0 in
  let gated = ref 0 in
  let joined = ref 0 in
  List.iter
    (fun cur ->
      match List.find_opt (fun b -> b.r_id = cur.r_id) base_rows with
      | None -> ()
      | Some base ->
        incr joined;
        let ratio =
          if base.r_value = 0.0 then
            if cur.r_value = 0.0 then 1.0 else infinity
          else cur.r_value /. base.r_value
        in
        let verdict =
          match cur.r_dir with
          | Info -> "info"
          | Lower | Higher ->
            incr gated;
            let bad =
              match cur.r_dir with
              | Lower -> ratio > 1.0 +. !threshold
              | Higher -> ratio < 1.0 /. (1.0 +. !threshold)
              | Info -> false
            in
            if bad then begin
              incr regressions;
              "REGRESSED"
            end
            else "ok"
        in
        Printf.printf "%-58s %14.6g %14.6g %8.3f  %s\n" cur.r_id base.r_value
          cur.r_value ratio verdict)
    cur_rows;
  let unmatched_cur =
    List.filter
      (fun c -> not (List.exists (fun b -> b.r_id = c.r_id) base_rows))
      cur_rows
  in
  let unmatched_base =
    List.filter
      (fun b -> not (List.exists (fun c -> c.r_id = b.r_id) cur_rows))
      base_rows
  in
  if unmatched_cur <> [] then
    Printf.printf "\n%d current row(s) not in the baseline (new benchmarks?):\n%s\n"
      (List.length unmatched_cur)
      (String.concat "\n"
         (List.map (fun r -> "  + " ^ r.r_id) unmatched_cur));
  if unmatched_base <> [] then
    Printf.printf "\n%d baseline row(s) missing from the current run:\n%s\n"
      (List.length unmatched_base)
      (String.concat "\n"
         (List.map (fun r -> "  - " ^ r.r_id) unmatched_base));
  if !gated = 0 then begin
    Printf.eprintf
      "bench-diff: no gated metric joined (%d rows matched) — disjoint \
       schemas?\n"
      !joined;
    exit 2
  end;
  Printf.printf "\n%d metrics joined, %d gated, %d regressed\n" !joined !gated
    !regressions;
  if !regressions > 0 then exit 1
