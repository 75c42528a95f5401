(* A minimal JSON value type with a printer and a total parser — just
   enough for hubbench result files and the one-line run summary. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* The shortest decimal form that reads back as the same float, so a
   measured value keeps all of its digits and no more. *)
let num_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_string j =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s -> escape b s
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ", ";
            go x)
          l;
        Buffer.add_char b ']'
    | Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b ", ";
            escape b k;
            Buffer.add_string b ": ";
            go x)
          l;
        Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then begin
      incr pos;
      skip_ws ()
    end
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let add_utf8 b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
    end
  in
  let str () =
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
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code -> add_utf8 b code
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
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
            let k = str () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; members ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; elements (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) -> Error (Printf.sprintf "byte %d: %s" p msg)

(* Accessors raise [Failure] naming the missing key; callers turn that
   into an error for the whole file. *)
let member k = function
  | Obj l -> (
      match List.assoc_opt k l with
      | Some v -> v
      | None -> failwith ("missing key " ^ k))
  | _ -> failwith ("not an object looking up " ^ k)

let to_float = function Num f -> f | _ -> failwith "expected a number"
let to_int j = int_of_float (to_float j)
let to_bool = function Bool b -> b | _ -> failwith "expected a boolean"
let to_str = function Str s -> s | _ -> failwith "expected a string"
let to_list = function Arr l -> l | _ -> failwith "expected an array"
