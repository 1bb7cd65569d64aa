module Err = Ssta_error

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let int i = Number (float_of_int i)

(* --- printing --------------------------------------------------------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Fast path: most strings (node names, rule ids, field keys) have
   nothing to escape and go into the buffer in one copy. *)
let add_string b s =
  Buffer.add_char b '"';
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
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

(* The C primitive behind [Printf.sprintf "%.17g"] (and behind
   [string_of_float]), called directly: same bytes, without building the
   format on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Fast path: an exact integer below 2^53 (not -0) prints the same
   digits under [string_of_int] as under "%.17g".  Path node ids, counts
   and most config fields take it. *)
let add_number b x =
  if
    Float.is_integer x
    && Float.abs x < 0x1p53
    && not (x = 0.0 && Float.sign_bit x)
  then Buffer.add_string b (string_of_int (int_of_float x))
  else if Float.is_finite x then Buffer.add_string b (format_float "%.17g" x)
  else Buffer.add_string b "null"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Number x -> add_number b x
  | String s -> add_string b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'
  | Raw s -> Buffer.add_string b s

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- accessors -------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let keys = function Obj fields -> List.map fst fields | _ -> []

let to_int = function
  | Number x
    when Float.is_integer x
         && Float.abs x <= 9.007199254740992e15 (* 2^53 *) ->
      Some (int_of_float x)
  | _ -> None

let to_float = function Number x -> Some x | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None

(* --- UTF-8 validation ------------------------------------------------- *)

(* Returns the byte offset of the first invalid sequence, if any.
   Standard table: no overlongs, no surrogates, max U+10FFFF. *)
let utf8_error s =
  let n = String.length s in
  let err = ref None in
  let i = ref 0 in
  let byte k = Char.code s.[k] in
  let cont k = k < n && byte k land 0xC0 = 0x80 in
  while !err = None && !i < n do
    let c = byte !i in
    if c < 0x80 then incr i
    else if c < 0xC2 then err := Some !i (* continuation or overlong lead *)
    else if c < 0xE0 then
      if cont (!i + 1) then i := !i + 2 else err := Some !i
    else if c < 0xF0 then begin
      let b1_lo = if c = 0xE0 then 0xA0 else 0x80 in
      let b1_hi = if c = 0xED then 0x9F else 0xBF in
      if
        !i + 2 < n
        && byte (!i + 1) >= b1_lo
        && byte (!i + 1) <= b1_hi
        && cont (!i + 2)
      then i := !i + 3
      else err := Some !i
    end
    else if c < 0xF5 then begin
      let b1_lo = if c = 0xF0 then 0x90 else 0x80 in
      let b1_hi = if c = 0xF4 then 0x8F else 0xBF in
      if
        !i + 3 < n
        && byte (!i + 1) >= b1_lo
        && byte (!i + 1) <= b1_hi
        && cont (!i + 2)
        && cont (!i + 3)
      then i := !i + 4
      else err := Some !i
    end
    else err := Some !i
  done;
  !err

(* --- parsing ---------------------------------------------------------- *)

exception Fail of int * string (* byte offset, message *)

let max_depth = 64

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail off msg = raise (Fail (off, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && input.[!pos] = c then incr pos
    else fail !pos (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = ref 0 in
    for k = !pos to !pos + 3 do
      let d =
        match input.[k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail k "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail !pos "unterminated string";
      match input.[!pos] with
      | '"' ->
          incr pos;
          Buffer.contents b
      | '\\' ->
          incr pos;
          if !pos >= n then fail !pos "unterminated escape";
          let c = input.[!pos] in
          incr pos;
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let cp = hex4 () in
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                (* high surrogate: a \uXXXX low surrogate must follow *)
                if
                  !pos + 2 <= n
                  && input.[!pos] = '\\'
                  && input.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    add_utf8 b
                      (0x10000
                      + ((cp - 0xD800) lsl 10)
                      + (lo - 0xDC00))
                  else fail (!pos - 4) "invalid low surrogate"
                end
                else fail !pos "lone high surrogate"
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                fail (!pos - 4) "lone low surrogate"
              else add_utf8 b cp
          | _ -> fail (!pos - 1) "invalid escape character");
          loop ()
      | c when Char.code c < 0x20 ->
          fail !pos "raw control character in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && input.[!pos] >= '0' && input.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d0 then fail !pos "expected digit"
    in
    (match peek () with
    | Some '0' -> incr pos
    | Some c when c >= '1' && c <= '9' -> digits ()
    | _ -> fail !pos "expected digit");
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub input start (!pos - start)) with
    | Some x -> x
    | None -> fail start "unparsable number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let key_off = !pos in
            let k = parse_string () in
            if List.mem_assoc k !fields then
              fail key_off (Printf.sprintf "duplicate key %S" k);
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields_loop ()
            | Some '}' -> incr pos
            | _ -> fail !pos "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items_loop ()
            | Some ']' -> incr pos
            | _ -> fail !pos "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Number (parse_number ())
  in
  let error off msg =
    (* Requests are single lines; report a 1-based column on line 1. *)
    Error (Err.parse ~line:1 ~col:(off + 1) ~format:"json" msg)
  in
  match utf8_error input with
  | Some off -> error off "invalid UTF-8 byte sequence"
  | None -> (
      try
        let v = parse_value 0 in
        skip_ws ();
        if !pos < n then error !pos "trailing garbage after JSON value"
        else Ok v
      with Fail (off, msg) -> error off msg)
