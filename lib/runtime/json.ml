module Err = Ssta_error

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
  | Seq of t Seq.t

let int i = Number (float_of_int i)
let array f a =
  let rec from i () =
    if i = Array.length a then Seq.Nil else Seq.Cons (f a.(i), from (i + 1))
  in
  Seq (from 0)

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

(* --- numbers ------------------------------------------------------------

   Both writers append straight to the buffer and keep their scratch on
   the stack or in per-call blocks, so concurrent printers share only
   the read-only tables below. *)

(* "0000" to "9999", four characters each. *)
let digits4 =
  String.init 40_000 (fun i ->
      let n = i / 4 in
      let d =
        match i mod 4 with
        | 0 -> n / 1000
        | 1 -> n / 100
        | 2 -> n / 10
        | _ -> n
      in
      Char.unsafe_chr (48 + (d mod 10)))

(* Decimal digits of [n >= 0], most significant first, four at a time:
   the recursion holds the higher groups. *)
let rec add_uint b n =
  if n < 10_000 then
    let lead =
      if n >= 1000 then 0 else if n >= 100 then 1 else if n >= 10 then 2 else 3
    in
    Buffer.add_substring b digits4 ((4 * n) + lead) (4 - lead)
  else begin
    add_uint b (n / 10_000);
    Buffer.add_substring b digits4 (4 * (n mod 10_000)) 4
  end

let e16 = 10_000_000_000_000_000
let e17 = 10 * e16

(* [tens.(k + 50)] is the double nearest 10^k, for k in [-50, 19]. *)
let tens =
  Array.init 70 (fun k -> float_of_string (Printf.sprintf "1e%d" (k - 50)))

(* Exact naturals as little-endian arrays of 30-bit limbs (products of
   two limbs fit an OCaml int).  Eight limbs hold [m * 5^s] for a 53-bit
   [m] and [s <= 63]. *)
let limb_bits = 30
let limb_mask = (1 lsl limb_bits) - 1

(* [pow5.(s)] is 5^s, for s in [0, 63]. *)
let pow5 =
  let times5 l =
    let carry = ref 0 in
    let r =
      Array.map
        (fun d ->
          let t = (5 * d) + !carry in
          carry := t lsr limb_bits;
          t land limb_mask)
        l
    in
    if !carry > 0 then Array.append r [| !carry |] else r
  in
  let t = Array.make 64 [| 1 |] in
  for s = 1 to 63 do
    t.(s) <- times5 t.(s - 1)
  done;
  t

(* [p * m] for [0 <= m < 2^60], in eight limbs. *)
let mul_small p m =
  let n = Array.length p in
  let m0 = m land limb_mask and m1 = m lsr limb_bits in
  let r = [| 0; 0; 0; 0; 0; 0; 0; 0 |] in
  let carry = ref 0 in
  for i = 0 to n + 1 do
    let lo = if i < n then p.(i) * m0 else 0 in
    let hi = if i >= 1 && i <= n then p.(i - 1) * m1 else 0 in
    let t = lo + hi + !carry in
    r.(i) <- t land limb_mask;
    carry := t lsr limb_bits
  done;
  r

(* [floor (r / 2^k)], provided it is below 2^60 (so every limb above
   [k / 30 + 2] is 0) and [k / 30 + 2] indexes [r]. *)
let shift_right r k =
  let li = k / limb_bits and bo = k mod limb_bits in
  (r.(li) lsr bo)
  lor (r.(li + 1) lsl (limb_bits - bo))
  lor (r.(li + 2) lsl ((2 * limb_bits) - bo))

let rec any_below r li = li > 0 && (r.(li - 1) <> 0 || any_below r (li - 1))

(* Whether [r / 2^k], whose floor is [i], rounds up to the nearest
   integer, ties to even ([k >= 1]): the half bit is set and either a
   lower bit is set or [i] is odd. *)
let rounds_up r k i =
  let li = (k - 1) / limb_bits and bo = (k - 1) mod limb_bits in
  let top = r.(li) in
  (top lsr bo) land 1 = 1
  && (i land 1 = 1 || top land ((1 lsl bo) - 1) <> 0 || any_below r li)

let zeros = String.make 17 '0'

(* The "%g" layout (precision 17) of [d * 10^(e10 - 16)] for a 17-digit
   [d]: fixed notation for -4 <= e10 < 17, exponent notation otherwise,
   trailing zeros and a bare point dropped. *)
let add_g b d e10 =
  let digits = Bytes.create 17 in
  let d = ref d in
  for i = 16 downto 0 do
    Bytes.unsafe_set digits i (Char.unsafe_chr (48 + (!d mod 10)));
    d := !d / 10
  done;
  let nd = ref 17 in
  while Bytes.get digits (!nd - 1) = '0' do
    decr nd
  done;
  let nd = !nd in
  if e10 >= -4 && e10 < 17 then
    if e10 < 0 then begin
      Buffer.add_string b "0.";
      Buffer.add_substring b zeros 0 (-e10 - 1);
      Buffer.add_subbytes b digits 0 nd
    end
    else if nd <= e10 + 1 then begin
      Buffer.add_subbytes b digits 0 nd;
      Buffer.add_substring b zeros 0 (e10 + 1 - nd)
    end
    else begin
      Buffer.add_subbytes b digits 0 (e10 + 1);
      Buffer.add_char b '.';
      Buffer.add_subbytes b digits (e10 + 1) (nd - e10 - 1)
    end
  else begin
    Buffer.add_char b (Bytes.get digits 0);
    if nd > 1 then begin
      Buffer.add_char b '.';
      Buffer.add_subbytes b digits 1 (nd - 1)
    end;
    Buffer.add_char b 'e';
    Buffer.add_char b (if e10 < 0 then '-' else '+');
    if abs e10 < 10 then Buffer.add_char b '0';
    add_uint b (abs e10)
  end

(* "%.17g" of [a] in [1e-44, 1e17): with [a = m * 2^e] and [E] its
   decimal exponent, the 17 significant digits are
   [m * 5^s * 2^(e + s)] for [s = 16 - E] (so [0 <= s <= 61]), rounded
   half-even — all in exact integer arithmetic.  [E] is first estimated
   from the binary exponent (floor (p * log10 2) = (p * 78913) asr 18)
   and a table compare; the digit count settles any off-by-one. *)
let add_exact b a =
  let bits = Int64.to_int (Int64.bits_of_float a) in
  let m = bits land 0xF_FFFF_FFFF_FFFF lor 0x10_0000_0000_0000 in
  let e = (bits lsr 52) - 1075 in
  let rec go e10 =
    let s = 16 - e10 in
    let r = mul_small pow5.(s) m in
    let q = e + s in
    let i = if q >= 0 then shift_right r 0 lsl q else shift_right r (-q) in
    if i < e16 then go (e10 - 1)
    else if i >= e17 then go (e10 + 1)
    else
      let d = if q < 0 && rounds_up r (-q) i then i + 1 else i in
      if d = e17 then add_g b e16 (e10 + 1) else add_g b d e10
  in
  let e10 = ((e + 52) * 78913) asr 18 in
  go (if a >= tens.(e10 + 51) then e10 + 1 else e10)

(* The C primitive behind [Printf.sprintf "%.17g"], for the magnitudes
   the exact writer leaves out. *)
external format_float : string -> float -> string = "caml_format_float"

let add_number b x =
  let a = Float.abs x in
  if Float.is_integer x && a < 0x1p53 && not (x = 0.0 && Float.sign_bit x)
  then begin
    if x < 0.0 then Buffer.add_char b '-';
    add_uint b (int_of_float a)
  end
  else if a >= 1e-44 && a < 1e17 then begin
    if x < 0.0 then Buffer.add_char b '-';
    add_exact b a
  end
  else if Float.is_finite x then Buffer.add_string b (format_float "%.17g" x)
  else Buffer.add_string b "null"

(* Arrays are where documents grow, so a channel writer empties its
   buffer between elements once it holds this many bytes. *)
let chunk = 65536

let spill oc b =
  match oc with
  | Some oc when Buffer.length b >= chunk ->
      Buffer.output_buffer oc b;
      Buffer.clear b
  | _ -> ()

let rec write oc b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Number x -> add_number b x
  | String s -> add_string b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri (element oc b) l;
      Buffer.add_char b ']'
  | Seq s ->
      Buffer.add_char b '[';
      Seq.iteri (element oc b) s;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          write oc b v)
        fields;
      Buffer.add_char b '}'
  | Raw s -> Buffer.add_string b s

and element oc b i v =
  if i > 0 then Buffer.add_char b ',';
  write oc b v;
  spill oc b

let to_string v =
  let b = Buffer.create 256 in
  write None b v;
  Buffer.contents b

let to_channel oc v =
  let b = Buffer.create chunk in
  write (Some oc) b v;
  Buffer.output_buffer oc b

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
  let byte k = Char.code s.[k] in
  let cont k = k < n && byte k land 0xC0 = 0x80 in
  let rec from i =
    if i >= n then None
    else if
      (* eight ASCII bytes at once *)
      i + 8 <= n
      && Int64.equal
           (Int64.logand (String.get_int64_le s i) 0x8080808080808080L)
           0L
    then from (i + 8)
    else
      let c = byte i in
      if c < 0x80 then from (i + 1)
      else if c < 0xC2 then Some i (* continuation or overlong lead *)
      else if c < 0xE0 then if cont (i + 1) then from (i + 2) else Some i
      else if c < 0xF0 then begin
        let b1_lo = if c = 0xE0 then 0xA0 else 0x80 in
        let b1_hi = if c = 0xED then 0x9F else 0xBF in
        if
          i + 2 < n
          && byte (i + 1) >= b1_lo
          && byte (i + 1) <= b1_hi
          && cont (i + 2)
        then from (i + 3)
        else Some i
      end
      else if c < 0xF5 then begin
        let b1_lo = if c = 0xF0 then 0x90 else 0x80 in
        let b1_hi = if c = 0xF4 then 0x8F else 0xBF in
        if
          i + 3 < n
          && byte (i + 1) >= b1_lo
          && byte (i + 1) <= b1_hi
          && cont (i + 2)
          && cont (i + 3)
        then from (i + 4)
        else Some i
      end
      else Some i
  in
  from 0

(* --- parsing ---------------------------------------------------------- *)

exception Fail of int * string (* byte offset, message *)

let max_depth = 64

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail off msg = raise (Fail (off, msg)) in
  (* The byte at the cursor, NUL past the end: every caller treats the
     two alike (a literal NUL is never valid outside a string, and
     [parse_value] tests for the end first). *)
  let peek () = if !pos < n then input.[!pos] else '\000' in
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
    (* Fast path: no escape and no control character before the closing
       quote, so the string is a slice of the input. *)
    let start = !pos in
    let rec plain i =
      if i < n && input.[i] <> '"' && input.[i] <> '\\' && input.[i] >= ' '
      then plain (i + 1)
      else i
    in
    let stop = plain start in
    if stop < n && input.[stop] = '"' then begin
      pos := stop + 1;
      String.sub input start (stop - start)
    end
    else
    let b = Buffer.create 16 in
    Buffer.add_substring b input start (stop - start);
    pos := stop;
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
  let digits () =
    let d0 = !pos in
    while !pos < n && input.[!pos] >= '0' && input.[!pos] <= '9' do
      incr pos
    done;
    if !pos = d0 then fail !pos "expected digit"
  in
  let parse_number () =
    let start = !pos in
    let negative = peek () = '-' in
    if negative then incr pos;
    let int_start = !pos in
    (match peek () with
    | '0' -> incr pos
    | '1' .. '9' -> digits ()
    | _ -> fail !pos "expected digit");
    let int_stop = !pos in
    if peek () = '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | 'e' | 'E' ->
        incr pos;
        (match peek () with '+' | '-' -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    (* Up to 15 digits and nothing after them: an integer that the
       float holds exactly, which is what strtod would return. *)
    if !pos = int_stop && int_stop - int_start <= 15 then begin
      let v = ref 0 in
      for k = int_start to int_stop - 1 do
        v := (!v * 10) + (Char.code input.[k] - 48)
      done;
      let x = float_of_int !v in
      if negative then -.x else x
    end
    else
      match float_of_string_opt (String.sub input start (!pos - start)) with
      | Some x -> x
      | None -> fail start "unparsable number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    skip_ws ();
    if !pos >= n then fail !pos "unexpected end of input";
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let key_off = !pos in
            let k = parse_string () in
            if List.exists (fun (k', _) -> String.equal k k') !fields then
              fail key_off (Printf.sprintf "duplicate key %S" k);
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                fields_loop ()
            | '}' -> incr pos
            | _ -> fail !pos "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
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
            | ',' ->
                incr pos;
                items_loop ()
            | ']' -> incr pos
            | _ -> fail !pos "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Number (parse_number ())
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
