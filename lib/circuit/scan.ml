type t = {
  text : string;
  mutable line : int;
  mutable line_start : int;
  mutable line_end : int;
  mutable pos : int;
  mutable tok_start : int;
  mutable tok_end : int;
}

let of_string text =
  { text; line = 0; line_start = 0; line_end = -1; pos = 0; tok_start = 0;
    tok_end = 0 }

let next_line t =
  let len = String.length t.text in
  if t.line_end >= len then false
  else begin
    let start = t.line_end + 1 in
    let i = ref start in
    while !i < len && String.unsafe_get t.text !i <> '\n' do incr i done;
    t.line <- t.line + 1;
    t.line_start <- start;
    t.line_end <- !i;
    t.pos <- start;
    t.tok_start <- start;
    t.tok_end <- start;
    true
  end

let seek t pos =
  if pos < t.line_start || pos > t.line_end then
    invalid_arg "Scan.seek: outside the current line";
  t.pos <- pos

let line_text t = String.sub t.text t.line_start (t.line_end - t.line_start)

let is_blank c = c = ' ' || c = '\t'

let next_token t =
  let s = t.text and stop = t.line_end in
  let i = ref t.pos in
  while !i < stop && is_blank (String.unsafe_get s !i) do incr i done;
  if !i >= stop then begin
    t.pos <- stop;
    false
  end
  else begin
    t.tok_start <- !i;
    while !i < stop && not (is_blank (String.unsafe_get s !i)) do incr i done;
    t.tok_end <- !i;
    t.pos <- !i;
    true
  end

let token_is t lit =
  let n = String.length lit in
  t.tok_end - t.tok_start = n
  &&
  let k = ref 0 in
  while
    !k < n
    && Char.equal (String.unsafe_get t.text (t.tok_start + !k))
         (String.unsafe_get lit !k)
  do
    incr k
  done;
  !k = n

let token t = String.sub t.text t.tok_start (t.tok_end - t.tok_start)

let token_position t =
  Ssta_runtime.Ssta_error.position_of_token ~line:t.line
    ~line_text:(line_text t) (token t)

exception Not_a_number

(* Powers of ten that are exact doubles. *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let two53 = 1 lsl 53

exception Slow

let is_digit c = c >= '0' && c <= '9'

(* [sign] digits [. digits] [(e|E) [sign] digits] with at least one
   mantissa digit, the mantissa below 2^53 and the decimal exponent
   within +-22: then [m * 10^e] (or [m / 10^-e]) is a single correctly
   rounded operation on exact operands — strtod's answer (Clinger's
   fast path).  Anything else raises [Slow]. *)
let fast_float s a b =
  let i = ref a in
  let neg =
    if !i < b && String.unsafe_get s !i = '-' then (incr i; true)
    else begin
      if !i < b && String.unsafe_get s !i = '+' then incr i;
      false
    end
  in
  let mant = ref 0 and digits = ref 0 and scale = ref 0 in
  let frac = ref false and scanning = ref true in
  while !scanning && !i < b do
    let c = String.unsafe_get s !i in
    if is_digit c then begin
      let m = (!mant * 10) + (Char.code c - 48) in
      if m >= two53 then raise Slow;
      mant := m;
      incr digits;
      if !frac then decr scale;
      incr i
    end
    else if c = '.' && not !frac then begin
      frac := true;
      incr i
    end
    else scanning := false
  done;
  if !digits = 0 then raise Slow;
  if !i < b && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E')
  then begin
    incr i;
    let eneg =
      if !i < b && String.unsafe_get s !i = '-' then (incr i; true)
      else begin
        if !i < b && String.unsafe_get s !i = '+' then incr i;
        false
      end
    in
    let e = ref 0 and edigits = ref 0 in
    while !i < b && is_digit (String.unsafe_get s !i) do
      if !e > 1000 then raise Slow;
      e := (!e * 10) + (Char.code (String.unsafe_get s !i) - 48);
      incr edigits;
      incr i
    done;
    if !edigits = 0 then raise Slow;
    scale := !scale + if eneg then - !e else !e
  end;
  if !i <> b || !scale > 22 || !scale < -22 then raise Slow;
  let m = float_of_int !mant in
  let v =
    if !scale >= 0 then m *. Array.unsafe_get pow10 !scale
    else m /. Array.unsafe_get pow10 (- !scale)
  in
  if neg then -.v else v

let float_of_sub s a b =
  try fast_float s a b
  with Slow -> (
    match float_of_string_opt (String.sub s a (b - a)) with
    | Some f -> f
    | None -> raise Not_a_number)

let float_token t = float_of_sub t.text t.tok_start t.tok_end

(* Up to 18 decimal digits, optionally negated, cannot overflow. *)
let int_token t =
  let s = t.text and a = t.tok_start and b = t.tok_end in
  let i = ref a in
  let neg = !i < b && String.unsafe_get s !i = '-' in
  if neg then incr i;
  let n = b - !i in
  if n >= 1 && n <= 18
     && (let ok = ref true in
         for k = !i to b - 1 do
           if not (is_digit (String.unsafe_get s k)) then ok := false
         done;
         !ok)
  then begin
    let v = ref 0 in
    for k = !i to b - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get s k) - 48)
    done;
    if neg then - !v else !v
  end
  else
    match int_of_string_opt (String.sub s a (b - a)) with
    | Some v -> v
    | None -> raise Not_a_number
