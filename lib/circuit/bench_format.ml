module Gate = Ssta_tech.Gate
module Err = Ssta_runtime.Ssta_error

exception Parse_error of Err.position * string

let fail line msg =
  raise (Parse_error (Err.position ~line (), msg))

(* Failure at a specific token: recover the column from the raw line. *)
let fail_tok line line_text token msg =
  raise (Parse_error (Err.position_of_token ~line ~line_text token, msg))

let is_ident_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '[' || ch = ']' || ch = '.' || ch = '-'

(* [String.trim]'s whitespace. *)
let is_space ch =
  ch = ' ' || ch = '\012' || ch = '\n' || ch = '\r' || ch = '\t'

(* A growable int array. *)
type vec = { mutable data : int array; mutable len : int }

let vec () = { data = Array.make 64 0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

(* What the line pass keeps: names as builder symbols, everything else
   as offsets into the text.  Definition [d] is target [def_target.(d)]
   = head [def_head.(2d), def_head.(2d+1)) applied to the symbols
   [args.(def_args.(d)) .. args.(def_args.(d+1) - 1)]. *)
type lines = {
  inputs : vec;
  outputs : vec;
  def_target : vec;
  def_head : vec;
  def_args : vec;
  args : vec;
  spans : vec;  (* scratch: the argument ranges of the current line *)
}

let rec upto s ch x y =
  if x < y && String.unsafe_get s x <> ch then upto s ch (x + 1) y else x

let rec ltrim s x y =
  if x < y && is_space (String.unsafe_get s x) then ltrim s (x + 1) y else x

let rec rtrim s x y =
  if y > x && is_space (String.unsafe_get s (y - 1)) then rtrim s x (y - 1)
  else y

let sub s x y = String.sub s x (y - x)

let check_ident (cur : Scan.t) x y =
  let s = cur.Scan.text in
  if x = y then fail cur.Scan.line "empty identifier";
  for k = x to y - 1 do
    let ch = String.unsafe_get s k in
    if not (is_ident_char ch) then begin
      let id = sub s x y in
      fail_tok cur.Scan.line (Scan.line_text cur) id
        (Printf.sprintf "invalid character %C in identifier %S" ch id)
    end
  done

(* "HEAD(arg1, arg2, ...)" in [x, y): returns the paren's offset and
   leaves each argument's trimmed range in [st.spans]. *)
let call st (cur : Scan.t) x y =
  let s = cur.Scan.text in
  let paren = upto s '(' x y in
  if paren = y then
    fail_tok cur.Scan.line (Scan.line_text cur) (sub s x y)
      ("expected a parenthesized form: " ^ sub s x y);
  if s.[y - 1] <> ')' then
    fail_tok cur.Scan.line (Scan.line_text cur) (sub s x y)
      ("missing closing parenthesis: " ^ sub s x y);
  st.spans.len <- 0;
  let close = y - 1 in
  if ltrim s (paren + 1) close < close then begin
    let x = ref (paren + 1) and more = ref true in
    while !more do
      let comma = upto s ',' !x close in
      let a = ltrim s !x comma in
      push st.spans a;
      push st.spans (rtrim s a comma);
      more := comma < close;
      x := comma + 1
    done
  end;
  paren

(* One line of the file, checked in the order (and with the messages
   and positions) of the line grammar:
     [# comment] | INPUT(sig) | OUTPUT(sig) | target = HEAD(sig, ...)
   where each piece is trimmed as [String.trim] would trim it. *)
let scan_line b st (cur : Scan.t) =
  let s = cur.Scan.text in
  let cut = upto s '#' cur.Scan.line_start cur.Scan.line_end in
  let x = ltrim s cur.Scan.line_start cut in
  let y = rtrim s x cut in
  if x < y then begin
    let eq = upto s '=' x y in
    if eq < y then begin
      let tx = ltrim s x eq in
      let ty = rtrim s tx eq in
      check_ident cur tx ty;
      let rx = ltrim s (eq + 1) y in
      let paren = call st cur rx y in
      let nargs = st.spans.len / 2 in
      if nargs = 0 then
        fail cur.Scan.line ("gate with no operands: " ^ sub s x y);
      for k = 0 to nargs - 1 do
        check_ident cur st.spans.data.(2 * k) st.spans.data.((2 * k) + 1)
      done;
      push st.def_target (Netlist.Builder.symbol b s tx (ty - tx));
      let hx = ltrim s rx paren in
      push st.def_head hx;
      push st.def_head (rtrim s hx paren);
      push st.def_args st.args.len;
      for k = 0 to nargs - 1 do
        let a = st.spans.data.(2 * k) in
        push st.args
          (Netlist.Builder.symbol b s a (st.spans.data.((2 * k) + 1) - a))
      done
    end
    else begin
      let paren = call st cur x y in
      if st.spans.len <> 2 then
        fail cur.Scan.line ("expected a single signal: " ^ sub s x y);
      let ax = st.spans.data.(0) and ay = st.spans.data.(1) in
      check_ident cur ax ay;
      let hx = ltrim s x paren in
      let head = sub s hx (rtrim s hx paren) in
      let target =
        match String.uppercase_ascii head with
        | "INPUT" -> st.inputs
        | "OUTPUT" -> st.outputs
        | _ ->
            fail_tok cur.Scan.line (Scan.line_text cur) head
              ("unknown directive: " ^ head)
      in
      push target (Netlist.Builder.symbol b s ax (ay - ax))
    end
  end

(* Two passes.  The line pass checks every line in file order and
   interns each name it reads in the builder's name index — the index
   the netlist keeps.  The resolution pass then works on symbols only:
   inputs first, then every definition in file order, depth first
   through its operands (forward references are allowed), then the
   outputs. *)
let parse_string ?(name = "bench") text =
  let b = Netlist.Builder.create name in
  let st =
    { inputs = vec (); outputs = vec (); def_target = vec ();
      def_head = vec (); def_args = vec (); args = vec (); spans = vec () }
  in
  let cur = Scan.of_string text in
  while Scan.next_line cur do
    scan_line b st cur
  done;
  push st.def_args st.args.len;
  let sym_name = Netlist.Builder.symbol_name b in
  let nsyms = Netlist.Builder.num_symbols b in
  let def_of = Array.make nsyms (-1) in
  for d = 0 to st.def_target.len - 1 do
    let target = st.def_target.data.(d) in
    if def_of.(target) >= 0 then
      fail 0 ("signal defined twice: " ^ sym_name target);
    def_of.(target) <- d
  done;
  for k = 0 to st.inputs.len - 1 do
    ignore (Netlist.Builder.add_input_symbol b st.inputs.data.(k))
  done;
  let visiting = Bytes.make nsyms '\000' in
  let rec resolve sym =
    let id = Netlist.Builder.symbol_node b sym in
    if id >= 0 then id
    else begin
      if Bytes.get visiting sym <> '\000' then
        fail 0 ("combinational cycle through signal " ^ sym_name sym);
      Bytes.set visiting sym '\001';
      let d = def_of.(sym) in
      if d < 0 then fail 0 ("undefined signal: " ^ sym_name sym);
      let a0 = st.def_args.data.(d) in
      let n = st.def_args.data.(d + 1) - a0 in
      let fanins = Array.make n 0 in
      for k = 0 to n - 1 do
        fanins.(k) <- resolve st.args.data.(a0 + k)
      done;
      let hx = st.def_head.data.(2 * d) in
      let head = String.sub text hx (st.def_head.data.((2 * d) + 1) - hx) in
      let kind =
        match Gate.of_name head n with
        | Some k -> k
        | None ->
            fail 0
              (Printf.sprintf "unknown gate %s/%d defining %s" head n
                 (sym_name sym))
      in
      let id = Netlist.Builder.add_gate_symbol b sym kind fanins in
      Bytes.set visiting sym '\000';
      id
    end
  in
  for d = 0 to st.def_target.len - 1 do
    ignore (resolve st.def_target.data.(d))
  done;
  for k = 0 to st.outputs.len - 1 do
    let sym = st.outputs.data.(k) in
    match Netlist.Builder.symbol_node b sym with
    | -1 -> fail 0 ("OUTPUT references undefined signal: " ^ sym_name sym)
    | id -> Netlist.Builder.mark_output b id
  done;
  try Netlist.Builder.finish b
  with Invalid_argument msg -> fail 0 msg

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let name = Filename.remove_extension (Filename.basename path) in
  try parse_string ~name text
  with Parse_error (pos, msg) ->
    raise (Parse_error (Err.with_file pos path, msg))

let parse_string_res ?name text =
  match parse_string ?name text with
  | c -> Ok c
  | exception Parse_error (pos, msg) ->
      Error (Err.parse_at ~pos ~format:"bench" msg)
  | exception exn -> Error (Err.of_exn ~context:"Bench_format.parse" exn)

let parse_file_res path =
  match parse_file path with
  | c -> Ok c
  | exception Parse_error (pos, msg) ->
      Error (Err.parse_at ~pos ~format:"bench" msg)
  | exception Sys_error msg ->
      Error (Err.parse ~file:path ~format:"bench" msg)
  | exception exn -> Error (Err.of_exn ~context:"Bench_format.parse" exn)

let to_string (c : Netlist.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" c.Netlist.name);
  for i = 0 to c.Netlist.num_inputs - 1 do
    Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (Netlist.node_name c i))
  done;
  Array.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "OUTPUT(%s)\n" (Netlist.node_name c o)))
    c.Netlist.outputs;
  Array.iter
    (fun (g : Netlist.gate) ->
      let operands =
        g.Netlist.fanins |> Array.to_list
        |> List.map (Netlist.node_name c)
        |> String.concat ", "
      in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n"
           (Netlist.node_name c g.Netlist.id)
           (Gate.name g.Netlist.kind) operands))
    c.Netlist.gates;
  Buffer.contents buf

let write_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
