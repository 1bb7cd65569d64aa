module Gate = Ssta_tech.Gate
module B = Netlist.Builder
module Err = Ssta_runtime.Ssta_error

exception Parse_error of Err.position * string

let failp pos msg = raise (Parse_error (pos, msg))
let fail0 msg = failp Err.no_position msg

(* ----- lexer ----- *)

type token =
  | Ident of string
  | LParen
  | RParen
  | Comma
  | Semicolon
  | Keyword of string

let keywords = [ "module"; "endmodule"; "input"; "output"; "wire" ]

let is_ident_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || ch = '\\'

let is_ident_char ch =
  is_ident_start ch || (ch >= '0' && ch <= '9') || ch = '[' || ch = ']'
  || ch = '.' || ch = '$'

let tokenize text =
  let tokens = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  let n = String.length text in
  let i = ref 0 in
  let pos_at off = Err.position ~line:!line ~col:(off - !bol + 1) () in
  let push ?(off = !i) t = tokens := (t, pos_at off) :: !tokens in
  let lex_fail msg = failp (pos_at !i) msg in
  while !i < n do
    let ch = text.[!i] in
    if ch = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if ch = ' ' || ch = '\t' || ch = '\r' then incr i
    else if ch = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if ch = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while !i + 1 < n && not !closed do
        if text.[!i] = '*' && text.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else begin
          if text.[!i] = '\n' then begin
            incr line;
            bol := !i + 1
          end;
          incr i
        end
      done;
      if not !closed then lex_fail "unterminated block comment"
    end
    else if ch = '(' then (push LParen; incr i)
    else if ch = ')' then (push RParen; incr i)
    else if ch = ',' then (push Comma; incr i)
    else if ch = ';' then (push Semicolon; incr i)
    else if ch = '\\' then begin
      (* escaped identifier: up to whitespace *)
      let start = !i + 1 in
      let j = ref start in
      while !j < n && text.[!j] <> ' ' && text.[!j] <> '\t' && text.[!j] <> '\n'
      do
        incr j
      done;
      if !j = start then lex_fail "empty escaped identifier";
      push ~off:!i (Ident (String.sub text start (!j - start)));
      i := !j
    end
    else if is_ident_start ch then begin
      let start = !i in
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      let word = String.sub text start (!j - start) in
      if List.mem (String.lowercase_ascii word) keywords then
        push ~off:start (Keyword (String.lowercase_ascii word))
      else push ~off:start (Ident word);
      i := !j
    end
    else lex_fail (Printf.sprintf "unexpected character %C" ch)
  done;
  List.rev !tokens

(* ----- parser ----- *)

let gate_primitives =
  [ "and"; "or"; "nand"; "nor"; "xor"; "xnor"; "not"; "buf" ]

let parse_string text =
  let tokens = tokenize text in
  (* module <name> ( ports ) ; *)
  let rec skip_to_module = function
    | (Keyword "module", _) :: rest -> rest
    | _ :: rest -> skip_to_module rest
    | [] -> fail0 "no module declaration"
  in
  let after_module = skip_to_module tokens in
  let module_name, rest =
    match after_module with
    | (Ident name, _) :: rest -> (name, rest)
    | (_, l) :: _ -> failp l "expected module name"
    | [] -> fail0 "truncated module header"
  in
  (* skip the port list up to the first ';' *)
  let rec skip_header = function
    | (Semicolon, _) :: rest -> rest
    | _ :: rest -> skip_header rest
    | [] -> fail0 "unterminated module header"
  in
  let body = skip_header rest in
  (* Every net name is interned once as a builder symbol (the index the
     netlist keeps); resolution below works on symbols only. *)
  let b = B.create module_name in
  let sym name = B.symbol b name 0 (String.length name) in
  let name_of = B.symbol_name b in
  (* collect statements *)
  let inputs = ref [] and outputs = ref [] in
  let instances = ref [] in
  let rec idents_until_semi acc = function
    | (Ident s, _) :: rest -> idents_until_semi (s :: acc) rest
    | (Comma, _) :: rest -> idents_until_semi acc rest
    | (Semicolon, _) :: rest -> (List.rev acc, rest)
    | (_, l) :: _ -> failp l "expected identifier list"
    | [] -> fail0 "unterminated declaration"
  in
  let rec statements = function
    | [] -> fail0 "missing endmodule"
    | (Keyword "endmodule", _) :: _ -> ()
    | (Keyword "input", _) :: rest ->
        let names, rest = idents_until_semi [] rest in
        inputs := !inputs @ List.map sym names;
        statements rest
    | (Keyword "output", _) :: rest ->
        let names, rest = idents_until_semi [] rest in
        outputs := !outputs @ List.map sym names;
        statements rest
    | (Keyword "wire", _) :: rest ->
        let _, rest = idents_until_semi [] rest in
        statements rest
    | (Ident prim, l) :: rest
      when List.mem (String.lowercase_ascii prim) gate_primitives -> (
        (* <prim> [instance-name] ( out , in , ... ) ; *)
        let rest =
          match rest with
          | (Ident _, _) :: ((LParen, _) :: _ as r) -> r
          | (LParen, _) :: _ -> rest
          | (_, l) :: _ -> failp l "expected instance connection list"
          | [] -> failp l "truncated instance"
        in
        match rest with
        | (LParen, _) :: rest ->
            let rec connections acc = function
              | (Ident s, _) :: rest -> connections (sym s :: acc) rest
              | (Comma, _) :: rest -> connections acc rest
              | (RParen, _) :: (Semicolon, _) :: rest -> (List.rev acc, rest)
              | (RParen, l) :: _ -> failp l "expected ';' after instance"
              | (_, l) :: _ -> failp l "bad connection list"
              | [] -> failp l "unterminated connection list"
            in
            let conns, rest = connections [] rest in
            instances :=
              (String.lowercase_ascii prim, conns, l) :: !instances;
            statements rest
        | (_, l) :: _ -> failp l "expected '('"
        | [] -> failp l "truncated instance")
    | (_, l) :: _ -> failp l "unexpected token in module body"
  in
  statements body;
  let instances = List.rev !instances in
  (* Build the netlist, resolving definitions in dependency order. *)
  let nsyms = B.num_symbols b in
  let defs = Array.make nsyms None in
  List.iter
    (fun (prim, conns, l) ->
      match conns with
      | out :: ins ->
          if ins = [] then failp l ("instance with no inputs: " ^ name_of out);
          if Option.is_some defs.(out) then
            failp l ("net driven twice: " ^ name_of out);
          defs.(out) <- Some (prim, ins, l)
      | [] -> failp l "instance with no connections")
    instances;
  List.iter
    (fun s ->
      if B.symbol_node b s >= 0 then fail0 ("duplicate input: " ^ name_of s);
      ignore (B.add_input_symbol b s))
    !inputs;
  let visiting = Bytes.make nsyms '\000' in
  let rec resolve s =
    let id = B.symbol_node b s in
    if id >= 0 then id
    else begin
      if Bytes.get visiting s <> '\000' then
        fail0 ("combinational cycle through " ^ name_of s);
      Bytes.set visiting s '\001';
      match defs.(s) with
      | None -> fail0 ("undriven net: " ^ name_of s)
      | Some (prim, ins, l) ->
          let fanins = Array.of_list (List.map resolve ins) in
          let arity = Array.length fanins in
          let kind =
            let bench_name =
              match prim with
              | "not" -> "NOT"
              | "buf" -> "BUF"
              | p -> String.uppercase_ascii p
            in
            match Gate.of_name bench_name arity with
            | Some k -> k
            | None ->
                failp l
                  (Printf.sprintf "unsupported %s with %d inputs" prim arity)
          in
          let id = B.add_gate_symbol b s kind fanins in
          Bytes.set visiting s '\000';
          id
    end
  in
  List.iter (fun (_, conns, _) ->
      match conns with out :: _ -> ignore (resolve out) | [] -> ())
    instances;
  List.iter
    (fun s ->
      match B.symbol_node b s with
      | -1 -> fail0 ("output is never driven: " ^ name_of s)
      | id -> B.mark_output b id)
    !outputs;
  (* Surface structural failures (no inputs/gates/outputs) as parse
     errors: the input text is what is malformed. *)
  try B.finish b with Invalid_argument msg -> fail0 msg

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  try parse_string text
  with Parse_error (pos, msg) ->
    raise (Parse_error (Err.with_file pos path, msg))

let parse_string_res text =
  match parse_string text with
  | c -> Ok c
  | exception Parse_error (pos, msg) ->
      Error (Err.parse_at ~pos ~format:"verilog" msg)
  | exception exn -> Error (Err.of_exn ~context:"Verilog.parse" exn)

let parse_file_res path =
  match parse_file path with
  | c -> Ok c
  | exception Parse_error (pos, msg) ->
      Error (Err.parse_at ~pos ~format:"verilog" msg)
  | exception Sys_error msg ->
      Error (Err.parse ~file:path ~format:"verilog" msg)
  | exception exn -> Error (Err.of_exn ~context:"Verilog.parse" exn)

(* ----- printer ----- *)

let plain_ident s =
  s <> ""
  && (is_ident_start s.[0] && s.[0] <> '\\')
  && String.for_all (fun ch -> is_ident_char ch && ch <> '\\') s
  && not (List.mem (String.lowercase_ascii s) keywords)
  && not (List.mem (String.lowercase_ascii s) gate_primitives)

let emit_ident s = if plain_ident s then s else "\\" ^ s ^ " "

let primitive_of_kind = function
  | Gate.Inv -> "not"
  | Gate.Buf -> "buf"
  | Gate.Nand _ -> "nand"
  | Gate.Nor _ -> "nor"
  | Gate.And _ -> "and"
  | Gate.Or _ -> "or"
  | Gate.Xor2 -> "xor"
  | Gate.Xnor2 -> "xnor"

let to_string (c : Netlist.t) =
  let buf = Buffer.create 4096 in
  let name id = emit_ident (Netlist.node_name c id) in
  let inputs = List.init c.Netlist.num_inputs (fun i -> name i) in
  let outputs =
    Array.to_list c.Netlist.outputs |> List.map name
  in
  let module_name =
    if plain_ident c.Netlist.name then c.Netlist.name else "top"
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n" module_name
       (String.concat ", " (inputs @ outputs)));
  Buffer.add_string buf
    (Printf.sprintf "  input %s;\n" (String.concat ", " inputs));
  Buffer.add_string buf
    (Printf.sprintf "  output %s;\n" (String.concat ", " outputs));
  let is_output id = Array.exists (fun o -> o = id) c.Netlist.outputs in
  let wires =
    Array.to_list c.Netlist.gates
    |> List.filter_map (fun (g : Netlist.gate) ->
           if is_output g.Netlist.id then None else Some (name g.Netlist.id))
  in
  if wires <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  wire %s;\n" (String.concat ", " wires));
  Array.iteri
    (fun i (g : Netlist.gate) ->
      let ins =
        g.Netlist.fanins |> Array.to_list |> List.map name
        |> String.concat ", "
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s g%d (%s, %s);\n"
           (primitive_of_kind g.Netlist.kind)
           i
           (name g.Netlist.id)
           ins))
    c.Netlist.gates;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
