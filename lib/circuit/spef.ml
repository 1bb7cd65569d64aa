module Err = Ssta_runtime.Ssta_error

exception Parse_error of Err.position * string

type t = { design : string; caps : (string * float) list }

let fail line msg = raise (Parse_error (Err.position ~line (), msg))

(* [*DESIGN name] and [*D_NET net cap] lines count; other [*] header
   lines and anything else are skipped. *)
let parse_string text =
  let design = ref "" in
  let caps = ref [] in
  let pf = 1e-12 in
  let cur = Scan.of_string text in
  while Scan.next_line cur do
    let lineno = cur.Scan.line in
    if Scan.next_token cur then
      if Scan.token_is cur "*DESIGN" then begin
        if Scan.next_token cur then design := Scan.token cur
      end
      else if Scan.token_is cur "*D_NET" then begin
        if not (Scan.next_token cur) then
          fail lineno "*D_NET needs a net name and a value";
        let net_start = cur.Scan.tok_start and net_end = cur.Scan.tok_end in
        if not (Scan.next_token cur) then
          fail lineno "*D_NET needs a net name and a value";
        let net () = String.sub text net_start (net_end - net_start) in
        let bad msg = raise (Parse_error (Scan.token_position cur, msg)) in
        match Scan.float_token cur with
        | c when c >= 0.0 && Float.is_finite c ->
            caps := (net (), c *. pf) :: !caps
        | c when Float.is_nan c || not (Float.is_finite c) ->
            bad ("non-finite capacitance on net " ^ net ())
        | _ -> bad ("negative capacitance on net " ^ net ())
        | exception Scan.Not_a_number ->
            bad ("bad capacitance value: " ^ Scan.token cur)
      end
  done;
  if !design = "" then fail 0 "missing *DESIGN";
  { design = !design; caps = List.rev !caps }

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
  | t -> Ok t
  | exception Parse_error (pos, msg) ->
      Error (Err.parse_at ~pos ~format:"spef" msg)
  | exception exn -> Error (Err.of_exn ~context:"Spef.parse" exn)

let parse_file_res path =
  match parse_file path with
  | t -> Ok t
  | exception Parse_error (pos, msg) ->
      Error (Err.parse_at ~pos ~format:"spef" msg)
  | exception Sys_error msg -> Error (Err.parse ~file:path ~format:"spef" msg)
  | exception exn -> Error (Err.of_exn ~context:"Spef.parse" exn)

let to_string t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "*SPEF \"IEEE 1481-1998\"\n";
  Buffer.add_string buf (Printf.sprintf "*DESIGN %s\n" t.design);
  Buffer.add_string buf "*C_UNIT 1 PF\n";
  List.iter
    (fun (net, cap) ->
      Buffer.add_string buf
        (Printf.sprintf "*D_NET %s %.6f\n" net (cap /. 1e-12)))
    t.caps;
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let of_placement ?(wire = Ssta_tech.Wire.default) ~design (c : Netlist.t) pl =
  let fanouts = Netlist.fanouts c in
  let caps =
    Array.to_list c.Netlist.gates
    |> List.map (fun (g : Netlist.gate) ->
           let id = g.Netlist.id in
           let sinks =
             Array.to_list fanouts.(id)
             |> List.map (fun f -> Placement.coord pl f)
           in
           ( Netlist.node_name c id,
             Ssta_tech.Wire.net_cap wire (Placement.coord pl id) sinks ))
  in
  { design; caps }

(* Each net resolves through the netlist's name index and writes its
   node's capacitance in place (the last record of a net wins); [hit]
   counts each matched node once. *)
let apply t (c : Netlist.t) =
  let n = Netlist.num_nodes c in
  let caps = Array.make n 0.0 in
  let hit = Bytes.make n '\000' and matched = ref 0 in
  List.iter
    (fun (net, cap) ->
      match Netlist.node_id c net with
      | -1 -> ()
      | id ->
          caps.(id) <- cap;
          if Bytes.get hit id = '\000' then begin
            Bytes.set hit id '\001';
            incr matched
          end)
    t.caps;
  if !matched * 2 < Netlist.num_gates c then
    invalid_arg "Spef.apply: SPEF does not match this netlist";
  caps

let apply_res t c =
  match apply t c with
  | caps -> Ok caps
  | exception Invalid_argument msg ->
      Error (Err.structural ~subject:"spef-annotation" msg)
  | exception exn -> Error (Err.of_exn ~context:"Spef.apply" exn)
