module Gate = Ssta_tech.Gate
module Err = Ssta_runtime.Ssta_error

exception Parse_error of Err.position * string

type component = { comp_name : string; master : string; x : float; y : float }

type t = {
  design : string;
  units_per_micron : int;
  die_width : float;
  die_height : float;
  components : component list;
}

let fail line msg = raise (Parse_error (Err.position ~line (), msg))

let fail_tok line line_text token msg =
  raise (Parse_error (Err.position_of_token ~line ~line_text token, msg))

(* A coordinate token: [float_of_string]'s language, finite values
   only. *)
let coordinate (cur : Scan.t) =
  match Scan.float_token cur with
  | f when Float.is_finite f -> f
  | _ ->
      let s = Scan.token cur in
      raise
        (Parse_error (Scan.token_position cur, "non-finite coordinate: " ^ s))
  | exception Scan.Not_a_number ->
      let s = Scan.token cur in
      raise
        (Parse_error (Scan.token_position cur, "expected a number, got " ^ s))

(* The rest of a component line: the first [PLACED ( x y] run of
   tokens.  y is checked before x, so of two bad coordinates the error
   names y. *)
let rec placed cur =
  if not (Scan.next_token cur) then None
  else if not (Scan.token_is cur "PLACED") then placed cur
  else begin
    let after = cur.Scan.pos in
    let retry () = Scan.seek cur after; placed cur in
    if Scan.next_token cur && Scan.token_is cur "(" && Scan.next_token cur
    then begin
      let x_start = cur.Scan.tok_start in
      if Scan.next_token cur then begin
        let y = coordinate cur in
        Scan.seek cur x_start;
        ignore (Scan.next_token cur);
        Some (coordinate cur, y)
      end
      else retry ()
    end
    else retry ()
  end

(* The statement a line starts with decides it (its first tokens are
   compared in place); unknown statements are skipped.  A component is
   [- name master ... PLACED ( x y ) ...] with the first [PLACED ( x y]
   run of tokens giving the location. *)
let parse_string text =
  let design = ref "" in
  let units = ref 1000 in
  let die_w = ref 0.0 and die_h = ref 0.0 in
  let components = ref [] in
  let in_components = ref false in
  let masters = Name_index.create 16 in
  let cur = Scan.of_string text in
  let next () = Scan.next_token cur in
  let is lit = Scan.token_is cur lit in
  while Scan.next_line cur do
    let lineno = cur.Scan.line in
    if next () then
      if is "DESIGN" then (if next () then design := Scan.token cur)
      else if is "UNITS" then begin
        if next () && is "DISTANCE" && next () && is "MICRONS" && next () then
          match Scan.int_token cur with
          | u when u > 0 -> units := u
          | _ | (exception Scan.Not_a_number) ->
              raise (Parse_error (Scan.token_position cur, "bad UNITS value"))
      end
      else if is "DIEAREA" then begin
        (* DIEAREA ( x0 y0 ) ( x1 y1 ) ; — every number-like token
           counts *)
        let c = Array.make 4 0.0 and n = ref 0 in
        while next () do
          match Scan.float_token cur with
          | f ->
              if !n < 4 then c.(!n) <- f;
              incr n
          | exception Scan.Not_a_number -> ()
        done;
        if !n = 4 && Array.for_all Float.is_finite c then begin
          let u = float_of_int !units in
          die_w := (c.(2) -. c.(0)) /. u;
          die_h := (c.(3) -. c.(1)) /. u
        end
        else fail lineno "DIEAREA expects two finite corner points"
      end
      else if is "COMPONENTS" then in_components := true
      else if is "END" then begin
        if next () && is "COMPONENTS" then in_components := false
      end
      else if is "-" && !in_components then begin
        (* - name master ... *)
        if next () then begin
          let name_start = cur.Scan.tok_start and name_end = cur.Scan.tok_end in
          if next () then begin
            let master =
              Name_index.intern_sub masters text cur.Scan.tok_start
                (cur.Scan.tok_end - cur.Scan.tok_start)
            in
            let comp_name =
              String.sub text name_start (name_end - name_start)
            in
            match placed cur with
            | Some (x, y) ->
                let u = float_of_int !units in
                components :=
                  { comp_name; master = Name_index.key masters master;
                    x = x /. u; y = y /. u }
                  :: !components
            | None ->
                fail_tok lineno (Scan.line_text cur) comp_name
                  ("component without PLACED location: " ^ comp_name)
          end
        end
      end
  done;
  if !design = "" then fail 0 "missing DESIGN statement";
  { design = !design;
    units_per_micron = !units;
    die_width = !die_w;
    die_height = !die_h;
    components = List.rev !components }

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
      Error (Err.parse_at ~pos ~format:"def" msg)
  | exception exn -> Error (Err.of_exn ~context:"Def_format.parse" exn)

let parse_file_res path =
  match parse_file path with
  | t -> Ok t
  | exception Parse_error (pos, msg) ->
      Error (Err.parse_at ~pos ~format:"def" msg)
  | exception Sys_error msg -> Error (Err.parse ~file:path ~format:"def" msg)
  | exception exn -> Error (Err.of_exn ~context:"Def_format.parse" exn)

let to_string t =
  let buf = Buffer.create 4096 in
  let u = float_of_int t.units_per_micron in
  let dbu f = int_of_float (Float.round (f *. u)) in
  Buffer.add_string buf (Printf.sprintf "DESIGN %s ;\n" t.design);
  Buffer.add_string buf
    (Printf.sprintf "UNITS DISTANCE MICRONS %d ;\n" t.units_per_micron);
  Buffer.add_string buf
    (Printf.sprintf "DIEAREA ( 0 0 ) ( %d %d ) ;\n" (dbu t.die_width)
       (dbu t.die_height));
  Buffer.add_string buf
    (Printf.sprintf "COMPONENTS %d ;\n" (List.length t.components));
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  - %s %s + PLACED ( %d %d ) N ;\n" c.comp_name
           c.master (dbu c.x) (dbu c.y)))
    t.components;
  Buffer.add_string buf "END COMPONENTS\n";
  Buffer.add_string buf "END DESIGN\n";
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let master_of_kind = function
  | Gate.Inv -> "INV"
  | Gate.Buf -> "BUF"
  | Gate.Nand n -> Printf.sprintf "NAND%d" n
  | Gate.Nor n -> Printf.sprintf "NOR%d" n
  | Gate.And n -> Printf.sprintf "AND%d" n
  | Gate.Or n -> Printf.sprintf "OR%d" n
  | Gate.Xor2 -> "XOR2"
  | Gate.Xnor2 -> "XNOR2"

let of_placement ~design (c : Netlist.t) (pl : Placement.t) =
  let components =
    Array.to_list c.Netlist.gates
    |> List.map (fun (g : Netlist.gate) ->
           let x, y = Placement.coord pl g.Netlist.id in
           { comp_name = Netlist.node_name c g.Netlist.id;
             master = master_of_kind g.Netlist.kind;
             x;
             y })
  in
  { design;
    units_per_micron = 1000;
    die_width = pl.Placement.die_width;
    die_height = pl.Placement.die_height;
    components }

(* Each component resolves through the netlist's name index and writes
   its node's coordinates in place (the last component of a name wins);
   [hit] counts each matched node once. *)
let placement_of t (c : Netlist.t) =
  let n = Netlist.num_nodes c in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  let hit = Bytes.make n '\000' and matched = ref 0 in
  List.iter
    (fun comp ->
      match Netlist.node_id c comp.comp_name with
      | -1 -> ()
      | id ->
          xs.(id) <- comp.x;
          ys.(id) <- comp.y;
          if Bytes.get hit id = '\000' then begin
            Bytes.set hit id '\001';
            incr matched
          end)
    t.components;
  if !matched * 2 < Netlist.num_gates c then
    invalid_arg "Def_format.placement_of: DEF does not match this netlist";
  let die_width = Float.max t.die_width 1.0 in
  let die_height = Float.max t.die_height 1.0 in
  Placement.with_coords ~die_width ~die_height
    (Array.init n (fun id ->
         (Float.min (Float.max xs.(id) 0.0) die_width,
          Float.min (Float.max ys.(id) 0.0) die_height)))

let placement_of_res t c =
  match placement_of t c with
  | pl -> Ok pl
  | exception Invalid_argument msg ->
      Error (Err.structural ~subject:"def-placement" msg)
  | exception exn -> Error (Err.of_exn ~context:"Def_format.placement_of" exn)
