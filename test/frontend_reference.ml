(* The front end as it was before the byte-level readers and the
   netlist name index: line-splitting parsers with their own name
   tables, and the netlist and annotation lint rules keyed on strings.
   The frontend suite runs both on the same text and requires equal
   results — equal netlists, placements and capacitances on success,
   the same typed error (message, file, line, column) on failure, and
   the same lint diagnostics in the same order. *)

module Err = Ssta_runtime.Ssta_error
module Gate = Ssta_tech.Gate
module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Def_format = Ssta_circuit.Def_format
module Spef = Ssta_circuit.Spef
module D = Ssta_lint.Diagnostic

module Bench = struct
  exception Parse_error of Err.position * string

  let fail line msg =
    raise (Parse_error (Err.position ~line (), msg))

  (* Failure at a specific token: recover the column from the raw line. *)
  let fail_tok line line_text token msg =
    raise (Parse_error (Err.position_of_token ~line ~line_text token, msg))

  type raw_line =
    | Input of string
    | Output of string
    | Def of string * string * string list  (** target, gate name, operands *)

  let strip s = String.trim s

  let is_ident_char ch =
    (ch >= 'a' && ch <= 'z')
    || (ch >= 'A' && ch <= 'Z')
    || (ch >= '0' && ch <= '9')
    || ch = '_' || ch = '[' || ch = ']' || ch = '.' || ch = '-'

  let check_ident lineno line s =
    if s = "" then fail lineno "empty identifier";
    String.iter
      (fun ch ->
        if not (is_ident_char ch) then
          fail_tok lineno line s
            (Printf.sprintf "invalid character %C in identifier %S" ch s))
      s

  (* Parse "HEAD(arg1, arg2, ...)" -> (HEAD, args). *)
  let parse_call lineno line s =
    match String.index_opt s '(' with
    | None -> fail_tok lineno line s ("expected a parenthesized form: " ^ s)
    | Some open_paren ->
        if not (String.length s > 0 && s.[String.length s - 1] = ')') then
          fail_tok lineno line s ("missing closing parenthesis: " ^ s);
        let head = strip (String.sub s 0 open_paren) in
        let inner =
          String.sub s (open_paren + 1) (String.length s - open_paren - 2)
        in
        let args =
          if strip inner = "" then []
          else List.map strip (String.split_on_char ',' inner)
        in
        (head, args)

  let parse_raw_line lineno line =
    let full_line = line in
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let line = strip line in
    if line = "" then None
    else
      match String.index_opt line '=' with
      | Some eq ->
          let target = strip (String.sub line 0 eq) in
          check_ident lineno full_line target;
          let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
          let head, args = parse_call lineno full_line rhs in
          if args = [] then fail lineno ("gate with no operands: " ^ line);
          List.iter (check_ident lineno full_line) args;
          Some (Def (target, head, args))
      | None ->
          let head, args = parse_call lineno full_line line in
          let arg =
            match args with
            | [ a ] -> a
            | _ -> fail lineno ("expected a single signal: " ^ line)
          in
          check_ident lineno full_line arg;
          (match String.uppercase_ascii head with
          | "INPUT" -> Some (Input arg)
          | "OUTPUT" -> Some (Output arg)
          | _ -> fail_tok lineno full_line head ("unknown directive: " ^ head))

  let parse_string ?(name = "bench") text =
    let lines = String.split_on_char '\n' text in
    let raw = ref [] in
    List.iteri
      (fun i line ->
        match parse_raw_line (i + 1) line with
        | Some r -> raw := r :: !raw
        | None -> ())
      lines;
    let raw = List.rev !raw in
    let builder = Netlist.Builder.create name in
    let ids = Hashtbl.create 256 in
    let defs = Hashtbl.create 256 in
    let inputs = ref [] and outputs = ref [] in
    List.iter
      (function
        | Input s -> inputs := s :: !inputs
        | Output s -> outputs := s :: !outputs
        | Def (target, head, args) ->
            if Hashtbl.mem defs target then
              fail 0 ("signal defined twice: " ^ target);
            Hashtbl.add defs target (head, args))
      raw;
    List.iter
      (fun s -> Hashtbl.replace ids s (Netlist.Builder.add_input builder s))
      (List.rev !inputs);
    (* Resolve definitions in dependency order by depth-first search. *)
    let visiting = Hashtbl.create 64 in
    let rec resolve signal =
      match Hashtbl.find_opt ids signal with
      | Some id -> id
      | None -> (
          if Hashtbl.mem visiting signal then
            fail 0 ("combinational cycle through signal " ^ signal);
          Hashtbl.add visiting signal ();
          match Hashtbl.find_opt defs signal with
          | None -> fail 0 ("undefined signal: " ^ signal)
          | Some (head, args) ->
              let fanins = List.map resolve args in
              let kind =
                match Gate.of_name head (List.length args) with
                | Some k -> k
                | None ->
                    fail 0
                      (Printf.sprintf "unknown gate %s/%d defining %s" head
                         (List.length args) signal)
              in
              let id = Netlist.Builder.add_gate ~name:signal builder kind fanins in
              Hashtbl.remove visiting signal;
              Hashtbl.replace ids signal id;
              id)
    in
    (* Resolve in file order for deterministic node numbering. *)
    List.iter
      (function Def (target, _, _) -> ignore (resolve target) | Input _ | Output _ -> ())
      raw;
    List.iter
      (fun s ->
        match Hashtbl.find_opt ids s with
        | Some id -> Netlist.Builder.mark_output builder id
        | None -> fail 0 ("OUTPUT references undefined signal: " ^ s))
      (List.rev !outputs);
    try Netlist.Builder.finish builder
    with Invalid_argument msg -> fail 0 msg

  let parse_string_res ?name text =
    match parse_string ?name text with
    | c -> Ok c
    | exception Parse_error (pos, msg) ->
        Error (Err.parse_at ~pos ~format:"bench" msg)
    | exception exn -> Error (Err.of_exn ~context:"Bench_format.parse" exn)
end

module Def = struct
  exception Parse_error of Err.position * string

  let fail line msg = raise (Parse_error (Err.position ~line (), msg))

  let fail_tok line line_text token msg =
    raise (Parse_error (Err.position_of_token ~line ~line_text token, msg))

  let tokens_of_line line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")

  let float_token lineno line_text s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> f
    | Some _ -> fail_tok lineno line_text s ("non-finite coordinate: " ^ s)
    | None -> fail_tok lineno line_text s ("expected a number, got " ^ s)

  let parse_string text =
    let lines = String.split_on_char '\n' text in
    let design = ref "" in
    let units = ref 1000 in
    let die_w = ref 0.0 and die_h = ref 0.0 in
    let components = ref [] in
    let in_components = ref false in
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        match tokens_of_line raw with
        | [] -> ()
        | "DESIGN" :: name :: _ -> design := name
        | "UNITS" :: "DISTANCE" :: "MICRONS" :: v :: _ ->
            (match int_of_string_opt v with
            | Some u when u > 0 -> units := u
            | Some _ | None -> fail_tok lineno raw v "bad UNITS value")
        | "DIEAREA" :: rest -> (
            (* DIEAREA ( x0 y0 ) ( x1 y1 ) ; *)
            let numbers =
              List.filter_map (fun tok -> float_of_string_opt tok) rest
            in
            match numbers with
            | [ x0; y0; x1; y1 ]
              when List.for_all Float.is_finite [ x0; y0; x1; y1 ] ->
                let u = float_of_int !units in
                die_w := (x1 -. x0) /. u;
                die_h := (y1 -. y0) /. u
            | _ -> fail lineno "DIEAREA expects two finite corner points")
        | "COMPONENTS" :: _ -> in_components := true
        | "END" :: "COMPONENTS" :: _ -> in_components := false
        | "END" :: "DESIGN" :: _ -> ()
        | "-" :: name :: master :: rest when !in_components ->
            (* - name master + PLACED ( x y ) N ; *)
            let rec find_placed = function
              | "PLACED" :: "(" :: x :: y :: _ ->
                  Some (float_token lineno raw x, float_token lineno raw y)
              | _ :: tl -> find_placed tl
              | [] -> None
            in
            (match find_placed rest with
            | Some (x, y) ->
                let u = float_of_int !units in
                components :=
                  { Def_format.comp_name = name; master; x = x /. u; y = y /. u }
                  :: !components
            | None ->
                fail_tok lineno raw name
                  ("component without PLACED location: " ^ name))
        | _ -> ())
      lines;
    if !design = "" then fail 0 "missing DESIGN statement";
    { Def_format.design = !design;
      units_per_micron = !units;
      die_width = !die_w;
      die_height = !die_h;
      components = List.rev !components }

  let parse_string_res text =
    match parse_string text with
    | t -> Ok t
    | exception Parse_error (pos, msg) ->
        Error (Err.parse_at ~pos ~format:"def" msg)
    | exception exn -> Error (Err.of_exn ~context:"Def_format.parse" exn)

  let placement_of (t : Def_format.t) (c : Netlist.t) =
    let table = Hashtbl.create 256 in
    List.iter
      (fun (comp : Def_format.component) ->
        Hashtbl.replace table comp.Def_format.comp_name
          (comp.Def_format.x, comp.Def_format.y))
      t.Def_format.components;
    let matched = ref 0 in
    let coords =
      Array.init (Netlist.num_nodes c) (fun id ->
          match Hashtbl.find_opt table (Netlist.node_name c id) with
          | Some xy ->
              incr matched;
              xy
          | None -> (0.0, 0.0))
    in
    if !matched * 2 < Netlist.num_gates c then
      invalid_arg "Def_format.placement_of: DEF does not match this netlist";
    let die_width = Float.max t.Def_format.die_width 1.0 in
    let die_height = Float.max t.Def_format.die_height 1.0 in
    Placement.with_coords ~die_width ~die_height
      (Array.map
         (fun (x, y) ->
           (Float.min (Float.max x 0.0) die_width,
            Float.min (Float.max y 0.0) die_height))
         coords)

  let placement_of_res t c =
    match placement_of t c with
    | pl -> Ok pl
    | exception Invalid_argument msg ->
        Error (Err.structural ~subject:"def-placement" msg)
    | exception exn -> Error (Err.of_exn ~context:"Def_format.placement_of" exn)
end

module Spef_ref = struct
  exception Parse_error of Err.position * string

  let fail line msg = raise (Parse_error (Err.position ~line (), msg))

  let fail_tok line line_text token msg =
    raise (Parse_error (Err.position_of_token ~line ~line_text token, msg))

  let tokens_of_line line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")

  let parse_string text =
    let design = ref "" in
    let caps = ref [] in
    let pf = 1e-12 in
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        match tokens_of_line raw with
        | [] -> ()
        | "*DESIGN" :: name :: _ -> design := name
        | "*D_NET" :: net :: cap :: _ -> (
            match float_of_string_opt cap with
            | Some c when c >= 0.0 && Float.is_finite c ->
                caps := (net, c *. pf) :: !caps
            | Some c when Float.is_nan c || not (Float.is_finite c) ->
                fail_tok lineno raw cap
                  ("non-finite capacitance on net " ^ net)
            | Some _ ->
                fail_tok lineno raw cap ("negative capacitance on net " ^ net)
            | None -> fail_tok lineno raw cap ("bad capacitance value: " ^ cap))
        | "*D_NET" :: _ -> fail lineno "*D_NET needs a net name and a value"
        | tok :: _ when String.length tok > 0 && tok.[0] = '*' -> ()
        | _ -> ())
      (String.split_on_char '\n' text);
    if !design = "" then fail 0 "missing *DESIGN";
    { Spef.design = !design; caps = List.rev !caps }

  let parse_string_res text =
    match parse_string text with
    | t -> Ok t
    | exception Parse_error (pos, msg) ->
        Error (Err.parse_at ~pos ~format:"spef" msg)
    | exception exn -> Error (Err.of_exn ~context:"Spef.parse" exn)

  let apply (t : Spef.t) (c : Netlist.t) =
    let table = Hashtbl.create 256 in
    List.iter (fun (net, cap) -> Hashtbl.replace table net cap) t.Spef.caps;
    let matched = ref 0 in
    let caps =
      Array.init (Netlist.num_nodes c) (fun id ->
          match Hashtbl.find_opt table (Netlist.node_name c id) with
          | Some cap ->
              incr matched;
              cap
          | None -> 0.0)
    in
    if !matched * 2 < Netlist.num_gates c then
      invalid_arg "Spef.apply: SPEF does not match this netlist";
    caps

  let apply_res t c =
    match apply t c with
    | caps -> Ok caps
    | exception Invalid_argument msg ->
        Error (Err.structural ~subject:"spef-annotation" msg)
    | exception exn -> Error (Err.of_exn ~context:"Spef.apply" exn)
end

module Rules_netlist = struct
  let node_loc c id = D.Node { id; name = Netlist.node_name c id }

  let check ?(fanout_limit = 64) c =
    let n = Netlist.num_nodes c in
    let counts = Netlist.fanout_counts c in
    let ds = ref [] in
    let emit d = ds := d :: !ds in
    (* net-dangling: primary outputs contribute one sink each to [counts],
       so a zero count implies the node is not an output either. *)
    for id = 0 to n - 1 do
      if counts.(id) = 0 then
        if Netlist.is_input c id then
          emit
            (D.make ~rule:"net-dangling" ~severity:D.Warning
               ~location:(node_loc c id)
               ~hint:"remove the input or connect it to a gate"
               "primary input is never used")
        else
          emit
            (D.make ~rule:"net-dangling" ~severity:D.Error
               ~location:(node_loc c id)
               ~hint:"mark the gate as a primary output or remove it"
               "gate output drives nothing and is not a primary output")
    done;
    (* net-unreachable: reverse DFS from the primary outputs over fan-ins.
       Dangling gates already got their own error above; this rule covers
       live-looking gates whose every forward path ends in a dangling
       sink. *)
    let reachable = Array.make n false in
    let rec visit id =
      if not reachable.(id) then begin
        reachable.(id) <- true;
        if not (Netlist.is_input c id) then
          Array.iter visit (Netlist.gate_of c id).Netlist.fanins
      end
    in
    Array.iter visit c.Netlist.outputs;
    Array.iter
      (fun (g : Netlist.gate) ->
        if (not reachable.(g.Netlist.id)) && counts.(g.Netlist.id) > 0 then
          emit
            (D.make ~rule:"net-unreachable" ~severity:D.Error
               ~location:(node_loc c g.Netlist.id)
               ~hint:"the gate's fan-out cone never reaches a primary output"
               "gate is unreachable from every primary output"))
      c.Netlist.gates;
    (* net-duplicate-gate: same kind, same fan-in multiset. *)
    let seen : (string, int) Hashtbl.t = Hashtbl.create 256 in
    Array.iter
      (fun (g : Netlist.gate) ->
        let ins = Array.to_list g.Netlist.fanins |> List.sort Int.compare in
        let key =
          Gate.name g.Netlist.kind
          ^ "/" ^ string_of_int (Array.length g.Netlist.fanins)
          ^ ":" ^ String.concat "," (List.map string_of_int ins)
        in
        match Hashtbl.find_opt seen key with
        | None -> Hashtbl.add seen key g.Netlist.id
        | Some first ->
            emit
              (D.make ~rule:"net-duplicate-gate" ~severity:D.Info
                 ~location:(node_loc c g.Netlist.id)
                 ~hint:"merge the duplicates unless they split load on purpose"
                 (Printf.sprintf
                    "structurally identical to gate '%s' (id %d)"
                    (Netlist.node_name c first) first)))
      c.Netlist.gates;
    (* net-constant-gate: XOR/XNOR with every fan-in the same node. *)
    Array.iter
      (fun (g : Netlist.gate) ->
        let all_same =
          Array.length g.Netlist.fanins >= 2
          && Array.for_all (fun f -> f = g.Netlist.fanins.(0)) g.Netlist.fanins
        in
        match g.Netlist.kind with
        | Gate.Xor2 | Gate.Xnor2 when all_same ->
            let value = if g.Netlist.kind = Gate.Xor2 then "0" else "1" in
            emit
              (D.make ~rule:"net-constant-gate" ~severity:D.Warning
                 ~location:(node_loc c g.Netlist.id)
                 ~hint:"replace the gate by the constant it computes"
                 (Printf.sprintf
                    "all fan-ins are node %d; output is constant %s"
                    g.Netlist.fanins.(0) value))
        | _ -> ())
      c.Netlist.gates;
    (* net-fanout-outlier *)
    for id = 0 to n - 1 do
      if counts.(id) > fanout_limit then
        emit
          (D.make ~rule:"net-fanout-outlier" ~severity:D.Info
             ~location:(node_loc c id)
             ~hint:"consider buffering the net"
             (Printf.sprintf "fan-out %d exceeds the limit %d" counts.(id)
                fanout_limit))
    done;
    (* net-depth-outlier *)
    let gates = Netlist.num_gates c in
    let depth = Netlist.depth c in
    if gates >= 20 && depth > Int.max 30 (gates / 2) then
      emit
        (D.make ~rule:"net-depth-outlier" ~severity:D.Info ~location:D.Circuit
           ~hint:"chain-like topologies defeat spatial-correlation sharing"
           (Printf.sprintf "logic depth %d is extreme for %d gates" depth
              gates));
    List.rev !ds
end

module Rules_annotation = struct
  let name_table c =
    let table = Hashtbl.create 256 in
    for id = 0 to Netlist.num_nodes c - 1 do
      Hashtbl.replace table (Netlist.node_name c id) id
    done;
    table

  let check_spef ?(cap_limit = 1e-10) (spef : Spef.t) c =
    let table = name_table c in
    let ds = ref [] in
    let emit d = ds := d :: !ds in
    let seen = Hashtbl.create 256 in
    let matched = ref 0 in
    List.iter
      (fun (net, cap) ->
        (match Hashtbl.find_opt table net with
        | None ->
            emit
              (D.make ~rule:"spef-orphan-net" ~severity:D.Error
                 ~location:(D.Net net)
                 ~hint:"check that the SPEF was extracted from this netlist"
                 "annotation names a node absent from the netlist")
        | Some _ -> incr matched);
        if Hashtbl.mem seen net then
          emit
            (D.make ~rule:"spef-duplicate-net" ~severity:D.Warning
               ~location:(D.Net net)
               ~hint:"the last record wins in Spef.apply"
               "net annotated more than once")
        else Hashtbl.add seen net ();
        if (not (Float.is_finite cap)) || cap < 0.0 then
          emit
            (D.make ~rule:"spef-negative-cap" ~severity:D.Error
               ~location:(D.Net net)
               (Printf.sprintf "capacitance %g F is negative or not finite" cap))
        else if cap > cap_limit then
          emit
            (D.make ~rule:"spef-cap-outlier" ~severity:D.Warning
               ~location:(D.Net net)
               ~hint:"check the SPEF capacitance units (expected farads here)"
               (Printf.sprintf "capacitance %g F exceeds the %g F sanity limit"
                  cap cap_limit)))
      spef.Spef.caps;
    if !matched * 2 < Netlist.num_gates c then
      emit
        (D.make ~rule:"spef-low-coverage" ~severity:D.Error ~location:D.Circuit
           ~hint:"Spef.apply rejects pairings covering under half the gates"
           (Printf.sprintf "only %d of %d gates annotated" !matched
              (Netlist.num_gates c)));
    List.rev !ds

  let check_def (def : Def_format.t) c =
    let table = name_table c in
    let ds = ref [] in
    let emit d = ds := d :: !ds in
    let seen = Hashtbl.create 256 in
    let matched = ref 0 in
    let w = def.Def_format.die_width and h = def.Def_format.die_height in
    List.iter
      (fun (comp : Def_format.component) ->
        let name = comp.Def_format.comp_name in
        (match Hashtbl.find_opt table name with
        | Some id when not (Netlist.is_input c id) -> incr matched
        | Some _ | None ->
            emit
              (D.make ~rule:"def-unknown-component" ~severity:D.Warning
                 ~location:(D.Net name)
                 ~hint:"check that the DEF was written for this netlist"
                 "component matches no gate of the netlist"));
        if Hashtbl.mem seen name then
          emit
            (D.make ~rule:"def-duplicate-component" ~severity:D.Warning
               ~location:(D.Net name) "component name appears more than once")
        else Hashtbl.add seen name ();
        let x = comp.Def_format.x and y = comp.Def_format.y in
        if
          (not (Float.is_finite x && Float.is_finite y))
          || x < 0.0 || y < 0.0 || x > w || y > h
        then
          emit
            (D.make ~rule:"def-outside-die" ~severity:D.Error
               ~location:(D.Net name)
               ~hint:(Printf.sprintf "DIEAREA is (0, 0) .. (%g, %g) microns" w h)
               (Printf.sprintf "component placed at (%g, %g), outside the die" x
                  y)))
      def.Def_format.components;
    if !matched * 2 < Netlist.num_gates c then
      emit
        (D.make ~rule:"def-low-coverage" ~severity:D.Error ~location:D.Circuit
           ~hint:"Def_format.placement_of rejects pairings under half coverage"
           (Printf.sprintf "only %d of %d gates have a placed component"
              !matched (Netlist.num_gates c)));
    List.rev !ds
end

(* The lint engine's shallow pass ([deep:false], default config) over
   the reference rules. *)
let lint ?placement ?spef ?def ?(config = Ssta_core.Config.default) c =
  let config_ds = Ssta_lint.Rules_config.check config in
  let netlist_ds = Rules_netlist.check c in
  let placement_ds =
    match placement with
    | Some pl ->
        Ssta_lint.Rules_placement.check
          ~quad_levels:config.Ssta_core.Config.quad_levels c pl
    | None -> []
  in
  let spef_ds =
    match spef with
    | Some s -> Rules_annotation.check_spef s c
    | None -> []
  in
  let def_ds =
    match def with Some d -> Rules_annotation.check_def d c | None -> []
  in
  List.sort D.compare
    (config_ds @ netlist_ds @ placement_ds @ spef_ds @ def_ds)
