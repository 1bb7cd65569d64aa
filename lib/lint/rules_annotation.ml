module Netlist = Ssta_circuit.Netlist
module Spef = Ssta_circuit.Spef
module Def_format = Ssta_circuit.Def_format
module D = Diagnostic

let rules =
  [ ("spef-orphan-net", "SPEF annotation names a node absent from the netlist");
    ("spef-negative-cap", "negative or non-finite net capacitance");
    ("spef-cap-outlier", "net capacitance wildly out of range");
    ("spef-duplicate-net", "net annotated more than once");
    ("spef-low-coverage", "fewer than half the gates carry an annotation");
    ("def-unknown-component", "DEF component matches no gate of the netlist");
    ("def-outside-die", "DEF component placed outside the DIEAREA");
    ("def-duplicate-component", "DEF component name appears more than once");
    ("def-low-coverage", "fewer than half the gates have a DEF component") ]

(* Repeated names, resolved through the netlist's name index: a name
   the netlist knows is tracked by its node id, only the others (names
   of no node, rare) go through a string table. *)
type seen = { nodes : Bytes.t; others : (string, unit) Hashtbl.t }

let seen c =
  { nodes = Bytes.make (Netlist.num_nodes c) '\000'; others = Hashtbl.create 8 }

(* Records the name (node [id], or -1 for a name of no node) and tells
   whether it was seen before. *)
let repeated seen id name =
  if id >= 0 then begin
    let again = Bytes.get seen.nodes id <> '\000' in
    Bytes.set seen.nodes id '\001';
    again
  end
  else begin
    let again = Hashtbl.mem seen.others name in
    if not again then Hashtbl.add seen.others name ();
    again
  end

let check_spef ?(cap_limit = 1e-10) (spef : Spef.t) c =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let seen = seen c in
  let matched = ref 0 in
  List.iter
    (fun (net, cap) ->
      let id = Netlist.node_id c net in
      (match id with
      | -1 ->
          emit
            (D.make ~rule:"spef-orphan-net" ~severity:D.Error
               ~location:(D.Net net)
               ~hint:"check that the SPEF was extracted from this netlist"
               "annotation names a node absent from the netlist")
      | _ -> incr matched);
      if repeated seen id net then
        emit
          (D.make ~rule:"spef-duplicate-net" ~severity:D.Warning
             ~location:(D.Net net)
             ~hint:"the last record wins in Spef.apply"
             "net annotated more than once");
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
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let seen = seen c in
  let matched = ref 0 in
  let w = def.Def_format.die_width and h = def.Def_format.die_height in
  List.iter
    (fun (comp : Def_format.component) ->
      let name = comp.Def_format.comp_name in
      let id = Netlist.node_id c name in
      if id >= 0 && not (Netlist.is_input c id) then incr matched
      else
        emit
          (D.make ~rule:"def-unknown-component" ~severity:D.Warning
             ~location:(D.Net name)
             ~hint:"check that the DEF was written for this netlist"
             "component matches no gate of the netlist");
      if repeated seen id name then
        emit
          (D.make ~rule:"def-duplicate-component" ~severity:D.Warning
             ~location:(D.Net name) "component name appears more than once");
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
