module Netlist = Ssta_circuit.Netlist
module Gate = Ssta_tech.Gate
module Elmore = Ssta_tech.Elmore

type t = {
  circuit : Netlist.t;
  electrical : Gate.electrical option array;
  delay : float array;
  fanouts : int array array;
  grads_slot : Ssta_tech.Params.t array option Atomic.t;
}

let make circuit electrical delay fanouts =
  { circuit; electrical; delay; fanouts; grads_slot = Atomic.make None }

let default_wire_cap = 1.0e-15

(* [Elmore.nominal_delay] with the point's factors evaluated once. *)
let nominal_delay = Elmore.delay_at Ssta_tech.Params.nominal

let of_netlist ?(wire_cap = default_wire_cap) c =
  let n = Netlist.num_nodes c in
  let fanouts = Netlist.fanouts c in
  let electrical = Array.make n None in
  let delay = Array.make n 0.0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      let fanout = Array.length fanouts.(g.Netlist.id) in
      let e = Gate.electrical ~fanout ~wire_cap g.Netlist.kind in
      electrical.(g.Netlist.id) <- Some e;
      delay.(g.Netlist.id) <- nominal_delay e)
    c.Netlist.gates;
  make c electrical delay fanouts

let with_params_of ?(wire_cap = default_wire_cap) c params_of =
  let n = Netlist.num_nodes c in
  let fanouts = Netlist.fanouts c in
  let electrical = Array.make n None in
  let delay = Array.make n 0.0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      let id = g.Netlist.id in
      let fanout = Array.length fanouts.(id) in
      let e = Gate.electrical ~fanout ~wire_cap g.Netlist.kind in
      electrical.(id) <- Some e;
      delay.(id) <- Elmore.gate_delay e (params_of id))
    c.Netlist.gates;
  make c electrical delay fanouts

let with_wire_caps c wire_caps =
  let n = Netlist.num_nodes c in
  if Array.length wire_caps <> n then
    invalid_arg "Graph.with_wire_caps: one capacitance per node required";
  Array.iter
    (fun w ->
      if w < 0.0 then invalid_arg "Graph.with_wire_caps: negative capacitance")
    wire_caps;
  let fanouts = Netlist.fanouts c in
  let electrical = Array.make n None in
  let delay = Array.make n 0.0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      let id = g.Netlist.id in
      let fanout = Array.length fanouts.(id) in
      let e =
        Gate.electrical ~fanout ~wire_cap:wire_caps.(id) g.Netlist.kind
      in
      electrical.(id) <- Some e;
      delay.(id) <- nominal_delay e)
    c.Netlist.gates;
  make c electrical delay fanouts

(* The drive-aware electrical model of gate [id]: its output load is
   its consumers' input capacitances at their kinds and drives, plus one
   pin if the node is a primary output.  Shared by the full build and
   {!redrive}, so both see one load model. *)
let drive_aware ~wire_cap c fanouts drives ~is_output id =
  let load_cap =
    Array.fold_left
      (fun acc f ->
        let kind = (Netlist.gate_of c f).Netlist.kind in
        acc +. Gate.input_cap ~drive:drives.(f) kind)
      (if is_output then Gate.c_gate_input else 0.0)
      fanouts.(id)
  in
  let fanout = Array.length fanouts.(id) in
  Gate.electrical ~fanout ~wire_cap ~load_cap ~drive:drives.(id)
    (Netlist.gate_of c id).Netlist.kind

let with_drives ?(wire_cap = default_wire_cap) c drives =
  let n = Netlist.num_nodes c in
  if Array.length drives <> n then
    invalid_arg "Graph.with_drives: one drive per node required";
  Array.iteri
    (fun id d ->
      if (not (Netlist.is_input c id)) && d <= 0.0 then
        invalid_arg "Graph.with_drives: drives must be positive")
    drives;
  let fanouts = Netlist.fanouts c in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) c.Netlist.outputs;
  let electrical = Array.make n None in
  let delay = Array.make n 0.0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      let id = g.Netlist.id in
      let e =
        drive_aware ~wire_cap c fanouts drives ~is_output:is_output.(id) id
      in
      electrical.(id) <- Some e;
      delay.(id) <- nominal_delay e)
    c.Netlist.gates;
  make c electrical delay fanouts

let of_placed ?(wire = Ssta_tech.Wire.default) c (pl : Ssta_circuit.Placement.t) =
  let n = Netlist.num_nodes c in
  let fanouts = Netlist.fanouts c in
  let electrical = Array.make n None in
  let delay = Array.make n 0.0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      let id = g.Netlist.id in
      let sinks =
        Array.to_list fanouts.(id)
        |> List.map (fun f -> Ssta_circuit.Placement.coord pl f)
      in
      let wire_cap =
        Ssta_tech.Wire.net_cap wire (Ssta_circuit.Placement.coord pl id) sinks
      in
      let fanout = Array.length fanouts.(id) in
      let e = Gate.electrical ~fanout ~wire_cap g.Netlist.kind in
      electrical.(id) <- Some e;
      delay.(id) <- nominal_delay e)
    c.Netlist.gates;
  make c electrical delay fanouts

let num_nodes t = Netlist.num_nodes t.circuit
let is_input t id = Netlist.is_input t.circuit id

let electrical_exn t id =
  match t.electrical.(id) with
  | Some e -> e
  | None -> invalid_arg "Graph.electrical_exn: node is a primary input"

let fanins t id =
  if is_input t id then [||] else (Netlist.gate_of t.circuit id).Netlist.fanins

let total_nominal_delay t = Array.fold_left ( +. ) 0.0 t.delay

(* [Derivatives.gradient e Params.nominal] with the point's factors
   evaluated once. *)
let nominal_gradient = Ssta_tech.Derivatives.gradient_at Ssta_tech.Params.nominal

let grad_of = function
  | Some e -> nominal_gradient e
  | None -> Ssta_tech.Params.zero

(* Two domains racing on the first call both evaluate the same
   deterministic table; the compare-and-set keeps the first one stored,
   so every caller sees one physical array. *)
let rec grads t =
  match Atomic.get t.grads_slot with
  | Some a -> a
  | None ->
      let a = Array.map grad_of t.electrical in
      ignore (Atomic.compare_and_set t.grads_slot None (Some a));
      grads t

let redrive prev c drives ~changed =
  let n = num_nodes prev in
  if Netlist.num_nodes c <> n || Array.length drives <> n then
    invalid_arg "Graph.redrive: one node and one drive per previous node";
  (* A gate's load sums its consumers' input capacitances at their kinds
     and drives, so a changed gate retimes itself and its gate fan-ins. *)
  let retimed =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun id ->
           if Netlist.is_input c id then
             invalid_arg "Graph.redrive: a primary input has no electricals";
           id
           :: List.filter
                (fun f -> not (Netlist.is_input c f))
                (Array.to_list (Netlist.gate_of c id).Netlist.fanins))
         changed)
  in
  let electrical = Array.copy prev.electrical in
  let delay = Array.copy prev.delay in
  List.iter
    (fun id ->
      if drives.(id) <= 0.0 then
        invalid_arg "Graph.redrive: drives must be positive";
      let is_output = Array.mem id c.Netlist.outputs in
      let e =
        drive_aware ~wire_cap:default_wire_cap c prev.fanouts drives
          ~is_output id
      in
      electrical.(id) <- Some e;
      delay.(id) <- nominal_delay e)
    retimed;
  let t = make c electrical delay prev.fanouts in
  (* Carry an evaluated table: copy it and re-derive the retimed
     entries; an unevaluated one stays lazy. *)
  (match Atomic.get prev.grads_slot with
  | None -> ()
  | Some a ->
      let a = Array.copy a in
      List.iter (fun id -> a.(id) <- grad_of electrical.(id)) retimed;
      Atomic.set t.grads_slot (Some a));
  (t, retimed)
