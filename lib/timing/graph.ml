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

let of_netlist ?(wire_cap = 1.0e-15) c =
  let n = Netlist.num_nodes c in
  let fanouts = Netlist.fanouts c in
  let electrical = Array.make n None in
  let delay = Array.make n 0.0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      let fanout = Array.length fanouts.(g.Netlist.id) in
      let e = Gate.electrical ~fanout ~wire_cap g.Netlist.kind in
      electrical.(g.Netlist.id) <- Some e;
      delay.(g.Netlist.id) <- Elmore.nominal_delay e)
    c.Netlist.gates;
  make c electrical delay fanouts

let with_params_of ?(wire_cap = 1.0e-15) c params_of =
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
      delay.(id) <- Elmore.nominal_delay e)
    c.Netlist.gates;
  make c electrical delay fanouts

let with_drives ?(wire_cap = 1.0e-15) c drives =
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
      let load_cap =
        Array.fold_left
          (fun acc f ->
            let kind = (Netlist.gate_of c f).Netlist.kind in
            acc +. Gate.input_cap ~drive:drives.(f) kind)
          (if is_output.(id) then Gate.c_gate_input else 0.0)
          fanouts.(id)
      in
      let fanout = Array.length fanouts.(id) in
      let e =
        Gate.electrical ~fanout ~wire_cap ~load_cap ~drive:drives.(id)
          g.Netlist.kind
      in
      electrical.(id) <- Some e;
      delay.(id) <- Elmore.nominal_delay e)
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
      delay.(id) <- Elmore.nominal_delay e)
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

(* Two domains racing on the first call both evaluate the same
   deterministic table; the compare-and-set keeps the first one stored,
   so every caller sees one physical array. *)
let rec grads t =
  match Atomic.get t.grads_slot with
  | Some a -> a
  | None ->
      let a =
        Array.map
          (function
            | Some e -> Ssta_tech.Derivatives.gradient e Ssta_tech.Params.nominal
            | None -> Ssta_tech.Params.zero)
          t.electrical
      in
      ignore (Atomic.compare_and_set t.grads_slot None (Some a));
      grads t
