(* The block sweep composed from Arrival's public operators, in the
   engine's operand order: per gate, the fan-ins folded left to right
   with [max] (a gate without fan-ins starts from [zero]), then [sum]
   with the gate's own [of_gate] form; the circuit arrival folds the
   primary outputs the same way.  Every arrival stays live to the end.
   The engine's fused step and its dead-arrival release are checked
   against this byte for byte through [Engine.json_report]. *)

module Netlist = Ssta_circuit.Netlist
module Graph = Ssta_timing.Graph
module Sta = Ssta_timing.Sta
module Config = Ssta_core.Config
module Arrival = Ssta_block.Arrival
module Engine = Ssta_block.Engine

let fold_max config arrivals ids =
  Array.fold_left
    (fun acc f ->
      match acc with
      | None -> Some arrivals.(f)
      | Some m -> Some (Arrival.max config m arrivals.(f)))
    None ids

let gate config layers placement graph arrivals id =
  let input =
    Option.value ~default:(Arrival.zero ())
      (fold_max config arrivals (Graph.fanins graph id))
  in
  Arrival.sum config input (Arrival.of_gate config layers placement graph id)

let arrivals config placement graph =
  let layers = Config.layers_for config placement in
  let n = Graph.num_nodes graph in
  let arrivals = Array.make n (Arrival.zero ()) in
  for id = 0 to n - 1 do
    if not (Graph.is_input graph id) then
      arrivals.(id) <- gate config layers placement graph arrivals id
  done;
  arrivals

let analyze config placement circuit =
  let sta = Sta.analyze circuit in
  let arrivals = arrivals config placement sta.Sta.graph in
  let outputs = circuit.Netlist.outputs in
  let arrival = Option.get (fold_max config arrivals outputs) in
  let confidence_point a =
    Arrival.mean a +. (config.Config.confidence_sigma *. Arrival.std config a)
  in
  let endpoint o =
    let a = arrivals.(o) in
    { Engine.node = o;
      name = Netlist.node_name circuit o;
      arrival = a;
      pdf = Arrival.total_pdf config a;
      mean = Arrival.mean a;
      std = Arrival.std config a;
      inter_sigma = Arrival.inter_sigma config a;
      intra_sigma = Arrival.intra_sigma config a;
      confidence_point = confidence_point a }
  in
  { Engine.config;
    circuit_name = circuit.Netlist.name;
    num_gates = Netlist.num_gates circuit;
    sta;
    endpoints = Array.to_list (Array.map endpoint outputs);
    arrival;
    pdf = Arrival.total_pdf config arrival;
    mean = Arrival.mean arrival;
    std = Arrival.std config arrival;
    inter_sigma = Arrival.inter_sigma config arrival;
    intra_sigma = Arrival.intra_sigma config arrival;
    confidence_point = confidence_point arrival;
    runtime_s = 0.0 }
