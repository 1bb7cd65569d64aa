module Elmore = Ssta_tech.Elmore

type t = {
  graph : Graph.t;
  labels : float array;
  critical_delay : float;
  critical_path : Paths.path;
}

let of_labels graph labels =
  let critical_delay = Longest_path.critical_delay graph labels in
  let nodes = Longest_path.critical_path graph labels in
  let critical_path =
    { Paths.nodes; delay = Paths.recompute_delay graph nodes }
  in
  { graph; labels; critical_delay; critical_path }

let of_graph graph = of_labels graph (Longest_path.bellman_ford graph)

let relabel t graph ~changed =
  of_labels graph (Longest_path.relabel graph t.labels ~changed)

let analyze ?wire_cap c = of_graph (Graph.of_netlist ?wire_cap c)
let analyze_placed ?wire c pl = of_graph (Graph.of_placed ?wire c pl)

let near_critical ?max_paths ?should_stop ?prune t ~slack =
  Paths.enumerate ?max_paths ?should_stop ?prune t.graph
    ~labels:t.labels ~slack

let pp_summary fmt t =
  Format.fprintf fmt "%s: critical delay %.3f ps over %d gates"
    t.graph.Graph.circuit.Ssta_circuit.Netlist.name
    (Elmore.ps t.critical_delay)
    (Paths.path_gate_count t.graph t.critical_path)
