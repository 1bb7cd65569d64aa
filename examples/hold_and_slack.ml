(* Setup/hold bookkeeping around the statistical analysis: slacks at a
   chosen clock, violation lists, the fastest (hold-limiting) path, and
   the resize what-if loop a designer actually runs.

     dune exec examples/hold_and_slack.exe *)

module Iscas85 = Ssta_circuit.Iscas85
module Netlist = Ssta_circuit.Netlist
module Elmore = Ssta_tech.Elmore
open Ssta_timing

let ps = Elmore.ps

let () =
  let spec =
    match Iscas85.by_name "c880" with
    | Some s -> s
    | None -> failwith "c880 missing"
  in
  let circuit = Iscas85.build spec in
  let graph = Graph.of_netlist circuit in

  (* Setup side: longest paths and slacks at a 5%-tight clock. *)
  let max_labels = Longest_path.bellman_ford graph in
  let critical = Longest_path.critical_delay graph max_labels in
  Format.printf "%s: critical %.3f ps@." circuit.Netlist.name (ps critical);
  let s = Slack.compute ~clock:(0.95 *. critical) graph in
  Format.printf "at a 5%%-tight clock (%.3f ps): worst slack %.3f ps, %d \
                 violating nodes of %d@."
    (ps s.Slack.clock) (ps (Slack.worst s))
    (List.length (Slack.violations s))
    (Netlist.num_nodes circuit);

  (* Hold side: the fastest input-to-output path, from one
     earliest-arrival pass in node-id (topological) order. *)
  let earliest = Array.make (Graph.num_nodes graph) 0.0 in
  for id = 0 to Graph.num_nodes graph - 1 do
    if not (Graph.is_input graph id) then
      earliest.(id) <-
        Array.fold_left
          (fun a f -> Float.min a earliest.(f))
          infinity (Graph.fanins graph id)
        +. graph.Graph.delay.(id)
  done;
  let fastest =
    Array.fold_left
      (fun a o -> Float.min a earliest.(o))
      infinity circuit.Netlist.outputs
  in
  Format.printf "@.fastest path: %.3f ps (%.1fx faster than critical)@."
    (ps fastest) (critical /. fastest);

  (* What-if loop: upsize the critical path's gates one by one and
     retime after each resize (drive-aware loading, so an upsized gate
     speeds up while its fan-ins see the larger input capacitance). *)
  Format.printf "@.what-if (upsizing critical-path gates):@.";
  let drives = Array.make (Netlist.num_nodes circuit) 1.0 in
  let path = Longest_path.critical_path graph max_labels in
  Array.iter
    (fun id ->
      if not (Netlist.is_input circuit id) then begin
        drives.(id) <- 2.0;
        let sta = Sta.of_graph (Graph.with_drives circuit drives) in
        Format.printf "  upsize %-8s -> critical %.3f ps@."
          (Netlist.node_name circuit id)
          (ps sta.Sta.critical_delay)
      end)
    (Array.sub path 0 (Int.min 6 (Array.length path)))
