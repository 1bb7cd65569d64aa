(* Setup/hold bookkeeping around the statistical analysis: slacks at a
   chosen clock, violation lists, the fastest (hold-limiting) paths, and
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

  (* Hold side: the fastest input-to-output paths. *)
  let min_labels = Shortest_path.labels graph in
  let fastest = Shortest_path.min_delay graph min_labels in
  Format.printf "@.fastest path: %.3f ps (%.1fx faster than critical)@."
    (ps fastest) (critical /. fastest);
  let near_min =
    Shortest_path.enumerate_near_min graph ~labels:min_labels
      ~slack:(0.1 *. fastest)
  in
  Format.printf "paths within 10%% of the fastest: %d@."
    (List.length near_min.Paths.paths);
  (match near_min.Paths.paths with
  | p :: _ ->
      Format.printf "  shortest path nodes:";
      Array.iter
        (fun id -> Format.printf " %s" (Netlist.node_name circuit id))
        p.Paths.nodes;
      Format.printf "@."
  | [] -> ());

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
