open Ssta_circuit
open Ssta_tech
open Helpers
module B = Netlist.Builder

let build_simple () =
  let b = B.create "simple" in
  let a = B.add_input b "a" in
  let c = B.add_input b "b" in
  let g1 = B.add_gate b (Gate.Nand 2) [ a; c ] in
  let g2 = B.add_gate b Gate.Inv [ g1 ] in
  B.mark_output b g2;
  B.finish b

let test_builder_basic () =
  let c = build_simple () in
  check_int "nodes" 4 (Netlist.num_nodes c);
  check_int "gates" 2 (Netlist.num_gates c);
  check_int "inputs" 2 c.Netlist.num_inputs;
  check_int "outputs" 1 (Array.length c.Netlist.outputs);
  check_true "input check" (Netlist.is_input c 0);
  check_true "gate check" (not (Netlist.is_input c 2))

let test_builder_names () =
  let c = build_simple () in
  check_true "input name" (String.equal (Netlist.node_name c 0) "a");
  check_true "find by name" (Netlist.find_node c "b" = Some 1);
  check_true "missing name" (Netlist.find_node c "zzz" = None)

let test_builder_rejections () =
  check_raises_invalid "duplicate input name" (fun () ->
      let b = B.create "x" in
      ignore (B.add_input b "a");
      ignore (B.add_input b "a"));
  check_raises_invalid "input after gate" (fun () ->
      let b = B.create "x" in
      let a = B.add_input b "a" in
      ignore (B.add_gate b Gate.Inv [ a ]);
      ignore (B.add_input b "late"));
  check_raises_invalid "arity mismatch" (fun () ->
      let b = B.create "x" in
      let a = B.add_input b "a" in
      ignore (B.add_gate b (Gate.Nand 2) [ a ]));
  check_raises_invalid "forward reference" (fun () ->
      let b = B.create "x" in
      let a = B.add_input b "a" in
      ignore (B.add_gate b (Gate.Nand 2) [ a; 99 ]));
  check_raises_invalid "no outputs" (fun () ->
      let b = B.create "x" in
      let a = B.add_input b "a" in
      ignore (B.add_gate b Gate.Inv [ a ]);
      ignore (B.finish b));
  check_raises_invalid "no gates" (fun () ->
      let b = B.create "x" in
      let a = B.add_input b "a" in
      B.mark_output b a;
      ignore (B.finish b))

let test_fanouts () =
  let c = build_simple () in
  let fo = Netlist.fanouts c in
  check_int "input 0 feeds the nand" 1 (Array.length fo.(0));
  check_int "nand feeds the inverter" 1 (Array.length fo.(2));
  check_int "inverter feeds nothing internally" 0 (Array.length fo.(3));
  let counts = Netlist.fanout_counts c in
  (* primary output adds one sink *)
  check_int "output counted as consumer" 1 counts.(3)

let test_levels_depth () =
  let c = build_simple () in
  let lv = Netlist.levels c in
  check_int "input level" 0 lv.(0);
  check_int "first gate level" 1 lv.(2);
  check_int "second gate level" 2 lv.(3);
  check_int "depth" 2 (Netlist.depth c)

let test_histogram () =
  let c = build_simple () in
  let h = Netlist.gate_kind_histogram c in
  check_int "two kinds" 2 (List.length h);
  check_true "one nand" (List.mem (Gate.Nand 2, 1) h);
  check_true "one inv" (List.mem (Gate.Inv, 1) h)

let test_simulate () =
  let c = build_simple () in
  (* out = NOT(NAND(a,b)) = AND(a,b) *)
  let out inputs = (Netlist.output_values c inputs).(0) in
  check_true "0,0 -> 0" (not (out [| false; false |]));
  check_true "1,0 -> 0" (not (out [| true; false |]));
  check_true "1,1 -> 1" (out [| true; true |]);
  check_raises_invalid "wrong input width" (fun () ->
      ignore (Netlist.simulate c [| true |]))

let test_gate_of () =
  let c = build_simple () in
  let g = Netlist.gate_of c 2 in
  check_true "kind" (g.Netlist.kind = Gate.Nand 2);
  check_raises_invalid "gate_of on input" (fun () ->
      ignore (Netlist.gate_of c 0))

let test_mark_output_idempotent () =
  let b = B.create "x" in
  let a = B.add_input b "a" in
  let g = B.add_gate b Gate.Inv [ a ] in
  B.mark_output b g;
  B.mark_output b g;
  let c = B.finish b in
  check_int "single output" 1 (Array.length c.Netlist.outputs)

(* Outputs keep the order of their first marking, whatever repeats
   follow. *)
let prop_mark_output_first_order =
  qcheck ~count:50 "outputs in first-marking order, each once"
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 0 19))
    (fun marks ->
      let b = B.create "marks" in
      let a = B.add_input b "a" in
      let gates = Array.init 20 (fun _ -> B.add_gate b Gate.Inv [ a ]) in
      List.iter (fun k -> B.mark_output b gates.(k)) marks;
      let c = B.finish b in
      let first =
        List.fold_left
          (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
          [] marks
      in
      Array.to_list c.Netlist.outputs
      = List.map (fun k -> gates.(k)) first)

let prop_builder_topological =
  qcheck ~count:30 "generated netlists are topological by construction"
    QCheck.(int_range 1 200)
    (fun seed ->
      let c =
        Generators.random_layered ~name:"p" ~inputs:6 ~outputs:3 ~gates:40
          ~depth:6 ~seed ()
      in
      Array.for_all
        (fun (g : Netlist.gate) ->
          Array.for_all (fun f -> f < g.Netlist.id) g.Netlist.fanins)
        c.Netlist.gates)

let suite =
  ( "netlist",
    [ case "builder basics" test_builder_basic;
      case "node names" test_builder_names;
      case "builder rejects malformed input" test_builder_rejections;
      case "fanout computation" test_fanouts;
      case "levels and depth" test_levels_depth;
      case "gate histogram" test_histogram;
      case "logic simulation" test_simulate;
      case "gate_of" test_gate_of;
      case "mark_output idempotent" test_mark_output_idempotent;
      prop_mark_output_first_order;
      prop_builder_topological ] )
