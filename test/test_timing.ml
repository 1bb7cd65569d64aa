open Ssta_circuit
open Ssta_timing
open Helpers

(* ---------------- Graph ---------------- *)

(* Bit-equality of two gradient records. *)
let same_grad (a : Ssta_tech.Params.t) (b : Ssta_tech.Params.t) =
  List.for_all
    (fun rv ->
      Int64.equal
        (Int64.bits_of_float (Ssta_tech.Params.get a rv))
        (Int64.bits_of_float (Ssta_tech.Params.get b rv)))
    Ssta_tech.Params.all_rvs

(* [Graph.grads g] against a fresh derivative per node. *)
let check_grads_table name g =
  let t = Graph.grads g in
  check_int (name ^ ": one entry per node") (Graph.num_nodes g)
    (Array.length t);
  for id = 0 to Graph.num_nodes g - 1 do
    let expected =
      if Graph.is_input g id then Ssta_tech.Params.zero
      else
        Ssta_tech.Derivatives.gradient (Graph.electrical_exn g id)
          Ssta_tech.Params.nominal
    in
    if not (same_grad expected t.(id)) then
      Alcotest.failf "%s: node %d gradient differs" name id
  done;
  check_true (name ^ ": later calls return the same table") (Graph.grads g == t)

let test_graph_grads () =
  let c = small_random () in
  let n = Netlist.num_nodes c in
  let pl = Placement.place c in
  let drives = Array.init n (fun id -> 1.0 +. float_of_int (id mod 3)) in
  check_grads_table "of_netlist" (Graph.of_netlist c);
  check_grads_table "with_drives" (Graph.with_drives c drives);
  check_grads_table "with_params_of"
    (Graph.with_params_of c (fun id ->
         Ssta_tech.Vt_class.params_for
           (if id mod 2 = 0 then Ssta_tech.Vt_class.Low
            else Ssta_tech.Vt_class.High)));
  check_grads_table "with_wire_caps"
    (Graph.with_wire_caps c (Array.init n (fun id -> 1e-15 *. float_of_int (id mod 4))));
  check_grads_table "of_placed" (Graph.of_placed c pl);
  (* Contexts on one graph share its table; a resized graph gets its
     own, matching its own electricals. *)
  let g = Graph.of_netlist c in
  let ctx1 = Ssta_core.Path_analysis.context fast_config g pl in
  let ctx2 = Ssta_core.Path_analysis.context fast_config g pl in
  check_true "contexts share the graph's table"
    (Ssta_core.Path_analysis.grads ctx1 == Ssta_core.Path_analysis.grads ctx2
    && Ssta_core.Path_analysis.grads ctx1 == Graph.grads g);
  let resized = Graph.with_drives c drives in
  check_true "with_drives builds a fresh table"
    (Graph.grads resized != Graph.grads g);
  let gate = (Netlist.gate_of c (n - 1)).Netlist.id in
  check_true "the resized table follows the new electricals"
    (not (same_grad (Graph.grads resized).(gate) (Graph.grads g).(gate)))

(* The graph builders evaluate the nominal point's factors once
   ([Elmore.delay_at], [Derivatives.gradient_at]); every delay and
   gradient must equal the per-gate forms bit for bit, on all ten
   ISCAS85 circuits and on random_layered ones, and [gradient_at] must
   equal [gradient] at the corner points too. *)
let test_hoisted_factors_bit_identical () =
  let module Params = Ssta_tech.Params in
  let module Corner = Ssta_tech.Corner in
  let points =
    [ Params.nominal; Corner.point Corner.Worst; Corner.point Corner.Best;
      Corner.point ~k:1.0 Corner.Worst ]
  in
  let check name g =
    check_grads_table name g;
    for id = 0 to Graph.num_nodes g - 1 do
      if not (Graph.is_input g id) then begin
        let e = Graph.electrical_exn g id in
        if
          not
            (Int64.equal
               (Int64.bits_of_float g.Graph.delay.(id))
               (Int64.bits_of_float (Ssta_tech.Elmore.nominal_delay e)))
        then Alcotest.failf "%s: node %d nominal delay differs" name id;
        List.iter
          (fun p ->
            if
              not
                (same_grad
                   (Ssta_tech.Derivatives.gradient_at p e)
                   (Ssta_tech.Derivatives.gradient e p))
            then Alcotest.failf "%s: node %d gradient_at differs" name id)
          points
      end
    done
  in
  let circuits =
    List.map (fun spec -> fst (Iscas85.build_placed spec)) Iscas85.all
    @ List.map
        (fun seed ->
          Generators.random_layered ~name:"r" ~inputs:8 ~outputs:4 ~gates:80
            ~depth:9 ~seed ())
        [ 1; 2; 3 ]
  in
  List.iter
    (fun c ->
      let n = Netlist.num_nodes c in
      let name = c.Netlist.name in
      check (name ^ " of_netlist") (Graph.of_netlist c);
      check (name ^ " with_drives")
        (Graph.with_drives c
           (Array.init n (fun id -> 0.6 +. (0.1 *. float_of_int (id mod 9)))));
      check (name ^ " with_wire_caps")
        (Graph.with_wire_caps c
           (Array.init n (fun id -> 1e-15 *. float_of_int (id mod 5))));
      check (name ^ " of_placed") (Graph.of_placed c (Placement.place c)))
    circuits

let test_graph_grads_race () =
  let g = Graph.of_netlist (small_random ()) in
  let spawn () = Domain.spawn (fun () -> Graph.grads g) in
  let d1 = spawn () and d2 = spawn () in
  let t1 = Domain.join d1 and t2 = Domain.join d2 in
  check_true "racing first calls agree on one table"
    (t1 == t2 && Graph.grads g == t1);
  check_grads_table "raced" g

let test_graph_of_netlist () =
  let c = small_adder () in
  let g = Graph.of_netlist c in
  check_int "nodes" (Netlist.num_nodes c) (Graph.num_nodes g);
  for id = 0 to Graph.num_nodes g - 1 do
    if Graph.is_input g id then begin
      check_close ~tol:0.0 "input delay 0" 0.0 g.Graph.delay.(id);
      check_true "no electrical model" (g.Graph.electrical.(id) = None)
    end
    else begin
      check_true "positive gate delay" (g.Graph.delay.(id) > 0.0);
      check_true "has electrical model" (g.Graph.electrical.(id) <> None)
    end
  done

let test_graph_fanout_loading () =
  (* A gate with more fanout must carry a larger delay. *)
  let b = Netlist.Builder.create "fo" in
  let a = Netlist.Builder.add_input b "a" in
  let shared = Netlist.Builder.add_gate b Ssta_tech.Gate.Inv [ a ] in
  let single = Netlist.Builder.add_gate b Ssta_tech.Gate.Inv [ a ] in
  (* give [shared] three consumers, [single] one *)
  let c1 = Netlist.Builder.add_gate b Ssta_tech.Gate.Inv [ shared ] in
  let c2 = Netlist.Builder.add_gate b Ssta_tech.Gate.Inv [ shared ] in
  let c3 = Netlist.Builder.add_gate b Ssta_tech.Gate.Inv [ shared ] in
  let c4 = Netlist.Builder.add_gate b Ssta_tech.Gate.Inv [ single ] in
  List.iter (Netlist.Builder.mark_output b) [ c1; c2; c3; c4 ];
  let g = Graph.of_netlist (Netlist.Builder.finish b) in
  check_true "fanout 3 slower than fanout 1"
    (g.Graph.delay.(shared) > g.Graph.delay.(single))

let test_electrical_exn () =
  let g = Graph.of_netlist (tiny_chain ()) in
  check_raises_invalid "on input" (fun () -> ignore (Graph.electrical_exn g 0))

(* ---------------- Longest path ---------------- *)

let test_chain_labels () =
  let g = Graph.of_netlist (tiny_chain ()) in
  let labels = Longest_path.bellman_ford g in
  check_close ~tol:0.0 "input label" 0.0 labels.(0);
  (* labels strictly increase along the chain *)
  for id = 1 to Graph.num_nodes g - 1 do
    check_true "monotone labels" (labels.(id) > labels.(id - 1))
  done

(* The paper's Bellman-Ford as written: relax every edge, round after
   round, until a round changes nothing (at most N rounds). *)
let relax_until_stable g =
  let n = Graph.num_nodes g in
  let labels =
    Array.init n (fun id -> if Graph.is_input g id then 0.0 else neg_infinity)
  in
  let relax_once () =
    let changed = ref false in
    for id = 0 to n - 1 do
      if not (Graph.is_input g id) then begin
        let best = ref neg_infinity in
        Array.iter
          (fun f -> if labels.(f) > !best then best := labels.(f))
          (Graph.fanins g id);
        let candidate = !best +. g.Graph.delay.(id) in
        if candidate > labels.(id) then begin
          labels.(id) <- candidate;
          changed := true
        end
      end
    done;
    !changed
  in
  let rec iterate remaining =
    if remaining > 0 && relax_once () then iterate (remaining - 1)
  in
  iterate n;
  labels

let iscas name = Iscas85.build (Option.get (Iscas85.by_name name))

let test_bellman_ford_equals_relaxation () =
  List.iter
    (fun c ->
      let g = Graph.of_netlist c in
      let reference = relax_until_stable g in
      Array.iteri
        (fun i x -> check_close ~tol:0.0 "labels agree" reference.(i) x)
        (Longest_path.bellman_ford g))
    [ tiny_chain (); small_adder (); small_random ();
      iscas "c432"; iscas "c1355" ]

let test_suffix () =
  let b = Netlist.Builder.create "sfx" in
  let inv x = Netlist.Builder.add_gate b Ssta_tech.Gate.Inv [ x ] in
  let a = Netlist.Builder.add_input b "a" in
  let bb = Netlist.Builder.add_input b "b" in
  let x = Netlist.Builder.add_gate b (Ssta_tech.Gate.Nand 2) [ a; bb ] in
  let y = inv x in
  let z = inv x in
  let w = inv z in
  let dead = inv a in
  let dead2 = inv dead in
  List.iter (Netlist.Builder.mark_output b) [ y; z; w ];
  let g = Graph.of_netlist (Netlist.Builder.finish b) in
  let d = g.Graph.delay and m = Longest_path.suffix g in
  let exact msg e v = check_close ~tol:0.0 msg e v in
  exact "output without consumers" 0.0 m.(y);
  exact "sink output" 0.0 m.(w);
  exact "output with a consumer" (Float.max 0.0 (m.(w) +. d.(w))) m.(z);
  exact "interior" (Float.max (m.(y) +. d.(y)) (m.(z) +. d.(z))) m.(x);
  exact "input past a dead branch" (m.(x) +. d.(x)) m.(a);
  check_true "dead gates reach no output"
    (m.(dead) = neg_infinity && m.(dead2) = neg_infinity);
  (* labels + suffix is the best complete path through each node: the
     critical path's nodes attain the critical delay. *)
  let g = Graph.of_netlist (small_random ()) in
  let labels = Longest_path.bellman_ford g in
  let m = Longest_path.suffix g in
  let critical = Longest_path.critical_delay g labels in
  Array.iteri
    (fun u l ->
      if m.(u) > neg_infinity then
        check_true "no path beats the critical delay"
          (l +. m.(u) <= critical *. (1.0 +. 1e-12)))
    labels;
  Array.iter
    (fun u ->
      check_close ~tol:1e-12 "critical path nodes attain it" critical
        (labels.(u) +. m.(u)))
    (Longest_path.critical_path g labels)

let test_critical_delay_positive () =
  let g = Graph.of_netlist (small_adder ()) in
  let labels = Longest_path.bellman_ford g in
  let d = Longest_path.critical_delay g labels in
  check_true "positive critical delay" (d > 0.0);
  let o = Longest_path.critical_output g labels in
  check_close ~tol:1e-15 "critical output realizes the delay" d labels.(o)

let test_critical_path_consistency () =
  List.iter
    (fun c ->
      let g = Graph.of_netlist c in
      let labels = Longest_path.bellman_ford g in
      let path = Longest_path.critical_path g labels in
      check_true "starts at an input" (Graph.is_input g path.(0));
      check_true "is a connected path" (Paths.is_path g path);
      check_close ~tol:1e-12 "path delay equals critical delay"
        (Longest_path.critical_delay g labels)
        (Paths.recompute_delay g path))
    [ tiny_chain (); small_adder (); small_random () ]

(* ---------------- Near-critical enumeration ---------------- *)

let enumerate_all g =
  let labels = Longest_path.bellman_ford g in
  (* a slack larger than total delay enumerates every input-output path *)
  Paths.enumerate g ~labels ~slack:(Graph.total_nominal_delay g +. 1.0)

let test_enumerate_chain () =
  let g = Graph.of_netlist (tiny_chain ()) in
  let e = enumerate_all g in
  check_int "single path in a chain" 1 (List.length e.Paths.paths)

let test_enumerate_finds_critical () =
  let g = Graph.of_netlist (small_random ()) in
  let labels = Longest_path.bellman_ford g in
  let e = Paths.enumerate g ~labels ~slack:0.0 in
  check_true "at least one path at zero slack" (List.length e.Paths.paths >= 1);
  match e.Paths.paths with
  | [] -> Alcotest.fail "no critical path"
  | first :: _ ->
      check_close ~tol:1e-9 "zero-slack paths are critical"
        e.Paths.critical_delay first.Paths.delay

let test_enumerate_slack_monotone () =
  let g = Graph.of_netlist (small_random ()) in
  let labels = Longest_path.bellman_ford g in
  let count slack =
    List.length (Paths.enumerate g ~labels ~slack).Paths.paths
  in
  let d = Longest_path.critical_delay g labels in
  let c1 = count 0.0 in
  let c2 = count (0.02 *. d) in
  let c3 = count (0.2 *. d) in
  check_true "path count grows with slack" (c1 <= c2 && c2 <= c3)

let test_enumerate_all_within_slack () =
  let g = Graph.of_netlist (small_random ()) in
  let labels = Longest_path.bellman_ford g in
  let d = Longest_path.critical_delay g labels in
  let slack = 0.1 *. d in
  let e = Paths.enumerate g ~labels ~slack in
  List.iter
    (fun (p : Paths.path) ->
      check_true "path within slack" (p.Paths.delay >= d -. slack -. 1e-12);
      check_true "valid path" (Paths.is_path g p.Paths.nodes);
      check_close ~tol:1e-12 "stored delay correct"
        (Paths.recompute_delay g p.Paths.nodes)
        p.Paths.delay)
    e.Paths.paths

let test_enumerate_sorted_descending () =
  let g = Graph.of_netlist (small_adder ()) in
  let e = enumerate_all g in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        check_true "sorted by decreasing delay"
          (a.Paths.delay >= b.Paths.delay -. 1e-15);
        check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted e.Paths.paths

let test_enumerate_max_paths_cap () =
  let g = Graph.of_netlist (small_adder ()) in
  let labels = Longest_path.bellman_ford g in
  let full = enumerate_all g in
  let total = List.length full.Paths.paths in
  check_true "adder has multiple paths" (total > 3);
  let capped =
    Paths.enumerate ~max_paths:2 g ~labels
      ~slack:(Graph.total_nominal_delay g +. 1.0)
  in
  check_true "truncation flagged" capped.Paths.truncated;
  check_int "capped count" 2 (List.length capped.Paths.paths)

(* The enumeration advances only the endpoint stream whose head the
   merge needs, one pop at a time, so the heaps pop at most one
   candidate per stream beyond the ones the merge consumed. *)
let check_lazy_refill name g ~max_paths ~slack =
  let labels = Longest_path.bellman_ford g in
  let e = Paths.enumerate ~max_paths g ~labels ~slack in
  let critical = Longest_path.critical_delay g labels in
  let threshold = critical -. slack -. (1e-15 +. (1e-12 *. Float.abs critical)) in
  let streams =
    Array.fold_left
      (fun acc o -> if labels.(o) >= threshold then acc + 1 else acc)
      0 g.Graph.circuit.Netlist.outputs
  in
  check_true (name ^ ": every merged candidate was popped")
    (e.Paths.pops >= e.Paths.explored);
  if e.Paths.pops > e.Paths.explored + streams then
    Alcotest.failf "%s: %d pops for %d explored over %d streams"
      name e.Paths.pops e.Paths.explored streams

let test_enumerate_lazy_refill_random =
  qcheck ~count:12 "lazy refill: pops <= explored + streams"
    QCheck.(triple (int_range 1 1_000_000) (int_range 1 400) (float_range 0.0 0.3))
    (fun (seed, max_paths, frac) ->
      let c =
        Generators.random_layered ~name:"lazy" ~inputs:12 ~outputs:9
          ~gates:180 ~depth:14 ~seed ()
      in
      let g = Graph.of_netlist c in
      let labels = Longest_path.bellman_ford g in
      let slack = frac *. Longest_path.critical_delay g labels in
      check_lazy_refill (Printf.sprintf "random seed %d" seed) g ~max_paths
        ~slack;
      true)

let test_enumerate_lazy_refill_iscas85 () =
  List.iter
    (fun (name, max_paths, frac) ->
      let c, _ = Iscas85.build_placed (Option.get (Iscas85.by_name name)) in
      let g = Graph.of_netlist c in
      let labels = Longest_path.bellman_ford g in
      let slack = frac *. Longest_path.critical_delay g labels in
      check_lazy_refill name g ~max_paths ~slack)
    [ ("c432", 20_000, 0.02); ("c1355", 200, 0.05); ("c6288", 100, 0.02);
      ("c7552", 8, 0.05); ("c880", 500, 0.1) ]

let test_enumerate_exhaustive_small () =
  (* Enumerate all paths of the 4-bit adder and cross-check the count by
     independent DFS over the DAG. *)
  let c = small_adder () in
  let g = Graph.of_netlist c in
  let e = enumerate_all g in
  let memo = Hashtbl.create 64 in
  let rec count_paths id =
    if Graph.is_input g id then 1
    else
      match Hashtbl.find_opt memo id with
      | Some n -> n
      | None ->
          let n =
            Array.fold_left
              (fun acc f -> acc + count_paths f)
              0 (Graph.fanins g id)
          in
          Hashtbl.add memo id n;
          n
  in
  let expected =
    Array.fold_left
      (fun acc o -> acc + count_paths o)
      0 c.Netlist.outputs
  in
  check_int "every input-output path enumerated" expected
    (List.length e.Paths.paths)

let test_enumerate_invalid () =
  let g = Graph.of_netlist (tiny_chain ()) in
  let labels = Longest_path.bellman_ford g in
  check_raises_invalid "negative slack" (fun () ->
      ignore (Paths.enumerate g ~labels ~slack:(-1.0)));
  check_raises_invalid "bad cap" (fun () ->
      ignore (Paths.enumerate ~max_paths:0 g ~labels ~slack:0.0))

(* ---------------- STA driver ---------------- *)

let test_sta_analyze () =
  let sta = Sta.analyze (small_random ()) in
  check_true "critical delay positive" (sta.Sta.critical_delay > 0.0);
  check_close ~tol:1e-12 "critical path delay matches"
    sta.Sta.critical_delay sta.Sta.critical_path.Paths.delay

let test_sta_worst_case_exceeds_nominal () =
  let sta = Sta.analyze (small_random ()) in
  let wc = Paths.worst_case_delay sta.Sta.graph sta.Sta.critical_path in
  check_true "corner slower than nominal" (wc > sta.Sta.critical_delay);
  check_true "corner ratio plausible" (wc < 3.0 *. sta.Sta.critical_delay)

(* The corner fold over node ids equals the listed corner delay bit for
   bit, and a gate-free path never evaluates the corner (a corner this
   wide leaves the delay model's domain). *)
let test_worst_case_fold () =
  let sta =
    Sta.analyze (Iscas85.build (Option.get (Iscas85.by_name "c1355")))
  in
  let g = sta.Sta.graph in
  let paths = (Sta.near_critical ~max_paths:200 sta ~slack:1.0).Paths.paths in
  check_int "c1355: 200 paths" 200 (List.length paths);
  List.iter
    (fun p ->
      let listed =
        Ssta_tech.Corner.path_delay Ssta_tech.Corner.Worst
          (Paths.path_gates g p)
      in
      if
        not
          (Int64.equal
             (Int64.bits_of_float listed)
             (Int64.bits_of_float (Paths.worst_case_delay g p)))
      then
        Alcotest.failf "path of %d nodes: fold differs"
          (Array.length p.Paths.nodes))
    paths;
  let input = { Paths.nodes = [| 0 |]; delay = 0.0 } in
  check_close "gate-free path" 0.0
    (Paths.worst_case_delay ~corner_k:1e6 g input);
  check_raises_invalid "the corner itself is outside the model" (fun () ->
      Ssta_tech.Corner.point ~k:1e6 Ssta_tech.Corner.Worst);
  check_close "empty gate list" 0.0
    (Ssta_tech.Elmore.path_delay []
       (Ssta_tech.Corner.point Ssta_tech.Corner.Worst))

let test_path_gates () =
  let sta = Sta.analyze (tiny_chain ()) in
  let gates = Paths.path_gates sta.Sta.graph sta.Sta.critical_path in
  check_int "five gates on the chain" 5 (List.length gates);
  check_int "gate count helper" 5
    (Paths.path_gate_count sta.Sta.graph sta.Sta.critical_path)

let prop_critical_is_max =
  qcheck ~count:15 "no enumerated path exceeds the critical delay"
    QCheck.(int_range 1 300)
    (fun seed ->
      let c =
        Generators.random_layered ~name:"p" ~inputs:6 ~outputs:3 ~gates:50
          ~depth:7 ~seed ()
      in
      let g = Graph.of_netlist c in
      let labels = Longest_path.bellman_ford g in
      let d = Longest_path.critical_delay g labels in
      let e = Paths.enumerate g ~labels ~slack:(0.3 *. d) in
      List.for_all
        (fun (p : Paths.path) -> p.Paths.delay <= d +. 1e-12)
        e.Paths.paths)

let suite =
  ( "timing",
    [ case "graph construction" test_graph_of_netlist;
      case "fanout increases loading" test_graph_fanout_loading;
      case "gradient table per graph" test_graph_grads;
      case "gradient table under a first-call race" test_graph_grads_race;
      slow_case "hoisted nominal factors = per-gate forms, bit for bit"
        test_hoisted_factors_bit_identical;
      case "max-plus suffix" test_suffix;
      case "electrical_exn on inputs" test_electrical_exn;
      case "chain labels monotone" test_chain_labels;
      case "bellman-ford = relax-until-stable"
        test_bellman_ford_equals_relaxation;
      case "critical delay and output" test_critical_delay_positive;
      case "critical path consistency" test_critical_path_consistency;
      case "chain has one path" test_enumerate_chain;
      case "zero slack finds critical paths" test_enumerate_finds_critical;
      case "path count monotone in slack" test_enumerate_slack_monotone;
      case "all enumerated paths within slack"
        test_enumerate_all_within_slack;
      case "enumeration sorted by delay" test_enumerate_sorted_descending;
      case "max_paths cap and truncation flag" test_enumerate_max_paths_cap;
      case "exhaustive enumeration matches DFS count"
        test_enumerate_exhaustive_small;
      case "enumeration input validation" test_enumerate_invalid;
      test_enumerate_lazy_refill_random;
      slow_case "lazy refill on ISCAS85: bounded pops"
        test_enumerate_lazy_refill_iscas85;
      case "sta driver" test_sta_analyze;
      case "worst case exceeds nominal" test_sta_worst_case_exceeds_nominal;
      case "path gate extraction" test_path_gates;
      case "worst case folds over node ids" test_worst_case_fold;
      prop_critical_is_max ] )
