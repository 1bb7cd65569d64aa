(* Tests for the production-timer features layered on the paper's core:
   required-time/slack, structural Verilog, analytic path correlation,
   drive strengths and the sizing optimizer, and the additional
   arithmetic generators. *)

open Ssta_circuit
open Ssta_timing
open Ssta_correlation
open Ssta_prob
open Helpers

(* ---------------- Slack ---------------- *)

let test_slack_default_clock () =
  let g = Graph.of_netlist (small_random ()) in
  let s = Slack.compute g in
  check_close ~tol:1e-15 "clock = critical delay"
    (Longest_path.critical_delay g s.Slack.arrival)
    s.Slack.clock;
  check_close_abs ~tol:1e-18 "worst slack is zero at the default clock" 0.0
    (Slack.worst s);
  check_true "no violations" (Slack.violations s = [])

let test_slack_tight_clock () =
  let g = Graph.of_netlist (small_random ()) in
  let labels = Longest_path.bellman_ford g in
  let critical = Longest_path.critical_delay g labels in
  let s = Slack.compute ~clock:(0.9 *. critical) g in
  check_close ~tol:1e-9 "worst slack = clock - critical"
    ((0.9 *. critical) -. critical)
    (Slack.worst s);
  check_true "violations exist" (Slack.violations s <> []);
  let worst_node = Slack.worst_node s in
  check_close ~tol:1e-9 "worst node carries the worst slack" (Slack.worst s)
    s.Slack.slack.(worst_node)

let test_slack_critical_nodes_cover_critical_path () =
  let g = Graph.of_netlist (small_random ()) in
  let labels = Longest_path.bellman_ford g in
  let path = Longest_path.critical_path g labels in
  let s = Slack.compute g in
  let critical = Slack.critical_nodes s in
  Array.iter
    (fun id ->
      check_true "critical-path node has zero slack" (List.mem id critical))
    path

let test_slack_generous_clock () =
  let g = Graph.of_netlist (tiny_chain ()) in
  let s = Slack.compute ~clock:1.0 g in
  check_true "everything has huge slack" (Slack.worst s > 0.9)

(* ---------------- Verilog ---------------- *)

let verilog_sample =
  {|// a comment
module test (a, b, sel, y);
  input a, b, sel;
  output y;
  wire na, ta, tb, nsel;
  /* 2:1 mux */
  not (nsel, sel);
  and g1 (ta, a, nsel);
  and g2 (tb, b, sel);
  or  g3 (y, ta, tb);
endmodule
|}

let test_verilog_parse () =
  let c = Verilog.parse_string verilog_sample in
  check_int "inputs" 3 c.Netlist.num_inputs;
  check_int "gates" 4 (Netlist.num_gates c);
  check_int "outputs" 1 (Array.length c.Netlist.outputs);
  (* mux semantics *)
  let out a b sel = (Netlist.output_values c [| a; b; sel |]).(0) in
  check_true "sel=0 picks a" (out true false false);
  check_true "sel=1 picks b" (not (out true false true));
  check_true "sel=1 picks b (true)" (out false true true)

let test_verilog_forward_refs_and_unnamed_instances () =
  let text =
    "module m (a, y);\n input a;\n output y;\n wire w;\n not (y, w);\n \
     not (w, a);\nendmodule\n"
  in
  let c = Verilog.parse_string text in
  check_int "two gates" 2 (Netlist.num_gates c);
  check_true "double inversion" ((Netlist.output_values c [| true |]).(0))

(* Each malformed module must fail with exactly this message and
   position (line, column; 0, 0 when the error has no single token). *)
let test_verilog_errors () =
  let hdr = "module m (a, b, y);\ninput a, b;\noutput y;\n" in
  let expect (label, line, col, message, text) =
    match Verilog.parse_string text with
    | exception Verilog.Parse_error (pos, msg) ->
        Alcotest.(check (triple int int string))
          label (line, col, message)
          (pos.Ssta_runtime.Ssta_error.line, pos.col, msg)
    | _ -> Alcotest.failf "%s: expected Parse_error for %S" label text
  in
  List.iter expect
    [ ("no gates", 0, 0, "Netlist.Builder.finish: no gates",
       "module m (a); input a; endmodule");
      ("unknown primitive", 4, 1, "unexpected token in module body",
       "module m (a, y);\ninput a;\noutput y;\nfrob g (y, a);\nendmodule\n");
      ("undriven net", 0, 0, "undriven net: w",
       "module m (a, y);\ninput a;\noutput y;\nnot (y, w);\nendmodule\n");
      ("self loop", 0, 0, "combinational cycle through y",
       "module m (a, y);\ninput a;\noutput y;\nnot (y, y);\nendmodule\n");
      ("bad connection list", 4, 10, "bad connection list",
       "module m (a, y);\ninput a;\noutput y;\nnot (y, a;\nendmodule\n");
      ("missing endmodule", 0, 0, "missing endmodule",
       "module m (a, y);\ninput a;\noutput y;\nnot (y, a);\n");
      ("duplicate input", 0, 0, "duplicate input: a",
       "module m (a, y);\ninput a, a;\noutput y;\nnot (y, a);\nendmodule\n");
      ("duplicate input across declarations", 0, 0, "duplicate input: b",
       hdr ^ "input b;\nnot g1 (y, a);\nendmodule\n");
      ("net driven twice", 5, 3, "net driven twice: y",
       hdr ^ "not (y, a);\n  buf g2 (y, b);\nendmodule\n");
      ("driven twice before duplicate input", 6, 1, "net driven twice: y",
       hdr ^ "input a;\nnot (y, a);\nbuf (y, b);\nendmodule\n");
      ("combinational cycle", 0, 0, "combinational cycle through w",
       hdr ^ "and g1 (w, a, v);\nand g2 (v, w, b);\nnot g3 (y, w);\nendmodule\n");
      ("cycle through an output", 0, 0, "combinational cycle through y",
       hdr ^ "nand g1 (y, a, y);\nendmodule\n");
      ("undriven operand", 0, 0, "undriven net: q",
       hdr ^ "and g1 (w, a, q);\nnot g3 (y, w);\nendmodule\n");
      ("output never driven", 0, 0, "output is never driven: z",
       hdr ^ "output z;\nnot g1 (y, a);\nendmodule\n");
      ("no inputs", 0, 0, "output is never driven: y",
       "module m (y);\noutput y;\nendmodule\n");
      ("unsupported arity", 4, 1, "unsupported xor with 3 inputs",
       hdr ^ "xor g1 (y, a, b, a);\nendmodule\n");
      ("unsupported not arity", 4, 1, "unsupported not with 2 inputs",
       hdr ^ "not g1 (y, a, b);\nendmodule\n");
      ("instance with no inputs", 4, 1, "instance with no inputs: y",
       hdr ^ "not g1 (y);\nendmodule\n");
      ("instance with no connections", 4, 1, "instance with no connections",
       hdr ^ "not g1 ();\nendmodule\n") ]

let test_verilog_roundtrip_suite () =
  List.iter
    (fun c ->
      let c' = Verilog.parse_string (Verilog.to_string c) in
      check_int "nodes" (Netlist.num_nodes c) (Netlist.num_nodes c');
      let rng = Rng.create 5 in
      for _ = 1 to 60 do
        let inputs =
          Array.init c.Netlist.num_inputs (fun _ -> Rng.float rng < 0.5)
        in
        check_true "logic preserved"
          (Netlist.output_values c inputs = Netlist.output_values c' inputs)
      done)
    [ small_adder ();
      Generators.ecc ~name:"e" ~data_bits:8 ~check_bits:4 ();
      small_random () ]

let test_verilog_and_bench_agree () =
  let c = small_random () in
  let via_verilog = Verilog.parse_string (Verilog.to_string c) in
  let via_bench = Bench_format.parse_string (Bench_format.to_string c) in
  let rng = Rng.create 9 in
  for _ = 1 to 40 do
    let inputs =
      Array.init c.Netlist.num_inputs (fun _ -> Rng.float rng < 0.5)
    in
    check_true "both formats preserve the function"
      (Netlist.output_values via_verilog inputs
      = Netlist.output_values via_bench inputs)
  done

(* ---------------- Path linearization ---------------- *)

let test_linearized_variance_close_to_pdf_variance () =
  let c = small_random () in
  let g = Graph.of_netlist c in
  let pl = Placement.place c in
  let layers = Layers.of_placement pl in
  let labels = Longest_path.bellman_ford g in
  let nodes = Longest_path.critical_path g labels in
  let path = { Paths.nodes; delay = Paths.recompute_delay g nodes } in
  let pc = Path_coeffs.of_path g pl layers path in
  let ctx = Ssta_core.Path_analysis.context Ssta_core.Config.default g pl in
  let a = Ssta_core.Path_analysis.analyze ctx path in
  (* Inter part linearized too: the summed gradient against the layer-0
     share of each RV's variance, plus the Eq. (14) intra variance. *)
  let budget = Ssta_correlation.Budget.equal ~layers:5 in
  let inter =
    List.fold_left
      (fun acc rv ->
        let d = Ssta_tech.Params.get pc.Path_coeffs.grad_sum rv in
        let v =
          Ssta_correlation.Slots.var budget ~layer:0
            (Ssta_tech.Params.rv_index rv)
        in
        acc +. (d *. d *. v))
      0.0 Ssta_tech.Params.all_rvs
  in
  let linearized = sqrt (inter +. Path_coeffs.intra_variance pc budget) in
  check_close ~tol:0.05 "linearized sigma ~ numeric sigma" a.Ssta_core.Path_analysis.std
    linearized

(* ---------------- Drives and sizing ---------------- *)

let test_with_drives_uniform_matches_default () =
  let c = small_random () in
  let n = Netlist.num_nodes c in
  let g1 = Graph.of_netlist c in
  let g2 = Graph.with_drives c (Array.make n 1.0) in
  (* same drive, but with_drives computes exact consumer loads instead of
     fanout * default cap; delays agree within the PO-pin modelling *)
  let l1 = Longest_path.bellman_ford g1 in
  let l2 = Longest_path.bellman_ford g2 in
  check_close ~tol:0.08 "critical delays close"
    (Longest_path.critical_delay g1 l1)
    (Longest_path.critical_delay g2 l2)

let test_with_drives_speedup () =
  let c = tiny_chain () in
  let n = Netlist.num_nodes c in
  let base = Graph.with_drives c (Array.make n 1.0) in
  let fast = Graph.with_drives c (Array.make n 3.0) in
  let d g = Longest_path.critical_delay g (Longest_path.bellman_ford g) in
  check_true "upsizing everything speeds up the chain" (d fast < d base)

let test_with_drives_loading_effect () =
  (* Upsizing ONLY a consumer slows its driver. *)
  let c = tiny_chain () in
  let n = Netlist.num_nodes c in
  let drives = Array.make n 1.0 in
  drives.(3) <- 4.0;
  let g = Graph.with_drives c drives in
  let base = Graph.with_drives c (Array.make n 1.0) in
  check_true "driver of the upsized gate got slower"
    (g.Graph.delay.(2) > base.Graph.delay.(2));
  check_true "the upsized gate itself got faster"
    (g.Graph.delay.(3) < base.Graph.delay.(3))

let test_with_drives_validation () =
  let c = tiny_chain () in
  check_raises_invalid "wrong length" (fun () ->
      ignore (Graph.with_drives c [| 1.0 |]));
  let n = Netlist.num_nodes c in
  let drives = Array.make n 1.0 in
  drives.(n - 1) <- 0.0;
  check_raises_invalid "non-positive drive" (fun () ->
      ignore (Graph.with_drives c drives))

let test_sizing_meets_target () =
  let c = small_random () in
  let config = fast_config in
  let m = Ssta_core.Methodology.run ~config c in
  let before =
    m.Ssta_core.Methodology.det_critical.Ssta_core.Path_analysis
    .confidence_point
  in
  let target = 0.9 *. before in
  let r = Ssta_core.Sizing.optimize ~config ~target c in
  check_true "target met" r.Ssta_core.Sizing.met;
  check_true "3-sigma improved"
    (r.Ssta_core.Sizing.final_sigma3 <= target +. 1e-15);
  check_true "area grew"
    (r.Ssta_core.Sizing.area > r.Ssta_core.Sizing.initial_area);
  check_true "history recorded"
    (List.length r.Ssta_core.Sizing.history = r.Ssta_core.Sizing.iterations)

let test_sizing_gives_up_gracefully () =
  let c = tiny_chain () in
  (* an impossible target: drives cap out, met = false *)
  let r =
    Ssta_core.Sizing.optimize ~config:fast_config ~max_iterations:12
      ~target:1e-15 c
  in
  check_true "not met" (not r.Ssta_core.Sizing.met);
  check_true "still improved"
    (r.Ssta_core.Sizing.final_sigma3 < r.Ssta_core.Sizing.initial_sigma3)

let test_sizing_validation () =
  let c = tiny_chain () in
  check_raises_invalid "bad target" (fun () ->
      ignore (Ssta_core.Sizing.optimize ~target:0.0 c));
  check_raises_invalid "bad step" (fun () ->
      ignore (Ssta_core.Sizing.optimize ~step_factor:1.0 ~target:1.0 c))

(* ---------------- New generators ---------------- *)

let test_decoder () =
  let c = Generators.decoder ~name:"dec3" ~bits:3 () in
  check_int "8 outputs" 8 (Array.length c.Netlist.outputs);
  for word = 0 to 7 do
    let inputs = Array.init 3 (fun i -> (word lsr i) land 1 = 1) in
    let out = Netlist.output_values c inputs in
    Array.iteri
      (fun i v -> check_true "one-hot" (v = (i = word)))
      out
  done;
  check_raises_invalid "bits too big" (fun () ->
      ignore (Generators.decoder ~name:"d" ~bits:7 ()))

let test_mux_tree () =
  let c = Generators.mux_tree ~name:"mux4" ~select_bits:2 () in
  check_int "6 inputs" 6 c.Netlist.num_inputs;
  for sel = 0 to 3 do
    for data = 0 to 15 do
      let inputs =
        Array.append
          (Array.init 4 (fun i -> (data lsr i) land 1 = 1))
          (Array.init 2 (fun i -> (sel lsr i) land 1 = 1))
      in
      let expected = (data lsr sel) land 1 = 1 in
      check_true "mux selects the right input"
        ((Netlist.output_values c inputs).(0) = expected)
    done
  done

let test_parity_chain () =
  let c = Generators.parity_chain ~name:"par5" ~width:5 () in
  check_int "deep as its width" 4 (Netlist.depth c);
  for v = 0 to 31 do
    let inputs = Array.init 5 (fun i -> (v lsr i) land 1 = 1) in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs in
    check_true "parity"
      ((Netlist.output_values c inputs).(0) = (ones mod 2 = 1))
  done

let test_comparator () =
  let c = Generators.comparator ~name:"cmp3" ~bits:3 () in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let inputs =
        Array.append
          (Array.init 3 (fun i -> (a lsr i) land 1 = 1))
          (Array.init 3 (fun i -> (b lsr i) land 1 = 1))
      in
      check_true "equality" ((Netlist.output_values c inputs).(0) = (a = b))
    done
  done

(* ---------------- Path report ---------------- *)

let test_path_report_renders () =
  let c = small_random () in
  let sta = Sta.analyze c in
  let pl = Placement.place c in
  let ctx = Ssta_core.Path_analysis.context fast_config sta.Sta.graph pl in
  let a = Ssta_core.Path_analysis.analyze ctx sta.Sta.critical_path in
  let text =
    Format.asprintf "%a" (fun fmt () ->
        Ssta_core.Report.pp_path_report fmt sta.Sta.graph a) ()
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  check_true "mentions the statistical summary"
    (String.length text > 100 && contains text "statistical");
  check_true "mentions the corner" (contains text "worst-case corner")

let suite =
  ( "features",
    [ case "slack at the default clock" test_slack_default_clock;
      case "slack under a tight clock" test_slack_tight_clock;
      case "critical nodes cover the critical path"
        test_slack_critical_nodes_cover_critical_path;
      case "slack under a generous clock" test_slack_generous_clock;
      case "verilog parse + mux semantics" test_verilog_parse;
      case "verilog forward refs" test_verilog_forward_refs_and_unnamed_instances;
      case "verilog parse errors" test_verilog_errors;
      case "verilog roundtrip preserves logic" test_verilog_roundtrip_suite;
      case "verilog and bench agree" test_verilog_and_bench_agree;
      case "linearized variance ~ numeric variance"
        test_linearized_variance_close_to_pdf_variance;
      case "uniform drives ~ default graph" test_with_drives_uniform_matches_default;
      case "global upsizing speeds up" test_with_drives_speedup;
      case "upsizing a consumer loads its driver"
        test_with_drives_loading_effect;
      case "with_drives validation" test_with_drives_validation;
      case "sizing meets a feasible target" test_sizing_meets_target;
      case "sizing gives up gracefully" test_sizing_gives_up_gracefully;
      case "sizing validation" test_sizing_validation;
      case "decoder one-hot" test_decoder;
      case "mux tree selects" test_mux_tree;
      case "parity chain" test_parity_chain;
      case "comparator equality" test_comparator;
      case "path report renders" test_path_report_renders ] )
