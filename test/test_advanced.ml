(* Advanced analysis engines: independence-assuming full-chip
   propagation, the correlated statistical path-max, second-order intra
   corrections, and parser robustness (fuzz). *)

open Ssta_circuit
open Ssta_timing
open Ssta_prob
open Ssta_core
open Helpers

(* ---------------- Full-chip (independence) ---------------- *)

let test_full_chip_gate_pdf () =
  let e = Ssta_tech.Gate.electrical (Ssta_tech.Gate.Nand 2) in
  let p = Full_chip.gate_delay_pdf Config.default e in
  check_close ~tol:1e-6 "centered on the nominal delay"
    (Ssta_tech.Elmore.nominal_delay e)
    (Pdf.mean p);
  check_true "positive spread" (Pdf.std p > 0.0)

let test_full_chip_chain_equals_convolution () =
  (* On a chain there is no max: the arrival is the plain convolution of
     the gate PDFs, so mean = sum of means. *)
  let c = tiny_chain () in
  let r = Full_chip.analyze c in
  let g = Graph.of_netlist c in
  check_close ~tol:1e-3 "chain mean = nominal critical delay"
    (Longest_path.critical_delay g (Longest_path.bellman_ford g))
    r.Full_chip.mean

let test_full_chip_mean_at_least_critical () =
  (* E[max] >= max of means. *)
  let c = small_random () in
  let sta = Sta.analyze c in
  let r = Full_chip.analyze c in
  check_true "mean(max) >= nominal critical"
    (r.Full_chip.mean >= sta.Sta.critical_delay -. 1e-13)

let test_full_chip_underestimates_spread () =
  (* The paper's critique quantified: ignoring the shared RVs makes the
     circuit-delay spread collapse relative to the correlated truth. *)
  let c = small_random () in
  let r = Full_chip.analyze c in
  let sta = Sta.analyze c in
  let pl = Placement.place c in
  let sampler = Monte_carlo.sampler Config.default sta.Sta.graph pl in
  let mc =
    Monte_carlo.circuit_delay_samples sampler ~n:800 (Rng.create 4)
  in
  let true_std = Stats.std mc in
  check_true "independent sigma well below the correlated sigma"
    (r.Full_chip.std < 0.7 *. true_std)

(* ---------------- Path max ---------------- *)

let methodology () =
  let c = small_random () in
  let pl = Placement.place c in
  (c, pl, Methodology.run ~config:Config.default ~placement:pl c)

let test_path_max_dominates_single_path () =
  let _, _, m = methodology () in
  let pm = Path_max.statistical_max m in
  let proxy =
    m.Methodology.prob_critical.Ranking.analysis.Path_analysis.mean
  in
  check_true "mean(max) >= mean of the best path" (pm.Path_max.mean >= proxy -. 1e-13);
  check_true "uses at least one path" (pm.Path_max.paths_used >= 1)

let test_path_max_matches_monte_carlo () =
  let _, pl, m = methodology () in
  let pm = Path_max.statistical_max m in
  let sampler =
    Monte_carlo.sampler Config.default m.Methodology.sta.Sta.graph pl
  in
  let mc =
    Monte_carlo.circuit_delay_samples sampler ~n:1200 (Rng.create 12)
  in
  let s = Stats.summarize mc in
  check_close ~tol:0.03 "mean within 3% of MC" s.Stats.mean pm.Path_max.mean;
  check_close ~tol:0.3 "std within 30% of MC" s.Stats.std pm.Path_max.std

let test_path_max_yield_brackets () =
  let _, _, m = methodology () in
  let d = m.Methodology.det_critical in
  let clock = d.Path_analysis.mean +. (2.0 *. d.Path_analysis.std) in
  let y = Path_max.yield_at m ~clock in
  check_true "a probability" (y >= 0.0 && y <= 1.0);
  (* the max-based yield cannot exceed the single-path proxy *)
  check_true "below the optimistic proxy"
    (y <= Yield.of_methodology m ~clock +. 0.02)

(* ---------------- Second order ---------------- *)

let second_order_setup () =
  let c = small_random () in
  let pl = Placement.place c in
  let sta = Sta.analyze c in
  let ctx = Path_analysis.context Config.default sta.Sta.graph pl in
  let a = Path_analysis.analyze ctx sta.Sta.critical_path in
  let corr =
    Second_order.of_path Config.default sta.Sta.graph pl
      sta.Sta.critical_path
  in
  (sta, pl, a, corr)

let test_second_order_shift_positive_and_small () =
  let _, _, a, corr = second_order_setup () in
  (* the delay is convex in the voltage RVs around nominal *)
  check_true "positive intra Jensen shift" (corr.Second_order.mean_shift > 0.0);
  check_true "small relative to the mean"
    (corr.Second_order.mean_shift < 0.01 *. a.Path_analysis.mean);
  check_true "extra variance negligible"
    (corr.Second_order.extra_variance
    < 0.01 *. a.Path_analysis.std *. a.Path_analysis.std);
  check_true "skewness tiny (convexity claim)"
    (Float.abs corr.Second_order.skewness < 0.05)

let test_second_order_improves_mc_mean () =
  let sta, pl, a, corr = second_order_setup () in
  let sampler = Monte_carlo.sampler Config.default sta.Sta.graph pl in
  let samples =
    Monte_carlo.path_delay_samples sampler ~n:60_000 (Rng.create 123)
      sta.Sta.critical_path
  in
  let mc_mean = Stats.mean samples in
  let err_first = Float.abs (mc_mean -. a.Path_analysis.mean) in
  let err_second =
    Float.abs (mc_mean -. Second_order.corrected_mean a corr)
  in
  check_true
    (Printf.sprintf "correction reduces the mean error (%.4f -> %.4f ps)"
       (err_first *. 1e12) (err_second *. 1e12))
    (err_second < err_first)

let test_corrected_std_formula () =
  let _, _, a, corr = second_order_setup () in
  let expect =
    sqrt
      ((a.Path_analysis.std *. a.Path_analysis.std)
      +. corr.Second_order.extra_variance)
  in
  check_close ~tol:1e-12 "corrected std" expect
    (Second_order.corrected_std a corr)

(* ---------------- Parser fuzzing ---------------- *)

let printable rng =
  let n = 1 + Rng.int rng 400 in
  String.init n (fun _ ->
      let c = Rng.int rng 96 in
      if c = 95 then '\n' else Char.chr (32 + c))

let test_bench_fuzz_no_crash () =
  let rng = Rng.create 2024 in
  for _ = 1 to 400 do
    let text = printable rng in
    match Bench_format.parse_string text with
    | (_ : Netlist.t) -> ()
    | exception Bench_format.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "bench parser leaked %s on %S" (Printexc.to_string e)
          text
  done

let test_verilog_fuzz_no_crash () =
  let rng = Rng.create 4048 in
  for _ = 1 to 400 do
    let text = "module m (a);\n" ^ printable rng in
    match Verilog.parse_string text with
    | (_ : Netlist.t) -> ()
    | exception Verilog.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "verilog parser leaked %s on %S" (Printexc.to_string e)
          text
  done

let test_def_fuzz_no_crash () =
  let rng = Rng.create 777 in
  for _ = 1 to 400 do
    let text = "DESIGN x ;\n" ^ printable rng in
    match Def_format.parse_string text with
    | (_ : Def_format.t) -> ()
    | exception Def_format.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "def parser leaked %s on %S" (Printexc.to_string e)
          text
  done

let test_mutated_bench_roundtrip () =
  (* Take a real .bench text and flip random characters: the parser must
     either succeed or fail cleanly. *)
  let base = Bench_format.to_string (small_adder ()) in
  let rng = Rng.create 31 in
  for _ = 1 to 300 do
    let b = Bytes.of_string base in
    for _ = 1 to 3 do
      Bytes.set b
        (Rng.int rng (Bytes.length b))
        (Char.chr (32 + Rng.int rng 96))
    done;
    match Bench_format.parse_string (Bytes.to_string b) with
    | (_ : Netlist.t) -> ()
    | exception Bench_format.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "mutated bench leaked %s" (Printexc.to_string e)
  done

let suite =
  ( "advanced",
    [ case "full-chip gate pdf" test_full_chip_gate_pdf;
      case "full-chip on a chain = convolution"
        test_full_chip_chain_equals_convolution;
      case "full-chip mean above nominal critical"
        test_full_chip_mean_at_least_critical;
      slow_case "independence underestimates the spread"
        test_full_chip_underestimates_spread;
      case "path-max dominates each path" test_path_max_dominates_single_path;
      slow_case "path-max matches Monte-Carlo" test_path_max_matches_monte_carlo;
      case "path-max yield brackets the proxy" test_path_max_yield_brackets;
      case "second-order shift positive and small"
        test_second_order_shift_positive_and_small;
      slow_case "second-order correction beats first order"
        test_second_order_improves_mc_mean;
      case "corrected std formula" test_corrected_std_formula;
      case "bench parser fuzz" test_bench_fuzz_no_crash;
      case "verilog parser fuzz" test_verilog_fuzz_no_crash;
      case "def parser fuzz" test_def_fuzz_no_crash;
      case "mutated bench inputs" test_mutated_bench_roundtrip ] )
