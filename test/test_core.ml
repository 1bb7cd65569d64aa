open Ssta_circuit
open Ssta_timing
open Ssta_prob
open Ssta_core
open Helpers

(* ---------------- Config ---------------- *)

let test_default_config_is_the_papers () =
  let c = Config.default in
  check_int "Qintra" 100 c.Config.quality_intra;
  check_int "Qinter" 50 c.Config.quality_inter;
  check_close ~tol:0.0 "C" 0.05 c.Config.confidence;
  check_int "5 layers" 5 (Config.num_layers c);
  check_close ~tol:0.0 "6-sigma truncation" 6.0 c.Config.truncation;
  check_close ~tol:0.0 "3-sigma ranking point" 3.0 c.Config.confidence_sigma;
  check_true "valid" (Config.validate c = Ok ())

let test_config_updates () =
  let c = Config.with_quality Config.default ~intra:30 ~inter:10 in
  check_int "intra updated" 30 c.Config.quality_intra;
  let c = Config.with_confidence c 0.7 in
  check_close ~tol:0.0 "confidence updated" 0.7 c.Config.confidence;
  let c = Config.with_budget_split c ~inter_fraction:0.5 in
  check_close ~tol:1e-12 "split applied" 0.5
    (Ssta_correlation.Budget.inter_fraction c.Config.budget);
  check_true "still valid" (Config.validate c = Ok ())

let test_config_validation () =
  let bad = { Config.default with Config.quality_intra = 1 } in
  check_true "rejects Q=1" (Config.validate bad <> Ok ());
  let bad = { Config.default with Config.confidence = -0.5 } in
  check_true "rejects negative C" (Config.validate bad <> Ok ());
  let bad =
    { Config.default with
      Config.budget = Ssta_correlation.Budget.equal ~layers:3 }
  in
  check_true "rejects budget/layer mismatch" (Config.validate bad <> Ok ())

(* ---------------- Intra ---------------- *)

let analysis_context ?(config = fast_config) circuit =
  let sta = Sta.analyze circuit in
  let pl = Placement.place circuit in
  let ctx = Path_analysis.context config sta.Sta.graph pl in
  (sta, pl, ctx)

let test_intra_pdf_zero_mean_gaussian () =
  let circuit = small_random () in
  let sta = Sta.analyze circuit in
  let pl = Placement.place circuit in
  let layers = Config.layers_for fast_config pl in
  let pc =
    Ssta_correlation.Path_coeffs.of_path sta.Sta.graph pl layers
      sta.Sta.critical_path
  in
  let p = Intra.pdf fast_config pc in
  check_close_abs ~tol:1e-15 "zero mean" 0.0 (Pdf.mean p);
  check_close ~tol:2e-2 "std = sqrt of Eq.14 variance"
    (Intra.sigma fast_config pc)
    (Pdf.std p);
  check_int "discretized at Qintra" fast_config.Config.quality_intra
    (Pdf.size p)

let test_intra_pdf_of_zero_variance () =
  let p = Intra.pdf_of_variance fast_config 0.0 in
  check_close_abs ~tol:1e-12 "point mass at 0" 0.0 (Pdf.mean p);
  check_raises_invalid "negative variance" (fun () ->
      ignore (Intra.pdf_of_variance fast_config (-1.0)))

(* ---------------- Inter ---------------- *)

let test_inter_pdf_properties () =
  let circuit = small_random () in
  let sta, pl, _ = analysis_context circuit in
  let layers = Config.layers_for fast_config pl in
  let pc =
    Ssta_correlation.Path_coeffs.of_path sta.Sta.graph pl layers
      sta.Sta.critical_path
  in
  let tables = Inter.tables fast_config in
  let p = Inter.of_coeffs tables pc in
  check_close ~tol:1e-9 "mass 1" 1.0 (Pdf.total_mass p);
  (* inter mean close to the nominal path delay (small Jensen shift) *)
  let nominal = pc.Ssta_correlation.Path_coeffs.nominal_delay in
  let shift = Inter.mean_is_shifted p ~nominal in
  check_true "mean near nominal" (Float.abs shift < 0.01 *. nominal);
  check_true "positive spread" (Pdf.std p > 0.0)

let test_inter_mean_shift_is_positive () =
  (* The delay is convex in V_dd/V_t around nominal, so the expected delay
     exceeds the delay of the expected values — the paper's "mean is not
     the nominal" observation, with a sign we can predict. *)
  let circuit = small_adder () in
  let sta, pl, _ = analysis_context circuit in
  let layers = Config.layers_for Config.default pl in
  let pc =
    Ssta_correlation.Path_coeffs.of_path sta.Sta.graph pl layers
      sta.Sta.critical_path
  in
  let tables = Inter.tables Config.default in
  let p = Inter.of_coeffs tables pc in
  let shift =
    Inter.mean_is_shifted p
      ~nominal:pc.Ssta_correlation.Path_coeffs.nominal_delay
  in
  check_true "positive convexity shift" (shift > 0.0)

let test_inter_scales_with_alpha () =
  let tables = Inter.tables fast_config in
  let small = Inter.pdf tables ~alpha_sum:1e-6 ~beta_sum:1e-6 in
  let large = Inter.pdf tables ~alpha_sum:2e-6 ~beta_sum:2e-6 in
  check_close ~tol:2e-2 "doubling coefficients doubles the mean"
    (2.0 *. Pdf.mean small) (Pdf.mean large);
  check_raises_invalid "rejects non-positive sums" (fun () ->
      ignore (Inter.pdf tables ~alpha_sum:0.0 ~beta_sum:1.0))

let test_inter_pure_intra_budget_degenerates () =
  let config = Config.with_budget_split fast_config ~inter_fraction:0.0 in
  let tables = Inter.tables config in
  let p = Inter.pdf tables ~alpha_sum:1e-6 ~beta_sum:1e-6 in
  check_true "no inter variability -> (near) point mass"
    (Pdf.std p < 1e-4 *. Pdf.mean p)

(* ---------------- Path_analysis ---------------- *)

let test_path_analysis_consistency () =
  let circuit = small_random () in
  let sta, _, ctx = analysis_context circuit in
  let a = Path_analysis.analyze ctx sta.Sta.critical_path in
  check_close ~tol:1e-12 "det delay = path delay"
    sta.Sta.critical_path.Paths.delay a.Path_analysis.det_delay;
  check_true "mean close to nominal"
    (Float.abs (a.Path_analysis.mean -. a.Path_analysis.det_delay)
    < 0.02 *. a.Path_analysis.det_delay);
  (* total variance ~ inter^2 + intra^2 (independent parts) *)
  let expect =
    sqrt
      ((a.Path_analysis.inter_sigma ** 2.0)
      +. (a.Path_analysis.intra_sigma ** 2.0))
  in
  check_close ~tol:5e-2 "variances add" expect a.Path_analysis.std;
  check_close ~tol:1e-12 "confidence point definition"
    (a.Path_analysis.mean +. (3.0 *. a.Path_analysis.std))
    a.Path_analysis.confidence_point;
  check_true "worst case above 3-sigma"
    (a.Path_analysis.worst_case > a.Path_analysis.confidence_point);
  let over = Path_analysis.overestimation_pct a in
  check_true "overestimation in the paper's ballpark"
    (over > 20.0 && over < 120.0)

let test_longer_path_larger_sigma () =
  let short = Generators.chain ~name:"s" ~length:3 () in
  let long_ = Generators.chain ~name:"l" ~length:30 () in
  let sigma circuit =
    let sta, _, ctx = analysis_context circuit in
    (Path_analysis.analyze ctx sta.Sta.critical_path).Path_analysis.std
  in
  check_true "longer path has larger absolute sigma"
    (sigma long_ > sigma short)

(* ---------------- Ranking ---------------- *)

let fake_analysis ctx path = Path_analysis.analyze ctx path

let test_ranking_orders_by_confidence_point () =
  let circuit = small_adder () in
  let sta, _, ctx = analysis_context circuit in
  let e =
    Sta.near_critical sta ~slack:(0.5 *. sta.Sta.critical_delay)
  in
  let analyses = List.map (fake_analysis ctx) e.Paths.paths in
  let ranked = Ranking.rank analyses in
  check_int "all paths ranked" (List.length analyses) (Array.length ranked);
  Array.iteri
    (fun i r ->
      check_int "prob_rank is the array position" (i + 1) r.Ranking.prob_rank;
      if i > 0 then
        check_true "descending confidence points"
          (ranked.(i - 1).Ranking.analysis.Path_analysis.confidence_point
           >= r.Ranking.analysis.Path_analysis.confidence_point -. 1e-15))
    ranked;
  (* det ranks are a permutation of 1..n *)
  let det = Array.map (fun r -> r.Ranking.det_rank) ranked in
  Array.sort compare det;
  Array.iteri (fun i d -> check_int "det rank permutation" (i + 1) d) det

let test_ranking_helpers () =
  let circuit = small_adder () in
  let sta, _, ctx = analysis_context circuit in
  let e = Sta.near_critical sta ~slack:(0.3 *. sta.Sta.critical_delay) in
  let ranked = Ranking.rank (List.map (fake_analysis ctx) e.Paths.paths) in
  let pc = Ranking.probabilistic_critical ranked in
  check_int "critical has rank 1" 1 pc.Ranking.prob_rank;
  check_int "det_rank helper" pc.Ranking.det_rank
    (Ranking.det_rank_of_prob_critical ranked);
  let pairs = Ranking.rank_pairs ~first:3 ranked in
  check_int "first 3 pairs" (Int.min 3 (Array.length ranked))
    (Array.length pairs);
  let rho = Ranking.rank_correlation ranked in
  check_true "correlation in [-1,1]" (rho >= -1.0 && rho <= 1.0);
  check_true "max change bounded"
    (Ranking.max_rank_change ranked < Array.length ranked);
  check_raises_invalid "empty ranking" (fun () ->
      ignore (Ranking.probabilistic_critical [||]))

(* ---------------- Methodology ---------------- *)

let test_methodology_end_to_end () =
  let circuit = small_random () in
  let m = Methodology.run ~config:fast_config circuit in
  check_true "sigma_c positive" (m.Methodology.sigma_c > 0.0);
  check_close ~tol:1e-12 "slack = C * sigma_C"
    (fast_config.Config.confidence *. m.Methodology.sigma_c)
    m.Methodology.slack;
  check_true "at least the critical path"
    (Methodology.num_critical_paths m >= 1);
  check_true "not truncated on a small circuit" (not m.Methodology.truncated);
  (* the deterministic critical path is among the analyzed paths *)
  let det_nodes = m.Methodology.det_critical.Path_analysis.path.Paths.nodes in
  check_true "det critical analyzed"
    (Array.exists
       (fun r -> r.Ranking.analysis.Path_analysis.path.Paths.nodes = det_nodes)
       m.Methodology.ranked);
  let over = Methodology.overestimation_pct m in
  check_true "overestimation plausible" (over > 10.0 && over < 150.0);
  check_true "runtime recorded" (m.Methodology.runtime_s >= 0.0)

let test_methodology_find_rank () =
  let m = Methodology.run ~config:fast_config (small_adder ()) in
  let r1 = Methodology.find_rank m ~prob_rank:1 in
  check_int "rank 1" 1 r1.Ranking.prob_rank;
  check_raises_invalid "rank 0" (fun () ->
      ignore (Methodology.find_rank m ~prob_rank:0));
  check_raises_invalid "rank beyond" (fun () ->
      ignore
        (Methodology.find_rank m
           ~prob_rank:(Methodology.num_critical_paths m + 1)))

let test_methodology_confidence_widens_the_set () =
  let circuit = small_random () in
  let n_of c =
    let config = Config.with_confidence fast_config c in
    Methodology.num_critical_paths (Methodology.run ~config circuit)
  in
  check_true "more confidence, no fewer paths" (n_of 2.0 >= n_of 0.05)

let test_methodology_respects_max_paths () =
  let circuit = small_adder () in
  let config =
    { (Config.with_confidence fast_config 50.0) with Config.max_paths = 3 }
  in
  let m = Methodology.run ~config circuit in
  check_true "truncated" m.Methodology.truncated;
  check_int "capped" 3 (Methodology.num_critical_paths m)

(* ---------------- Report ---------------- *)

let test_report_rows () =
  let m = Methodology.run ~config:fast_config (small_random ()) in
  let row = Report.table2_row m in
  check_true "name" (String.equal row.Report.name "rand");
  check_int "paths" (Methodology.num_critical_paths m)
    row.Report.num_critical_paths;
  check_true "3sig above mean"
    (row.Report.prob_sigma3_ps > row.Report.prob_mean_ps);
  let t3 = Report.table3_row ~scenario:"s" ~inter_fraction:0.5 m in
  check_true "table3 sigma positive" (t3.Report.total_sigma_ps > 0.0)

let test_report_csv_shapes () =
  let p = Dist.truncated_gaussian ~n:10 ~mu:1e-10 ~sigma:1e-11 () in
  let csv = Report.pdf_csv p in
  check_int "pdf csv lines" 11
    (List.length (String.split_on_char '\n' (String.trim csv)));
  let csv2 = Report.pdfs_csv [ ("a", p); ("b", p) ] in
  check_int "pdfs csv lines" 21
    (List.length (String.split_on_char '\n' (String.trim csv2)));
  let csv3 = Report.rank_scatter_csv [| (1, 2); (2, 1) |] in
  check_true "scatter header"
    (String.length csv3 > 0 && String.sub csv3 0 8 = "det_rank")

(* The measured-vs-paper lines and the average under Table 2, on two
   fixed rows: every number is formatted from the row or the paper
   reference beside it, and the average is over the measured rows. *)
let test_report_table2_paper_comparison () =
  let row name ~over ~paths ~drank ~det ~mean =
    { Report.name; num_gates = 100; det_delay_ps = det; worst_case_ps = 0.0;
      overestimation_pct = over; confidence = 0.05;
      num_critical_paths = paths; truncated = false; prob_mean_ps = mean;
      prob_sigma3_ps = 0.0; critical_path_gates = 10;
      det_rank_of_prob_critical = drank; runtime_s = 0.0 }
  in
  let paper ~over ~paths ~drank =
    { Iscas85.det_delay_ps = 0.0; worst_case_ps = 0.0;
      overestimation_pct = over; confidence = 0.05;
      num_critical_paths = paths; prob_mean_ps = 0.0; prob_sigma3_ps = 0.0;
      critical_path_gates = 0; det_rank_of_prob_critical = drank;
      runtime_s = 0.0 }
  in
  let rows =
    [ ( paper ~over:56.6 ~paths:32 ~drank:1,
        row "c432" ~over:55.83 ~paths:8 ~drank:1 ~det:397.228 ~mean:397.363 );
      ( paper ~over:49.9 ~paths:58 ~drank:40,
        row "c499" ~over:53.26 ~paths:1280 ~drank:561 ~det:211.0
          ~mean:210.5 ) ]
  in
  let text = Format.asprintf "%a" Report.pp_table2_paper_comparison rows in
  Alcotest.(check string)
    "comparison and average"
    "\npaper comparison (shape, not absolute ps — see EXPERIMENTS.md):\n\
     c432    over%: 55.8 (paper 56.6)  paths: 8 (paper 32)  det-rank: 1 \
     (paper 1)  mean/det shift: +0.135 ps\n\
     c499    over%: 53.3 (paper 49.9)  paths: 1280 (paper 58)  det-rank: \
     561 (paper 40)  mean/det shift: -0.500 ps\n\
     \naverage worst-case overestimation: 54.5% (paper: 55%)\n"
    text;
  Alcotest.(check string)
    "no rows, no lines" ""
    (Format.asprintf "%a" Report.pp_table2_paper_comparison [])

(* Statistically identical near-critical paths must rank as exact ties
   so the stable ranking keeps them in deterministic order: confidence
   points that agree to 1e-12 agree bit for bit.  On c499, whose 1,280
   paths fall into a handful of distinct random variables, the
   probabilistic-critical path is then the deterministic one; c7552 has
   equal-variance paths whose gates sit in mirrored partitions. *)
let test_ties_are_exact () =
  let ranked name =
    let spec = Option.get (Iscas85.by_name name) in
    let c, placement = Iscas85.build_placed spec in
    Methodology.run ~placement c
  in
  let check_ties name (m : Methodology.t) =
    let cps =
      Array.map
        (fun (r : Ranking.ranked) ->
          r.Ranking.analysis.Path_analysis.confidence_point)
        m.Methodology.ranked
    in
    let distinct = List.sort_uniq Float.compare (Array.to_list cps) in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a < b && b -. a <= 1e-12 *. Float.abs b then
              Alcotest.failf "%s: confidence points %h and %h tie to 1e-12"
                name a b)
          distinct)
      distinct
  in
  let c499 = ranked "c499" in
  check_true "c499 enumerates many paths"
    (Array.length c499.Methodology.ranked > 100);
  check_ties "c499" c499;
  check_int "prob-critical path is det rank 1" 1
    c499.Methodology.prob_critical.Ranking.det_rank;
  check_ties "c7552" (ranked "c7552")

let suite =
  ( "core",
    [ case "default config is the paper's" test_default_config_is_the_papers;
      case "config updates" test_config_updates;
      case "config validation" test_config_validation;
      case "intra PDF: zero-mean gaussian at Qintra"
        test_intra_pdf_zero_mean_gaussian;
      case "intra PDF of zero variance" test_intra_pdf_of_zero_variance;
      case "inter PDF properties" test_inter_pdf_properties;
      case "inter mean shift is positive (convexity)"
        test_inter_mean_shift_is_positive;
      case "inter PDF scales with coefficient sums" test_inter_scales_with_alpha;
      case "inter PDF degenerates without inter variance"
        test_inter_pure_intra_budget_degenerates;
      case "path analysis consistency" test_path_analysis_consistency;
      case "longer paths have larger sigma" test_longer_path_larger_sigma;
      case "ranking orders by confidence point"
        test_ranking_orders_by_confidence_point;
      case "ranking helpers" test_ranking_helpers;
      case "methodology end to end" test_methodology_end_to_end;
      case "methodology find_rank" test_methodology_find_rank;
      case "confidence widens the near-critical set"
        test_methodology_confidence_widens_the_set;
      case "max_paths cap respected" test_methodology_respects_max_paths;
      case "report rows" test_report_rows;
      case "report CSV shapes" test_report_csv_shapes;
      case "report Table 2 paper comparison"
        test_report_table2_paper_comparison;
      case "statistically identical paths tie exactly" test_ties_are_exact ] )
