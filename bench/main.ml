(* Benchmark harness: regenerates every table and figure of the paper
   (printing the same rows/series it reports) and then times one
   representative kernel per artifact with Bechamel.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table2 fig5  # a subset
     dune exec bench/main.exe -- --no-bechamel *)

module Iscas85 = Ssta_circuit.Iscas85
module Sensitivity = Ssta_tech.Sensitivity
module Convexity = Ssta_tech.Convexity
module Elmore = Ssta_tech.Elmore
module Sta = Ssta_timing.Sta
module Pdf = Ssta_prob.Pdf
module Dist = Ssta_prob.Dist
module Combine = Ssta_prob.Combine
module Stats = Ssta_prob.Stats
module Rng = Ssta_prob.Rng
module Pool = Ssta_parallel.Pool
open Ssta_core

let section name = Fmt.pr "@.=== %s ===@." name

(* Cache methodology runs so figures reuse the Table 2 work. *)
let runs : (string, Methodology.t) Hashtbl.t = Hashtbl.create 16

let run_benchmark ?(max_paths = 2000) (spec : Iscas85.spec) =
  let key = Printf.sprintf "%s/%d" spec.Iscas85.name max_paths in
  match Hashtbl.find_opt runs key with
  | Some m -> m
  | None ->
      let circuit, placement = Iscas85.build_placed spec in
      let config =
        Config.with_confidence Config.default
          spec.Iscas85.paper.Iscas85.confidence
      in
      let config = { config with Config.max_paths } in
      let m = Methodology.run ~config ~placement circuit in
      Hashtbl.replace runs key m;
      m

let spec_exn name =
  match Iscas85.by_name name with
  | Some s -> s
  | None -> Fmt.failwith "missing benchmark %s" name

(* ------------------------------------------------------------------ *)
(* Table 1: gate delay sensitivities.                                  *)

let table1 () =
  section "Table 1: sensitivity of the Elmore delay (1-sigma impacts)";
  Sensitivity.pp_table Fmt.stdout (Sensitivity.table1 ());
  Fmt.pr "(paper, 2-NAND column: t_ox 0.587, L_eff 2.061, V_dd 0.360, \
          V_Tn 0.071, |V_Tp| 0.088 ps)@."

(* ------------------------------------------------------------------ *)
(* Table 2: the benchmark suite.                                       *)

let table2 () =
  section "Table 2: deterministic vs probabilistic analysis, ISCAS85 suite";
  Report.pp_table2_header Fmt.stdout ();
  let rows =
    List.map
      (fun spec ->
        let m = run_benchmark spec in
        let row = Report.table2_row m in
        Report.pp_table2_row Fmt.stdout row;
        (spec, row))
      Iscas85.all
  in
  Fmt.pr "@.shape comparison against the published table:@.";
  List.iter
    (fun ((spec : Iscas85.spec), row) ->
      Report.pp_table2_comparison Fmt.stdout ~paper:spec.Iscas85.paper row)
    rows;
  let avg =
    List.fold_left (fun a (_, r) -> a +. r.Report.overestimation_pct) 0.0 rows
    /. float_of_int (List.length rows)
  in
  Fmt.pr "@.average worst-case overestimation: %.1f%% (paper: 55%%)@." avg

(* ------------------------------------------------------------------ *)
(* Table 3: inter/intra split on c432.                                 *)

let table3 () =
  section "Table 3: inter- and intra-die variation split (c432, C = 0.2)";
  let circuit, placement = Iscas85.build_placed (spec_exn "c432") in
  let base = Config.with_confidence Config.default 0.2 in
  Report.pp_table3_header Fmt.stdout ();
  List.iter
    (fun (scenario, inter_fraction) ->
      let config = Config.with_budget_split base ~inter_fraction in
      let m = Methodology.run ~config ~placement circuit in
      Report.pp_table3_row Fmt.stdout
        (Report.table3_row ~scenario ~inter_fraction m))
    [ ("only intra-die", 0.0); ("50% inter, 50% intra", 0.5);
      ("75% inter, 25% intra", 0.75) ];
  Fmt.pr "(paper: sigma 19.95 -> 35.58 -> 41.39 ps; paths 20 -> 54 -> 76)@."

(* ------------------------------------------------------------------ *)
(* Fig. 3: delay PDFs of the 1st / middle / last ranked paths (c1355). *)

let fig3 () =
  section "Fig. 3: delay PDFs of ranked near-critical paths of c1355";
  let m = run_benchmark (spec_exn "c1355") in
  let n = Methodology.num_critical_paths m in
  let describe rank =
    let r = Methodology.find_rank m ~prob_rank:rank in
    let a = r.Ranking.analysis in
    Fmt.pr "  path #%-5d mean %8.3f ps  sigma %7.3f ps  3-sigma %8.3f ps@."
      rank
      (Elmore.ps a.Path_analysis.mean)
      (Elmore.ps a.Path_analysis.std)
      (Elmore.ps a.Path_analysis.confidence_point)
  in
  describe 1;
  describe ((n + 1) / 2);
  describe n;
  let first = (Methodology.find_rank m ~prob_rank:1).Ranking.analysis in
  let last = (Methodology.find_rank m ~prob_rank:n).Ranking.analysis in
  let spread =
    first.Path_analysis.confidence_point
    -. last.Path_analysis.confidence_point
  in
  Fmt.pr "  3-sigma spread across %d paths: %.3f ps (%.2f%% of mean) — the \
          PDFs nearly coincide, as in the paper's figure@."
    n (Elmore.ps spread)
    (spread /. first.Path_analysis.mean *. 100.0)

(* ------------------------------------------------------------------ *)
(* Fig. 4: intra / inter / total PDFs of c432's critical path.         *)

let fig4 () =
  section "Fig. 4: intra-, inter- and total delay PDFs (c432 critical path)";
  let m = run_benchmark (spec_exn "c432") in
  let d = m.Methodology.det_critical in
  let show name p =
    Fmt.pr "  %-6s mean %8.3f ps  sigma %7.3f ps  [%8.3f .. %8.3f] ps@." name
      (Elmore.ps (Pdf.mean p))
      (Elmore.ps (Pdf.std p))
      (Elmore.ps p.Pdf.lo)
      (Elmore.ps (Pdf.hi p))
  in
  show "intra" d.Path_analysis.intra_pdf;
  show "inter" d.Path_analysis.inter_pdf;
  show "total" d.Path_analysis.total_pdf;
  Fmt.pr "  3-sigma point %.3f ps vs worst-case %.3f ps (%.1f%% \
          overestimation; paper: 56.6%%)@."
    (Elmore.ps d.Path_analysis.confidence_point)
    (Elmore.ps d.Path_analysis.worst_case)
    (Path_analysis.overestimation_pct d)

(* ------------------------------------------------------------------ *)
(* Figs. 5/6: probabilistic vs deterministic ranks.                    *)

let rank_figure name =
  let m = run_benchmark (spec_exn name) in
  let ranked = m.Methodology.ranked in
  let pairs = Ranking.rank_pairs ~first:100 ranked in
  Fmt.pr "  first 10 (det_rank, prob_rank) pairs:";
  Array.iteri (fun i (d, p) -> if i < 10 then Fmt.pr " (%d,%d)" d p) pairs;
  Fmt.pr "@.  Spearman %.4f, max rank change %d, det rank of prob-critical \
          %d@."
    (Ranking.rank_correlation ranked)
    (Ranking.max_rank_change ranked)
    (Ranking.det_rank_of_prob_critical ranked)

let fig5 () =
  section "Fig. 5: probabilistic vs deterministic rank, c1355 (large churn)";
  rank_figure "c1355"

let fig6 () =
  section "Fig. 6: probabilistic vs deterministic rank, c7552 (small churn)";
  rank_figure "c7552"

(* ------------------------------------------------------------------ *)
(* QUALITY trade-off (Section 4, on c499).                             *)

let quality () =
  section "QUALITY accuracy/run-time trade-off (c499 critical path)";
  let circuit, _ = Iscas85.build_placed (spec_exn "c499") in
  let sweep = Quality_sweep.run circuit in
  Quality_sweep.pp Fmt.stdout sweep;
  let k = Quality_sweep.knee sweep in
  Fmt.pr "knee: Qintra=%d Qinter=%d (err %.4f%%) — the paper picks \
          (100, 50)@."
    k.Quality_sweep.quality_intra k.Quality_sweep.quality_inter
    k.Quality_sweep.error_pct

(* ------------------------------------------------------------------ *)
(* Convexity claim (Section 2.5).                                      *)

let convexity () =
  section "Convexity analysis (Section 2.5)";
  Convexity.pp_table Fmt.stdout
    (List.map (fun g -> Convexity.analyze g) Sensitivity.table1_gates)

(* ------------------------------------------------------------------ *)
(* Ablation: analytic PDF vs exact Monte-Carlo.                        *)

let mc_validation () =
  section "Ablation: Taylor/grid PDF vs exact Monte-Carlo (c432 critical)";
  let circuit, placement = Iscas85.build_placed (spec_exn "c432") in
  let sta = Sta.analyze circuit in
  let ctx = Path_analysis.context Config.default sta.Sta.graph placement in
  let a = Path_analysis.analyze ctx sta.Sta.critical_path in
  let sampler = Monte_carlo.sampler Config.default sta.Sta.graph placement in
  let rng = Rng.create 1 in
  let v = Monte_carlo.validate_path ~n:40_000 sampler rng a in
  Fmt.pr "  analytic mean %.3f ps std %.3f ps | sampled mean %.3f ps std \
          %.3f ps@."
    (Elmore.ps a.Path_analysis.mean)
    (Elmore.ps a.Path_analysis.std)
    (Elmore.ps v.Monte_carlo.sampled.Stats.mean)
    (Elmore.ps v.Monte_carlo.sampled.Stats.std);
  Fmt.pr "  |mean err| %.4f ps (%.3f%%), |std err| %.4f ps, KS %.4f@."
    (Elmore.ps v.Monte_carlo.mean_err)
    (v.Monte_carlo.mean_err /. a.Path_analysis.mean *. 100.0)
    (Elmore.ps v.Monte_carlo.std_err)
    v.Monte_carlo.ks;
  (* second-order intra refinement: recovers the intra Jensen shift the
     first-order model misses *)
  let corr = Second_order.of_path Config.default sta.Sta.graph placement
      sta.Sta.critical_path in
  let corrected = Second_order.corrected_mean a corr in
  Fmt.pr "  second-order intra correction: mean shift %+.4f ps, corrected \
          |mean err| %.4f ps, intra skewness %.4f@."
    (Elmore.ps corr.Second_order.mean_shift)
    (Elmore.ps
       (Float.abs (v.Monte_carlo.sampled.Stats.mean -. corrected)))
    corr.Second_order.skewness;
  Fmt.pr "  (MC standard error of the mean at 40k samples: %.3f ps; over \
          250k samples the corrected error is ~0.006 ps vs ~0.55 ps \
          first-order)@."
    (Elmore.ps (v.Monte_carlo.sampled.Stats.std /. 200.0))

(* ------------------------------------------------------------------ *)
(* Ablation: path-based vs block-based (Clark) vs Monte-Carlo.         *)

let block_based () =
  section "Ablation: block-based (Clark) full-chip SSTA vs Monte-Carlo (c432)";
  let circuit, placement = Iscas85.build_placed (spec_exn "c432") in
  let bb = Block_based.analyze ~placement circuit in
  let sta = Sta.analyze circuit in
  let sampler = Monte_carlo.sampler Config.default sta.Sta.graph placement in
  let rng = Rng.create 424242 in
  let mc = Monte_carlo.circuit_delay_samples sampler ~n:2_000 rng in
  let s = Stats.summarize mc in
  let m = run_benchmark (spec_exn "c432") in
  let path3s =
    m.Methodology.prob_critical.Ranking.analysis.Path_analysis.confidence_point
  in
  Fmt.pr "  block-based: mean %.3f ps std %.3f ps 3-sigma %.3f ps (%.3f s)@."
    (Elmore.ps bb.Block_based.mean)
    (Elmore.ps bb.Block_based.std)
    (Elmore.ps bb.Block_based.confidence_point)
    bb.Block_based.runtime_s;
  Fmt.pr "  Monte-Carlo: mean %.3f ps std %.3f ps 3-sigma %.3f ps@."
    (Elmore.ps s.Stats.mean)
    (Elmore.ps s.Stats.std)
    (Elmore.ps (Stats.sigma_point mc 3.0));
  Fmt.pr "  path-based prob-critical 3-sigma: %.3f ps@." (Elmore.ps path3s);
  let pm = Path_max.statistical_max m in
  Fmt.pr "  correlated path-max (Clark over %d paths): mean %.3f ps std \
          %.3f ps 3-sigma %.3f ps@."
    pm.Path_max.paths_used (Elmore.ps pm.Path_max.mean)
    (Elmore.ps pm.Path_max.std)
    (Elmore.ps pm.Path_max.confidence_point);
  let fc = Full_chip.analyze circuit in
  Fmt.pr "  independence-assuming full-chip: mean %.3f ps std %.3f ps \
          3-sigma %.3f ps@."
    (Elmore.ps fc.Full_chip.mean)
    (Elmore.ps fc.Full_chip.std)
    (Elmore.ps fc.Full_chip.confidence_point);
  Fmt.pr "  (neglecting correlations collapses the spread — the paper's \
          critique of its refs [2,3,8], quantified)@." 

(* ------------------------------------------------------------------ *)
(* Ablation: non-Gaussian inter-die distributions.                     *)

let shapes () =
  section "Ablation: inter-die distribution shape (c432 critical path)";
  let circuit, placement = Iscas85.build_placed (spec_exn "c432") in
  let sta = Sta.analyze circuit in
  Fmt.pr "  %-12s %10s %10s %12s %12s@." "shape" "mean(ps)" "sigma(ps)"
    "3sig pt(ps)" "q99.99(ps)";
  List.iter
    (fun shape ->
      let config = Config.with_inter_shape Config.default shape in
      let ctx = Path_analysis.context config sta.Sta.graph placement in
      let a = Path_analysis.analyze ctx sta.Sta.critical_path in
      Fmt.pr "  %-12s %10.3f %10.3f %12.3f %12.3f@."
        (Ssta_prob.Shape.name shape)
        (Elmore.ps a.Path_analysis.mean)
        (Elmore.ps a.Path_analysis.std)
        (Elmore.ps a.Path_analysis.confidence_point)
        (Elmore.ps (Pdf.quantile a.Path_analysis.total_pdf 0.9999)))
    Ssta_prob.Shape.all;
  Fmt.pr "  (moments match by construction; bounded shapes trim the \
          extreme tail — the numeric engine is not Gaussian-bound)@."

(* ------------------------------------------------------------------ *)
(* Ablation: placement-aware interconnect loading.                     *)

let wires () =
  section "Ablation: fixed wire cap vs placement-aware loading (c432)";
  let circuit, placement = Iscas85.build_placed (spec_exn "c432") in
  let plain = Methodology.run ~placement circuit in
  let wired =
    Methodology.run ~placement ~wire:Ssta_tech.Wire.default circuit
  in
  let line label (m : Methodology.t) =
    Fmt.pr "  %-18s det %9.3f ps  3sig %9.3f ps  paths %d@." label
      (Elmore.ps m.Methodology.sta.Sta.critical_delay)
      (Elmore.ps
         m.Methodology.prob_critical.Ranking.analysis
           .Path_analysis.confidence_point)
      (Methodology.num_critical_paths m)
  in
  line "fixed 1 fF" plain;
  line "placement-aware" wired

(* ------------------------------------------------------------------ *)
(* Yield and criticality (the paper's motivation, quantified).         *)

let yield_criticality () =
  section "Yield and criticality (c432)";
  let _, placement = Iscas85.build_placed (spec_exn "c432") in
  let m = run_benchmark (spec_exn "c432") in
  let d = m.Methodology.det_critical in
  let sampler =
    Monte_carlo.sampler Config.default m.Methodology.sta.Sta.graph placement
  in
  let rng = Rng.create 31415 in
  let samples = Monte_carlo.circuit_delay_samples sampler ~n:2_000 rng in
  List.iter
    (fun target ->
      let clock =
        Yield.clock_for_yield
          m.Methodology.prob_critical.Ranking.analysis.Path_analysis.total_pdf
          ~yield:target
      in
      Fmt.pr "  clock for %6.2f%% yield: %9.3f ps | MC yield %.4f | \
              worst-case overdesign +%.1f%%@."
        (target *. 100.0) (Elmore.ps clock)
        (Yield.of_samples samples ~clock)
        ((d.Path_analysis.worst_case -. clock) /. clock *. 100.0))
    [ 0.90; 0.99; 0.9987 ];
  let paths =
    Array.to_list m.Methodology.ranked
    |> List.filteri (fun i _ -> i < 8)
    |> List.map (fun r -> r.Ranking.analysis.Path_analysis.path)
  in
  let crit = Criticality.estimate sampler ~n:2_000 rng paths in
  Fmt.pr "  criticality of the top %d paths (entropy %.3f):" (List.length paths)
    crit.Criticality.entropy;
  Array.iter (fun p -> Fmt.pr " %.3f" p) crit.Criticality.probabilities;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Dual-Vt leakage optimization (the ref [13] application).            *)

let dual_vt () =
  section "Dual-Vt leakage optimization under a 3-sigma timing target (c432)";
  let circuit, placement = Iscas85.build_placed (spec_exn "c432") in
  let m = run_benchmark (spec_exn "c432") in
  let base3 =
    m.Methodology.prob_critical.Ranking.analysis.Path_analysis
    .confidence_point
  in
  List.iter
    (fun headroom ->
      let target = (1.0 +. headroom) *. base3 in
      let r = Methodology.run ~placement circuit in
      ignore r;
      let d = Dual_vt.optimize ~placement ~target circuit in
      Fmt.pr "  +%2.0f%% timing headroom: %3d/%3d gates high-Vt, leakage \
              -%.1f%%, 3-sigma %.3f ps (target %.3f)%s@."
        (headroom *. 100.0) d.Dual_vt.high_count d.Dual_vt.gate_count
        ((d.Dual_vt.leakage_all_low -. d.Dual_vt.leakage_final)
        /. d.Dual_vt.leakage_all_low *. 100.0)
        (Elmore.ps d.Dual_vt.sigma3_final)
        (Elmore.ps target)
        (if d.Dual_vt.met then "" else " [NOT MET]"))
    [ 0.02; 0.05; 0.10 ]

(* ------------------------------------------------------------------ *)
(* Sequential: pipelined multiplier clock-period study.                *)

let pipeline () =
  section "Sequential: statistical clock period of the pipelined c6288 \
           (16x16 multiplier)";
  let comb =
    Ssta_circuit.Generators.array_multiplier ~name:"mult16" ~bits:16 ()
  in
  let config =
    { (Config.with_quality Config.default ~intra:60 ~inter:24) with
      Config.max_paths = 300 }
  in
  let baseline =
    Clocking.analyze ~config (Ssta_circuit.Sequential.of_netlist comb)
  in
  Fmt.pr "  %6s %10s %12s %12s %14s %9s@." "stages" "registers" "det clk(ps)"
    "3sig clk(ps)" "worst clk(ps)" "speedup";
  List.iter
    (fun stages ->
      let s = Ssta_circuit.Sequential.pipeline ~stages comb in
      let s, _ = Clocking.fix_hold s in
      let c = Clocking.analyze ~config s in
      Fmt.pr "  %6d %10d %12.1f %12.1f %14.1f %8.2fx@." stages
        (Ssta_circuit.Sequential.num_registers s)
        (Elmore.ps c.Clocking.det_min_clock)
        (Elmore.ps c.Clocking.stat_min_clock)
        (Elmore.ps c.Clocking.worst_case_clock)
        (Clocking.speedup ~baseline c))
    [ 1; 2; 4; 8 ];
  Fmt.pr "  (hold violations of the register chains repaired by buffer \
          insertion; corner sign-off overdesigns every pipeline by the \
          paper's ~55%%)@."

(* Shared flags of the A/B sections below: [--only=c432,c499] restricts
   the circuits, [--assert] turns their relative invariants into hard
   failures. *)
let only : string list ref = ref []
let assert_ = ref false

(* ------------------------------------------------------------------ *)
(* Screening: the affine path-screener A/B harness.                    *)

(* A/B of the affine suffix-bound screener at jobs=1: near-critical
   enumeration with and without pruning must return byte-identical
   records (the screener's proof obligation — pruning only skips
   provably sub-threshold subtrees), while the pruned run saves frontier
   work.  It also times what the screen itself costs: the packaged
   max-plus screen `run` pays ([wall_screen_s]) next to the affine
   fixpoints it stands in for ([wall_affine_s]), both min-of-N.  Written
   to BENCH_screening.json as the screening artifact. *)
let render_enumeration (e : Ssta_timing.Paths.enumeration) =
  let module Paths = Ssta_timing.Paths in
  let b = Buffer.create 4096 in
  List.iter
    (fun (p : Paths.path) ->
      Buffer.add_string b (Printf.sprintf "%.17g|" p.Paths.delay);
      Array.iter
        (fun id ->
          Buffer.add_string b (string_of_int id);
          Buffer.add_char b ',')
        p.Paths.nodes;
      Buffer.add_char b '\n')
    e.Paths.paths;
  Buffer.add_string b
    (Printf.sprintf "explored=%d truncated=%b deadline=%b" e.Paths.explored
       e.Paths.truncated e.Paths.deadline_hit);
  Buffer.contents b

type screen_row = {
  s_name : string;
  s_nodes : int;
  s_pruned : int;
  s_fraction : float;
  s_wall_unpruned : float;
  s_wall_pruned : float;
  s_wall_screen : float;
  s_wall_affine : float;
  s_paths : int;
  s_equal : bool;
}

let min_wall repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* The packaged screen must cost at most this share of the affine
   analysis on every circuit of at least [screen_gate_nodes] nodes. *)
let screen_gate_ratio = 0.1
let screen_gate_nodes = 1000

let screening () =
  section "Screening: affine suffix-bound path pruning A/B (jobs=1)";
  let module Affine = Ssta_check.Affine in
  let module Paths = Ssta_timing.Paths in
  let max_paths = 2000 in
  let specs =
    match !only with
    | [] -> Iscas85.all
    | names -> List.filter_map Iscas85.by_name names
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Fmt.pr "  %-7s %7s %7s %9s %12s %11s %10s %10s %6s %5s@." "name" "nodes"
    "pruned" "fraction" "unpruned(s)" "pruned(s)" "screen(s)" "affine(s)"
    "paths" "equal";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit, placement = Iscas85.build_placed spec in
        let config =
          Config.with_confidence Config.default
            spec.Iscas85.paper.Iscas85.confidence
        in
        let config = { config with Config.max_paths } in
        let sta = Sta.analyze circuit in
        let ctx = Path_analysis.context config sta.Sta.graph placement in
        let det = Path_analysis.analyze ctx sta.Sta.critical_path in
        let slack = config.Config.confidence *. det.Path_analysis.std in
        let aff =
          match Affine.compute config sta.Sta.graph with
          | Ok aff -> aff
          | Error msg -> Fmt.failwith "%s: affine analysis failed: %s" name msg
        in
        let sc = Affine.screen aff sta ~slack in
        let wall_screen =
          min_wall 20 (fun () -> Affine.methodology_screen config ~sta ~slack)
        in
        let wall_affine =
          min_wall 5 (fun () -> Affine.compute config sta.Sta.graph)
        in
        let time_run f =
          let t0 = Unix.gettimeofday () in
          let e = f () in
          (e, Unix.gettimeofday () -. t0)
        in
        let base, wall_base =
          time_run (fun () -> Sta.near_critical ~max_paths sta ~slack)
        in
        let pruned, wall_pruned =
          time_run (fun () ->
              Sta.near_critical ~max_paths ~prune:(Affine.prune_hook sc) sta
                ~slack)
        in
        let equal =
          String.equal (render_enumeration base) (render_enumeration pruned)
        in
        let fraction =
          if sc.Affine.nodes_visited > 0 then
            float_of_int sc.Affine.nodes_pruned
            /. float_of_int sc.Affine.nodes_visited
          else 0.0
        in
        if not equal then
          fail "%s: pruned enumeration diverges from the unpruned one" name;
        if !assert_ && fraction <= 0.0 then
          fail "%s: screener pruned nothing (fraction %.4f)" name fraction;
        if
          !assert_
          && sc.Affine.nodes_visited >= screen_gate_nodes
          && wall_screen > screen_gate_ratio *. wall_affine
        then
          fail "%s: packaged screen %.6f s exceeds %g x the affine wall %.6f s"
            name wall_screen screen_gate_ratio wall_affine;
        Fmt.pr "  %-7s %7d %7d %8.1f%% %12.3f %11.3f %10.6f %10.6f %6d %5s@."
          name sc.Affine.nodes_visited sc.Affine.nodes_pruned
          (fraction *. 100.0) wall_base wall_pruned wall_screen wall_affine
          (List.length base.Paths.paths)
          (if equal then "yes" else "NO");
        { s_name = name;
          s_nodes = sc.Affine.nodes_visited;
          s_pruned = sc.Affine.nodes_pruned;
          s_fraction = fraction;
          s_wall_unpruned = wall_base;
          s_wall_pruned = wall_pruned;
          s_wall_screen = wall_screen;
          s_wall_affine = wall_affine;
          s_paths = List.length base.Paths.paths;
          s_equal = equal })
      specs
  in
  let oc = open_out "BENCH_screening.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  out "{\"max_paths\":%d,\"benchmarks\":[\n" max_paths;
  List.iteri
    (fun i r ->
      out
        "  {\"name\":\"%s\",\"nodes\":%d,\"pruned\":%d,\"fraction\":%.4f,\
         \"wall_unpruned_s\":%.4f,\"wall_pruned_s\":%.4f,\
         \"wall_screen_s\":%.6f,\"wall_affine_s\":%.6f,\"paths\":%d,\
         \"equal\":%b}%s\n"
        r.s_name r.s_nodes r.s_pruned r.s_fraction r.s_wall_unpruned
        r.s_wall_pruned r.s_wall_screen r.s_wall_affine r.s_paths r.s_equal
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_screening.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "screening assertions failed"

(* ------------------------------------------------------------------ *)
(* Incremental: edit-to-answer latency vs a full rerun.                 *)

(* A single-gate resize (drive 1.25) applied to a warm incremental
   image (Ssta_check.Impact): time the baseline init, the incremental
   re-analysis, and a warm-backed from-scratch run of the same edited
   design, and byte-compare the two reports.  The edited gate is the
   one whose dirty set ({g} + fanins) covers the fewest enumerated
   near-critical paths — the representative local ECO (fixing a buffer
   off the critical region), deterministic per circuit.  Timings are
   the min of two runs.  [gates_retimed] counts the gates whose
   electricals the committed edit re-derived (the graph is carried
   across edits, so --assert holds it to the gate plus its fan-ins).
   Written to BENCH_incremental.json as the edit-to-answer artifact. *)
let incremental () =
  section "Incremental: dependence-cone re-analysis after one edit (jobs=1)";
  let module Impact = Ssta_check.Impact in
  let module Netlist = Ssta_circuit.Netlist in
  let max_paths = 2000 in
  let specs =
    match !only with
    | [] -> Iscas85.all
    | names -> List.filter_map Iscas85.by_name names
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Fmt.pr "  %-7s %8s %8s %8s %8s %6s %7s %7s %7s %6s@." "name" "init(s)"
    "incr(s)" "full(s)" "speedup" "cone" "retimed" "reused" "reanal" "equal";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit, placement = Iscas85.build_placed spec in
        let config =
          Config.with_confidence Config.default
            spec.Iscas85.paper.Iscas85.confidence
        in
        let config = { config with Config.max_paths } in
        let d = Impact.design ~placement ~config circuit in
        let time f =
          let t0 = Unix.gettimeofday () in
          let v = f () in
          (v, Unix.gettimeofday () -. t0)
        in
        let or_fail = function
          | Ok v -> v
          | Error e ->
              Fmt.failwith "%s: %s" name
                (Ssta_runtime.Ssta_error.to_string e)
        in
        let (state, baseline), init_s =
          time (fun () -> or_fail (Impact.init d))
        in
        (* Least-covered gate: re-enumerate the near-critical paths of
           the baseline and pick the gate whose dirty set touches the
           fewest of them. *)
        let gate =
          let module Paths = Ssta_timing.Paths in
          let n = Netlist.num_nodes circuit in
          let count = Array.make n 0 in
          let e =
            Sta.near_critical ~max_paths baseline.Methodology.sta
              ~slack:baseline.Methodology.slack
          in
          List.iter
            (fun (p : Paths.path) ->
              Array.iter
                (fun id -> count.(id) <- count.(id) + 1)
                p.Paths.nodes)
            e.Paths.paths;
          let best = ref circuit.Netlist.num_inputs in
          let best_cost = ref max_int in
          for id = circuit.Netlist.num_inputs to n - 1 do
            let g = Netlist.gate_of circuit id in
            let cost =
              Array.fold_left
                (fun acc f -> acc + count.(f))
                count.(id) g.Netlist.fanins
            in
            if cost < !best_cost then begin
              best := id;
              best_cost := cost
            end
          done;
          Netlist.node_name circuit !best
        in
        let edit =
          or_fail
            (Ssta_circuit.Edit.parse_string_res
               (Printf.sprintf "resize %s 1.25" gate))
        in
        let _, probe_s =
          time (fun () -> or_fail (Impact.what_if state edit))
        in
        let retimed () =
          Ssta_runtime.Health.counter (Impact.ledger state)
            "impact-gates-retimed"
        in
        let retimed_before = retimed () in
        let o, commit_s =
          time (fun () -> or_fail (Impact.reanalyze state edit))
        in
        let gates_retimed = retimed () - retimed_before in
        let incr_s = Float.min probe_s commit_s in
        let edited = Impact.design_of state in
        let m_scratch, full1_s =
          time (fun () -> or_fail (Impact.scratch edited))
        in
        let _, full2_s = time (fun () -> or_fail (Impact.scratch edited)) in
        let full_s = Float.min full1_s full2_s in
        let identical =
          String.equal
            (Report.json_report o.Impact.report)
            (Report.json_report m_scratch)
        in
        let speedup = if incr_s > 0.0 then full_s /. incr_s else 1.0 in
        if not identical then
          fail "%s: incremental report diverges from the from-scratch run"
            name;
        (* A resize re-derives the electricals of the gate and its gate
           fan-ins only. *)
        let retime_bound =
          let node = Option.get (Netlist.find_node circuit gate) in
          1 + Array.length (Netlist.gate_of circuit node).Netlist.fanins
        in
        if !assert_ && gates_retimed > retime_bound then
          fail "%s: %d gates retimed, more than the %d of %s and its fan-ins"
            name gates_retimed retime_bound gate;
        if !assert_ && incr_s >= full_s then
          fail "%s: incremental (%.4fs) not faster than full rerun (%.4fs)"
            name incr_s full_s;
        Fmt.pr "  %-7s %8.3f %8.3f %8.3f %7.2fx %6d %7d %7d %7d %6s@." name
          init_s incr_s full_s speedup o.Impact.cone.Impact.cone_nodes
          gates_retimed o.Impact.reused o.Impact.reanalyzed
          (if identical then "yes" else "NO");
        (name, gate, init_s, incr_s, full_s, speedup,
         o.Impact.cone.Impact.cone_nodes, gates_retimed, o.Impact.invalidated,
         o.Impact.reused, o.Impact.reanalyzed, identical))
      specs
  in
  let oc = open_out "BENCH_incremental.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  out
    "{\"max_paths\":%d,\"edit\":\"resize least-covered-gate 1.25\",\
     \"benchmarks\":[\n"
    max_paths;
  List.iteri
    (fun i
         (name, gate, init_s, incr_s, full_s, speedup, cone, gates_retimed,
          invalidated, reused, reanalyzed, identical) ->
      out
        "  {\"name\":\"%s\",\"gate\":\"%s\",\"init_s\":%.6f,\
         \"incremental_s\":%.6f,\"full_s\":%.6f,\"speedup\":%.3f,\
         \"cone_nodes\":%d,\"gates_retimed\":%d,\"invalidated\":%d,\
         \"reused\":%d,\"reanalyzed\":%d,\"identical\":%b}%s\n"
        name gate init_s incr_s full_s speedup cone gates_retimed invalidated
        reused reanalyzed identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_incremental.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "incremental assertions failed"

(* ------------------------------------------------------------------ *)
(* Block crossover: path-based vs block-based wall clock.              *)

(* Path-based cost is enumeration-dominated (O(paths * Q^3) after the
   near-critical walk); the block engine visits every gate once.  This
   harness measures both walls per benchmark at the paper's settings and
   records where the one-pass engine wins, the statistical gap between
   the two answers, and the block sweep's direct major-heap words per
   gate (gated at 0.6 coefficient vectors: the pooled sweep allocates
   about one vector per primary output and per frontier node, not one
   per gate).  Written to BENCH_blockcross.json. *)
let blockcross () =
  section "Block crossover: path-based vs block-based engine (jobs=1)";
  let module Block_engine = Ssta_block.Engine in
  let max_paths = 2000 in
  let specs =
    match !only with
    | [] -> Iscas85.all
    | names -> List.filter_map Iscas85.by_name names
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Fmt.pr "  %-7s %6s %9s %10s %8s %10s %10s %6s %9s@." "name" "gates" "path(s)"
    "block(s)" "speedup" "dmean" "dsigma" "wins" "maj/gate";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit, placement = Iscas85.build_placed spec in
        let config =
          Config.with_confidence Config.default
            spec.Iscas85.paper.Iscas85.confidence
        in
        let config = { config with Config.max_paths } in
        (* A full major cycle before each timed run, as in the dim
           cells: otherwise each engine pays for the garbage the
           previous run left behind. *)
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let m = Methodology.run ~config ~placement circuit in
        let path_wall = Unix.gettimeofday () -. t0 in
        Gc.full_major ();
        let _, promoted0, major0 = Gc.counters () in
        let t1 = Unix.gettimeofday () in
        let r = Block_engine.analyze ~config ~placement circuit in
        let block_wall = Unix.gettimeofday () -. t1 in
        let _, promoted1, major1 = Gc.counters () in
        (* Words allocated straight into the major heap (coefficient
           vectors are too large for the minor heap); deterministic, so
           a gate on it catches an allocation regression that no wall
           would. *)
        let major_words_per_gate =
          (major1 -. major0 -. (promoted1 -. promoted0))
          /. float_of_int r.Block_engine.num_gates
        in
        let vector_words =
          float_of_int
            (Ssta_correlation.Slots.num_slots
               ~quad_levels:config.Config.quad_levels
            + 1)
        in
        let pa = m.Methodology.prob_critical.Ranking.analysis in
        let path_mean = pa.Path_analysis.mean in
        let path_std = pa.Path_analysis.std in
        let rel_mean =
          Float.abs (r.Block_engine.mean -. path_mean) /. path_mean
        in
        let rel_std =
          Float.abs (r.Block_engine.std -. path_std) /. path_std
        in
        let speedup =
          if block_wall > 0.0 then path_wall /. block_wall else 1.0
        in
        let wins = block_wall < path_wall in
        (* The block mean upper-bounds the most-critical path's mean
           (the circuit max dominates every path), so the one-sided
           check is a soundness gate, the relative ones a quality
           gate. *)
        if !assert_ then begin
          if r.Block_engine.mean < path_mean *. 0.98 then
            fail "%s: block mean %.4g below path mean %.4g" name
              r.Block_engine.mean path_mean;
          if rel_mean > 0.10 then
            fail "%s: block/path mean gap %.1f%% (tol 10%%)" name
              (rel_mean *. 100.0);
          if rel_std > 0.35 then
            fail "%s: block/path sigma gap %.1f%% (tol 35%%)" name
              (rel_std *. 100.0);
          if major_words_per_gate > 0.6 *. vector_words then
            fail "%s: %.0f major-heap words per gate (limit 0.6 x %.0f)" name
              major_words_per_gate vector_words
        end;
        Fmt.pr "  %-7s %6d %9.3f %10.4f %7.1fx %9.2f%% %9.2f%% %6s %9.0f@."
          name r.Block_engine.num_gates path_wall block_wall speedup
          (rel_mean *. 100.0) (rel_std *. 100.0)
          (if wins then "yes" else "no")
          major_words_per_gate;
        (name, r.Block_engine.num_gates, path_wall, block_wall, speedup,
         path_mean, path_std, pa.Path_analysis.confidence_point,
         r.Block_engine.mean, r.Block_engine.std,
         r.Block_engine.confidence_point, wins, major_words_per_gate))
      specs
  in
  if !assert_
     && not
          (List.exists (fun (_, _, _, _, _, _, _, _, _, _, _, w, _) -> w) rows)
  then fail "no benchmark where the block engine beats the path engine";
  let oc = open_out "BENCH_blockcross.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  out "{\"max_paths\":%d,\"max_policy\":\"clark\",\"benchmarks\":[\n" max_paths;
  List.iteri
    (fun i
         (name, gates, path_wall, block_wall, speedup, path_mean, path_std,
          path_conf, block_mean, block_std, block_conf, wins,
          major_words_per_gate) ->
      out
        "  {\"name\":\"%s\",\"gates\":%d,\"path_wall_s\":%.4f,\
         \"block_wall_s\":%.4f,\"speedup\":%.3f,\
         \"path\":{\"mean_s\":%.6e,\"std_s\":%.6e,\
         \"confidence_point_s\":%.6e},\
         \"block\":{\"mean_s\":%.6e,\"std_s\":%.6e,\
         \"confidence_point_s\":%.6e},\"block_wins\":%b,\
         \"block_major_words_per_gate\":%.1f}%s\n"
        name gates path_wall block_wall speedup path_mean path_std path_conf
        block_mean block_std block_conf wins major_words_per_gate
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_blockcross.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "blockcross assertions failed"

(* ------------------------------------------------------------------ *)
(* Dimensional bench: the cartesian scaling harness.                    *)

(* One cell of the {benchmark x quality x jobs x inter-cache x engine}
   grid.  Walls are the min of [dim_repeats] runs (suppressing GC and
   scheduler noise — standard for wall-clock artifacts); minor words are
   taken from the fastest run (allocation volume is deterministic, the
   timing is not). *)
type dim_cell = {
  c_engine : string;  (* "path" | "block" *)
  c_q : int;  (* quality_intra; quality_inter = q/2 *)
  c_jobs : int;  (* 0 for the block engine (takes no pool) *)
  c_cache : bool;
  c_max_paths : int;
  c_paths : int;  (* ranked path count (0 for block) *)
  c_wall : float;
  c_minor : float;  (* Gc.minor_words delta of the fastest run *)
  c_counters : (string * int) list;  (* health counters ([] for block) *)
  c_report : string;  (* deterministic JSON report ("" for block) *)
}

let dim_repeats = 2
let dim_qs = [ 50; 100 ]
let dim_jobs = [ 1; 2 ]
let dim_q_sweep = 200  (* third point of the wall-vs-Q fit *)
let dim_paths_sweep = [ 500; 1000 ]  (* 2000 is the grid's base cap *)

let dim_counter_names =
  [ "path-memo-lookups"; "path-memo-distinct"; "inter-cache-lookups";
    "inter-cache-hits"; "inter-cache-distinct"; "arena-buffers-created";
    "arena-bytes-reused"; "arena-peak-bytes" ]

(* Cached jobs=1 walls measured on a single-core host when the
   inter-kernel cache landed — the fixed baseline the strict floors
   regress against.  SSTA_DIM_STRICT=1 turns the >= 1.5x floors into
   hard failures; without it the speedups are recorded but not asserted
   (CI walls are machine-dependent). *)
let dim_seed_cached =
  [ ("c499", 0.2740); ("c1355", 0.6022); ("c6288", 1.7363) ]

let dim_strict_floor = 1.5

let dim_strict () =
  match Sys.getenv_opt "SSTA_DIM_STRICT" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Least-squares slope of ln(wall) against ln(x): the empirical scaling
   exponent of one sweep axis. *)
let dim_fit_exponent points =
  let pts = List.filter (fun (x, w) -> x > 0 && w > 0.0) points in
  match pts with
  | [] | [ _ ] -> nan
  | _ ->
      let n = float_of_int (List.length pts) in
      let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
      List.iter
        (fun (x, w) ->
          let lx = log (float_of_int x) and ly = log w in
          sx := !sx +. lx;
          sy := !sy +. ly;
          sxx := !sxx +. (lx *. lx);
          sxy := !sxy +. (lx *. ly))
        pts;
      let d = (n *. !sxx) -. (!sx *. !sx) in
      if Float.abs d < 1e-12 then nan
      else ((n *. !sxy) -. (!sx *. !sy)) /. d

(* The shared cell runner: [f] run [repeats] times, each after a full
   major cycle and inside [within] (untimed set-up such as a fresh
   pool, handed to [f]), returning the last result, the minimum wall
   and the minor words of that fastest run.  The full cycle isolates cells from
   each other's garbage: without it the dead major heap left by earlier
   (uncached, high-Q) cells slows later ones by 20-40%, which poisons
   the exponent fits.  A full major cycle (not a compaction) keeps the
   heap pages mapped, so the timed region does not pay re-growth
   faults. *)
let dim_min_of ~within ~repeats f =
  let best_wall = ref infinity and best_minor = ref 0.0 in
  let last = ref None in
  for _ = 1 to repeats do
    Gc.full_major ();
    within (fun env ->
        let mw0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r = f env in
        let wall = Unix.gettimeofday () -. t0 in
        let minor = Gc.minor_words () -. mw0 in
        if wall < !best_wall then begin
          best_wall := wall;
          best_minor := minor
        end;
        last := Some r)
  done;
  match !last with
  | Some r -> (r, !best_wall, !best_minor)
  | None -> invalid_arg "dim_min_of: repeats must be positive"

(* [within] for cells that need no set-up. *)
let dim_direct k = k ()

let dim_config ~confidence ~q ~cache ~max_paths =
  let config = Config.with_confidence Config.default confidence in
  let config = Config.with_quality config ~intra:q ~inter:(q / 2) in
  { config with Config.max_paths; Config.inter_cache = cache }

let dim_path_cell ~circuit ~placement ~confidence ~q ~jobs ~cache ~max_paths =
  let config = dim_config ~confidence ~q ~cache ~max_paths in
  let m, best_wall, best_minor =
    dim_min_of ~within:(Pool.with_pool ~jobs) ~repeats:dim_repeats
      (fun pool -> Methodology.run ~config ~placement ~pool circuit)
  in
  let counters =
    List.map
      (fun n -> (n, Ssta_runtime.Health.counter m.Methodology.health n))
      dim_counter_names
  in
  { c_engine = "path"; c_q = q; c_jobs = jobs; c_cache = cache;
    c_max_paths = max_paths; c_paths = Methodology.num_critical_paths m;
    c_wall = best_wall; c_minor = best_minor; c_counters = counters;
    c_report = Report.json_report m }

let dim_block_cell ~circuit ~placement ~confidence ~q ~cache ~max_paths =
  let config = dim_config ~confidence ~q ~cache ~max_paths in
  let _, best_wall, best_minor =
    dim_min_of ~within:dim_direct ~repeats:dim_repeats (fun () ->
        Ssta_block.Engine.analyze ~config ~placement circuit)
  in
  { c_engine = "block"; c_q = q; c_jobs = 0; c_cache = cache;
    c_max_paths = max_paths; c_paths = 0; c_wall = best_wall;
    c_minor = best_minor; c_counters = []; c_report = "" }

(* The full cartesian sweep: {Q x jobs x cache} for the path engine and
   {Q x cache} for the block engine (which takes no pool), plus the
   extra Q and max-paths points that anchor the log-log exponent fits.
   Emits BENCH_dim.json with a deterministic schema (fixed key set and
   order; only the measured values vary) so CI can regress it. *)
let dim () =
  let strict = dim_strict () in
  section
    (Printf.sprintf
       "Dimensional bench: {benchmark x Q x jobs x cache x engine} \
        (host: %d core(s), repeats: %d, strict floors: %s)"
       (Pool.default_jobs ()) dim_repeats (if strict then "on" else "off"));
  let max_paths = 2000 in
  let specs =
    match !only with
    | [] -> Iscas85.all
    | names -> List.filter_map Iscas85.by_name names
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Fmt.pr "  %-7s %-6s %4s %4s %6s %6s %6s %9s %12s@." "name" "engine" "Q"
    "jobs" "cache" "paths" "cap" "wall(s)" "minor-words";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit, placement = Iscas85.build_placed spec in
        let confidence = spec.Iscas85.paper.Iscas85.confidence in
        let pr_cell c =
          Fmt.pr "  %-7s %-6s %4d %4s %6s %6d %6d %9.4f %12.3e@." name
            c.c_engine c.c_q
            (if c.c_jobs = 0 then "-" else string_of_int c.c_jobs)
            (if c.c_cache then "on" else "off")
            c.c_paths c.c_max_paths c.c_wall c.c_minor;
          c
        in
        (* base path grid *)
        let base =
          List.concat_map
            (fun q ->
              List.concat_map
                (fun jobs ->
                  List.map
                    (fun cache ->
                      pr_cell
                        (dim_path_cell ~circuit ~placement ~confidence ~q
                           ~jobs ~cache ~max_paths))
                    [ false; true ])
                dim_jobs)
            dim_qs
        in
        (* exponent-fit anchors: one extra Q point, two path caps *)
        let anchors =
          let q_anchor =
            pr_cell
              (dim_path_cell ~circuit ~placement ~confidence ~q:dim_q_sweep
                 ~jobs:1 ~cache:true ~max_paths)
          in
          let cap_anchors =
            List.map
              (fun cap ->
                pr_cell
                  (dim_path_cell ~circuit ~placement ~confidence ~q:100
                     ~jobs:1 ~cache:true ~max_paths:cap))
              dim_paths_sweep
          in
          q_anchor :: cap_anchors
        in
        (* block engine: no pool dimension *)
        let block =
          List.concat_map
            (fun q ->
              List.map
                (fun cache ->
                  pr_cell
                    (dim_block_cell ~circuit ~placement ~confidence ~q ~cache
                       ~max_paths))
                [ false; true ])
            dim_qs
        in
        let grid = base @ anchors @ block in
        let find ~engine ~q ~jobs ~cache ~cap =
          List.find_opt
            (fun c ->
              String.equal c.c_engine engine
              && c.c_q = q && c.c_jobs = jobs && c.c_cache = cache
              && c.c_max_paths = cap)
            grid
        in
        (* --- log-log exponent fits ------------------------------- *)
        let q_points =
          List.filter_map
            (fun q ->
              Option.map
                (fun c -> (q, c.c_wall))
                (find ~engine:"path" ~q ~jobs:1 ~cache:true ~cap:max_paths))
            (dim_qs @ [ dim_q_sweep ])
        in
        let paths_points =
          List.filter_map
            (fun cap ->
              Option.map
                (fun c -> (c.c_paths, c.c_wall))
                (find ~engine:"path" ~q:100 ~jobs:1 ~cache:true ~cap))
            (dim_paths_sweep @ [ max_paths ])
        in
        let paths_increasing =
          let xs = List.map fst paths_points in
          List.length xs >= 2
          && List.for_all2 (fun a b -> a < b)
               (List.filteri (fun i _ -> i < List.length xs - 1) xs)
               (List.tl xs)
        in
        let q_exp = dim_fit_exponent q_points in
        let paths_exp =
          if paths_increasing then dim_fit_exponent paths_points else nan
        in
        Fmt.pr "  %-7s fits: wall ~ Q^%.2f%s@." name q_exp
          (if Float.is_nan paths_exp then
             " (path-count axis saturated; paths exponent skipped)"
           else Printf.sprintf ", wall ~ paths^%.2f" paths_exp);
        (* --- relative invariants (always checked with --assert) --- *)
        if !assert_ then begin
          (* cache on must not lose to cache off at the same settings *)
          List.iter
            (fun q ->
              List.iter
                (fun jobs ->
                  match
                    ( find ~engine:"path" ~q ~jobs ~cache:false ~cap:max_paths,
                      find ~engine:"path" ~q ~jobs ~cache:true ~cap:max_paths )
                  with
                  | Some off, Some on when off.c_wall >= 0.05 ->
                      if on.c_wall > off.c_wall *. 1.10 then
                        fail
                          "%s: Q=%d jobs=%d cached wall %.4fs slower than \
                           uncached %.4fs"
                          name q jobs on.c_wall off.c_wall
                  | _ -> ())
                dim_jobs)
            dim_qs;
          (* the arena must actually be exercised *)
          List.iter
            (fun c ->
              if
                String.equal c.c_engine "path"
                && List.assoc "arena-peak-bytes" c.c_counters = 0
              then
                fail "%s: Q=%d jobs=%d cache=%b reports no arena traffic"
                  name c.c_q c.c_jobs c.c_cache)
            grid;
          (* the deterministic report must not depend on the jobs axis *)
          List.iter
            (fun q ->
              List.iter
                (fun cache ->
                  match
                    ( find ~engine:"path" ~q ~jobs:1 ~cache ~cap:max_paths,
                      find ~engine:"path" ~q ~jobs:2 ~cache ~cap:max_paths )
                  with
                  | Some a, Some b when not (String.equal a.c_report b.c_report)
                    ->
                      fail "%s: Q=%d cache=%b report differs between jobs 1 \
                            and 2"
                        name q cache
                  | _ -> ())
                [ false; true ])
            dim_qs;
          (* exponents must stay in sane bands when the walls are large
             enough to measure *)
          if
            List.for_all (fun (_, w) -> w >= 0.05) q_points
            && not (Float.is_nan q_exp)
            && (q_exp < -0.2 || q_exp > 4.5)
          then
            (* Lower bound near zero, not a positive power: circuits
               whose per-path cost is coefficient-dominated (c6288's
               long multiplier paths) legitimately scale almost flat in
               Q once the inter cache is warm. *)
            fail "%s: wall-vs-Q exponent %.2f outside [-0.2, 4.5]" name q_exp;
          if
            paths_increasing
            && List.for_all (fun (_, w) -> w >= 0.05) paths_points
            && not (Float.is_nan paths_exp)
            && (paths_exp < 0.2 || paths_exp > 2.2)
          then
            fail "%s: wall-vs-paths exponent %.2f outside [0.2, 2.2]" name
              paths_exp
        end;
        (* --- strict absolute floors (opt-in: host-dependent) ------ *)
        let vs_seed =
          match
            ( List.assoc_opt name dim_seed_cached,
              find ~engine:"path" ~q:100 ~jobs:1 ~cache:true ~cap:max_paths )
          with
          | Some seed, Some c when c.c_wall > 0.0 ->
              let speedup = seed /. c.c_wall in
              Fmt.pr "  %-7s vs seed cached wall %.4fs: %.2fx@." name seed
                speedup;
              if strict && !assert_ && speedup < dim_strict_floor then
                fail
                  "%s: jobs=1 cached wall %.4fs only %.2fx over the seed \
                   %.4fs (floor %.1fx)"
                  name c.c_wall speedup seed dim_strict_floor;
              Some (seed, c.c_wall, speedup)
          | _ -> None
        in
        (name, grid, q_points, q_exp, paths_points, paths_exp, vs_seed))
      specs
  in
  let oc = open_out "BENCH_dim.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  out
    "{\"schema\":\"bench-dim/1\",\"host_cores\":%d,\"repeats\":%d,\
     \"strict\":%b,\"benchmarks\":[\n"
    (Pool.default_jobs ()) dim_repeats strict;
  List.iteri
    (fun i (name, grid, q_points, q_exp, paths_points, paths_exp, vs_seed) ->
      let cell c =
        let counters =
          if c.c_counters = [] then ""
          else
            Printf.sprintf ",\"counters\":{%s}"
              (String.concat ","
                 (List.map
                    (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v)
                    c.c_counters))
        in
        Printf.sprintf
          "{\"engine\":\"%s\",\"quality\":%d,\"jobs\":%d,\
           \"inter_cache\":%b,\"max_paths\":%d,\"paths\":%d,\
           \"wall_s\":%.4f,\"minor_words\":%.0f%s}"
          c.c_engine c.c_q c.c_jobs c.c_cache c.c_max_paths c.c_paths c.c_wall
          c.c_minor counters
      in
      let points ps =
        String.concat ","
          (List.map (fun (x, w) -> Printf.sprintf "[%d,%.4f]" x w) ps)
      in
      let json_exp e =
        if Float.is_nan e then "null" else Printf.sprintf "%.3f" e
      in
      out "  {\"name\":\"%s\",\"grid\":[\n    %s\n  ],\n" name
        (String.concat ",\n    " (List.map cell grid));
      out
        "   \"fits\":{\"q_exponent\":%s,\"q_points\":[%s],\
         \"paths_exponent\":%s,\"paths_points\":[%s]}%s}%s\n"
        (json_exp q_exp) (points q_points) (json_exp paths_exp)
        (points paths_points)
        (match vs_seed with
        | Some (seed, wall, speedup) ->
            Printf.sprintf
              ",\n   \"vs_seed\":{\"seed_cached_wall_s\":%.4f,\
               \"wall_s\":%.4f,\"speedup\":%.3f}"
              seed wall speedup
        | None -> "")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_dim.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "dim assertions failed"

(* ------------------------------------------------------------------ *)
(* Front end: what every [ssta run] pays before the analysis starts.   *)

(* The designs of perfbench's cli-light workload, read from the text
   [ssta generate] writes for them. *)
let frontend_designs =
  [ "c432"; "c880"; "c1908"; "c2670"; "c3540"; "c5315"; "c7552" ]

let frontend_repeats = 15

(* Minor-heap words per netlist node each phase may allocate (checked
   with --assert).  Allocation volume is deterministic for a given
   input, so unlike a wall this gate cannot flake. *)
let frontend_minor_limits =
  [ ("parse", 150.0); ("attach", 15.0); ("lint", 70.0) ]

(* The run-time front end of [ssta run --bench --def --spef], phase by
   phase, each phase a min-of-N cell of the shared runner: parse (the
   three formats, from strings), attach ([Def_format.placement_of] and
   [Spef.apply] onto the parsed netlist) and the lint pre-pass (netlist,
   placement, SPEF and config rules, no deep checks).  Writes
   BENCH_frontend.json. *)
let frontend () =
  section
    (Printf.sprintf
       "Front end: parse, attach and lint pre-pass (min of %d, jobs=1)"
       frontend_repeats);
  let module Bench_format = Ssta_circuit.Bench_format in
  let module Def_format = Ssta_circuit.Def_format in
  let module Spef = Ssta_circuit.Spef in
  let module Lint = Ssta_lint.Engine in
  let specs =
    List.filter_map Iscas85.by_name
      (match !only with [] -> frontend_designs | names -> names)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let ok = function
    | Ok v -> v
    | Error e -> failwith (Ssta_runtime.Ssta_error.to_string e)
  in
  Fmt.pr "  %-7s %6s %9s %9s %9s %9s %9s %9s   %s@." "name" "nodes"
    "bench(ms)" "def(ms)" "spef(ms)" "attach" "lint" "total"
    "minor words/node (parse attach lint)";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit = Iscas85.build spec in
        let placement = Ssta_circuit.Placement.place circuit in
        let bench_text = Bench_format.to_string circuit in
        let def_text =
          Def_format.to_string
            (Def_format.of_placement ~design:name circuit placement)
        in
        let spef_text =
          Spef.to_string (Spef.of_placement ~design:name circuit placement)
        in
        let cell f =
          dim_min_of ~within:dim_direct ~repeats:frontend_repeats f
        in
        let c, bench_wall, bench_minor =
          cell (fun () -> ok (Bench_format.parse_string_res ~name bench_text))
        in
        let def, def_wall, def_minor =
          cell (fun () -> ok (Def_format.parse_string_res def_text))
        in
        let spef, spef_wall, spef_minor =
          cell (fun () -> ok (Spef.parse_string_res spef_text))
        in
        let (pl, _), attach_wall, attach_minor =
          cell (fun () ->
              ( ok (Def_format.placement_of_res def c),
                ok (Spef.apply_res spef c) ))
        in
        let ds, lint_wall, lint_minor =
          cell (fun () ->
              Lint.run
                (Lint.input ~placement:pl ~spef ~config:Config.default
                   ~deep:false c))
        in
        let nodes = float_of_int (Ssta_circuit.Netlist.num_nodes c) in
        let phases =
          [ ("parse", bench_wall +. def_wall +. spef_wall,
             (bench_minor +. def_minor +. spef_minor) /. nodes);
            ("attach", attach_wall, attach_minor /. nodes);
            ("lint", lint_wall, lint_minor /. nodes) ]
        in
        let total = List.fold_left (fun a (_, w, _) -> a +. w) 0.0 phases in
        if !assert_ then
          List.iter
            (fun (phase, _, per_node) ->
              let limit = List.assoc phase frontend_minor_limits in
              if per_node > limit then
                fail "%s: %s allocates %.1f minor words per node (limit %.0f)"
                  name phase per_node limit)
            phases;
        let per_node =
          String.concat " "
            (List.map (fun (_, _, m) -> Printf.sprintf "%.1f" m) phases)
        in
        Fmt.pr "  %-7s %6.0f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f   %s@." name
          nodes (bench_wall *. 1e3) (def_wall *. 1e3) (spef_wall *. 1e3)
          (attach_wall *. 1e3) (lint_wall *. 1e3) (total *. 1e3) per_node;
        ( name, nodes, List.length ds,
          [ ("bench", bench_wall, bench_minor /. nodes);
            ("def", def_wall, def_minor /. nodes);
            ("spef", spef_wall, spef_minor /. nodes) ],
          phases, total ))
      specs
  in
  let oc = open_out "BENCH_frontend.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  let cells cs =
    String.concat ","
      (List.map
         (fun (phase, wall, per_node) ->
           Printf.sprintf
             "\"%s\":{\"wall_s\":%.6f,\"minor_words_per_node\":%.1f}" phase
             wall per_node)
         cs)
  in
  out
    "{\"schema\":\"bench-frontend/1\",\"repeats\":%d,\"limits\":{%s},\
     \"benchmarks\":[\n"
    frontend_repeats
    (String.concat ","
       (List.map
          (fun (phase, l) -> Printf.sprintf "\"%s\":%.0f" phase l)
          frontend_minor_limits));
  List.iteri
    (fun i (name, nodes, diagnostics, formats, phases, total) ->
      out
        "  {\"name\":\"%s\",\"nodes\":%.0f,\"diagnostics\":%d,\
         \"parse_by_format\":{%s},\"phases\":{%s},\"total_wall_s\":%.6f}%s\n"
        name nodes diagnostics (cells formats) (cells phases) total
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_frontend.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "frontend assertions failed"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per artifact.                 *)

let bechamel_suite () =
  section "Bechamel kernel timings (one representative kernel per artifact)";
  let open Bechamel in
  let open Toolkit in
  (* Pre-built inputs shared by the kernels. *)
  let c432, pl432 = Iscas85.build_placed (spec_exn "c432") in
  let sta432 = Sta.analyze c432 in
  let ctx432 = Path_analysis.context Config.default sta432.Sta.graph pl432 in
  let tables = Inter.tables Config.default in
  let coeffs =
    Ssta_correlation.Path_coeffs.of_path sta432.Sta.graph pl432
      (Config.layers_for Config.default pl432)
      sta432.Sta.critical_path
  in
  let g1 = Dist.truncated_gaussian ~n:100 ~mu:0.0 ~sigma:1.0 () in
  let c1355, _ = Iscas85.build_placed (spec_exn "c1355") in
  let sta1355 = Sta.analyze c1355 in
  let sampler = Monte_carlo.sampler Config.default sta432.Sta.graph pl432 in
  let rng = Rng.create 7 in
  let tests =
    [ Test.make ~name:"table1-sensitivity"
        (Staged.stage (fun () -> Sensitivity.table1 ()));
      Test.make ~name:"table2-path-analysis-c432"
        (Staged.stage (fun () ->
             Path_analysis.analyze ctx432 sta432.Sta.critical_path));
      Test.make ~name:"table3-intra-variance"
        (Staged.stage (fun () -> Intra.variance Config.default coeffs));
      Test.make ~name:"fig3-inter-pdf-q50"
        (Staged.stage (fun () -> Inter.of_coeffs tables coeffs));
      Test.make ~name:"fig4-convolution-q100"
        (Staged.stage (fun () -> Combine.sum g1 g1));
      Test.make ~name:"fig5-bellman-ford-c1355"
        (Staged.stage (fun () ->
             Ssta_timing.Longest_path.bellman_ford sta1355.Sta.graph));
      Test.make ~name:"fig6-near-critical-enum-c1355"
        (Staged.stage (fun () ->
             Sta.near_critical ~max_paths:200 sta1355
               ~slack:(0.001 *. sta1355.Sta.critical_delay)));
      Test.make ~name:"quality-quantile"
        (Staged.stage (fun () -> Pdf.quantile g1 0.999));
      Test.make ~name:"mc-one-path-sample"
        (Staged.stage (fun () ->
             Monte_carlo.path_delay_samples sampler ~n:1 rng
               sta432.Sta.critical_path));
      Test.make ~name:"block-clark-c432"
        (Staged.stage (fun () -> Block_based.analyze ~placement:pl432 c432))
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  Fmt.pr "%-35s %15s@." "kernel" "time/run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let pretty =
            match Analyze.OLS.estimates est with
            | Some [ ns ] ->
                if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
                else Printf.sprintf "%.1f ns" ns
            | Some _ | None -> "n/a"
          in
          Fmt.pr "%-35s %15s@." (Test.Elt.name elt) pretty)
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)

let artifacts =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig3", fig3); ("fig4", fig4); ("fig5", fig5); ("fig6", fig6);
    ("quality", quality); ("convexity", convexity);
    ("mc-validation", mc_validation); ("block-based", block_based);
    ("shapes", shapes); ("wires", wires);
    ("yield-criticality", yield_criticality); ("dual-vt", dual_vt);
    ("pipeline", pipeline); ("screening", screening); ("incremental", incremental);
    ("blockcross", blockcross); ("dim", dim); ("frontend", frontend) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_bechamel = List.mem "--no-bechamel" args in
  List.iter
    (fun a ->
      if String.length a > 7 && String.sub a 0 7 = "--only=" then
        only :=
          String.split_on_char ','
            (String.sub a 7 (String.length a - 7))
      else if a = "--assert" then assert_ := true)
    args;
  let wanted =
    List.filter
      (fun a -> String.length a < 2 || String.sub a 0 2 <> "--")
      args
  in
  let selected =
    if wanted = [] then artifacts
    else List.filter (fun (name, _) -> List.mem name wanted) artifacts
  in
  let started = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) selected;
  if not no_bechamel then bechamel_suite ();
  Fmt.pr "@.total bench wall-clock: %.1f s@." (Unix.gettimeofday () -. started)
