module D = Ssta_lint.Diagnostic
module Engine = Ssta_lint.Engine
module Health = Ssta_runtime.Health
module Pdf = Ssta_prob.Pdf
module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Sta = Ssta_timing.Sta
module Budget = Ssta_correlation.Budget
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Path_analysis = Ssta_core.Path_analysis
module Ranking = Ssta_core.Ranking
module Report_ = Ssta_core.Report
module Monte_carlo = Ssta_core.Monte_carlo
module Paths = Ssta_timing.Paths
module Params = Ssta_tech.Params
module Path_coeffs = Ssta_correlation.Path_coeffs
module Rng = Ssta_prob.Rng
module Pool = Ssta_parallel.Pool
module Block_engine = Ssta_block.Engine

type injection = Bad_budget | Bad_placement | Corrupt_pdf

type input = {
  circuit : Netlist.t;
  placement : Placement.t;
  config : Config.t;
  pdfsan : bool;
  path_limit : int;
  par_jobs : int option;
  inject : injection option;
  only : string list;
  impact_edits : int;
  impact_seed : int;
  should_stop : unit -> bool;
}

let input ?(config = Config.default) ?placement ?(pdfsan = true)
    ?(path_limit = 64) ?par_jobs ?inject ?(only = []) ?(impact_edits = 1)
    ?(impact_seed = 7) ?(should_stop = fun () -> false) circuit =
  let placement =
    match placement with Some pl -> pl | None -> Placement.place circuit
  in
  { circuit;
    placement;
    config;
    pdfsan;
    path_limit;
    par_jobs;
    inject;
    only;
    impact_edits;
    impact_seed;
    should_stop }

type report = {
  diagnostics : D.t list;
  nodes_certified : int;
  paths_certified : int;
  ops_audited : int;
  health : Health.t;
}

let own_checks =
  [ ("check-bound-domain",
     "the truncated parameter box stays inside the Elmore validity \
      domain");
    ("check-bound-arrival",
     "nominal labels and the critical delay lie inside the static \
      arrival intervals, and the forward/backward bounds agree");
    ("check-bound-nominal",
     "each certified path's nominal delay lies inside its static \
      interval");
    ("check-bound-support",
     "each certified path's inter/intra/total PDF support lies inside \
      its static interval");
    ("check-bound-quantile",
     "each certified path's mean and quantiles lie inside its static \
      interval");
    ("check-affine-containment",
     "each certified path's Eq. (14) sensitivity vector lies inside the \
      affine coefficient intervals, and Monte-Carlo samples of the \
      circuit delay fall inside the affine truncation envelope");
    ("check-affine-variance",
     "each certified path's Eq. (14) inter/intra variance split is \
      bounded by the affine sensitivity analysis");
    ("check-affine-screen",
     "the affine path screener's pruned enumeration reproduces the \
      unpruned near-critical path set byte for byte, and the packaged \
      screen `run` uses prunes exactly the same nodes");
    ("check-block-vs-path",
     "the block-based engine's circuit arrival agrees with the \
      path-based answer and a fixed-seed Monte-Carlo reference within \
      mean/sigma/quantile tolerances");
    ("check-health",
     "numerical-health events of the certified run are surfaced");
    ("check-impact-equivalence",
     "incremental re-analysis after a seeded random edit splices cached \
      path results into a report byte-identical to a from-scratch run");
    ("check-interrupted",
     "verification stopped on a cooperative cancellation request; the \
      certified results cover the completed prefix only");
    ("check-inter-cache-consistency",
     "each certified path's cached (scale-covariant) inter PDF matches \
      an uncached from-scratch recomputation within 1e-9 relative");
    ("check-parallel-determinism",
     "a parallel methodology run reproduces the sequential run's \
      report byte for byte");
    ("check-internal", "the verifier itself failed") ]

let all_checks =
  List.sort_uniq
    (fun (a, _) (b, _) -> String.compare a b)
    (own_checks @ Variance_check.checks @ Placement_check.checks
   @ Pdfsan.checks)

(* --- injections ------------------------------------------------------ *)

let apply_injection inp =
  match inp.inject with
  | None | Some Corrupt_pdf -> inp
  | Some Bad_budget ->
      (* A three-weight budget against the default 4+1 layer structure:
         structurally inconsistent, every weight still legal. *)
      let config =
        { inp.config with
          Config.budget = Budget.of_weights [| 0.4; 0.3; 0.3 |] }
      in
      { inp with config }
  | Some Bad_placement ->
      let pl = inp.placement in
      let coords = Array.copy pl.Placement.coords in
      let victim = Array.length coords - 1 in
      coords.(victim) <-
        (2.0 *. pl.Placement.die_width, 2.0 *. pl.Placement.die_height);
      { inp with placement = { pl with Placement.coords } }

let corrupt_event () =
  (* All-infinite densities normalize to NaN cells: the one corruption
     Pdf.make does not reject. *)
  let bad = Pdf.of_fun ~lo:0.0 ~hi:1.0 ~n:8 (fun _ -> infinity) in
  { Pdf.trace_op = "inject.corrupt-pdf";
    trace_expected = Some (0.0, 1.0);
    trace_mass_in = Some 1.0;
    trace_clamped = 0.0;
    trace_output = bad }

(* --- bound certification --------------------------------------------- *)

let rel_slack i = 1e-12 +. (1e-9 *. Interval.magnitude i)

let certify_labels (bounds : Arrival_bounds.t) (sta : Sta.t) add =
  let labels = sta.Sta.labels in
  let bad = ref 0 and example = ref (-1) in
  Array.iteri
    (fun id a ->
      let slack = rel_slack a in
      if not (Interval.contains ~slack a labels.(id)) then begin
        incr bad;
        if !example < 0 then example := id
      end)
    bounds.Arrival_bounds.arrival;
  if !bad > 0 then
    add
      (D.make ~rule:"check-bound-arrival" ~severity:D.Error
         ~location:D.Circuit
         (Printf.sprintf
            "%d nominal arrival labels escape their static interval \
             (first: node %d, label %.6g s, interval %s)"
            !bad !example
            labels.(!example)
            (Format.asprintf "%a" Interval.pp
               bounds.Arrival_bounds.arrival.(!example))));
  let circuit = bounds.Arrival_bounds.circuit in
  if
    not
      (Interval.contains ~slack:(rel_slack circuit) circuit
         sta.Sta.critical_delay)
  then
    add
      (D.make ~rule:"check-bound-arrival" ~severity:D.Error
         ~location:D.Circuit
         (Printf.sprintf
            "critical delay %.6g s escapes the static circuit interval %s"
            sta.Sta.critical_delay
            (Format.asprintf "%a" Interval.pp circuit)));
  (* Forward/backward duality: the worst path through any node cannot
     beat the circuit bound. *)
  (match Interval.range circuit with
  | None ->
      add
        (D.make ~rule:"check-bound-arrival" ~severity:D.Error
           ~location:D.Circuit "circuit arrival interval is empty")
  | Some (_, circuit_hi) ->
      let dual_bad = ref 0 in
      Array.iteri
        (fun id a ->
          let through = Interval.add a bounds.Arrival_bounds.suffix.(id) in
          match Interval.range through with
          | None -> ()
          | Some (_, hi) ->
              if hi > circuit_hi +. rel_slack through then incr dual_bad)
        bounds.Arrival_bounds.arrival;
      if !dual_bad > 0 then
        add
          (D.make ~rule:"check-bound-arrival" ~severity:D.Error
             ~location:D.Circuit
             (Printf.sprintf
                "forward/backward duality fails at %d nodes: arrival + \
                 suffix exceeds the circuit bound"
                !dual_bad)))

let pdf_support_slack (p : Pdf.t) interval =
  (2.0 *. p.Pdf.step) +. rel_slack interval +. (1e-3 *. Interval.magnitude interval)

let certify_path (bounds : Arrival_bounds.t) ~label (pa : Path_analysis.t) add =
  let interval = Arrival_bounds.path_total bounds pa.Path_analysis.path in
  let loc = D.Pdf label in
  if
    not
      (Interval.contains ~slack:(rel_slack interval) interval
         pa.Path_analysis.det_delay)
  then
    add
      (D.make ~rule:"check-bound-nominal" ~severity:D.Error ~location:loc
         (Printf.sprintf "nominal delay %.6g s escapes the static interval %s"
            pa.Path_analysis.det_delay
            (Format.asprintf "%a" Interval.pp interval)));
  let support_check name p i =
    let slack = pdf_support_slack p i in
    let sup = Interval.make ~lo:p.Pdf.lo ~hi:(Pdf.hi p) in
    if not (Interval.subset ~slack sup ~of_:i) then
      add
        (D.make ~rule:"check-bound-support" ~severity:D.Error ~location:loc
           (Printf.sprintf
              "%s PDF support [%.6g, %.6g] s escapes the static interval %s"
              name p.Pdf.lo (Pdf.hi p)
              (Format.asprintf "%a" Interval.pp i)))
  in
  support_check "total" pa.Path_analysis.total_pdf interval;
  support_check "inter" pa.Path_analysis.inter_pdf
    (Arrival_bounds.path_inter bounds pa.Path_analysis.path);
  let h = Arrival_bounds.path_intra_halfwidth bounds pa.Path_analysis.path in
  support_check "intra" pa.Path_analysis.intra_pdf
    (Interval.make ~lo:(-.h) ~hi:h);
  let total = pa.Path_analysis.total_pdf in
  let q_slack = pdf_support_slack total interval in
  List.iter
    (fun (name, v) ->
      if not (Interval.contains ~slack:q_slack interval v) then
        add
          (D.make ~rule:"check-bound-quantile" ~severity:D.Error
             ~location:loc
             (Printf.sprintf
                "%s %.6g s escapes the static interval %s" name v
                (Format.asprintf "%a" Interval.pp interval))))
    [ ("mean", pa.Path_analysis.mean);
      ("median", Pdf.quantile total 0.5);
      ("0.1% quantile", Pdf.quantile total 0.001);
      ("99.9% quantile", Pdf.quantile total 0.999);
      ("confidence point", pa.Path_analysis.confidence_point) ]

(* Recompute a certified path's inter PDF from scratch (no cache) and
   compare the statistics the methodology consumes against the stored —
   cached and rescaled — PDF.  The scale-covariant cache quantizes the
   normalized coefficient direction to 40 mantissa bits, so any
   divergence is bounded around 1e-12 relative; 1e-9 flags real damage
   (a stale kernel, a wrong rescale) without tripping on rounding. *)
let cache_consistency_tol = 1e-9

let check_cache_consistency tables ~label (pa : Path_analysis.t) add =
  let fresh = Ssta_core.Inter.of_coeffs tables pa.Path_analysis.coeffs in
  let stored = pa.Path_analysis.inter_pdf in
  let rel a b =
    Float.abs (a -. b)
    /. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))
  in
  let worst = ref 0.0 and worst_stat = ref "" in
  let consider name a b =
    let r = rel a b in
    if r > !worst then begin
      worst := r;
      worst_stat := Printf.sprintf "%s (cached %.12g vs fresh %.12g)" name a b
    end
  in
  consider "mean" (Pdf.mean stored) (Pdf.mean fresh);
  consider "std" (Pdf.std stored) (Pdf.std fresh);
  List.iter
    (fun q ->
      consider
        (Printf.sprintf "quantile %g" q)
        (Pdf.quantile stored q) (Pdf.quantile fresh q))
    [ 0.001; 0.5; 0.999 ];
  if !worst > cache_consistency_tol then
    add
      (D.make ~rule:"check-inter-cache-consistency" ~severity:D.Error
         ~location:(D.Pdf label)
         (Printf.sprintf
            "cached inter PDF diverges from the uncached recomputation: \
             %s differs by %.3g relative (tolerance %g)"
            !worst_stat !worst cache_consistency_tol))

(* --- affine certification -------------------------------------------- *)

(* Eq. (14) vs the affine domain, per certified path.  The path's inter
   coefficient per RV is the linearized (sum of gradients) * sigma *
   sqrt w0 — exactly what the affine gate forms accumulate, up to
   association order of the float sum, so a tight relative tolerance
   applies.  The analytic intra sigma comes from
   [Path_coeffs.intra_variance] (the exact Eq. 14 value, no PDF-grid
   error) and must be bounded by the affine [intra_sigma] — a theorem
   by the triangle inequality, whatever the layer partitioning. *)
let check_affine_path config (aff : Affine.analysis) ~check_containment
    ~check_variance ~label (pa : Path_analysis.t) add =
  match Affine.path_form aff pa.Path_analysis.path with
  | Affine.Bottom ->
      add
        (D.make ~rule:"check-affine-containment" ~severity:D.Error
           ~location:(D.Pdf label)
           "affine path form is bottom for an analyzed path")
  | Affine.Form f ->
      let budget = config.Config.budget in
      let sqrt_w0 = sqrt (Budget.inter_fraction budget) in
      let coeffs = pa.Path_analysis.coeffs in
      let path_coeff rv =
        Params.get coeffs.Path_coeffs.grad_sum rv *. Params.sigma rv
        *. sqrt_w0
      in
      if check_containment then
        List.iteri
          (fun i rv ->
            let c = path_coeff rv in
            let iv = f.Affine.coeffs.(i) in
            let slack =
              1e-15
              +. (1e-9 *. Float.max (Interval.magnitude iv) (Float.abs c))
            in
            if not (Interval.contains ~slack iv c) then
              add
                (D.make ~rule:"check-affine-containment" ~severity:D.Error
                   ~location:(D.Pdf label)
                   (Printf.sprintf
                      "Eq. (14) sensitivity %.6g s of %s escapes the \
                       affine coefficient interval %s"
                      c (Params.rv_name rv)
                      (Format.asprintf "%a" Interval.pp iv))))
          Params.all_rvs;
      if check_variance then begin
        let inter_path =
          sqrt
            (List.fold_left
               (fun acc rv ->
                 let c = path_coeff rv in
                 acc +. (c *. c))
               0.0 Params.all_rvs)
        in
        let inter_bound =
          sqrt
            (Array.fold_left
               (fun acc iv ->
                 let m = Interval.magnitude iv in
                 acc +. (m *. m))
               0.0 f.Affine.coeffs)
        in
        let tol x = 1e-15 +. (1e-9 *. Float.abs x) in
        if inter_path > inter_bound +. tol inter_bound then
          add
            (D.make ~rule:"check-affine-variance" ~severity:D.Error
               ~location:(D.Pdf label)
               (Printf.sprintf
                  "Eq. (14) inter sigma %.6g s exceeds the affine bound \
                   %.6g s"
                  inter_path inter_bound));
        let intra_path = sqrt (Path_coeffs.intra_variance coeffs budget) in
        if intra_path > f.Affine.intra_sigma +. tol f.Affine.intra_sigma
        then
          add
            (D.make ~rule:"check-affine-variance" ~severity:D.Error
               ~location:(D.Pdf label)
               (Printf.sprintf
                  "Eq. (14) intra sigma %.6g s exceeds the affine bound \
                   %.6g s"
                  intra_path f.Affine.intra_sigma))
      end

(* Circuit-level Monte-Carlo envelope: every sampled critical delay
   must land inside the concretization of the circuit's affine form at
   the configured truncation (samples are drawn from the same truncated
   parameter model).  Fixed seed: the check is deterministic. *)
let mc_envelope_samples = 200

let check_affine_envelope config (aff : Affine.analysis) sta placement add =
  let env = Affine.concretize ~trunc:aff.Affine.trunc aff.Affine.circuit in
  let sampler = Monte_carlo.sampler config sta.Sta.graph placement in
  let rng = Rng.create 1 in
  let samples =
    Monte_carlo.circuit_delay_samples sampler ~n:mc_envelope_samples rng
  in
  let slack = rel_slack env in
  let bad = ref 0 and worst = ref neg_infinity in
  Array.iter
    (fun s ->
      if not (Interval.contains ~slack env s) then begin
        incr bad;
        if s > !worst then worst := s
      end)
    samples;
  if !bad > 0 then
    add
      (D.make ~rule:"check-affine-containment" ~severity:D.Error
         ~location:D.Circuit
         (Printf.sprintf
            "%d of %d Monte-Carlo circuit delays escape the affine \
             envelope %s (worst %.6g s)"
            !bad mc_envelope_samples
            (Format.asprintf "%a" Interval.pp env)
            !worst))

(* Proof obligation of the static screener: rerun the near-critical
   enumeration with and without the prune hook and demand byte-equal
   records — paths, order, delays, explored count, flags. *)
let render_enumeration (e : Paths.enumeration) =
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
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

let check_affine_screen config (aff : Affine.analysis) sta ~slack add =
  let sc = Affine.screen aff sta ~slack in
  (* The packaged screen skips the affine sweeps; certify that it
     still decides every node, and counts, exactly as this one does. *)
  let hook, counters = Affine.methodology_screen config ~sta ~slack in
  let hook_pruned = ref 0 and disagree = ref 0 in
  Array.iteri
    (fun u p ->
      if hook u then incr hook_pruned;
      if hook u <> p then incr disagree)
    sc.Affine.pruned;
  let counters_agree = counters = Affine.screen_counters sc in
  if !disagree > 0 || not counters_agree then
    add
      (D.make ~rule:"check-affine-screen" ~severity:D.Error
         ~location:D.Circuit
         (Printf.sprintf
            "packaged screen disagrees with the affine screen on %d of %d \
             nodes (it prunes %d, the affine screen %d)%s"
            !disagree sc.Affine.nodes_visited !hook_pruned
            sc.Affine.nodes_pruned
            (if counters_agree then "" else "; its counters differ")));
  let max_paths = config.Config.max_paths in
  let base = Sta.near_critical ~max_paths sta ~slack in
  let pruned =
    Sta.near_critical ~max_paths ~prune:(Affine.prune_hook sc) sta ~slack
  in
  let sb = render_enumeration base and sp = render_enumeration pruned in
  if String.equal sb sp then
    add
      (D.make ~rule:"check-affine-screen" ~severity:D.Info
         ~location:D.Circuit
         (Printf.sprintf
            "screener pruned %d of %d nodes; pruned enumeration is \
             byte-identical (%d paths)"
            sc.Affine.nodes_pruned sc.Affine.nodes_visited
            (List.length base.Paths.paths)))
  else begin
    let n = Int.min (String.length sb) (String.length sp) in
    let i = ref 0 in
    while !i < n && sb.[!i] = sp.[!i] do
      incr i
    done;
    add
      (D.make ~rule:"check-affine-screen" ~severity:D.Error
         ~location:D.Circuit
         (Printf.sprintf
            "pruned enumeration diverges from the unpruned one at byte \
             %d (%d vs %d paths, %d of %d nodes pruned)"
            !i
            (List.length pruned.Paths.paths)
            (List.length base.Paths.paths)
            sc.Affine.nodes_pruned sc.Affine.nodes_visited))
  end

(* --- block-vs-path cross-validation ---------------------------------- *)

(* The block engine answers the same question as the path-based flow by
   a completely different route (one topological pass vs per-path
   analysis), so agreement is strong evidence for both.  Three gates:
   the block circuit arrival must dominate the probabilistic critical
   path (the circuit max is at least any single path) without escaping
   the worst-case corner, and its mean/sigma/median must sit inside the
   confidence band of a fixed-seed Monte-Carlo reference. *)
let block_vs_path_samples = 200

let check_block_vs_path config circuit placement (m : Methodology.t) add =
  let r = Block_engine.analyze ~config ~placement circuit in
  let prob = m.Methodology.prob_critical.Ranking.analysis in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        ok := false;
        add
          (D.make ~rule:"check-block-vs-path" ~severity:D.Error
             ~location:D.Circuit msg))
      fmt
  in
  let rel = 0.02 in
  if r.Block_engine.mean < prob.Path_analysis.mean *. (1.0 -. rel) then
    fail
      "block circuit mean %.6g s falls below the probabilistic critical \
       path mean %.6g s (the circuit max dominates every path)"
      r.Block_engine.mean prob.Path_analysis.mean;
  if
    r.Block_engine.confidence_point
    > prob.Path_analysis.worst_case *. (1.0 +. rel)
  then
    fail
      "block confidence point %.6g s exceeds the worst-case corner %.6g s"
      r.Block_engine.confidence_point prob.Path_analysis.worst_case;
  let sampler =
    Monte_carlo.sampler config r.Block_engine.sta.Sta.graph placement
  in
  let samples =
    Monte_carlo.circuit_delay_samples sampler ~n:block_vs_path_samples
      (Rng.create 2)
  in
  let n = float_of_int (Array.length samples) in
  let mc_mean = Array.fold_left ( +. ) 0.0 samples /. n in
  let mc_std =
    sqrt
      (Array.fold_left
         (fun acc d -> acc +. ((d -. mc_mean) *. (d -. mc_mean)))
         0.0 samples
      /. (n -. 1.0))
  in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let mc_median =
    let h = Array.length sorted / 2 in
    0.5 *. (sorted.(h - 1) +. sorted.(h))
  in
  let se = mc_std /. sqrt n in
  let mean_tol = (4.0 *. se) +. (0.01 *. Float.abs mc_mean) in
  if Float.abs (r.Block_engine.mean -. mc_mean) > mean_tol then
    fail "block mean %.6g s outside the MC band %.6g +- %.6g s"
      r.Block_engine.mean mc_mean mean_tol;
  (* The sample sigma's standard error is sigma / sqrt(2 (n - 1)), 5% of
     sigma at 200 samples.  The 6% allowance is Clark's own sigma error:
     against a 2000-die MC it reaches 5.3% (c1355) on ISCAS85. *)
  let std_tol =
    (4.0 *. mc_std /. sqrt (2.0 *. (n -. 1.0))) +. (0.06 *. mc_std)
  in
  if Float.abs (r.Block_engine.std -. mc_std) > std_tol then
    fail "block sigma %.6g s outside the MC band %.6g +- %.6g s"
      r.Block_engine.std mc_std std_tol;
  let median = Pdf.quantile r.Block_engine.pdf 0.5 in
  (* The sample median's standard error is ~1.2533 sigma / sqrt(n). *)
  let median_tol = (5.0 *. se) +. (0.01 *. Float.abs mc_mean) in
  if Float.abs (median -. mc_median) > median_tol then
    fail "block median %.6g s outside the MC band %.6g +- %.6g s" median
      mc_median median_tol;
  if !ok then
    add
      (D.make ~rule:"check-block-vs-path" ~severity:D.Info
         ~location:D.Circuit
         (Printf.sprintf
            "block engine (%s max) agrees: mean %.6g s vs path %.6g s \
             and MC %.6g s; sigma %.6g s vs MC %.6g s (%d samples)"
            (Config.max_policy_name config.Config.block_max)
            r.Block_engine.mean prob.Path_analysis.mean mc_mean
            r.Block_engine.std mc_std block_vs_path_samples))

(* --- incremental-equivalence certification --------------------------- *)

(* Apply seeded random single-gate edits one after another to a warm
   incremental image and demand, after every edit, that the spliced
   incremental report is byte-identical to a from-scratch run of the
   same (edited) design.  Both runs are warm-backed, so both reports
   exclude the history-dependent cache counters; any byte of divergence
   is a real soundness hole in the dirty-set/cone logic. *)
let check_impact_equivalence ~config ~circuit ~placement ~edits ~seed ~stop
    add =
  let design = Impact.design ~placement ~config circuit in
  match Impact.init design with
  | Error e -> add (D.of_error e)
  | Ok (state, _baseline) -> (
      let rng = Rng.create seed in
      try
        for k = 1 to edits do
          if stop () then raise Exit;
          let script =
            Impact.random_edits ~rng ~count:1 (Impact.design_of state)
          in
          let label = Ssta_circuit.Edit.describe script in
          match Impact.reanalyze state script with
          | Error e ->
              add (D.of_error e);
              raise Exit
          | Ok o -> (
              match Impact.scratch (Impact.design_of state) with
              | Error e ->
                  add (D.of_error e);
                  raise Exit
              | Ok sm ->
                  let ji = Report_.json_report o.Impact.report in
                  let js = Report_.json_report sm in
                  if String.equal ji js then
                    add
                      (D.make ~rule:"check-impact-equivalence"
                         ~severity:D.Info ~location:D.Circuit
                         (Printf.sprintf
                            "edit %d (%s): incremental report \
                             byte-identical to from-scratch (%d bytes; \
                             cone %d nodes, %d paths reused, %d \
                             reanalyzed)"
                            k label (String.length ji)
                            o.Impact.cone.Impact.cone_nodes o.Impact.reused
                            o.Impact.reanalyzed))
                  else begin
                    let n = Int.min (String.length ji) (String.length js) in
                    let i = ref 0 in
                    while !i < n && ji.[!i] = js.[!i] do
                      incr i
                    done;
                    add
                      (D.make ~rule:"check-impact-equivalence"
                         ~severity:D.Error ~location:D.Circuit
                         (Printf.sprintf
                            "edit %d (%s): incremental report diverges \
                             from the from-scratch run at byte %d \
                             (lengths %d vs %d; cone %d nodes, %d \
                             reused, %d reanalyzed)"
                            k label !i (String.length ji)
                            (String.length js)
                            o.Impact.cone.Impact.cone_nodes o.Impact.reused
                            o.Impact.reanalyzed))
                  end)
        done
      with Exit -> ())

(* --- driver ---------------------------------------------------------- *)

(* Check ids whose evidence comes from the static phase alone; with
   [--only] restricted to these, the dynamic run is skipped entirely. *)
let static_ids =
  "check-var-budget" :: List.map fst Placement_check.checks

let run inp =
  let inp = apply_injection inp in
  let { circuit;
        placement;
        config;
        pdfsan;
        path_limit;
        par_jobs;
        inject;
        only;
        impact_edits;
        impact_seed;
        should_stop } =
    inp
  in
  let selected id = only = [] || List.mem id only in
  let any_selected ids = List.exists selected ids in
  (* The main methodology run feeds every dynamic check except the
     impact-equivalence phase, which performs its own runs — selecting
     only that id skips the main run entirely. *)
  let main_needed =
    only = []
    || List.exists
         (fun id ->
           (not (List.mem id static_ids))
           && id <> "check-impact-equivalence")
         only
  in
  (* Latching cancellation: once the external hook trips, every later
     poll answers true, so the phases wind down in order and the report
     describes a clean prefix. *)
  let interrupted = ref false in
  let stop () =
    if (not !interrupted) && should_stop () then interrupted := true;
    !interrupted
  in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let nodes_certified = ref 0 and paths_certified = ref 0 in
  let health = Health.create () in
  let san = Pdfsan.create ~health () in
  (* Static phase: always runs — static errors gate the dynamic phase
     whatever the selection, and stay visible through the filter. *)
  List.iter add (Variance_check.check_config config);
  List.iter add (Placement_check.check config circuit placement);
  let static_clean = not (Engine.has_errors !ds) in
  (* Injected PDF corruption is audited even when the static phase (or
     the pdfsan flag) would skip the dynamic run. *)
  if inject = Some Corrupt_pdf then Pdfsan.audit san (corrupt_event ());
  if static_clean && main_needed then begin
    let sta = Sta.analyze circuit in
    (match Arrival_bounds.compute config sta.Sta.graph with
    | Error msg ->
        add
          (D.make ~rule:"check-bound-domain" ~severity:D.Error
             ~location:D.Config
             (Printf.sprintf
                "static bounds are not computable: %s (truncated \
                 parameter box leaves the delay model's domain)"
                msg))
    | Ok bounds ->
        certify_labels bounds sta add;
        nodes_certified := Array.length bounds.Arrival_bounds.arrival;
        let affine_ids =
          [ "check-affine-containment";
            "check-affine-variance";
            "check-affine-screen" ]
        in
        let affine =
          if any_selected affine_ids then
            match Affine.compute config sta.Sta.graph with
            | Ok aff -> Some aff
            | Error msg ->
                (* Arrival_bounds succeeded on the same corners, so
                   this is a verifier bug, not a domain failure. *)
                add
                  (D.make ~rule:"check-internal" ~severity:D.Error
                     ~location:D.Config
                     (Printf.sprintf "affine analysis failed: %s" msg));
                None
          else None
        in
        (match affine with
        | Some aff when selected "check-affine-containment" ->
            check_affine_envelope config aff sta placement add
        | _ -> ());
        (* Dynamic phase: a full methodology run under the sanitizer. *)
        if pdfsan && any_selected (List.map fst Pdfsan.checks) then
          Pdfsan.install san;
        let result =
          Fun.protect ~finally:Pdfsan.uninstall (fun () ->
              Methodology.analyze ~config ~cancelled:stop ~placement circuit)
        in
        (match result with
        | Error e -> add (D.of_error e)
        | Ok m ->
            let ranked = m.Methodology.ranked in
            let total = Array.length ranked in
            let limit =
              if path_limit <= 0 then total else Int.min path_limit total
            in
            (* Fresh tables for the cache cross-check: a deterministic
               function of the (possibly budget-clamped) config the run
               actually used. *)
            let cache_tables =
              if config.Config.inter_cache then
                Some (Ssta_core.Inter.tables m.Methodology.config)
              else None
            in
            let bound_path_ids =
              [ "check-bound-nominal";
                "check-bound-support";
                "check-bound-quantile" ]
            in
            let var_path_ids =
              List.filter
                (fun id -> not (String.equal id "check-var-budget"))
                (List.map fst Variance_check.checks)
            in
            (try
               for i = 0 to limit - 1 do
                 if stop () then raise Exit;
                 let r = ranked.(i) in
                 let label = Printf.sprintf "path#%d" r.Ranking.prob_rank in
                 let pa = r.Ranking.analysis in
                 if any_selected bound_path_ids then
                   certify_path bounds ~label pa add;
                 (match cache_tables with
                 | Some t when selected "check-inter-cache-consistency" ->
                     check_cache_consistency t ~label pa add
                 | _ -> ());
                 if any_selected var_path_ids then
                   List.iter add
                     (Variance_check.check_path config ~label pa);
                 (match affine with
                 | Some aff ->
                     let check_containment =
                       selected "check-affine-containment"
                     in
                     let check_variance = selected "check-affine-variance" in
                     if check_containment || check_variance then
                       check_affine_path config aff ~check_containment
                         ~check_variance ~label pa add
                 | None -> ());
                 paths_certified := i + 1
               done
             with Exit -> ());
            if limit < total then
              add
                (D.make ~rule:"check-health" ~severity:D.Info
                   ~location:D.Circuit
                   (Printf.sprintf
                      "certified %d of %d analyzed paths (raise the path \
                       limit for full coverage)"
                      limit total));
            (match affine with
            | Some aff
              when selected "check-affine-screen" && not (stop ()) ->
                check_affine_screen config aff sta ~slack:m.Methodology.slack
                  add
            | _ -> ());
            if selected "check-block-vs-path" && not (stop ()) then
              check_block_vs_path config circuit placement m add;
            Health.merge ~into:health m.Methodology.health;
            (* Parallel determinism: rerun the whole flow on a worker
               pool (without the sanitizer — its trace hook is a
               process-global that must not observe worker domains) and
               demand a byte-identical deterministic report: same PDFs,
               same ranking, same degradations, same health counters. *)
            (match par_jobs with
            | None -> ()
            | Some _ when not (selected "check-parallel-determinism") -> ()
            | Some _ when stop () ->
                (* The sequential run may itself have been cut short by
                   the cancellation; a fresh complete parallel run would
                   diverge for timing reasons, not determinism bugs. *)
                ()
            | Some jobs -> (
                let par =
                  Pool.with_pool ~jobs (fun pool ->
                      Methodology.analyze ~config ~placement ~pool circuit)
                in
                match par with
                | Error e -> add (D.of_error e)
                | Ok p ->
                    let js = Report_.json_report m in
                    let jp = Report_.json_report p in
                    if not (String.equal js jp) then begin
                      let n = Int.min (String.length js) (String.length jp) in
                      let i = ref 0 in
                      while !i < n && js.[!i] = jp.[!i] do
                        incr i
                      done;
                      add
                        (D.make ~rule:"check-parallel-determinism"
                           ~severity:D.Error ~location:D.Circuit
                           (Printf.sprintf
                              "parallel run (%d jobs) diverges from the \
                               sequential report at byte %d (lengths %d \
                               vs %d)"
                              jobs !i (String.length js)
                              (String.length jp)))
                    end));
            if not (Health.is_clean m.Methodology.health) then begin
              let defect, op = Health.worst_defect m.Methodology.health in
              add
                (D.make ~rule:"check-health" ~severity:D.Info
                   ~location:D.Circuit
                   (Printf.sprintf
                      "run recorded %d numerical-health events (worst \
                       defect %.3g%s)"
                      (Health.count m.Methodology.health)
                      defect
                      (if op = "" then "" else " in " ^ op)))
            end))
  end;
  if
    static_clean
    && selected "check-impact-equivalence"
    && impact_edits > 0
    && not (stop ())
  then
    check_impact_equivalence ~config ~circuit ~placement ~edits:impact_edits
      ~seed:impact_seed ~stop add;
  if !interrupted then
    add
      (D.make ~rule:"check-interrupted" ~severity:D.Warning
         ~location:D.Circuit
         (Printf.sprintf
            "verification interrupted: %d paths certified before the \
             cancellation request; unfinished checks were skipped"
            !paths_certified));
  List.iter add (Pdfsan.findings san);
  if Pdfsan.dropped san > 0 then
    add
      (D.make ~rule:"check-health" ~severity:D.Info ~location:D.Circuit
         (Printf.sprintf "%d sanitizer findings dropped beyond the cap"
            (Pdfsan.dropped san)));
  (* [--only] filters the report to the selected ids — except that
     errors from checks that did run always surface: a hidden error
     would turn a failing run into a clean exit code. *)
  let diagnostics =
    List.filter
      (fun d -> selected d.D.rule || d.D.severity = D.Error)
      (List.rev !ds)
  in
  { diagnostics = List.stable_sort D.compare diagnostics;
    nodes_certified = !nodes_certified;
    paths_certified = !paths_certified;
    ops_audited = Pdfsan.ops san;
    health }
