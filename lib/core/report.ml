module Pdf = Ssta_prob.Pdf
module Elmore = Ssta_tech.Elmore
module Sta = Ssta_timing.Sta
module Iscas85 = Ssta_circuit.Iscas85

type table2_row = {
  name : string;
  num_gates : int;
  det_delay_ps : float;
  worst_case_ps : float;
  overestimation_pct : float;
  confidence : float;
  num_critical_paths : int;
  truncated : bool;
  prob_mean_ps : float;
  prob_sigma3_ps : float;
  critical_path_gates : int;
  det_rank_of_prob_critical : int;
  runtime_s : float;
}

let table2_row (m : Methodology.t) =
  let prob = m.Methodology.prob_critical.Ranking.analysis in
  { name = m.Methodology.circuit_name;
    num_gates = m.Methodology.num_gates;
    det_delay_ps = Elmore.ps m.Methodology.sta.Sta.critical_delay;
    worst_case_ps = Elmore.ps m.Methodology.det_critical.Path_analysis.worst_case;
    overestimation_pct = Methodology.overestimation_pct m;
    confidence = m.Methodology.config.Config.confidence;
    num_critical_paths = Methodology.num_critical_paths m;
    truncated = m.Methodology.truncated;
    prob_mean_ps = Elmore.ps prob.Path_analysis.mean;
    prob_sigma3_ps = Elmore.ps prob.Path_analysis.confidence_point;
    critical_path_gates = prob.Path_analysis.gate_count;
    det_rank_of_prob_critical =
      Ranking.det_rank_of_prob_critical m.Methodology.ranked;
    runtime_s = m.Methodology.runtime_s }

let pp_table2_header fmt () =
  Format.fprintf fmt
    "%-7s %6s %10s %10s %7s %6s %7s %10s %10s %6s %6s %8s@." "name" "gates"
    "det(ps)" "worst(ps)" "over%" "C" "paths" "mean(ps)" "3sig(ps)" "cpg"
    "drank" "time(s)"

let pp_table2_row fmt r =
  Format.fprintf fmt
    "%-7s %6d %10.3f %10.3f %7.2f %6.3f %6d%s %10.3f %10.3f %6d %6d %8.2f@."
    r.name r.num_gates r.det_delay_ps r.worst_case_ps r.overestimation_pct
    r.confidence r.num_critical_paths
    (if r.truncated then "+" else " ")
    r.prob_mean_ps r.prob_sigma3_ps r.critical_path_gates
    r.det_rank_of_prob_critical r.runtime_s

let pp_table2_paper_comparison fmt rows =
  if rows <> [] then begin
    Format.fprintf fmt
      "@.paper comparison (shape, not absolute ps — see EXPERIMENTS.md):@.";
    List.iter
      (fun ((paper : Iscas85.paper_row), r) ->
        Format.fprintf fmt
          "%-7s over%%: %.1f (paper %.1f)  paths: %d (paper %d)  det-rank: %d (paper %d)  mean/det shift: %+.3f ps@."
          r.name r.overestimation_pct paper.Iscas85.overestimation_pct
          r.num_critical_paths paper.Iscas85.num_critical_paths
          r.det_rank_of_prob_critical paper.Iscas85.det_rank_of_prob_critical
          (r.prob_mean_ps -. r.det_delay_ps))
      rows;
    let sum =
      List.fold_left (fun acc (_, r) -> acc +. r.overestimation_pct) 0.0 rows
    in
    Format.fprintf fmt "@.average worst-case overestimation: %.1f%% (paper: 55%%)@."
      (sum /. float_of_int (List.length rows))
  end

type table3_row = {
  scenario : string;
  inter_fraction : float;
  mean_ps : float;
  total_sigma_ps : float;
  inter_sigma_ps : float;
  intra_sigma_ps : float;
  num_paths : int;
}

let table3_row ~scenario ~inter_fraction (m : Methodology.t) =
  let d = m.Methodology.det_critical in
  { scenario;
    inter_fraction;
    mean_ps = Elmore.ps d.Path_analysis.mean;
    total_sigma_ps = Elmore.ps d.Path_analysis.std;
    inter_sigma_ps = Elmore.ps d.Path_analysis.inter_sigma;
    intra_sigma_ps = Elmore.ps d.Path_analysis.intra_sigma;
    num_paths = Methodology.num_critical_paths m }

let pp_table3_header fmt () =
  Format.fprintf fmt "%-28s %10s %10s %10s %10s %7s@." "scenario" "mean(ps)"
    "total s" "inter s" "intra s" "paths"

let pp_table3_row fmt r =
  Format.fprintf fmt "%-28s %10.3f %10.3f %10.3f %10.3f %7d@." r.scenario
    r.mean_ps r.total_sigma_ps r.inter_sigma_ps r.intra_sigma_ps r.num_paths

let pp_path_report fmt (g : Ssta_timing.Graph.t) (a : Path_analysis.t) =
  let module Graph = Ssta_timing.Graph in
  let module Netlist = Ssta_circuit.Netlist in
  let module Gate = Ssta_tech.Gate in
  Format.fprintf fmt "%-16s %-8s %10s %10s@." "node" "gate" "incr(ps)"
    "arrival(ps)";
  let arrival = ref 0.0 in
  Array.iter
    (fun id ->
      let name = Netlist.node_name g.Graph.circuit id in
      if Graph.is_input g id then
        Format.fprintf fmt "%-16s %-8s %10s %10.3f@." name "(input)" "-" 0.0
      else begin
        let incr_delay = g.Graph.delay.(id) in
        arrival := !arrival +. incr_delay;
        Format.fprintf fmt "%-16s %-8s %10.3f %10.3f@." name
          (Gate.name (Graph.electrical_exn g id).Gate.kind)
          (Elmore.ps incr_delay) (Elmore.ps !arrival)
      end)
    a.Path_analysis.path.Ssta_timing.Paths.nodes;
  Format.fprintf fmt "%-16s %-8s %10s %10.3f@." "= nominal" "" ""
    (Elmore.ps a.Path_analysis.det_delay);
  Format.fprintf fmt
    "statistical: mean %.3f ps, sigma %.3f ps (inter %.3f / intra %.3f), \
     %g-sigma point %.3f ps@."
    (Elmore.ps a.Path_analysis.mean)
    (Elmore.ps a.Path_analysis.std)
    (Elmore.ps a.Path_analysis.inter_sigma)
    (Elmore.ps a.Path_analysis.intra_sigma)
    ((a.Path_analysis.confidence_point -. a.Path_analysis.mean)
    /. a.Path_analysis.std)
    (Elmore.ps a.Path_analysis.confidence_point);
  Format.fprintf fmt "worst-case corner: %.3f ps (+%.1f%% vs confidence point)@."
    (Elmore.ps a.Path_analysis.worst_case)
    (Path_analysis.overestimation_pct a)

let pdf_csv p =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "delay_ps,density\n";
  for i = 0 to Pdf.size p - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%.6f,%.9g\n"
         (Elmore.ps (Pdf.x_at p i))
         (p.Pdf.density.(i) /. 1e12))
  done;
  Buffer.contents buf

let pdfs_csv named =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "series,delay_ps,density\n";
  List.iter
    (fun (name, p) ->
      for i = 0 to Pdf.size p - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%s,%.6f,%.9g\n" name
             (Elmore.ps (Pdf.x_at p i))
             (p.Pdf.density.(i) /. 1e12))
      done)
    named;
  Buffer.contents buf

let rank_scatter_csv pairs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "det_rank,prob_rank\n";
  Array.iter
    (fun (d, p) -> Buffer.add_string buf (Printf.sprintf "%d,%d\n" d p))
    pairs;
  Buffer.contents buf

(* ----- deterministic JSON report -----

   Everything here is a pure function of the analysis results: floats
   are printed with round-trip precision and no wall-clock or host
   detail is included, so two runs that computed identical results
   produce byte-identical JSON.  This is the artifact the parallel
   determinism tests diff across worker counts. *)

module Json = Ssta_runtime.Json

let path_analysis_json (a : Path_analysis.t) =
  Json.Obj
    [ ( "nodes",
        Json.array Json.int a.Path_analysis.path.Ssta_timing.Paths.nodes );
      ("gate_count", Json.int a.Path_analysis.gate_count);
      ("det_delay_s", Json.Number a.Path_analysis.det_delay);
      ("mean_s", Json.Number a.Path_analysis.mean);
      ("std_s", Json.Number a.Path_analysis.std);
      ("intra_sigma_s", Json.Number a.Path_analysis.intra_sigma);
      ("inter_sigma_s", Json.Number a.Path_analysis.inter_sigma);
      ("confidence_point_s", Json.Number a.Path_analysis.confidence_point);
      ("worst_case_s", Json.Number a.Path_analysis.worst_case) ]

let pdf_json (p : Pdf.t) =
  Json.Obj
    [ ("lo", Json.Number p.Pdf.lo);
      ("step", Json.Number p.Pdf.step);
      ("density", Json.array (fun d -> Json.Number d) p.Pdf.density) ]

let json (m : Methodology.t) =
  let cfg = m.Methodology.config in
  let h = m.Methodology.health in
  let worst, worst_op = Ssta_runtime.Health.worst_defect h in
  Json.Obj
    [ ("circuit", Json.String m.Methodology.circuit_name);
      ("engine", Json.String (Config.engine_name cfg.Config.engine));
      ("gates", Json.int m.Methodology.num_gates);
      ( "config",
        Json.Obj
          [ ("confidence", Json.Number cfg.Config.confidence);
            ("quality_intra", Json.int cfg.Config.quality_intra);
            ("quality_inter", Json.int cfg.Config.quality_inter);
            ("confidence_sigma", Json.Number cfg.Config.confidence_sigma);
            ("corner_k", Json.Number cfg.Config.corner_k);
            ("max_paths", Json.int cfg.Config.max_paths);
            ("inter_cache", Json.Bool cfg.Config.inter_cache) ] );
      ("critical_delay_s", Json.Number m.Methodology.sta.Sta.critical_delay);
      ("sigma_c_s", Json.Number m.Methodology.sigma_c);
      ("slack_s", Json.Number m.Methodology.slack);
      ("truncated", Json.Bool m.Methodology.truncated);
      ( "degradations",
        Json.List
          (List.map
             (fun d ->
               Json.String
                 (Format.asprintf "%a" Ssta_runtime.Budget.pp_degradation d))
             (Methodology.degradations m)) );
      ( "health",
        Json.Obj
          [ ("count", Json.int (Ssta_runtime.Health.count h));
            ( "renormalizations",
              Json.int (Ssta_runtime.Health.renormalizations h) );
            ("worst_defect", Json.Number worst);
            ("worst_op", Json.String worst_op);
            (* counters are sorted by name, so this is deterministic;
               only scheduling-independent counters are ever recorded
               (see Methodology) *)
            ( "counters",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.int v))
                   (Ssta_runtime.Health.counters h)) ) ] );
      ("det_critical", path_analysis_json m.Methodology.det_critical);
      ( "prob_critical_pdf",
        pdf_json
          m.Methodology.prob_critical.Ranking.analysis
            .Path_analysis.total_pdf );
      ( "paths",
        Json.array
          (fun (r : Ranking.ranked) ->
            Json.Obj
              [ ("prob_rank", Json.int r.Ranking.prob_rank);
                ("det_rank", Json.int r.Ranking.det_rank);
                ("analysis", path_analysis_json r.Ranking.analysis) ])
          m.Methodology.ranked ) ]

let json_report m = Json.to_string (json m)

let pp_run_status fmt (t : Methodology.t) =
  Format.fprintf fmt "engine: %s@."
    (Config.engine_name t.Methodology.config.Config.engine);
  (match t.Methodology.status with
  | Methodology.Complete -> Format.fprintf fmt "status: complete@."
  | Methodology.Degraded ds ->
      Format.fprintf fmt "status: DEGRADED (%d budget event%s)@."
        (List.length ds)
        (if List.length ds = 1 then "" else "s");
      List.iter
        (fun d ->
          Format.fprintf fmt "  - %a@." Ssta_runtime.Budget.pp_degradation d)
        ds);
  let h = t.Methodology.health in
  if Ssta_runtime.Health.is_clean h then
    Format.fprintf fmt "numerical health: clean@."
  else Format.fprintf fmt "numerical health: %a@." Ssta_runtime.Health.pp h;
  (match Ssta_runtime.Health.counter h "inter-cache-lookups" with
  | 0 -> ()
  | lookups ->
      Format.fprintf fmt
        "inter-kernel cache: %d lookups, %d distinct directions, %d hits@."
        lookups
        (Ssta_runtime.Health.counter h "inter-cache-distinct")
        (Ssta_runtime.Health.counter h "inter-cache-hits"));
  (match Ssta_runtime.Health.counter h "path-memo-lookups" with
  | 0 -> ()
  | lookups ->
      Format.fprintf fmt "path memo: %d lookups, %d distinct@." lookups
        (Ssta_runtime.Health.counter h "path-memo-distinct"));
  match Ssta_runtime.Health.counter h "arena-peak-bytes" with
  | 0 -> ()
  | peak ->
      Format.fprintf fmt
        "scratch arenas: %d buffers created, %d bytes reused, peak %d bytes@."
        (Ssta_runtime.Health.counter h "arena-buffers-created")
        (Ssta_runtime.Health.counter h "arena-bytes-reused")
        peak
