(** Rendering of the paper's tables and figure data.

    Table 2 rows, Table 3 rows, PDF curves (Figs. 3/4) and rank scatter
    data (Figs. 5/6), in both human-readable text and CSV for plotting. *)

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

val table2_row : Methodology.t -> table2_row
(** Extract the Table 2 columns from a methodology run. *)

val pp_table2_header : Format.formatter -> unit -> unit
val pp_table2_row : Format.formatter -> table2_row -> unit

val pp_table2_paper_comparison :
  Format.formatter -> (Ssta_circuit.Iscas85.paper_row * table2_row) list -> unit
(** The measured rows against the published ones: after a blank line
    and a heading, one line per row (worst-case overestimation, path
    count, deterministic rank of the probabilistic critical path, each
    beside the paper's, and the probabilistic mean's shift from the
    deterministic delay), then the average worst-case overestimation of
    the rows beside the paper's 55%.  Prints nothing for no rows. *)

type table3_row = {
  scenario : string;
  inter_fraction : float;
  mean_ps : float;
  total_sigma_ps : float;
  inter_sigma_ps : float;
  intra_sigma_ps : float;
  num_paths : int;
}

val table3_row :
  scenario:string -> inter_fraction:float -> Methodology.t -> table3_row

val pp_table3_header : Format.formatter -> unit -> unit
val pp_table3_row : Format.formatter -> table3_row -> unit

val pp_path_report :
  Format.formatter -> Ssta_timing.Graph.t -> Path_analysis.t -> unit
(** Classic "report_timing"-style breakdown of one analyzed path: one
    line per node with gate type, incremental delay and cumulative
    arrival, followed by the statistical summary (mean, sigma,
    confidence point, worst-case corner). *)

val pdf_csv : Ssta_prob.Pdf.t -> string
(** Two-column CSV [delay_ps,density] of a delay PDF (Figs. 3/4). *)

val pdfs_csv : (string * Ssta_prob.Pdf.t) list -> string
(** Long-format CSV [series,delay_ps,density] for several curves. *)

val rank_scatter_csv : (int * int) array -> string
(** CSV [det_rank,prob_rank] (Figs. 5/6). *)

val pp_run_status : Format.formatter -> Methodology.t -> unit
(** Engine name, degradation events (budget breaches) and the
    numerical-health ledger of a run — the robustness footer of the run
    report.  The engine line keeps path and block run transcripts
    distinguishable (block runs print their own summary through
    [Ssta_block.Engine], which names the engine the same way). *)

val json : Methodology.t -> Ssta_runtime.Json.t
(** Machine-readable report of a full run: config, critical delay,
    sigma_C, degradations, health counters, the analysis of every
    ranked path and the probabilistic critical path's total PDF.

    Deterministic by construction — floats are printed with round-trip
    precision and nothing host- or time-dependent (in particular no
    wall-clock) is included — so two runs that computed the same
    results emit byte-identical documents.  The parallel determinism
    property tests diff this artifact between [--jobs 1] and
    [--jobs N] runs.  The server embeds the value in its [run]
    responses as is.

    The ranked paths, their node ids and PDF densities are
    {!Ssta_runtime.Json.Seq} arrays over [m]'s own arrays: they are
    produced while the value prints, and the value prints the same any
    number of times. *)

val json_report : Methodology.t -> string
(** [Json.to_string (json m)]: the report on one line. *)

val pdf_json : Ssta_prob.Pdf.t -> Ssta_runtime.Json.t
(** A discretized PDF as [{"lo", "step", "density"}] — the encoding of
    every PDF in the path and block reports. *)
