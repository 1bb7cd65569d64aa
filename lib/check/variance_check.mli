(** Variance accounting — static recomputation of the Eq. 14 layer
    decomposition.

    Independently of the numeric pipeline, each path's intra-die
    variance is re-derived from the raw coefficient vector: per-layer
    shares [sum over the slots of layer u of coeff^2 * sigma^2 * w_u]
    (on the random layer, the per-RV sums of squares times
    [sigma^2 * w_u]) must
    sum to the path's reported intra variance exactly (these are the
    same finite sums, so the tolerance is rounding-level), and the
    discretized intra/total PDFs must reproduce the analytic variances
    up to the discretization error of the grid.  Budget-level checks
    verify that the configured weight vector is a genuine probability
    split over the configured layer structure (the paper's default
    4+1 equal split gives the inter layer share 1/5). *)

val checks : (string * string) list
(** Check ids this module can emit, with one-line descriptions. *)

val check_config : Ssta_core.Config.t -> Ssta_lint.Diagnostic.t list
(** Budget/layer-structure consistency: layer count matches the
    configured quad-tree (+ random) structure, weights are finite,
    non-negative and sum to 1, and the per-RV layer variances recompose
    each RV's total variance. *)

val check_path :
  ?tol_exact:float ->
  ?tol_grid:float ->
  Ssta_core.Config.t ->
  label:string ->
  Ssta_core.Path_analysis.t ->
  Ssta_lint.Diagnostic.t list
(** Per-path accounting.  [tol_exact] (default 1e-9, relative) guards
    the analytic identities; [tol_grid] (default 0.05, relative) guards
    PDF-measured variances against their analytic values — the
    discretized grids carry O(step^2) variance error.  [label] names the
    path in diagnostic locations. *)
