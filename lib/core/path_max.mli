(** Statistical maximum over the near-critical path set.

    The methodology ranks paths by a per-path confidence point; the
    circuit's delay, however, is the {e max} of all the path delays,
    which are strongly and heterogeneously correlated (shared inter-die
    RVs, shared gates, shared partitions).  This module folds Clark's
    max over path-level canonical forms whose sensitivities come from
    the Eq. (13) coefficients — so two paths covary exactly through the
    inter-die RVs, partitions and gates they share — and returns the
    circuit-delay statistics.

    Compared against the two simple proxies, it closes the gap to
    Monte-Carlo from both sides: the probabilistic-critical-path proxy
    ignores the other paths (slightly optimistic), the independence
    product over-counts them (pessimistic). *)

type result = {
  mean : float;
  std : float;
  confidence_point : float;
  paths_used : int;
}

val canonical_of_analysis :
  Config.t -> Ssta_timing.Graph.t -> Path_analysis.t -> Block_based.canonical
(** Path-level canonical form: mean from the path's numeric total PDF,
    linear terms from its Eq. (13) coefficients (inter RVs keyed on
    layer 0, random-layer RVs on the path's gate ids, their
    coefficients re-derived from the gates of [graph], the graph the
    path was analyzed on), and the residual numeric-vs-linearized
    variance as an independent term. *)

val statistical_max :
  ?config:Config.t -> ?max_paths:int -> Methodology.t -> result
(** Clark-fold over the analyzed paths in probabilistic rank order
    (up to [max_paths], default 200 — beyond the top ranks the
    contribution to the max is negligible). *)

val yield_at : ?config:Config.t -> Methodology.t -> clock:float -> float
(** Gaussian yield estimate from the statistical max:
    Phi((clock - mean) / std). *)
