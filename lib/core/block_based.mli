(** Block-based (full-chip) SSTA baseline.

    The paper's introduction contrasts its path-based approach with
    full-chip analyses that propagate arrival-time distributions through
    the timing graph [2-9].  This module implements the canonical
    first-order form of that school: every arrival time is

    {v A = mean + sum_i a_i * xi_i + a_r * xi_r v}

    over the same layer RVs as the path-based engine (with the inter-die
    layer linearized too — one of the approximations the paper
    criticizes), an independent residual term, propagated with exact
    addition and Clark's moment-matching approximation for max.

    It is fast (one topological sweep) but approximate: Clark's max is
    exact only for jointly Gaussian inputs and accumulates error through
    reconvergent fan-out — which the ablation bench quantifies against
    the Monte-Carlo reference. *)

type canonical = {
  mean : float;
  terms : (Ssta_correlation.Path_coeffs.key, float) Hashtbl.t;
      (** shared layer-RV sensitivities (layer 0 included) *)
  indep : float;  (** variance of the independent residual *)
}

val variance : Config.t -> canonical -> float
val std : Config.t -> canonical -> float

val covariance : Config.t -> canonical -> canonical -> float
(** Via shared terms only (residuals are independent). *)

val add : canonical -> canonical -> canonical

val clark_max : Config.t -> canonical -> canonical -> canonical
(** Clark (1961) moment matching; sensitivities blended by the tightness
    probability. *)

type result = {
  arrival : canonical;  (** circuit arrival time (max over outputs) *)
  mean : float;
  std : float;
  confidence_point : float;  (** mean + confidence_sigma * std *)
  runtime_s : float;
}

val analyze :
  ?config:Config.t ->
  ?placement:Ssta_circuit.Placement.t ->
  Ssta_circuit.Netlist.t ->
  result
(** One topological sweep over the circuit. *)
