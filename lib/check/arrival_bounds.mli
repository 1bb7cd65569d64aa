(** Interval arrival-time analysis.

    Every gate delay is bounded because the paper truncates all
    parameter PDFs at [+-truncation * sigma] (Section 2.2).  This module
    turns that fact into certified per-node intervals:

    - {b gate intervals} — a sound enclosure of one gate's stochastic
      delay.  Monotonicity of the Elmore model gives the exact range
      over an axis-aligned parameter box ({!Ssta_tech.Elmore.delay_bounds});
      soundness over {e both} delay semantics used in the code base
      requires the hull of two boxes:
      {ul
      {- the {e full} box with half-width
         [truncation * sigma * sum over layers u of sqrt w_u] per RV —
         per-layer truncation bounds each layer's draw separately, so
         the total deviation of a Monte-Carlo sample is L1-inflated
         beyond the naive [+-truncation * sigma]; and}
      {- the {e inter} box ([sqrt w_0] scale) Minkowski-summed with the
         linearized intra half-width
         [truncation * sqrt (sum_rv grad_rv^2 sigma_rv^2 (1 - w_0))] —
         the analytic intra PDF is a truncated Gaussian of the
         linearized path delay, and by convexity the linearized value
         can leave the nonlinear range.}}
    - {b arrival intervals} — a forward max-plus sweep:
      [arrival(n) = sup over fan-ins + gate interval], inputs at [0].
    - {b suffix intervals} — the backward dual: worst delay from a
      node's output to any primary output.  For every node,
      [hi(arrival) + hi(suffix) <= hi(circuit)] must hold — a built-in
      cross-check of the two sweeps.

    Node ids are topological, so each bound is one pass in id order (or
    its reverse) with every predecessor already final: {!val-sweep} is the
    least fixpoint of its recurrence, not an approximation of it. *)

(** {1 The certified per-gate box} *)

type corners = {
  trunc : float;  (** truncation, in sigmas *)
  full_bound : float;
      (** half-width of the full box, in sigmas:
          [trunc * sum_u sqrt w_u] *)
  inter_bound : float;  (** half-width of the inter box: [trunc * sqrt w_0] *)
  intra_fraction : float;  (** [max 0 (1 - w_0)] *)
}
(** The two truncated corner boxes every gate is certified over.
    Neither depends on the gate. *)

val corners : Ssta_core.Config.t -> corners

val intra_sigma : corners -> Ssta_tech.Params.t -> float
(** [intra_sigma k grad] is one gate's linearized intra-die sigma,
    [sqrt (intra_fraction * sum_rv grad_rv^2 sigma_rv^2)]. *)

type box = {
  total : Interval.t;  (** sound bound on the gate's stochastic delay *)
  inter : Interval.t;  (** bound on the inter-die part alone *)
  halfwidth : float;  (** [trunc * intra_sigma] *)
}

val gate_box : corners -> intra_sigma:float -> Ssta_tech.Gate.electrical -> box
(** The hull of the full box and the inter box widened by
    [+-halfwidth].  Raises [Invalid_argument] when a corner leaves the
    Elmore model's validity domain — which the corners alone decide, so
    [intra_sigma:0.0] probes that without a gradient. *)

(** {1 The arrival/suffix recurrence} *)

type 'a sweep = {
  arrival : 'a array;
      (** [add (join over fan-ins) gate]; inputs start from [zero] *)
  suffix : 'a array;
      (** delay from the node's output to any primary output,
          {e exclusive} of its own gate: [zero] at an output, joined
          with every consumer's inclusive suffix *)
  circuit : 'a;  (** join of [arrival] over the primary outputs *)
}

val sweep :
  bottom:'a ->
  zero:'a ->
  join:('a -> 'a -> 'a) ->
  add:('a -> 'a -> 'a) ->
  Ssta_circuit.Netlist.t ->
  'a array ->
  'a sweep
(** [sweep ~bottom ~zero ~join ~add c gate]: one ascending pass for the
    arrivals, one descending pass for the suffixes including each
    node's own [gate] value, then the exclusive suffix and the join
    over the outputs.  [bottom] must be the identity of [join] and
    absorbing for [add]; a node that reaches no output (or that no
    input reaches) keeps [bottom].  Predecessors are joined in fan-in
    (respectively fan-out) order, left to right. *)

(** {1 Whole-circuit interval bounds} *)

type t = {
  gate_total : Interval.t array;
      (** per node: the {!gate_box} total ([[0, 0]] for primary inputs) *)
  gate_inter : Interval.t array;  (** per node: the {!gate_box} inter bound *)
  intra_halfwidth : float array;
      (** per node: the {!gate_box} half-width, the linearized
          intra-die half-width (seconds) *)
  arrival : Interval.t array;  (** forward max-plus sweep *)
  suffix : Interval.t array;
      (** backward sweep: delay from the node's output (exclusive of
          its own delay) to any primary output *)
  circuit : Interval.t;  (** sup over primary outputs of [arrival] *)
}

val compute :
  Ssta_core.Config.t -> Ssta_timing.Graph.t -> (t, string) result
(** {!val-sweep} over {!gate_box} with [Interval.sup] as the join.
    [Error] when a corner of the parameter box leaves the Elmore
    model's validity domain (the bound cannot be computed soundly). *)

val path_total : t -> Ssta_timing.Paths.path -> Interval.t
(** Sum of {!field-gate_total} along a path. *)

val path_inter : t -> Ssta_timing.Paths.path -> Interval.t
(** Sum of {!field-gate_inter} along a path. *)

val path_intra_halfwidth : t -> Ssta_timing.Paths.path -> float
(** Sum of {!field-intra_halfwidth} along a path: the analytic intra PDF
    of the path is supported in [[-h, h]]. *)
