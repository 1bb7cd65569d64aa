(** Affine arrival forms — Eq. (14) as a zonotope abstract domain.

    The paper's variance decomposition (Eq. 14) writes a path delay as a
    deterministic center, one first-order coefficient per inter-die RV,
    and an intra-die residue.  That is exactly the shape of an affine
    form (a zonotope in the five-dimensional inter-die parameter space),
    so the decomposition can be run as a static analysis: propagate one
    affine form per node through the timing DAG with
    {!Arrival_bounds.val-sweep} and every node gets a certified sensitivity
    vector plus a conservative residual — tight enough to rank paths,
    unlike the scalar intervals of {!Arrival_bounds}.

    A form abstracts a delay quantity [D(p)] over the truncated
    parameter box as

    {v center + sum_i c_i * x_i  (+ intra, + residual) v}

    where [x_i] is the standardized inter-die deviation of RV [i]
    (so [|x_i| <= trunc]), [c_i] is an interval of admissible
    coefficients (a singleton for a single gate; joins grow it),
    [intra_sigma] bounds the standard deviation of the concentrated
    intra-die part of any represented path (per-gate sigmas add along a
    path before squaring — Eq. 14 — so the sum of per-gate bounds is a
    path bound by the triangle inequality), and [residual] is an
    interval absorbing the nonlinearity of the Elmore delay model
    beyond the tangent-plane box.

    Soundness never depends on Gaussianity: [max] (= [join]) is a
    Clark-style maximum bounded by the componentwise interval hull, so
    the concretization of a join contains the concretizations of both
    arguments whatever the distributions are.  The price is the usual
    zonotope-join coarseness; the per-path helpers ({!path_form}) avoid
    it entirely by folding [add] along an explicit path. *)

type form = {
  center : float;  (** deterministic (nominal) component, seconds *)
  coeffs : Interval.t array;
      (** per-RV first-order coefficient, in {!Ssta_tech.Params.all_rvs}
          order, already scaled by [sigma_rv * sqrt w0] — the
          coefficient multiplies the {e standardized} inter-die
          deviation *)
  intra_sigma : float;
      (** upper bound on the intra-die standard deviation of any path
          represented by this form, seconds *)
  residual : Interval.t;
      (** nonlinearity support around 0: what the concrete delay range
          adds beyond the first-order box at the analysis truncation *)
}

type t = Bottom | Form of form
(** [Bottom] is the empty set (unreachable / not yet computed). *)

(** {1 Transfer functions} *)

val const : float -> t
(** Deterministic value: zero coefficients, zero residue. *)

val add : t -> t -> t
(** Sum of two forms: centers, coefficients, intra bounds and residuals
    all add ([Bottom] absorbing).  Exact for the linear part. *)

val scale : float -> t -> t
(** Multiply by a constant (negative constants flip coefficient
    intervals; [intra_sigma] scales by the magnitude). *)

val max : t -> t -> t
(** Clark-style maximum, hulled: the center takes the max, every
    coefficient interval takes the componentwise hull, [intra_sigma]
    the max, residuals the hull.  Sound for any distribution of the
    underlying RVs; also the lattice join ([Bottom] is the identity). *)

val join : t -> t -> t
(** Alias of {!max} — arrival joins at a node {e are} statistical
    maxima. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val concretize : trunc:float -> t -> Interval.t
(** Concrete delay range at truncation [trunc] (in sigmas):
    [center +- trunc * (sum |coeffs| + intra_sigma)] plus the
    residual.  [Bottom] concretizes to [Interval.bottom]. *)

val sigma_upper : t -> float
(** Upper bound on the standard deviation of any represented path:
    [sqrt (sum_i mag(c_i)^2 + intra_sigma^2)] — the Eq. (14) variance
    with every coefficient at its interval magnitude. *)

(** {1 Whole-circuit analysis} *)

type analysis = {
  gate : t array;  (** per-gate delay form; [const 0] for inputs *)
  arrival : t array;  (** forward sweep: input-to-node, inclusive *)
  suffix : t array;
      (** backward sweep: node-to-output, {e exclusive} of the
          node's own gate *)
  circuit : t;  (** join of the arrival forms at the primary outputs *)
  trunc : float;  (** truncation the gate residuals were certified at *)
}

val compute :
  Ssta_core.Config.t -> Ssta_timing.Graph.t -> (analysis, string) result
(** {!Arrival_bounds.val-sweep} over the gate forms, with {!join} and
    {!add}.  Each gate's form takes its center from the graph's nominal
    delay, its coefficients from the analytic derivatives
    ({!Ssta_tech.Derivatives.gradient}) scaled by [sigma * sqrt w0],
    its intra bound from {!Arrival_bounds.intra_sigma}, and its
    residual from the certified {!Arrival_bounds.gate_box} — so the
    gate concretization always contains the certified interval of
    {!Arrival_bounds}.
    [Error] when a truncated corner leaves the delay model's physical
    domain (same failure mode as {!Arrival_bounds.compute}). *)

val path_form : analysis -> Ssta_timing.Paths.path -> t
(** Join-free fold of [add] over the gate forms of an explicit path —
    the tight per-path abstraction used by the certification checks. *)

val through : analysis -> int -> t
(** [add arrival.(u) suffix.(u)]: the best complete path through node
    [u], as a form. *)

(** {1 Static path screening} *)

type screen = {
  pruned : bool array;  (** per node: provably not near-critical *)
  nodes_visited : int;  (** total nodes examined (= graph size) *)
  nodes_pruned : int;
  threshold : float;  (** the enumeration threshold screened against *)
}

val screen : analysis -> Ssta_timing.Sta.t -> slack:float -> screen
(** Screen every node against the enumeration threshold of
    [Paths.enumerate g ~slack]: node [u] is pruned when
    [labels.(u) + suffix_center.(u)] — the nominal delay of the best
    complete path through [u] — falls short of the threshold by more
    than one tie tick.  Every frontier push of the enumerator carries a
    bound [<= labels.(u) + suffix_center.(u)] up to ulp-level summation
    drift (orders of magnitude below the tick), so feeding
    {!prune_hook} to [enumerate ?prune] provably changes no push: the
    enumeration record stays byte-identical.  The decision is a pure
    function of the graph, labels and slack — independent of worker
    count, so [--jobs] determinism is preserved. *)

val prune_hook : screen -> int -> bool
(** The [?prune] callback for {!Ssta_timing.Paths.enumerate} /
    {!Ssta_timing.Sta.near_critical}. *)

val screen_counters : screen -> (string * int) list
(** Health counters, sorted by name:
    [affine-screen-nodes-pruned], [affine-screen-nodes-visited]. *)

val methodology_screen :
  Ssta_core.Config.t ->
  sta:Ssta_timing.Sta.t ->
  slack:float ->
  (int -> bool) * (string * int) list
(** Packaged screen for [Methodology.analyze ~screen]: the prune hook
    plus its counters, equal on every node to
    [screen (compute config sta.graph) sta ~slack] — without running
    {!compute}.  The screen reads only the suffix centers, which are the
    max-plus suffix delays of the nominal gate delays, so one
    {!Ssta_timing.Longest_path.suffix} sweep (O(N + E)) stands in for
    both affine sweeps.  Degrades to a no-op hook (and no counters)
    exactly when {!compute} would fail: the truncated corner boxes of
    {!Ssta_tech.Elmore.delay_bounds} do not depend on the gate, so one
    gate's check decides it for the whole graph. *)

(** {1 Per-node criticality} *)

type crit = {
  node : int;
  through_center : float;
      (** nominal delay of the best path through the node, seconds *)
  slack : float;  (** critical delay minus [through_center] (clamped at 0) *)
  sigma : float;  (** {!sigma_upper} of the through form *)
  z : float;  (** [slack / sigma]; [infinity] when sigma is 0 *)
  prob : float;
      (** Gaussian-model bound on the probability that variation closes
          the slack: [1 - Phi(z)].  The {e ranking} (by [z]) is
          shape-free; the probability column assumes the paper's
          Gaussian RVs. *)
}

val criticality : analysis -> Ssta_timing.Sta.t -> crit list
(** One entry per gate (inputs and nodes on no complete path are
    skipped), sorted most-critical first: ascending [z], node id as the
    tie break.  Nodes on the critical path have [slack = 0], [z = 0],
    [prob = 0.5] — the arrival-tightness convention. *)

val pp_criticality :
  ?top:int -> Ssta_timing.Graph.t -> Format.formatter -> crit list -> unit
(** Text report of the [top] (default 20) most critical gates. *)

val criticality_json :
  Ssta_timing.Graph.t -> crit list -> Ssta_runtime.Json.t
(** The full ranking as a JSON document (stable field order): one
    [criticality] list of per-gate objects. *)
