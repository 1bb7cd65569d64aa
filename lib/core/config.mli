(** Configuration of the statistical timing methodology.

    Gathers every knob of the paper's flow: PDF discretizations
    (QUALITY_intra = 100 and QUALITY_inter = 50, chosen in Section 4 as
    the accuracy/run-time sweet spot), the confidence constant C, the
    correlation-layer structure and variance budget, the worst-case
    corner multiplier and the confidence point used for ranking. *)

(** Which analysis engine answers a query: [Path] is the paper's
    path-based flow (enumerate near-critical paths, analyze each with the
    factorized inter/intra machinery, combine); [Block] is the one-pass
    topological block-based engine ([Ssta_block]) that propagates
    arrival-time distributions through the netlist DAG with statistical
    sum/max operators. *)
type engine = Path | Block

val engine_name : engine -> string
(** Stable lowercase name (["path"] / ["block"]) used by the CLI, the
    server protocol and JSON reports. *)

val engines : engine list
(** All engines, in declaration order (for CLI enumerations). *)

(** The statistical [max] at block-engine merge points: Clark's
    moment-matched max of correlated Gaussians (sound under correlation,
    Gaussian-approximate), the only policy (HANDBOOK section 9).  The
    type, the [block_max] field and {!max_policies} stay so that the
    protocol's ["max_policy":"clark"], which [serve-block] sends with
    every request, and code that sets [block_max] from it keep
    working. *)
type max_policy = Clark_max

val max_policy_name : max_policy -> string
(** Stable lowercase name (["clark"]), as JSON reports print it. *)

val max_policies : max_policy list
(** All max policies (for the protocol's enumeration). *)

type t = {
  quality_intra : int;  (** intra-PDF discretization (paper: 100) *)
  quality_inter : int;  (** inter-PDF discretization (paper: 50) *)
  confidence : float;  (** the C constant: slack = C * sigma_C *)
  quad_levels : int;  (** spatial quad-tree layers (paper: 4) *)
  random_layer : bool;  (** extra per-gate layer (paper: yes) *)
  budget : Ssta_correlation.Budget.t;  (** variance split across layers *)
  truncation : float;  (** Gaussian truncation in sigmas (paper: 6) *)
  corner_k : float;  (** worst-case corner multiplier (see Corner) *)
  confidence_sigma : float;  (** ranking confidence point (paper: 3) *)
  max_paths : int;  (** near-critical enumeration safety cap *)
  inter_shape : Ssta_prob.Shape.t;
      (** distribution shape of the inter-die RVs (paper: Gaussian; the
          numeric inter engine accepts any shape — an extension
          demonstrating that path-based SSTA is not Gaussian-bound) *)
  inter_cache : bool;
      (** amortize the per-path inter-kernel through the scale-covariant
          cache (see {!Inter}); [false] recomputes every path from
          scratch (the [--no-inter-cache] A/B escape hatch) *)
  affine_prune : bool;
      (** statically screen near-critical enumeration through the affine
          arrival domain (see [Ssta_check.Affine]); pruning is proof-
          carrying — the reported path set is byte-identical either way —
          so [false] ([--no-affine-prune]) is purely an A/B escape
          hatch *)
  engine : engine;
      (** which engine answers queries (default [Path], the paper's
          flow); [Block] switches to the one-pass topological engine *)
  block_max : max_policy;
      (** merge-point max policy of the block engine (always
          [Clark_max]); ignored by the path engine *)
}

val default : t
(** The paper's settings: Q_intra 100, Q_inter 50, C 0.05, 4+1 layers,
    equal variance split, 6-sigma truncation, 3-sigma ranking point,
    corner multiplier {!Ssta_tech.Corner.default_k}, 20_000-path cap. *)

val num_layers : t -> int

val with_confidence : t -> float -> t
val with_quality : t -> intra:int -> inter:int -> t

val with_budget_split : t -> inter_fraction:float -> t
(** Replace the budget by an inter/intra split (Table 3 scenarios). *)

val with_inter_shape : t -> Ssta_prob.Shape.t -> t

val layers_for : t -> Ssta_circuit.Placement.t -> Ssta_correlation.Layers.t
(** Instantiate the layer structure on a placed die. *)

(** How a {!set_param} delta interacts with cached analysis state:
    [Enumeration_only] deltas never enter a per-path analysis (slack,
    ranking caps, the screener) so cached path results stay valid;
    [Analysis] deltas change every path's statistics (per-path caches
    must be invalidated, the warm table state survives); [Tables] deltas
    additionally rebuild the warm inter-table/kernel-cache state
    ({!Path_analysis.warm_compatible} fails across them). *)
type param_effect = Enumeration_only | Analysis | Tables

val params : (string * string) list
(** The parameters {!set_param} understands, with one-line
    descriptions, sorted by name. *)

val set_param : t -> string -> float -> (t * param_effect, string) result
(** [set_param t name v] applies one named parameter delta (the [set]
    op of an edit script, {!Ssta_circuit.Edit}).  Integer parameters
    demand an integral [v]; out-of-range or unknown names return
    [Error] with a human-readable reason. *)

val validate : t -> (unit, string) result
(** Check internal consistency (positive qualities, budget layer count
    matching the layer structure, C >= 0, ...). *)
