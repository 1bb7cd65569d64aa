(** Arrival-time distributions for the block-based engine, and the
    statistical [sum]/[max] operator algebra over them.

    The path-based flow of the paper analyzes each near-critical path in
    isolation; the block engine instead propagates one arrival-time
    object per node through the netlist DAG.  An arrival is the
    canonical first-order form over the paper's correlation layers:

    {v A  =  mean  +  sum_k a_k * xi_k  +  R v}

    - the [sum_k a_k xi_k] part carries the shared-layer RVs (layer 0 is
      the inter-die layer) as a dense coefficient vector with one slot
      per (RV, quad-tree layer, partition) in the
      {!Ssta_correlation.Slots} layout the path engine shares — i.e. the
      Eq. 13 coefficients of the arrival.  It preserves inter/intra
      correlation (Eq. 14's variance split) through merges: two arrivals
      that share upstream gates share slots, and their covariance is the
      sigma^2-weighted dot product of their vectors;
    - [R] is the independent zero-mean Gaussian residual, seeded by
      each gate's per-gate random-layer variance and carried as that
      variance alone: sums of independent Gaussians add variances and
      Clark's max re-matches a Gaussian anyway.  Grids appear only when
      an arrival is concretized ({!total_pdf}, at endpoints).

    {b Supports.}  A gate's delay depends only on the layer RVs of the
    partitions it sits in, so an arrival's vector is zero wherever its
    fan-in cone has no gate.  Every arrival carries its support: on each
    layer, the span (hull) of the partitions that may hold a non-zero
    slot ({!Ssta_correlation.Slots.spans}).  The invariant is that every
    slot outside the support is [+0.0].  The covariance of two arrivals
    walks the intersection of their spans and a blend walks their
    union, which is bit for bit the dense arithmetic: a skipped term
    would add [+0.0] or [-0.0] to a sum that is never [-0.0], and every
    coefficient is finite.  A pooled vector keeps stale slots only
    inside its own spans, and a step that reuses it zeroes those the new
    support leaves out.

    An arrival's cached shared-layer variance is computed under the
    variance budget of the configuration that built it; all operators
    of one analysis must use that configuration.  Arrivals are
    immutable: no operator mutates an operand, so one arrival may be
    shared freely (and across domains).  The one exception is explicit:
    {!recycle} hands an arrival's vector to a later {!step} of the same
    sweep, and its caller gives that arrival up. *)

type t

val make :
  Ssta_core.Config.t ->
  ?mean:float ->
  ?terms:(Ssta_correlation.Slots.key * float) list ->
  float ->
  t
(** [make config ~mean ~terms resid_var] builds an arrival from explicit
    shared-layer coefficients (a later binding of a key replaces an
    earlier one) and the variance of its independent residual.  Raises [Invalid_argument] on a key outside the
    config's shared layers ([layer >= quad_levels]) or partition
    range. *)

val zero : unit -> t
(** The arrival of a primary input: deterministic zero. *)

val of_gate :
  Ssta_core.Config.t ->
  Ssta_correlation.Layers.t ->
  Ssta_circuit.Placement.t ->
  Ssta_timing.Graph.t ->
  int ->
  t
(** [of_gate config layers placement graph id] is the delay contribution
    of gate [id]: nominal delay as the mean, first-order sensitivities
    to every shared-layer RV at the gate's spatial partitions, and the
    per-gate random-layer variance as the residual.  Raises
    [Invalid_argument] on a primary input. *)

val sum : Ssta_core.Config.t -> t -> t -> t
(** Statistical sum: exact on the shared part (means and coefficients
    add slot by slot); the residual variances add.  Exact for
    independent residuals, which holds by construction along any
    path. *)

val max : Ssta_core.Config.t -> t -> t -> t
(** Statistical max at a merge point: Clark's (1961) moment-matched
    max of correlated Gaussians, with the covariance taken from the
    shared coefficient vectors.  The shared coefficients are blended by
    the tightness probability P(A > B) and the variance they leave
    unexplained becomes the residual.  Sound under correlation,
    Gaussian-approximate in shape.  When the means differ by more than
    8 standard deviations of [A - B], the larger operand itself is
    returned. *)

type pool
(** A free list of coefficient vectors for one topological sweep: the
    vectors of arrivals nothing reads any more, handed to later
    {!step}s instead of fresh allocations.  Local to the sweep that
    created it: it holds no state across sweeps and must not be shared
    between domains. *)

val pool : unit -> pool
(** An empty pool for one sweep. *)

val recycle : pool -> t -> unit
(** [recycle pool a] gives [a]'s coefficient vector to [pool], whose
    next {!step} or {!max_fold} may overwrite it.  Sound only when [a]
    was returned by {!step} (so no other arrival holds its vector) and
    nothing reads [a] afterwards: the caller gives up [a].  Empty
    vectors are ignored. *)

val walked : pool -> int
(** The partitions the slot kernels have walked for the pool's sweep: a
    deterministic work count (a dense pass walks every partition of the
    vector, 85 at the default 4 layers). *)

val max_fold : pool -> Ssta_core.Config.t -> t array -> int array -> t
(** [max_fold pool config arrivals ids] is bit for bit the left fold of
    {!max} over [arrivals.(ids.(0))], [arrivals.(ids.(1))], ....  It
    takes at most one coefficient vector (from [pool] when it holds one
    of the right length, else fresh): the first Clark blend takes it
    and later blends overwrite it in place, so the result either owns
    that vector or is one of the operands itself.  It never writes into
    an operand.  Raises [Invalid_argument] on
    empty [ids]. *)

val step :
  pool ->
  Ssta_core.Config.t ->
  Ssta_correlation.Gate_table.t ->
  t array ->
  int ->
  t
(** [step pool config gates arrivals id] is the arrival of gate [id]
    given the arrivals of the table's graph's nodes (indexed by node
    id): bit for bit
    [sum config (fold max fanins) (of_gate config gates.layers
    gates.placement gates.graph id)], with the gate's partitions read
    from the table ([gates] must be built for [config]'s layering),
    with the fan-ins folded left to right in {!Ssta_timing.Graph.fanins}
    order ({!max_fold}) and a gate without fan-ins starting from
    {!zero}.

    The result always owns its coefficient vector, and the step
    allocates at most one: the fold's first Clark blend takes it, later
    blends and the gate's own sensitivities are written into it in
    place, and a fold result that is one of the stored arrivals (a
    single fan-in, or a Clark early return) is copied into it once.

    {b The fused step.}  The last Clark blend of a gate with two or more
    fan-ins also adds the gate's sensitivities, in the same pass
    ({!Ssta_correlation.Slots.blend_gate_spans}).  That pass keeps two
    sums in slot order: the variance of the blend before the add, from
    which Clark's residual is taken, and the variance after it, which is
    the arrival's.  So a two-input gate costs one covariance pass and
    one blend pass, instead of a third pass for the final variance.  A
    Clark early return, and a single fan-in, copy the stored arrival's
    spans into the step's vector, add the sensitivities and sum the
    variance over the result's spans.
    The vector comes from [pool] when it holds one of the right length.
    The step writes only into that vector — never into an operand — so
    the immutability contract above holds:
    [arrivals] is unchanged and the result shares no mutable state with
    it, which is what makes {!recycle} of the result sound once its last
    reader has run.  Raises [Invalid_argument] on a primary input. *)

val mean : t -> float

val coeff : t -> Ssta_correlation.Slots.key -> float
(** The shared-layer coefficient of one RV (0 when absent). *)

val residual : t -> float
(** The variance of the independent residual. *)

val variance : Ssta_core.Config.t -> t -> float
(** Total variance: shared layer terms plus the residual. *)

val std : Ssta_core.Config.t -> t -> float

val inter_sigma : Ssta_core.Config.t -> t -> float
(** Standard deviation explained by the inter-die (layer 0) terms alone
    — the block engine's version of Eq. 14's sigma_inter. *)

val intra_sigma : Ssta_core.Config.t -> t -> float
(** sqrt(total variance - inter variance): everything below the
    inter-die layer, residual included. *)

val confidence_point : Ssta_core.Config.t -> t -> float
(** [mean + confidence_sigma * std] — comparable to the path engine's
    ranking point. *)

val total_pdf : Ssta_core.Config.t -> t -> Ssta_prob.Pdf.t
(** Concretize to one delay PDF at [quality_intra] cells: a truncated
    Gaussian of the shared plus residual variance (a sum of independent
    Gaussians is Gaussian), shifted by the mean.  Degenerate arrivals
    concretize to a point mass. *)

