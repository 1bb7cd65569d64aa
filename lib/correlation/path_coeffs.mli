(** Per-path accumulation of layer-RV coefficients — Eq. (13).

    After the Taylor linearization, a path's intra-die delay is
    [sum over (rv, layer u, partition w) of coeff * RV(rv, u, w)], where
    the coefficient is the sum of the nominal delay derivatives of the
    path's gates that fall in partition (u, w).  Gates of the same path
    that share a partition add their derivatives {e before} squaring —
    this is exactly how the layering model carries spatial correlation
    into the variance of Eq. (14).

    The quad-tree coefficients are indexed by the dense {!Slots} layout
    the block engine uses, so Eq. (14) is one sigma^2-weighted sum over
    a fixed slot order.  A path crosses one partition per layer and
    gate, so only a few of the slots are non-zero (70 of 425 on each of
    c6288's 20,000 longest paths): a {!t} keeps just the partitions it
    crosses, which keeps a long-lived set of analyses (a server's path
    cache) small.  The random layer's RVs are per gate, so a
    path never shares one between two of its gates: its share of
    Eq. (14) is [sum_r (sum over gates of d_r^2) * sigma_rand,r^2], and
    only the five inner sums are kept.

    The inter-die part stays nonlinear; for it we accumulate the alpha
    and beta sums of Eq. (5) so the inter-delay PDF can be computed as
    [0.345 tox Leff / eps_ox * (A F(vdd,vtn) + B F(vdd,vtp))]. *)

type key = Slots.key = { rv : Ssta_tech.Params.rv; layer : int; partition : int }

type t = {
  alpha_sum : float;  (** A = sum of gate alphas along the path *)
  beta_sum : float;  (** B = sum of gate betas *)
  gate_count : int;
  nominal_delay : float;  (** sum of nominal gate delays, seconds *)
  grad_sum : Ssta_tech.Params.t;
      (** per-RV sum of the nominal delay derivatives over the path's
          gates — the linearized sensitivity of the whole path, used for
          analytic path-to-path covariances *)
  quad_levels : int;  (** quad-tree layers of the layering, random excluded *)
  parts : int array;
      (** the partitions holding a non-zero summed delay derivative, in
          increasing order, each as its {!Slots} partition index
          [layer_offset layer + partition]; layer 0 (inter-die) never
          appears *)
  part_coeffs : float array;
      (** five summed delay derivatives per entry of [parts], RV-minor:
          slot [5 * parts.(i) + r] of the dense vector holds
          [part_coeffs.(5 * i + r)], every other slot is 0 (see
          {!to_dense}) *)
  random_sq : float array;
      (** per-RV (index {!Ssta_tech.Params.rv_index}) sum of squared
          delay derivatives over the path's gates — the random layer,
          which is layer [quad_levels]; [[||]] without a random layer *)
}

type workspace
(** Kept for source compatibility: {!of_path} needs no scratch state.
    [workspace], {!workspace_create} and [?ws] stay because the
    benchmark's traced replay ([perfbench/replay.ml]), which this
    library does not own, calls them. *)

val workspace_create : unit -> workspace

val of_path :
  ?grads:Ssta_tech.Params.t array ->
  ?ws:workspace ->
  Ssta_timing.Graph.t ->
  Ssta_circuit.Placement.t ->
  Layers.t ->
  Ssta_timing.Paths.path ->
  t
(** The reference walk: accumulate coefficients for one path, adding
    each gate's derivatives in path order, deriving each gate's
    partitions on the spot.  Derivatives are evaluated at nominal
    (the paper's zeroth-order approximation, Eq. 11).

    [grads] defaults to {!Ssta_timing.Graph.grads}[ g]; a caller's own
    table must hold the same values (it leaves every output bit
    unchanged).  [ws] is ignored. *)

val of_table : Gate_table.t -> Ssta_timing.Paths.path -> t * float
(** The production walk: {!of_path}[ table.graph table.placement
    table.layers path], bit for bit, paired with the path's worst-case
    corner delay — [Ssta_timing.Paths.worst_case_delay
    ~corner_k:table.corner_k] on the same graph, also bit for bit
    unless the table's corner is invalid (then 0; see
    {!Gate_table.check_corner}).  One pass over the path, reading each
    gate's partitions and the corner's factors from the table instead
    of re-deriving them; every sum adds the same values in the same
    order as {!of_path}. *)

val to_dense : t -> float array
(** The coefficients by {!Slots.slot}, over [quad_levels] layers
    (longer if [parts] reaches past them): [Slots.num_slots
    ~quad_levels] entries, 0 outside [parts]. *)

val intra_variance : t -> Budget.t -> float
(** Eq. (14): [sum coeff^2 * sigma_layer^2] over the quad-tree slots
    plus the random layer's share, with per-layer sigmas from the budget
    and {!Ssta_tech.Params.sigma}; the quad-tree part is
    {!Slots.sq_norm} over [parts]. *)

val layer_variances : t -> Budget.t -> float array
(** Per-layer decomposition of {!intra_variance}: element [u] (for
    [1 <= u < Budget.layers budget]) is the variance contributed by
    layer [u]'s RVs; element 0 is 0 (the inter part is not in the
    coefficient vector).  The elements sum to [intra_variance t budget]
    up to rounding. *)
