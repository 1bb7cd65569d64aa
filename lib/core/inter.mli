(** Inter-die path-delay PDF: the numeric push-forward of Section 2.5.

    The inter part of a path delay (first term of Eq. 13) keeps the full
    nonlinear form

    {v t_inter = K * t_ox * L_eff * (A F(V_dd,V_Tn) + B F(V_dd,|V_Tp|)) v}

    with K = 0.345/eps_ox and A/B the summed gate alphas/betas.  A naive
    5-dimensional enumeration would cost O(Q^5); the factorization lets
    us precompute path-independent pieces — the product PDF
    [U = K t_ox L_eff] and the voltage-factor tables F on the
    (V_dd, V_Tn) and (V_dd, V_Tp) grids — and reduces the per-path cost
    to one O(Q^3) accumulation plus one O(Q^2) product, which is what
    makes analyzing thousands of near-critical paths tractable. *)

type tables
(** Path-independent precomputation for a given configuration. *)

val tables : ?vt_shift:float -> Config.t -> tables
(** Build the inter-RV grids (truncated Gaussians with the layer-0 share
    of each parameter's variance), the U product PDF and the
    voltage-factor tables — one pair for the nominal (low-Vt) threshold
    and one for thresholds shifted by [vt_shift] (default
    {!Ssta_tech.Vt_class.default_shift}), enabling dual-Vt analysis. *)

val vt_shift : tables -> float
(** The threshold shift the high-Vt grids were built with. *)

(** {1 Scale-covariant kernel cache}

    [pdf_dual] is homogeneous of degree 1 in its four coefficients, so
    the result at [c*alpha, c*beta] is the exact affine rescale
    [x -> c*x] of the result at [alpha, beta].  A {!cache} memoizes
    kernels by the direction [coeffs / sum] (quantized to 40 mantissa
    bits) and answers every call by rescaling with [Pdf.scale]; hits turn
    the per-path O(Q^3) kernel into an O(Q) rescale.

    Cached results are a pure function of the call's coefficients —
    independent of cache state, shard layout, or hit/miss history — so
    parallel runs using per-domain shards stay byte-identical to
    sequential ones.  Cached and uncached results for the same call may
    differ by the quantization, bounded well below 1e-9 relative. *)

type cache
(** A single-domain kernel cache bound to the {!tables} it was created
    from (using it with different tables raises [Invalid_argument]). *)

val cache_create : ?max_entries:int -> ?distinct:bool -> tables -> cache
(** Fresh cache.  [max_entries] (default 512) bounds resident kernels;
    reaching the bound evicts everything (statistics keep counting).

    With [distinct] (the default) the cache also keeps the set of every
    direction it was asked for, so {!cache_stats} counts distinct
    directions exactly — what a per-run report needs, for a cache that
    dies with its run.  A long-lived cache (a served design's warm
    state) passes [~distinct:false]: the set would grow by every new
    direction forever, so it keeps none, holds at most [max_entries]
    keys, and counts builds in place of distinct directions. *)

type cache_stats = {
  cs_lookups : int;  (** cached calls; scheduling-independent *)
  cs_distinct : int;
      (** distinct normalized directions ever looked up (union over
          shards); scheduling-independent.  Under [~distinct:false]: the
          kernels built, which counts a direction again when it is
          rebuilt after an eviction. *)
  cs_hits : int;
      (** [lookups - distinct]: the hits a single shared cache would have
          served; scheduling-independent, safe for reports.  Under
          [~distinct:false]: the lookups a resident kernel answered. *)
  cs_builds : int;
      (** kernels actually built; with several shards this depends on
          scheduling — keep it out of deterministic artifacts *)
  cs_entries : int;  (** currently resident kernels across shards *)
  cs_shards : int;  (** number of per-domain shards materialized *)
}

val cache_stats : cache -> cache_stats

type caches
(** A family of per-domain cache shards for parallel fan-outs. *)

val caches_create : ?max_entries:int -> ?distinct:bool -> tables -> caches
(** Per-domain shards created as by {!cache_create}. *)

val caches_get : caches -> cache
(** The calling domain's shard (created on first use). *)

val caches_stats : caches -> cache_stats
(** Aggregated statistics: lookups/builds summed, distinct as the union
    of the per-shard direction sets. *)

val pdf :
  ?cache:cache ->
  ?arena:Ssta_prob.Arena.t ->
  tables ->
  alpha_sum:float ->
  beta_sum:float ->
  Ssta_prob.Pdf.t
(** Inter-delay PDF of a path with the given coefficient sums (both must
    be positive); all gates on the low-Vt class.  With [?arena], the
    kernel's O(Q) accumulation grids and column scratch are borrowed
    from the arena instead of freshly allocated; results are
    bit-identical either way. *)

val pdf_dual :
  ?cache:cache ->
  ?arena:Ssta_prob.Arena.t ->
  tables ->
  alpha_low:float ->
  alpha_high:float ->
  beta_low:float ->
  beta_high:float ->
  Ssta_prob.Pdf.t
(** Mixed-class inter PDF: alpha/beta sums split by Vt class (the class
    shifts the threshold's mean, the deviation RV stays shared).  Sums
    must be non-negative with a positive total on each of the NMOS and
    PMOS sides.  With [?cache], the call is answered through the
    scale-covariant cache (see above). *)

val of_coeffs :
  ?cache:cache ->
  ?arena:Ssta_prob.Arena.t ->
  tables ->
  Ssta_correlation.Path_coeffs.t ->
  Ssta_prob.Pdf.t

val mean_is_shifted : Ssta_prob.Pdf.t -> nominal:float -> float
(** [mean pdf - nominal]: the systematic shift between the probabilistic
    mean and the deterministic delay caused by the nonlinearity ("the
    expected value of the delay is not the delay of the expected
    values").  Exposed for tests and reports. *)
