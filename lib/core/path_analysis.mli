(** Statistical analysis of a single path (Section 3.2).

    Combines the pieces: Eq. (13) coefficient accumulation, the Gaussian
    intra-PDF (Eq. 14), the numeric inter-PDF, and their convolution into
    the total delay PDF, from which the confidence point used for ranking
    is read. *)

type t = {
  path : Ssta_timing.Paths.path;
  gate_count : int;
  coeffs : Ssta_correlation.Path_coeffs.t;
  intra_pdf : Ssta_prob.Pdf.t;
  inter_pdf : Ssta_prob.Pdf.t;
  total_pdf : Ssta_prob.Pdf.t;  (** convolution of inter and intra *)
  det_delay : float;  (** nominal (deterministic) delay, s *)
  mean : float;  (** probabilistic mean — close to but not equal
                     to [det_delay] (nonlinearity) *)
  std : float;
  intra_sigma : float;
  inter_sigma : float;
  confidence_point : float;  (** mean + confidence_sigma * std *)
  worst_case : float;  (** corner analysis of the same path *)
}

type context
(** Shared precomputation (inter tables, layers) for analyzing many paths
    of one placed circuit, plus the numerical-health ledger the guarded
    PDF operations report into. *)

type warm
(** Request-independent precomputation a long-lived process (the
    analysis server) keeps across many {!context} creations: the inter
    tables and, when the configuration enables it, the scale-covariant
    kernel cache.  Sharing a warm state never changes any analysis
    result — cached kernels are pure functions of their coefficients —
    only the cache {e statistics} become history-dependent, which is why
    {!cache_stats} accounting moves to the warm-state owner (see
    {!cache_shared}). *)

val warm : Config.t -> warm
(** Build the tables (and cache, if [config.inter_cache]) once.
    Raises [Invalid_argument] on an invalid configuration. *)

val warm_compatible : warm -> Config.t -> bool
(** May [context ~warm] be used with this configuration?  True when the
    fields the tables depend on (quality-inter, inter shape, truncation,
    variance budget) agree with the configuration the state was built
    from. *)

val warm_cache_stats : warm -> Inter.cache_stats option
(** Lifetime cache statistics of the warm state (None when built with
    [inter_cache = false]). *)

val context :
  ?health:Ssta_runtime.Health.t ->
  ?warm:warm ->
  ?gates:Ssta_correlation.Gate_table.t ->
  Config.t ->
  Ssta_timing.Graph.t ->
  Ssta_circuit.Placement.t ->
  context
(** A fresh ledger is created when [health] is omitted.  [warm] reuses a
    previously built table/cache pair instead of rebuilding them; it
    must satisfy {!warm_compatible} (raises [Invalid_argument]
    otherwise).

    [gates] is the design state's gate table, which every {!analyze}
    walks; it must {!Ssta_correlation.Gate_table.fits} this graph,
    placement, the configuration's layering and its [corner_k] (raises
    [Invalid_argument] otherwise — a stale table is refused, never
    read).  A long-lived owner of the design (the server, the
    incremental state) passes its own, so a context costs no
    per-design work.  Without it, the first {!analyze} builds one for
    the context's lifetime: one-shot callers pay one build per run. *)

val health : context -> Ssta_runtime.Health.t
(** The ledger accumulated by every {!analyze} call through this
    context. *)

val grads : context -> Ssta_tech.Params.t array
(** The nominal gate gradients every path walk of this context reads:
    {!Ssta_timing.Graph.grads} of its graph, so contexts built on one
    graph share one table. *)

val cache_stats : context -> Inter.cache_stats option
(** Aggregated inter-kernel cache statistics, or [None] when the context
    was built with [config.inter_cache = false].  When the cache is
    shared ({!cache_shared}), the numbers span the cache's whole
    lifetime, not just this context's calls. *)

val cache_shared : context -> bool
(** The context borrows its kernel cache from a {!warm} state.  Drivers
    must then keep cache counters out of per-run reports: the statistics
    depend on every request the cache ever served, so they would break
    the byte-determinism of otherwise identical runs. *)

val arena_stats : context -> Ssta_prob.Arena.stats
(** Merged scratch-arena statistics over all per-domain shards this
    context's {!analyze} calls materialized.  The derived counters
    ({!Ssta_prob.Arena.buffers_created}, [bytes_reused], peak bytes) are
    scheduling-independent (see {!Ssta_prob.Arena.merged_stats}) and
    safe for deterministic reports. *)

type memo_stats = {
  memo_lookups : int;  (** {!analyze} calls through the context *)
  memo_distinct : int;  (** distinct keys, i.e. PDF analyses computed *)
}

val memo_stats : context -> memo_stats
(** The context's path-memo traffic (see {!analyze}).  Both numbers are
    scheduling-independent: every call counts once, and every key is
    computed exactly once whatever the worker count. *)

val analyze :
  ?health:Ssta_runtime.Health.t -> context -> Ssta_timing.Paths.path -> t
(** Full statistical analysis of one path.  The intra/inter PDFs and
    their convolution run through {!Ssta_runtime.Guard}: repairable
    numerical damage is fixed and recorded in the context's health
    ledger; unrepairable damage raises
    [Ssta_runtime.Ssta_error.Error (Numeric _)].

    The PDFs depend on the path only through the bit patterns of its
    Eq. 5 sums [alpha_sum], [beta_sum] and its Eq. 14 intra variance,
    so the context memoizes them on that key: each statistically
    distinct path is analyzed once, and later paths with the same key
    share its (never mutated) PDFs, moments and sigmas.  The per-path
    fields ([path], [gate_count], [coeffs], [det_delay], [worst_case])
    are always computed from the path itself, in one walk over the
    context's gate table ({!Ssta_correlation.Path_coeffs.of_table}).  Every call, hit or miss,
    replays the Guard events of the key's analysis into the ledger, so
    results and ledgers are identical to a fresh context per path.
    Misses run under the context's memo lock: exactly one analysis per
    key at any worker count.  A miss that raises stores nothing.

    [health] redirects the guard reports away from the context ledger.
    Parallel drivers hand every path a private ledger and
    {!Ssta_runtime.Health.merge} them back in path order, so the
    context ledger ends up identical to a sequential run's. *)

val overestimation_pct : t -> float
(** [(worst_case - confidence_point) / confidence_point * 100] — the
    paper's Table 2 column 5. *)
