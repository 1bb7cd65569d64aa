(** The complete methodology of Fig. 1.

    1. Build the timing graph; evaluate nominal delays and derivatives.
    2. Bellman-Ford for the deterministic critical path.
    3. Statistical analysis of that path; extract sigma_C.
    4. Enumerate every path within C * sigma_C of the critical delay.
    5. Statistical analysis of each; rank by the confidence point.

    The result carries everything the paper's Table 2 reports, plus the
    full per-path analyses for the figures.

    Runs can be bounded by an {!Ssta_runtime.Budget.t}.  Breaching a
    budget never aborts the flow: the PDF resolution is tightened first
    (cell cap), then the enumeration is capped, then the per-path
    analysis loop stops at the deadline — each degradation keeps the
    already-computed subset and is recorded in {!field-status}.

    Step 5 optionally fans out over an {!Ssta_parallel.Pool.t}:
    per-path analysis distributes paths one per chunk with private
    health ledgers merged back in path order.  The reduction is
    scheduling-independent, so a run with a pool returns results —
    PDFs, ranking, ledger, degradations — identical to the sequential
    run; only wall-clock time changes.  Budget deadlines keep working
    under parallelism: the stop predicate is polled cooperatively per
    chunk and a breach keeps the contiguous analyzed prefix. *)

type status =
  | Complete
  | Degraded of Ssta_runtime.Budget.degradation list
      (** what the budget forced the run to give up, in order *)

type t = {
  circuit_name : string;
  num_gates : int;
  config : Config.t;
  sta : Ssta_timing.Sta.t;
  sigma_c : float;  (** std of the det. critical path's total PDF *)
  slack : float;  (** C * sigma_C *)
  truncated : bool;  (** near-critical enumeration hit max_paths *)
  ranked : Ranking.ranked array;  (** all analyzed paths, prob. order *)
  det_critical : Path_analysis.t;  (** analysis of the det. critical path *)
  prob_critical : Ranking.ranked;
  runtime_s : float;  (** wall-clock of the whole flow *)
  status : status;
  health : Ssta_runtime.Health.t;
      (** numerical-health ledger of every PDF operation in the run *)
}

val run :
  ?config:Config.t ->
  ?placement:Ssta_circuit.Placement.t ->
  ?wire:Ssta_tech.Wire.params ->
  ?wire_caps:float array ->
  ?pool:Ssta_parallel.Pool.t ->
  ?screen:
    (sta:Ssta_timing.Sta.t ->
     slack:float ->
     (int -> bool) * (string * int) list) ->
  Ssta_circuit.Netlist.t ->
  t
(** Execute the flow (default config {!Config.default}; default placement
    {!Ssta_circuit.Placement.place}).  When [wire] is given, gate loads
    come from the placement-aware interconnect model
    ({!Ssta_timing.Graph.of_placed}); when [wire_caps] is given (e.g.
    from {!Ssta_circuit.Spef.apply}), each node uses that explicit wire
    capacitance.  The two are mutually exclusive.  [pool] parallelizes
    steps 4–5 without changing any result bit (see the module
    preamble).

    [screen] statically screens step 4: it receives the step-2 STA and
    the step-3 slack and returns a prune hook for
    {!Ssta_timing.Paths.enumerate} plus health counters to record
    (e.g. [Ssta_check.Affine.methodology_screen]).  The hook carries
    the proof obligation documented at [Paths.enumerate ?prune] — it
    must only prune nodes on no near-critical path, so the reported
    paths stay byte-identical; the counters must be
    scheduling-independent. *)

val analyze :
  ?config:Config.t ->
  ?budget:Ssta_runtime.Budget.t ->
  ?cancelled:(unit -> bool) ->
  ?placement:Ssta_circuit.Placement.t ->
  ?wire:Ssta_tech.Wire.params ->
  ?wire_caps:float array ->
  ?pool:Ssta_parallel.Pool.t ->
  ?screen:
    (sta:Ssta_timing.Sta.t ->
     slack:float ->
     (int -> bool) * (string * int) list) ->
  ?sta:Ssta_timing.Sta.t ->
  ?warm:Path_analysis.warm ->
  ?gates:Ssta_correlation.Gate_table.t ->
  ?reuse:
    (Ssta_timing.Paths.path ->
     (Path_analysis.t * Ssta_runtime.Health.t) option) ->
  ?record:
    (Ssta_timing.Paths.path ->
     Path_analysis.t ->
     Ssta_runtime.Health.t ->
     unit) ->
  Ssta_circuit.Netlist.t ->
  (t, Ssta_runtime.Ssta_error.t) result
(** Result-returning entry point: like {!run}, but never raises —
    invalid arguments and numerical failures come back as typed errors —
    and enforces [budget] (default {!Ssta_runtime.Budget.unlimited}).
    A budget breach degrades the run (see {!status}) but still returns
    [Ok] with the truthful partial answer.  [pool] as in {!run}.

    [cancelled] is an external cooperative stop hook (a signal latch, a
    server shutdown flag) threaded into the budget tracker: when it
    trips, enumeration and per-path analysis stop at the next poll
    exactly as a deadline breach would, the completed prefix is kept
    and the run comes back [Degraded] — never an exception, never a
    partial write.

    [sta] supplies step 1–2 results precomputed by a long-lived caller
    (it must describe [circuit]; mutually exclusive with [wire] and
    [wire_caps]).  [warm] shares the inter-table/kernel-cache state
    across calls (see {!Path_analysis.warm}); sharing changes no
    analysis bit, and cache counters are then left out of the run's
    health ledger — the warm-state owner accounts for them.  The arena
    and path-memo counters are left out under [warm] or [reuse] too, so
    an incremental run stays byte-identical to a warm one from
    scratch.  [gates] is the design state's gate table, handed to
    {!Path_analysis.context}: it must fit [sta]'s graph, [placement],
    and [config]'s layering and corner (else the run fails with a typed
    error); without it the run builds one.

    [reuse]/[record] are the incremental re-analysis hooks
    ([Ssta_check.Impact]).  For every path of step 3/5, [reuse] may
    supply a previously computed analysis together with the private
    health ledger that analysis produced; the caller must guarantee the
    pair is exactly what a fresh [Path_analysis.analyze] of that path
    would produce (analyses are deterministic, so this holds whenever
    the path's delays, partitions and the analysis-relevant
    configuration are unchanged).  [record] is called once per freshly
    analyzed path with its analysis and private ledger.  Both hooks run
    on the calling thread only — never from pool workers — so an
    unsynchronized cache is safe; with correct reuse the returned
    report is byte-identical to a hook-free run. *)

val analysis_config : Config.t -> Ssta_runtime.Budget.t -> Config.t
(** The configuration a run under [budget] analyzes its paths with:
    [config] with both PDF resolutions clamped to the budget's cell cap
    (each tightening is recorded as a degradation by the run). *)

val is_degraded : t -> bool

val degradations : t -> Ssta_runtime.Budget.degradation list
(** Empty for complete runs. *)

val num_critical_paths : t -> int
(** Paths analyzed (Table 2 column 7). *)

val overestimation_pct : t -> float
(** Worst-case vs. the probabilistic critical path's confidence point
    (Table 2 column 5, computed on the worst-case delay of the
    deterministic critical path as the paper does). *)

val find_rank : t -> prob_rank:int -> Ranking.ranked
(** Path at the given probabilistic rank (1-based). *)
