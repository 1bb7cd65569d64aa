(** Dependence-cone change-impact analysis with certified incremental
    re-analysis.

    An ECO-style edit — resize or retype a gate, move a cell, change a
    methodology parameter — perturbs only the dependence cone of the
    touched nodes.  This module computes that cone {e statically} and
    uses it to re-analyze a design incrementally: per-path statistical
    analyses (the O(Q³) dominant cost) are cached across edits and
    reused for every path outside the cone, the timing graph, its
    labels and its gradient table are carried from one edit to the
    next, and the spliced report is {b byte-identical} to a from-scratch
    run — the contract certified by the
    [check-impact-equivalence] check and fuzzed by the random-edit
    corpus ([ssta fault --edits]).

    {2 Dirty sets and the cone}

    A resize/retype of gate [g] dirties [g] {e and its fan-ins}: under
    the drive-aware load model a gate's output load is the sum of its
    consumers' input capacitances at their drives, so changing [g]
    changes the delay of every gate feeding it.  A move of [g] dirties
    [g] plus every gate resident in the deepest quad-tree leaf [g]
    leaves or enters — the Eq. (14) soundness case: a path's intra-die
    variance split depends on which quad-tree partitions its gates
    occupy, so cell-membership churn in a shared leaf is conservatively
    treated as impact on every co-resident (with a fixed die outline
    the co-residents' own partitions cannot actually change, which
    makes the widening a strict superset — certified harmless by the
    byte-identity check).  The forward cone (dirty nodes to affected
    endpoints) and backward cone (to affected path prefixes) are two
    linear passes over the topological node ids: ascending over
    fan-ins, descending back to them.

    A path is {e reusable} iff it contains no dirty node; the cone is
    the union slice reported to users.  Parameter deltas follow
    {!Ssta_core.Config.param_effect}: enumeration-only deltas keep
    every cached path, analysis deltas invalidate the whole cache,
    table deltas additionally rebuild the warm state.

    {2 Load model}

    Designs here always use the drive-aware graph
    ({!Ssta_timing.Graph.with_drives}, all drives 1.0 until edited) so
    a resize stays a local perturbation.  The from-scratch comparand
    {!scratch} uses the same model — byte-identity is meaningful.

    {2 The carried timing image}

    {!init} builds the graph and its static timing once.  An edit then
    derives the next image from the previous one: a resize or retype of
    [g] re-derives the electricals, delays and gradient-table entries
    of [g] and its gate fan-ins only ({!Ssta_timing.Graph.redrive}) and
    relabels forward from the smallest of them
    ({!Ssta_timing.Sta.relabel}); moves and parameter deltas keep the
    very same image.  The design's gate table
    ({!Ssta_correlation.Gate_table}) is carried the same way: it points
    at the new graph, and a move copies and re-derives the moved cells'
    partitions.  All are bit-identical
    to the full build, which {!init} and {!scratch} keep. *)

module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Path_analysis = Ssta_core.Path_analysis
module Health = Ssta_runtime.Health
module Err = Ssta_runtime.Ssta_error

(** A self-contained analyzable design: netlist, placement, per-node
    drive strengths and methodology configuration. *)
type design = private {
  circuit : Netlist.t;
  placement : Placement.t;
  drives : float array;  (** per node id; entries for inputs unused *)
  config : Config.t;
}

val design :
  ?placement:Placement.t ->
  ?drives:float array ->
  ?config:Config.t ->
  Netlist.t ->
  design
(** Defaults: computed placement ({!Placement.place}), all drives 1.0,
    {!Config.default}.  Raises [Invalid_argument] on a drives array of
    the wrong length or with non-finite/non-positive entries. *)

(** A resolved edit: node names bound to ids, kinds to {!Ssta_tech.Gate}
    values, parameters applied, with the pre-edit values captured. *)
type change =
  | Gate_resize of { node : int; drive : float; old_drive : float }
  | Gate_retype of {
      node : int;
      kind : Ssta_tech.Gate.kind;
      old_kind : Ssta_tech.Gate.kind;
    }
  | Cell_move of {
      node : int;
      x : float;
      y : float;
      old_x : float;
      old_y : float;
    }
  | Config_set of {
      param : string;
      value : float;
      effect : Config.param_effect;
    }

val resolve : design -> Ssta_circuit.Edit.t -> (change list, Err.t) result
(** Bind an edit script to a design.  Unknown gate names, primary
    inputs, unknown or arity-mismatched kinds, moves landing outside
    the die (no quad-tree leaf), non-positive drives and invalid
    parameter deltas all come back as typed [Structural] errors naming
    the script line.  Edits are resolved sequentially, so a later edit
    sees the effect of earlier ones. *)

val apply : design -> change list -> design
(** Apply resolved changes; a fresh design (fresh netlist via
    {!Netlist.with_gate_kind}, fresh placement/drives arrays) — the
    original is untouched. *)

(** The static impact of a change list on a design. *)
type cone = {
  dirty : bool array;  (** per node: analysis-relevant change *)
  forward : bool array;  (** forward slice: nodes whose arrival the
                             edit can affect *)
  backward : bool array;  (** backward slice: nodes from which a dirty
                              node is reachable (affected prefixes) *)
  dirty_count : int;
  cone_nodes : int;  (** |forward ∪ backward| *)
  affected_endpoints : int list;
      (** primary outputs inside the forward slice *)
  full : bool;
      (** an [Analysis]/[Tables] parameter delta invalidates every
          cached path, cone notwithstanding *)
}

val cone_of : design -> change list -> cone
(** Cone on the {e pre-edit} design (the edit ops preserve netlist
    connectivity, so forward/backward slices agree on both sides). *)

(** {2 Incremental re-analysis} *)

type state
(** A warm incremental-analysis image: the current design, its timing
    graph and static timing, the warm inter-table/kernel-cache state,
    and the per-path analysis cache ({!Ssta_core.Path_cache.Table},
    keyed by path nodes and delay bits).  Built once by {!init}, advanced
    by {!reanalyze}, probed without commitment by {!what_if}. *)

val init :
  ?pool:Ssta_parallel.Pool.t ->
  ?ledger:Health.t ->
  design ->
  (state * Methodology.t, Err.t) result
(** Run the full methodology once, populating the path cache, and
    return the baseline report.  [ledger] is the lifetime ledger the
    impact counters ([impact-edits], [impact-cone-nodes],
    [impact-paths-reused], [impact-paths-reanalyzed],
    [impact-cache-invalidated], and [impact-gates-retimed]: the gates
    whose electricals an edit re-derived) accumulate into — pass the server's
    lifetime ledger to surface them through the [health] op. *)

val design_of : state -> design

val gate_table : state -> Ssta_correlation.Gate_table.t
(** The gate table of the state's current design — its graph,
    placement, layering and corner.  {!init} builds it; a committed
    edit replaces it by a patch that re-derives only the moved cells (a
    fresh build only when the layering or corner changed), and
    {!what_if} patches a copy it then drops. *)

val cache_size : state -> int
val ledger : state -> Health.t

type outcome = {
  report : Methodology.t;  (** spliced full report — byte-identical to
                               a from-scratch run *)
  cone : cone;
  invalidated : int;  (** cache entries dropped by this edit *)
  reused : int;  (** paths served from the cache *)
  reanalyzed : int;  (** paths analyzed fresh *)
}

val reanalyze :
  ?pool:Ssta_parallel.Pool.t ->
  state ->
  Ssta_circuit.Edit.t ->
  (outcome, Err.t) result
(** Resolve and apply an edit script, invalidate exactly the cached
    paths intersecting the dirty set (everything on a full
    invalidation), re-run the methodology with cache reuse, record the
    fresh analyses, and commit the new design to the state.  On error
    (unresolvable script, analysis failure) the state is unchanged. *)

val what_if :
  ?pool:Ssta_parallel.Pool.t ->
  state ->
  Ssta_circuit.Edit.t ->
  (outcome, Err.t) result
(** {!reanalyze} without the commit: answers the question without
    mutating the state (the lifetime ledger still counts the
    traffic). *)

val scratch :
  ?pool:Ssta_parallel.Pool.t ->
  design ->
  (Methodology.t, Err.t) result
(** The certification comparand: a from-scratch run of the same design
    under a fresh warm state (warm-backed like the incremental run, so
    both reports exclude history-dependent cache counters). *)

val random_edits :
  rng:Ssta_prob.Rng.t -> count:int -> design -> Ssta_circuit.Edit.t
(** The seeded random-edit corpus: [count] single-gate edits — resize
    (drive in [0.6, 1.6]), arity-preserving retype (NAND↔NOR, AND↔OR,
    INV↔BUF, XOR↔XNOR) or in-die move — over uniformly chosen gates.
    Deterministic in [rng]. *)
