(** Near-critical path enumeration — the recursive algorithm of Fig. 2.

    Given the Bellman-Ford labels, all source-to-output paths whose total
    nominal delay is within a slack budget of the critical delay are
    enumerated by walking backwards from each output: a fan-in [u] of
    node [n] stays on a candidate path when its label is within the
    remaining slack of [label(n) - delay(n)].  Worst-case cost is
    O(kappa * E) for kappa emitted paths, as the paper notes.

    The paper caps the explosion on c6288 by lowering C; we additionally
    support a hard [max_paths] cap that marks the result truncated.

    Enumeration is best-first: candidates are expanded in decreasing
    order of their optimistic delay bound, so paths are emitted longest
    first and a capped enumeration is a prefix of the uncapped ranking
    at tie-tick granularity — bounds are compared through a fixed
    quantization tick (1e-15 s + 1e-12 relative), below which paths
    count as tied and are explored depth-first.  Without the tick,
    ulp-level float noise between exactly-tied paths (c6288 has ~1e20)
    degenerates the search into a breadth-first sweep that never
    completes a path.  An optional [should_stop] callback lets callers
    impose wall-clock deadlines; a stopped run returns the paths found
    so far with [deadline_hit] set. *)

type path = {
  nodes : int array;  (** primary input first, primary output last *)
  delay : float;  (** nominal delay, seconds *)
}

type enumeration = {
  paths : path list;  (** sorted by decreasing nominal delay *)
  truncated : bool;  (** true when [max_paths] stopped the search *)
  critical_delay : float;
  slack : float;  (** the slack budget used *)
  explored : int;  (** candidate states popped from the frontier *)
  deadline_hit : bool;  (** true when [should_stop] stopped the search *)
  pops : int;
      (** candidates popped from the per-endpoint heaps, including pops
          buffered ahead of the merge and never consumed: at most
          [explored] plus the number of endpoint streams.  Counts the
          search's work, not its answer, so it belongs in no report. *)
}

val path_gates : Graph.t -> path -> Ssta_tech.Gate.electrical list
(** Electrical models of the gate nodes of a path (inputs skipped), in
    path order. *)

val path_gate_count : Graph.t -> path -> int
(** Number of gates on the path (the paper's Table 2 column 10). *)

val worst_case_delay : ?corner_k:float -> Graph.t -> path -> float
(** Classical corner analysis of one path: all parameters at the
    worst-case corner simultaneously, i.e. [Corner.path_delay Worst]
    of {!path_gates}, bit for bit, without building the list.  A path
    without gates is [0.0] and never evaluates the corner. *)

val recompute_delay : Graph.t -> int array -> float
(** Sum of gate delays along an explicit node list (validation). *)

val enumerate :
  ?max_paths:int ->
  ?should_stop:(unit -> bool) ->
  ?prune:(int -> bool) ->
  Graph.t ->
  labels:float array ->
  slack:float ->
  enumeration
(** All paths with delay >= critical - slack, up to [max_paths]
    (default 200_000), longest first.  [slack] must be non-negative.
    [should_stop] is polled once per expanded candidate; when it
    returns [true] the search stops and the result carries the paths
    emitted so far with [deadline_hit = true].

    [prune] is a static screening hook: a node for which it returns
    [true] is never pushed on the frontier.  The caller must only prune
    nodes that provably lie on no path whose delay clears the
    enumeration threshold (e.g. from the affine suffix bound of
    [Ssta_check.Affine.screen]); under that obligation the entire
    enumeration record — paths, order, [explored], flags — is
    byte-identical to the unpruned run, because every frontier push the
    unpruned search performs survives the hook.

    The search decomposes by primary output into independent
    per-endpoint streams whose pops are merged back in the exact order
    a single global frontier would pop them.  Only the stream whose
    next pop the merge needs advances, one pop at a time, so [pops]
    stays within [explored] plus the number of streams. *)

val is_path : Graph.t -> int array -> bool
(** Check that consecutive nodes are connected, the first is a primary
    input and the last a primary output. *)
