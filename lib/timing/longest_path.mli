(** Longest-path (arrival-time) labels.

    The paper computes the delay label of every node — the maximum
    arrival time from the source — with Bellman-Ford (Section 3.1).
    Netlist node ids are ordered so that every fan-in precedes its
    gate, so the first relaxation round in id order already leaves
    every label final: it is also the last, and costs O(N + E).  The
    tests keep a repeat-until-stable relaxation as the paper's reference
    and compare the two bit for bit.  The arrival of a node includes its
    own gate delay (inputs arrive at 0). *)

val bellman_ford : Graph.t -> float array
(** One Bellman-Ford round in ascending id order: each gate's label is
    relaxed to the best fan-in label plus its own delay. *)

val relabel : Graph.t -> float array -> changed:int list -> float array
(** [relabel g labels ~changed] is [bellman_ford g], bit for bit, given
    the {!bellman_ford} labels of a graph that differs from [g] only in
    the delays of the gates in [changed] (same netlist connectivity).
    One forward pass from the smallest changed id recomputes a node only
    when it is in [changed] or a fan-in's label moved, with the
    same per-node expression as {!bellman_ford}.  [labels] is not
    mutated. *)

val suffix : Graph.t -> float array
(** Max-plus suffix delays, the backward twin of {!bellman_ford}: element
    [u] is the nominal delay of the longest path from [u]'s consumers to
    a primary output, {e exclusive} of [u]'s own gate —
    [M(u) = max (0 if u is an output, M(c) + delay c for c in fanouts u)]
    — and [neg_infinity] when [u] reaches no output.  One descending
    sweep over the node ids; [labels.(u) + M(u)] is the nominal delay
    of the best complete path through [u]. *)

val critical_delay : Graph.t -> float array -> float
(** Maximum label over the primary outputs. *)

val critical_output : Graph.t -> float array -> int
(** The primary output that realizes {!critical_delay} (smallest id on
    ties). *)

val critical_path : Graph.t -> float array -> int array
(** One maximum-delay path, source input first, critical output last
    (greedy backward trace; ties broken towards smaller node ids). *)
