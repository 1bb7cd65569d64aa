(** The per-gate constants of one design state.

    Under the paper's zeroth-order approximation (Eq. 11) a gate's
    nominal delay derivatives are fixed for a design, and so is the
    quad-tree partition it falls in on every layer (Section 2.3).  Eq.
    (13) is then a sum of per-gate constants along the path.  This
    table holds the constants that cost work to derive, for every node,
    once per design state instead of once per gate visit:

    - the slot base of the node's partition on each quad-tree layer
      (layer 0, the whole die, included), from {!Layers.partition_of},
      which stays the definition;
    - the Eq. 2 factors of the worst-case corner [corner_k] sigmas out
      ({!Ssta_tech.Corner.point}), evaluated once for all gates;
    - the graph's gradient table ({!Ssta_timing.Graph.grads}).

    Whether a node is a gate, and its Eq. (5) [alpha] and [beta], are
    read from the graph's electricals, which already hold them.

    A table describes exactly one (graph, placement, layering, corner)
    quadruple, compared physically for the graph and the placement:
    {!fits} is the guard every reader applies.  Its owner is whoever
    owns that design state — the server's served image, the
    incremental-analysis state — and an edit derives the next table
    with {!patch}, which copies the chunks of the cells the edit moved
    and re-derives only those.  Nothing is mutated
    after construction, so a table may be shared across domains, and
    two tables may share chunks. *)

type t = private {
  graph : Ssta_timing.Graph.t;
  placement : Ssta_circuit.Placement.t;
  layers : Layers.t;
  corner_k : float;
  grads : Ssta_tech.Params.t array;  (** [Graph.grads graph] *)
  corner : Ssta_tech.Elmore.factors;
      (** Eq. 2's factors at the worst-case corner, zeros when the
          corner is invalid *)
  corner_error : string option;
      (** the [Invalid_argument] message {!Ssta_tech.Corner.point}
          raises at [corner_k], when the corner leaves the model's
          domain; a walk over a path with a gate re-raises it
          ({!check_corner}) *)
  bases : Bytes.t array;
      (** per chunk of [2^chunk_bits] nodes, [quad_levels] 32-bit slot
          bases per node (read them through {!base} or {!chunk_base}) *)
}

val chunk_bits : int
(** Nodes per chunk, as a power of two: node [id] lives in chunk
    [id lsr chunk_bits] at position [p = id land (2^chunk_bits - 1)];
    its base on layer [l] is [chunk_base bases.(chunk) (p * quad_levels
    + l)].  A patch copies only the chunks of the nodes it re-derives. *)

val chunk_base : Bytes.t -> int -> int
(** The [i]-th base of a chunk: the native-endian 32-bit integer at byte
    [4 * i]. *)

val base : t -> int -> int -> int
(** [base t id l] is the slot base
    [Slots.num_rvs * (Slots.layer_offset l + partition)] of node [id]'s
    partition on layer [l], for [0 <= l < quad_levels]. *)

val worst : t -> int -> float
(** The gate's delay at the worst-case corner,
    [Elmore.delay_of corner e]; 0 for a primary input, and for every
    node when the corner is invalid. *)

val build :
  Ssta_timing.Graph.t ->
  Ssta_circuit.Placement.t ->
  Layers.t ->
  corner_k:float ->
  t
(** Derive every node's entry.  Evaluates {!Ssta_timing.Graph.grads}
    if it was not yet.  Never raises on an invalid corner: see
    [corner_error].  Raises [Invalid_argument] when a slot index of the
    layering does not fit 32 bits (16 or more quad-tree layers, whose
    coefficient vectors could not be allocated anyway). *)

val patch :
  t -> Ssta_timing.Graph.t -> Ssta_circuit.Placement.t -> int list -> t
(** [patch t graph placement moved] is [build graph placement t.layers
    ~corner_k:t.corner_k], entry for entry, when [graph] has [t]'s
    node count and [placement] differs from [t]'s only on the nodes in
    [moved].  A new graph changes only the reference (its electricals
    and gradients are read from the graph); a new placement copies the
    chunks of the moved nodes and re-derives their bases, and every
    other chunk is shared with [t].  Raises [Invalid_argument] on a
    node-count mismatch or a node id out of range. *)

val fits :
  t ->
  Ssta_timing.Graph.t ->
  Ssta_circuit.Placement.t ->
  Layers.t ->
  corner_k:float ->
  bool
(** Was [t] built (or patched) for exactly this graph and placement
    (physical equality), layering (structural) and corner (same bits)? *)

val check_corner : t -> unit
(** Raise [Invalid_argument] with [corner_error], if there is one. *)

val builds : unit -> int
(** Number of {!build} calls in this process so far (tests and the
    bench read it to show that warm requests build no table; {!patch}
    does not count). *)

val derivations : unit -> int
(** Number of node entries derived in this process so far: every node
    of a {!build}, every moved node of a {!patch} to a new placement. *)
