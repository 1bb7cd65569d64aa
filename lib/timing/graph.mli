(** Timing graph: a netlist annotated with electrical gate models and
    nominal delays.

    The paper maps the circuit to a timing graph once, evaluating every
    gate's deterministic delay and its delay derivatives at nominal
    ("these are one time calculations", Section 3).  Primary inputs are
    zero-delay source nodes.

    The derivatives are a property of the graph too: {!grads} evaluates
    every gate's nominal gradient on its first call and keeps the table
    in the graph, so the path walk, the block engine and the affine
    domain all read the same array and a long-lived graph (a served
    design) pays for it once.  Each full constructor below starts with
    an empty table; {!redrive}, the incremental twin of {!with_drives},
    carries an evaluated one across an edit. *)

type t = private {
  circuit : Ssta_circuit.Netlist.t;
  electrical : Ssta_tech.Gate.electrical option array;
      (** per node; [None] for primary inputs *)
  delay : float array;  (** nominal gate delay per node (s); 0 for inputs *)
  fanouts : int array array;  (** consumers per node *)
  grads_slot : Ssta_tech.Params.t array option Atomic.t;
      (** the {!grads} table once computed; read it through {!grads} *)
}

val of_netlist : ?wire_cap:float -> Ssta_circuit.Netlist.t -> t
(** Build the graph; each gate's electrical model uses its actual fanout
    count for the output load (default [wire_cap] 1 fF). *)

val with_drives :
  ?wire_cap:float -> Ssta_circuit.Netlist.t -> float array -> t
(** Like {!of_netlist} but with a per-node drive-strength multiplier
    (index = node id; entries for primary inputs are ignored).  A gate's
    output load is the sum of its consumers' input capacitances at
    {e their} drives (upsizing a gate speeds it up but slows its
    fan-ins), plus one pin capacitance if the node is a primary output.
    Raises [Invalid_argument] on a length mismatch or non-positive
    drive. *)

val redrive :
  t -> Ssta_circuit.Netlist.t -> float array -> changed:int list -> t * int list
(** [redrive prev c drives ~changed] is [(with_drives c drives, retimed)]
    built from [prev], the default-[wire_cap] {!with_drives} graph of a
    netlist with [c]'s connectivity, where [changed] holds every gate
    whose kind or drive differs from [prev]'s.  [retimed] (ascending,
    without duplicates) is [changed] plus the gate fan-ins of its
    members, whose loads sum their input capacitances: only their
    electricals, delays and gradient-table entries are re-derived,
    through the full build's per-gate load model, and everything else,
    [fanouts] included, comes from [prev] — so the graph equals the
    full build bit for bit.  A {!grads} table [prev] had already
    evaluated is copied with the retimed entries re-derived; otherwise
    the table stays lazy.  Raises [Invalid_argument] on a node-count or
    drives-length mismatch, a primary input in [changed] or a
    non-positive drive of a retimed gate. *)

val with_params_of :
  ?wire_cap:float ->
  Ssta_circuit.Netlist.t ->
  (int -> Ssta_tech.Params.t) ->
  t
(** Like {!of_netlist} but evaluating each gate's nominal delay at a
    per-gate operating point (e.g. dual-Vt class assignments:
    {!Ssta_tech.Vt_class.params_for}). *)

val with_wire_caps : Ssta_circuit.Netlist.t -> float array -> t
(** Like {!of_netlist} but with an explicit per-node wire capacitance
    (e.g. from a SPEF annotation, {!Ssta_circuit.Spef.apply}).  Raises
    [Invalid_argument] on length mismatch or negative caps. *)

val of_placed :
  ?wire:Ssta_tech.Wire.params ->
  Ssta_circuit.Netlist.t ->
  Ssta_circuit.Placement.t ->
  t
(** Placement-aware construction: each gate's wire capacitance comes from
    the half-perimeter length of its fan-out net (see
    {!Ssta_tech.Wire}), so physically long nets load their drivers —
    the "more complex interconnect models" refinement the paper
    attributes to path-based analysis. *)

val num_nodes : t -> int
val is_input : t -> int -> bool

val electrical_exn : t -> int -> Ssta_tech.Gate.electrical
(** Raises [Invalid_argument] on primary inputs. *)

val grads : t -> Ssta_tech.Params.t array
(** Per-node nominal delay gradients: element [id] is
    [Derivatives.gradient (electrical_exn g id) Params.nominal] for a
    gate and [Params.zero] for a primary input.  Evaluated on the first
    call and shared afterwards (every call returns the same physical
    array); safe to call from several domains at once — a race on the
    first call only repeats deterministic work.  The array must not be
    mutated. *)

val fanins : t -> int -> int array
(** Fan-ins of a node ([||] for primary inputs). *)

val total_nominal_delay : t -> float
(** Sum of all gate delays (a sanity metric used in tests). *)
