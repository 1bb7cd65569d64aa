(** Deterministic static timing analysis driver.

    Bundles the one-time calculations of the paper's methodology: build
    the timing graph, compute Bellman-Ford labels, extract the critical
    path, and (given a slack budget) enumerate and rank the near-critical
    paths by nominal delay.  Deterministic rank 1 is the nominally
    slowest path. *)

type t = {
  graph : Graph.t;
  labels : float array;  (** Bellman-Ford arrival labels *)
  critical_delay : float;  (** seconds *)
  critical_path : Paths.path;
}

val analyze : ?wire_cap:float -> Ssta_circuit.Netlist.t -> t
(** Graph construction + labels + critical path. *)

val of_graph : Graph.t -> t
(** Run the label/critical-path computations on an existing graph (e.g.
    one built with {!Graph.with_drives}). *)

val relabel : t -> Graph.t -> changed:int list -> t
(** [relabel t g ~changed] is [of_graph g], bit for bit, when [g] differs
    from [t.graph] only in the delays of the gates in [changed] (e.g. a
    {!Graph.redrive} of it): the labels come from
    {!Longest_path.relabel}, the critical delay and path from them. *)

val analyze_placed :
  ?wire:Ssta_tech.Wire.params ->
  Ssta_circuit.Netlist.t ->
  Ssta_circuit.Placement.t ->
  t
(** Like {!analyze} but with placement-aware wire loading
    ({!Graph.of_placed}). *)

val near_critical :
  ?max_paths:int ->
  ?should_stop:(unit -> bool) ->
  ?prune:(int -> bool) ->
  t ->
  slack:float ->
  Paths.enumeration
(** Paths within [slack] of the critical delay, ranked by nominal delay
    (deterministic rank = 1-based position in this list).  [should_stop]
    imposes a caller-side deadline; see {!Paths.enumerate}. *)

val pp_summary : Format.formatter -> t -> unit
