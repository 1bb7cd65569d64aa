(** Block-based timing engine: one topological pass over the netlist
    DAG, propagating {!Arrival} distributions with statistical sum at
    gates and statistical max at merge points and endpoints.

    Where the path engine's cost is O(paths * Q^3) after enumeration,
    this engine visits every gate exactly once at O(slots) per visit
    (425 shared-layer slots at the default 4 quad-tree layers; Q-point
    grids only at the endpoints) — the crossover is measured per
    benchmark by the [blockcross] bench artifact.  A gate with k >= 2
    fan-ins costs 2k - 2 passes (a covariance and a blend per Clark
    merge, the last blend also adding the gate's sensitivities and
    summing the final variance); a single fan-in costs one.  Each pass
    walks only the arrivals' supports, one span of partitions per layer
    ({!Arrival}), in slot order with the sigma^2 read from the budget's
    table; the vector comes from a free list of the sweep's dead
    arrivals, so the sweep allocates about one vector per primary
    output plus its peak frontier.  The price is approximation at
    reconvergent fan-out (Clark's Gaussian max); the
    [check-block-vs-path] checker cross-validates the result against
    the path-based answer and Monte Carlo on every ISCAS85 circuit. *)

(** Per primary-output arrival statistics. *)
type endpoint = {
  node : int;  (** node id of the primary output *)
  name : string;  (** its netlist name *)
  arrival : Arrival.t;  (** the full arrival object *)
  pdf : Ssta_prob.Pdf.t;  (** concretized delay PDF *)
  mean : float;  (** seconds *)
  std : float;  (** seconds *)
  inter_sigma : float;  (** inter-die share of sigma (Eq. 14 split) *)
  intra_sigma : float;  (** everything below the inter-die layer *)
  confidence_point : float;  (** mean + confidence_sigma * std *)
}

(** One block-based analysis of a circuit. *)
type t = {
  config : Ssta_core.Config.t;  (** configuration used *)
  circuit_name : string;
  num_gates : int;
  sta : Ssta_timing.Sta.t;  (** deterministic STA of the same graph *)
  endpoints : endpoint list;  (** one per primary output, in output order *)
  arrival : Arrival.t;  (** circuit arrival: max over all outputs *)
  pdf : Ssta_prob.Pdf.t;  (** concretized circuit-delay PDF *)
  mean : float;  (** seconds *)
  std : float;  (** seconds *)
  inter_sigma : float;  (** inter-die share of sigma *)
  intra_sigma : float;  (** remaining share *)
  confidence_point : float;  (** mean + confidence_sigma * std *)
  runtime_s : float;  (** wall-clock of the sweep (not in the JSON) *)
}

val analyze :
  ?config:Ssta_core.Config.t ->
  ?placement:Ssta_circuit.Placement.t ->
  ?sta:Ssta_timing.Sta.t ->
  ?gates:Ssta_correlation.Gate_table.t ->
  ?pool:Arrival.pool ->
  Ssta_circuit.Netlist.t ->
  t
(** [analyze circuit] runs deterministic STA plus one statistical
    topological sweep (the circuit's node order is topological by
    construction).  The default placement is
    {!Ssta_circuit.Placement.place}; the grid quality comes from
    [config].  [sta] substitutes a pre-built deterministic
    analysis (e.g. on a drive-aware graph,
    {!Ssta_timing.Graph.with_drives}) — its graph must describe
    [circuit].  [gates] is the design state's gate table, from which
    every step reads the gate's partitions; it must
    {!Ssta_correlation.Gate_table.fits} the graph, placement and
    [config]'s layering and corner (raises [Invalid_argument]
    otherwise), and without it the call builds one.  The sweep's vector
    free list is a fresh {!Arrival.pool} unless [pool] is given (say,
    to read {!Arrival.walked} afterwards); a pool serves one call at a
    time, so concurrent calls share nothing mutable.  Raises
    [Invalid_argument] if the circuit has no outputs. *)

val json : t -> Ssta_runtime.Json.t
(** Machine-readable report: engine name (["block"]), max policy,
    deterministic critical delay, circuit and per-endpoint statistics
    (mean/sigma/inter/intra/confidence point and 0.1%/50%/99.9%
    quantiles) and the circuit-delay PDF (encoded by
    {!Ssta_core.Report.pdf_json}).  Deterministic by construction —
    round-trip floats, no wall-clock — so identical results are
    byte-identical; the block-mode [--jobs] determinism tests diff this
    artifact.  The endpoints and the PDF density are
    {!Ssta_runtime.Json.Seq} arrays, produced while the value prints. *)

val json_report : t -> string
(** [Json.to_string (json t)]: the report on one line. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable run summary (engine, critical delay, circuit arrival
    statistics, endpoint count). *)

val pp_endpoints : Format.formatter -> t -> unit
(** Per-endpoint table (name, mean, sigma, confidence point). *)
