(** Short-channel Elmore gate-delay model — Eq. (2) of the paper.

    The propagation delay of a gate with coefficients [alpha], [beta]
    (from {!Gate.electrical}) at parameter point X is

    {v
      t_p = 0.345 * (t_ox * L_eff / eps_ox)
            * ( alpha * F(V_dd, V_Tn) + beta * F(V_dd, |V_Tp|) )
      F(v, vt) = v / (v - vt)^1.3 + 1 / (1.5 v - 2 vt)
    v}

    All delays are in seconds; helpers convert to picoseconds. *)

val eps_ox : float
(** Oxide permittivity, F/m (3.9 * eps_0). *)

val elmore_constant : float
(** The 0.345 prefactor of Eq. (1). *)

val voltage_factor : vdd:float -> vt:float -> float
(** The function F above.  Raises [Invalid_argument] outside the model's
    validity domain ([vdd - vt <= 0] or [1.5 vdd - 2 vt <= 0]). *)

val gate_delay : Gate.electrical -> Params.t -> float
(** Full nonlinear delay of one gate at a parameter point (Eq. 2). *)

type factors = { geometry : float; vn : float; vp : float }
(** The gate-independent factors of Eq. 2 at one parameter point: the
    geometry prefactor and the voltage factors [F(V_dd, V_Tn)] and
    [F(V_dd, |V_Tp|)]. *)

val factors : Params.t -> factors
(** Raises as {!voltage_factor} does at that point. *)

val delay_of : factors -> Gate.electrical -> float
(** [delay_of (factors p) e] is [gate_delay e p], bit for bit. *)

val delay_at : Params.t -> Gate.electrical -> float
(** [delay_at p] is [fun e -> gate_delay e p] with the gate-independent
    factors of Eq. 2 (geometry and both voltage factors) computed once,
    on application to [p]: bit-identical, and it raises as
    {!voltage_factor} does at that point. *)

val nominal_delay : Gate.electrical -> float
(** Delay at {!Params.nominal}. *)

val delay_bounds :
  ?sigmas:Params.t -> bound:float -> Gate.electrical -> float * float
(** [delay_bounds ~bound e] is the exact range [(lo, hi)] of
    [gate_delay e] over the axis-aligned parameter box
    [nominal +- bound * sigma] (componentwise, [sigmas] defaulting to
    {!Params.sigmas}).  Exactness follows from monotonicity: the delay is
    increasing in [t_ox], [L_eff], [V_Tn], [V_Tp] and decreasing in
    [V_dd], so the extrema are attained at the fast corner (thin/short
    device, high supply, low thresholds) and the slow corner (the
    opposite).

    Very wide boxes are handled soundly: fast-corner thresholds below
    zero clamp to zero, and when the fast corner's geometry crosses zero
    the lower bound is 0 (the delay is linear in [t_ox * L_eff] with a
    positive voltage factor, so 0 is the infimum over the physical part
    of the box).  Raises [Invalid_argument] if the slow corner — or a
    fast corner with positive geometry — leaves the delay model's
    validity domain. *)

val path_delay : Gate.electrical list -> Params.t -> float
(** Sum of gate delays with {e shared} parameters — the fully correlated
    evaluation used for corner analysis (Eq. 5 with all gates at the same
    point).  The point's factors are computed once, and only for a
    non-empty list: [path_delay [] p] is [0.0] for any [p]. *)

val ps : float -> float
(** Seconds to picoseconds. *)
