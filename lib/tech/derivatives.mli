(** Analytic first and second partial derivatives of the Elmore gate
    delay with respect to the five RVs.

    The paper's Taylor first-order approximation (Eqs. 9-12) freezes these
    derivatives at the nominal point, turning the intra-die part of a path
    delay into a linear combination of independent layer RVs.  Its
    convexity analysis (Section 2.5) bounds the error via the second
    derivatives.  Both are implemented in closed form and cross-checked
    against finite differences in the test suite. *)

val first : Gate.electrical -> Params.t -> Params.rv -> float
(** [first e p rv] is d t_p / d rv at point [p] (SI units: s/m for
    geometric RVs, s/V for voltages). *)

val gradient : Gate.electrical -> Params.t -> Params.t
(** All five first derivatives as a record (field [tox] holds
    d t_p / d t_ox, etc.). *)

val gradient_at : Params.t -> Gate.electrical -> Params.t
(** [gradient_at p] is [fun e -> gradient e p], bit for bit, with the
    factors that depend on the point only (geometry, the voltage
    factors and their partials: about a dozen [**] terms) evaluated
    once, on application to [p]: a caller differentiating many gates at
    one point applies it once.  It raises as {!Elmore.voltage_factor}
    does at that point. *)

val second : Gate.electrical -> Params.t -> Params.rv -> float
(** [second e p rv] is d^2 t_p / d rv^2 at [p]. *)

val first_numeric :
  ?relative_step:float -> Gate.electrical -> Params.t -> Params.rv -> float
(** Central finite-difference first derivative (for validation). *)

val second_numeric :
  ?relative_step:float -> Gate.electrical -> Params.t -> Params.rv -> float
(** Central finite-difference second derivative (for validation). *)
