(** Special functions for Gaussian probability computations.

    The sealed build environment has no numerical library, so the error
    function and its relatives are implemented from scratch.  Accuracy is
    more than sufficient for the discretized-PDF engine (absolute error
    below 1.5e-7 for {!erf} and, consequently, for the refined
    {!inverse_normal_cdf} over (0, 1)). *)

val erf : float -> float
(** [erf x] is the Gauss error function
    (2/sqrt pi) * integral of exp(-t^2) for t in [0, x]. *)

val erfc : float -> float
(** [erfc x] is [1 -. erf x], computed without cancellation for large [x]. *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
(** [normal_cdf ~mu ~sigma x] is the CDF of the normal distribution with
    mean [mu] (default 0) and standard deviation [sigma] (default 1),
    evaluated at [x].  [sigma] must be positive. *)

val normal_pdf : ?mu:float -> ?sigma:float -> float -> float
(** [normal_pdf ~mu ~sigma x] is the density of the normal distribution at
    [x]: [exp (-0.5 *. z *. z) /. (sigma *. sqrt_2pi)] with
    [z = (x -. mu) /. sigma]. *)

val sqrt_2pi : float
(** [sqrt (2 pi)], the constant of {!normal_pdf}'s denominator. *)

val inverse_normal_cdf : float -> float
(** [inverse_normal_cdf p] is the standard-normal quantile function
    Phi^-1(p) for [p] in (0, 1).  Raises [Invalid_argument] outside the
    open interval. *)
