(** Discretized probability density functions on uniform grids.

    This is the numerical heart of the reproduction: the paper computes
    path-delay PDFs by discretizing each random variable's density at
    [QUALITY] points and combining grids numerically.  A value of type
    {!t} stores a density sampled at the centers of [n] equal-width cells;
    the represented measure assigns mass [density.(i) *. step] to cell
    [i].  All constructors normalize, so the total mass is always 1 (up to
    float rounding). *)

type t = private {
  lo : float;  (** left edge of the first cell *)
  step : float;  (** cell width (positive) *)
  density : float array;  (** density at cell centers *)
}

val make : lo:float -> step:float -> float array -> t
(** [make ~lo ~step density] normalizes [density] (which must be
    non-negative with positive total mass) into a PDF.  Raises
    [Invalid_argument] on empty arrays, non-positive [step], negative
    entries or zero total mass. *)

val make_owned : lo:float -> step:float -> float array -> t
(** Bit-identical to {!make}, but takes ownership of the array and
    normalizes it in place instead of copying.  The caller must not use
    the array afterwards.  This is the constructor the zero-allocation
    combinators ({!Combine.sum} and friends) normalize into. *)

val of_fun : lo:float -> hi:float -> n:int -> (float -> float) -> t
(** [of_fun ~lo ~hi ~n f] samples the unnormalized density [f] at the [n]
    cell centers of [lo, hi] and normalizes. *)

val point_mass : ?n:int -> float -> t
(** [point_mass x] is a degenerate distribution concentrated (within one
    narrow cell) at [x]. *)

val size : t -> int
(** Number of grid cells. *)

val hi : t -> float
(** Right edge of the last cell. *)

val x_at : t -> int -> float
(** [x_at p i] is the center of cell [i]. *)

val mass_at : t -> int -> float
(** [mass_at p i] is the probability mass of cell [i]. *)

val total_mass : t -> float
(** Total mass (should be 1 within rounding; exposed for tests). *)

val mean : t -> float
val variance : t -> float
val std : t -> float

type moments = { m_mean : float; m_var : float }
(** First two moments, computed together. *)

val moments : t -> moments
(** [moments p] returns the mean and (clamped non-negative) variance in a
    single call, traversing the density twice instead of the four walks
    that separate [mean]/[std] calls would cost.  Values are bit-identical
    to [mean p] and [variance p]. *)

val moment_central : t -> int -> float
(** [moment_central p k] is E[(X - mean)^k]. *)

val skewness : t -> float

val cdf : t -> float -> float
(** [cdf p x] is P(X <= x), linear within cells. *)

val quantile : t -> float -> float
(** [quantile p q] for [q] in [0, 1]: smallest [x] with [cdf p x >= q],
    interpolated within the crossing cell. *)

val sigma_point : t -> float -> float
(** [sigma_point p k] is [mean p +. k *. std p] — the paper's
    "confidence point" (e.g. the 3-sigma point used to rank paths). *)

val mode : t -> float
(** Center of the highest-density cell. *)

val density_at : t -> float -> float
(** Density evaluated at an arbitrary point (0 outside the support,
    piecewise-constant inside). *)

val shift : t -> float -> t
(** [shift p c] is the distribution of X + c. *)

val shift_owned : t -> float -> t
(** Bit-identical to {!shift}, with the same sanitizer event, but the
    result shares [p]'s density array instead of copying it.  For a [p]
    the caller built and gives up, as {!make_owned} takes its array. *)

val scale : t -> float -> t
(** [scale p a] is the distribution of a*X for [a <> 0]. *)

val affine : t -> mul:float -> add:float -> t
(** [affine p ~mul ~add] is the distribution of mul*X + add. *)

val resample : t -> n:int -> t
(** Re-grid to [n] cells over the same support, conserving cell mass. *)

val restrict : t -> lo:float -> hi:float -> t
(** Condition the distribution on [lo, hi] (renormalizes).  Raises
    [Invalid_argument] if the window carries no mass. *)

val of_samples : ?n:int -> float array -> t
(** Histogram estimate from empirical samples (default [n] = 100 bins).
    Raises [Invalid_argument] on fewer than 2 samples. *)

val sample : t -> Rng.t -> float
(** Draw one value by inverse-CDF sampling. *)

val ks_distance : t -> t -> float
(** Kolmogorov-Smirnov statistic sup_x |F(x) - G(x)| between two PDFs,
    evaluated on the union of both grids. *)

val pp : Format.formatter -> t -> unit
(** Short human-readable summary (support, mean, std). *)

(** {1 Operation tracing}

    A process-wide observation hook used by the PDF sanitizer
    ([Ssta_check.Pdfsan]).  Every grid operation in {!Pdf} and
    [Combine] reports its result together with a shadow interval — the
    support the output must be contained in, derived independently by
    interval arithmetic on the inputs — and bookkeeping for mass
    conservation.  When no hook is installed the instrumentation is a
    single [ref] read per operation. *)

type trace_event = {
  trace_op : string;  (** originating operation, e.g. ["combine.sum"] *)
  trace_expected : (float * float) option;
      (** shadow support interval the output must lie within, when the
          operation admits one *)
  trace_mass_in : float option;
      (** pre-normalization mass the operation accumulated; should be 1
          within rounding for mass-conserving operations *)
  trace_clamped : float;
      (** mass that landed strictly outside the target grid and was
          clamped to a boundary cell *)
  trace_output : t;  (** the operation's result *)
}

val trace_install : (trace_event -> unit) -> unit
(** Install the hook (replacing any previous one). *)

val trace_uninstall : unit -> unit
(** Remove the hook. *)

val trace_active : unit -> bool
(** Whether a hook is currently installed. *)

val trace_emit : trace_event -> unit
(** Feed one event to the installed hook (no-op without one).  Exposed
    for [Combine] and for fault-injection in tests. *)

val traced :
  op:string ->
  ?expected:float * float ->
  ?mass_in:float ->
  ?clamped:float ->
  t ->
  t
(** [traced ~op p] reports [p] to the hook and returns it. *)
