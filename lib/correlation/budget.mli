(** Variance budgeting across correlation layers (Eq. 6).

    Each parameter's total variance sigma^2 is split over the L layers:
    sigma^2 = sum_i sigma_i^2, with sigma_i^2 = w_i * sigma^2 for a
    weight vector w summing to 1.  Layer 0's share is the inter-die
    variability; the remaining layers are intra-die.  The paper's default
    divides the variance equally over all layers; its Table 3 studies
    explicit inter/intra splits on c432. *)

type t = private {
  weights : float array;  (** normalized to sum to 1 *)
  rv_var : float array;
      (** sigma^2 of every RV on every layer, at [layer * 5 + rv_index]:
          [let s = sigma_of_layer t ~total_sigma:(Params.sigma rv) layer
          in s *. s], computed once by {!of_weights} *)
}

val equal : layers:int -> t
(** The paper's default: [1/L] per layer. *)

val inter_intra : inter_fraction:float -> layers:int -> t
(** Layer 0 gets [inter_fraction] of the variance; the remaining layers
    split the rest equally.  [inter_fraction] in [0, 1].  (A zero weight
    is allowed: "only intra-die variations" is [inter_fraction = 0].) *)

val of_weights : float array -> t
(** Explicit non-negative weights; normalized to sum to 1.  Raises
    [Invalid_argument] on an empty or all-zero vector, or on a negative
    or non-finite weight (so every [rv_var] entry is finite and
    non-negative, which {!Slots.sq_norm} relies on).  The only
    constructor: {!equal} and {!inter_intra} call it, and it fills the
    [rv_var] table. *)

val layers : t -> int
val weight : t -> int -> float

val inter_fraction : t -> float
(** Weight of layer 0. *)

val sigma_of_layer : t -> total_sigma:float -> int -> float
(** [sigma_of_layer b ~total_sigma u] = total_sigma * sqrt w_u — the
    standard deviation assigned to each RV of layer [u]. *)

val variance_check : t -> total_sigma:float -> float
(** Sum of per-layer variances (= total_sigma^2; exposed for tests). *)
