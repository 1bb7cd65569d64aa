(** The dense layout of Eq. (13) coefficients, shared by both engines.

    The shared-layer RVs form a fixed index space: one RV per
    (parameter, quad-tree layer, partition).  Layer [l] owns the
    [5 * 4^l] slots starting at [5 * layer_offset l], partition-major
    and RV-minor, so a coefficient vector over [quad_levels] layers has
    {!num_slots} entries (425 at the default 4).  The random layer is
    not part of the layout: its RVs are per-gate independent, so the
    variance it contributes needs no index space.

    A vector's variance under a budget is the sigma^2-weighted dot
    product of the vector with itself ({!dot}); the covariance of two
    vectors is their dot product. *)

type key = { rv : Ssta_tech.Params.rv; layer : int; partition : int }
(** One RV: parameter [rv] on layer [layer], in partition [partition]
    (row-major over the layer's [2^layer x 2^layer] grid; the gate id on
    the random layer). *)

val num_rvs : int
(** 5: the parameters of {!Ssta_tech.Params.all_rvs}. *)

val layer_offset : int -> int
(** [(4^layer - 1) / 3]: partitions on the layers below [layer]. *)

val num_slots : quad_levels:int -> int
(** Length of a full vector over [quad_levels] layers:
    [5 * layer_offset quad_levels]. *)

val slot : key -> int
(** Vector index of a shared-layer RV:
    [rv_index + 5 * (layer_offset layer + partition)].  Raises
    [Invalid_argument] unless [0 <= partition < 4^layer]. *)

val var : Budget.t -> layer:int -> int -> float
(** [var budget ~layer r] is sigma^2 of the RV of index [r] on layer
    [layer] under [budget]: a load from the budget's [rv_var] table,
    bit for bit the square of {!Budget.sigma_of_layer}.  Raises
    [Invalid_argument] outside the budget's layers or RVs. *)

val dot : Budget.t -> float array -> float array -> float
(** The sigma^2-weighted dot product of two vectors; the shorter one is
    read as zero-padded.  Summed in slot order, so the result is a
    fixed function of the slots' values.  The lengths are checked once
    — the shorter one must be whole partitions (a multiple of 5) on
    layers the budget has variances for, else [Invalid_argument] —
    and the loop then reads without bounds checks. *)

val sq_norm :
  Budget.t -> ?layer:int -> parts:int array -> float array -> float
(** [sq_norm budget ~parts coeffs] is [dot budget v v], or the part of
    it on one layer, for the vector [v] whose partition [parts.(i)]
    ([layer_offset layer + partition], strictly increasing) holds
    [coeffs.(5 * i) .. coeffs.(5 * i + 4)] and whose other slots are 0;
    a dense vector is every partition in order.  Summed with Neumaier
    compensation.  Its error is within one rounding of the
    exact sum plus O(n u^2), so it does not depend on which slots hold
    which terms except when the exact sum sits on a rounding boundary:
    two paths that are the same sum of RVs over mirrored partitions get
    bit-identical variances (and rank as exact ties), which the plain
    in-order {!dot} does not guarantee.  Zero slots and absent
    partitions are skipped: they would add +0.0, which changes no bit
    of the sum or its compensation, so the result is the dense chain's
    bit for bit. *)

(** {1 Supports}

    A coefficient vector built from gates' sensitivities is zero on
    every partition its gates do not sit in.  Its {e support} gives each
    layer one span of partitions ([layer_offset layer + partition]):
    the hull of the partitions that may hold a non-zero slot, with
    every slot outside it [+0.0].  The [_spans] kernels walk one span
    per layer and are bit for bit the dense kernels whenever every slot
    they skip is [+0.0] in the vectors they read (and in [c], for the
    blend): a skipped term adds [+0.0] or [-0.0] to a sum that is never
    [-0.0], which changes no bit, as long as every coefficient is
    finite. *)

type spans = int array
(** One span per layer: [s.(2l)] to [s.(2l + 1) - 1] are the partitions
    of layer [l] in the span ([s.(2l) = s.(2l + 1)] when it is empty);
    [Array.length s / 2] layers. *)

val empty_spans : layers:int -> spans
(** Empty spans over [layers] layers (each at its layer's start). *)

val union_spans : spans -> spans -> spans -> unit
(** [union_spans dst a b] sets each of [dst]'s layers to the hull of
    [a]'s and [b]'s spans there (a support with fewer layers is empty on
    the ones it lacks).  [dst] may be [a] or [b]. *)

val inter_spans : spans -> spans -> spans -> unit
(** [inter_spans dst a b]: the per-layer intersection, as
    {!union_spans}. *)

val widen_spans : spans -> int array -> unit
(** [widen_spans s parts] widens layer [l]'s span of [s] to hold
    partition [parts.(l)], for every [l < Array.length parts].  Raises
    [Invalid_argument] on a partition outside its layer. *)

val clear_outside : float array -> spans -> spans -> unit
(** [clear_outside c old nw] zeroes the slots of [c] on the partitions
    [old] covers and [nw] does not: what makes a reused vector, stale
    inside its old spans, +0.0 outside its new ones. *)

val spans_of_parts : layers:int -> int list -> spans
(** The spans over [layers] layers that hull a set of partitions (any
    order, repeats allowed).  Raises [Invalid_argument] on a partition
    outside the layers. *)

val dot_spans :
  Budget.t -> spans -> float array -> float array -> int array -> float
(** [dot_spans budget walk a b work] is {!dot}[ budget a b] summed over
    the partitions of [walk] only, in slot order, and adds their number
    to [work.(0)]: bit for bit {!dot} when every slot the walk skips is
    [+0.0] in [a] or in [b].  Raises [Invalid_argument] when a span
    leaves its layer or reaches past the shorter vector, or when the
    walk has more layers than the budget. *)

val blend_gate_spans :
  Budget.t -> spans -> float array -> wa:float -> float array -> wb:float ->
  float array -> gate:int array -> Ssta_tech.Params.t -> int array ->
  float array -> unit
(** [blend_gate_spans budget walk c ~wa a ~wb b ~gate d work out]
    writes [wa * a + wb * b] into the partitions of [walk] in [c]
    (shorter operands read as zero-padded; [c] may be [a] or [b]) and
    adds the five sensitivities [d] (in {!Ssta_tech.Params.rv_index}
    order) to partition [gate.(l)] of every layer [l < Array.length
    gate] that it walks, in the same pass.  It writes the variance of
    the blend before the add into [out.(0)] and that of the result into
    [out.(1)], each summed in slot order like {!dot}, and adds the
    partitions walked to [work.(0)].  With [wa, wb >= 0], and a walk
    that covers the gate's partitions and every partition where [a],
    [b] or [c] holds a slot other than [+0.0], [c] ends up bit for bit
    the dense blend written into every slot followed by adding [d] in
    place, [out.(0)] is {!dot} of the blend with itself and [out.(1)]
    is {!dot}[ c c].  The walk must lie inside [c]. *)
