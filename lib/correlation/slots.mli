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

val combine_into :
  Budget.t -> float array -> wa:float -> float array -> wb:float ->
  float array -> float
(** [combine_into budget c ~wa a ~wb b] writes [wa * a + wb * b] into
    every slot of [c], reading the operands as zero-padded to
    [Array.length c], and returns the result's variance, summed in slot
    order like {!dot} [c c] — in one pass.  Each slot is read before it
    is written, so [c] may be [a] or [b] itself.  [Array.length c] is
    checked as in {!dot}. *)

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
