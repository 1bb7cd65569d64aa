(** Combinators over discretized PDFs of independent random variables.

    These implement the numeric machinery of the paper's Section 3.2: the
    intra/inter delay PDFs are built by convolving (sums) and multiplying
    (products) independent discretized distributions and by pushing grids
    of input RVs through the nonlinear Elmore delay function.  Mass is
    deposited with linear splitting between the two nearest destination
    cells, which keeps the first moment of each deposit exact.

    Every combinator reports its result through the {!Pdf.trace_emit}
    hook (when installed) together with a shadow support interval derived
    by interval arithmetic on its operands, the pre-normalization mass it
    accumulated, and the mass clamped at the grid boundary — the raw
    material for the PDF sanitizer. *)

val floor_int : float -> int
(** [int_of_float (Float.floor u)] in two instructions and a compare, no
    libm call: bit-identical for every finite [|u| < 2^62] and for NaN.
    The deposit loops (here and in the inter kernel) locate a mass's
    lower cell with it. *)

type accumulator
(** A mass-accumulation grid onto which weighted samples are deposited
    before being normalized into a {!Pdf.t}. *)

val accumulator : lo:float -> hi:float -> n:int -> accumulator
(** Fresh accumulator with [n] cells spanning [lo, hi).  Mass deposited
    outside the range is clamped to the boundary cells. *)

val deposit : accumulator -> x:float -> mass:float -> unit
(** Add probability mass at position [x], split linearly between the two
    neighbouring cell centers. *)

val unsafe_deposit : accumulator -> x:float -> mass:float -> unit
(** Bit-identical to {!deposit} (same splitting, clamping and mass
    accounting) but clamps the two destination indices before the cell
    updates so the array accesses themselves are unchecked.  Intended for
    hot inner loops such as the inter-kernel triple loop. *)

val clamped_mass : accumulator -> float
(** Total mass deposited at positions strictly outside the grid (and
    therefore clamped into a boundary cell).  Nonzero values indicate a
    range-scan failure; the PDF sanitizer reports them. *)

val to_pdf : accumulator -> Pdf.t
(** Normalize the accumulated mass into a PDF.  Raises [Invalid_argument]
    if nothing was deposited. *)

val binop_into : ?n:int -> (float -> float -> float) -> Pdf.t -> Pdf.t -> accumulator
(** Reference implementation of the binary push-forward: range-scan,
    then one {!deposit} per cell pair.  {!binop}, {!sum} and {!product}
    are inlined zero-allocation rewrites of [to_pdf (binop_into f px py)];
    the qcheck suite certifies bit-identity against this path. *)

val binop :
  ?n:int ->
  ?arena:Arena.t ->
  (float -> float -> float) ->
  Pdf.t ->
  Pdf.t ->
  Pdf.t
(** [binop f px py] is the distribution of [f X Y] for independent X, Y.
    Cost O(|px| * |py|).  The output grid has [n] cells (default:
    max of the input sizes) spanning the observed range of [f].

    When [arena] is given, the O(n) accumulation grid is borrowed from
    it instead of freshly allocated (and released before returning);
    results are bit-identical either way. *)

val sum : ?n:int -> ?arena:Arena.t -> Pdf.t -> Pdf.t -> Pdf.t
(** Distribution of X + Y (independent): discrete convolution.  This is
    the paper's O(QUALITY^2) convolution of inter- and intra-PDFs, and
    the hottest grid operation of the methodology — it runs as a
    monomorphic zero-allocation loop (one output array per call, plus
    the arena-recyclable accumulation grid) that is bit-identical to
    [Combine.to_pdf] over [deposit] calls. *)

val sum_list : ?n:int -> ?arena:Arena.t -> Pdf.t list -> Pdf.t
(** Convolution of a non-empty list of independent summands. *)

val product : ?n:int -> ?arena:Arena.t -> Pdf.t -> Pdf.t -> Pdf.t
(** Distribution of X * Y (independent). *)

val map : ?n:int -> (float -> float) -> Pdf.t -> Pdf.t
(** Push-forward of a single PDF through an arbitrary function. *)

val push2 :
  ?n:int ->
  ?arena:Arena.t ->
  (float -> float -> float) ->
  Pdf.t ->
  Pdf.t ->
  Pdf.t
(** Alias of {!binop}, named for symmetry with {!push3}. *)

val push3 :
  ?n:int ->
  (float -> float -> float -> float) ->
  Pdf.t ->
  Pdf.t ->
  Pdf.t ->
  Pdf.t
(** [push3 f px py pz]: distribution of [f X Y Z] for independent inputs.
    Cost O(|px| * |py| * |pz|) — this is the 3-dimensional enumeration used
    for the voltage part of the inter-delay PDF. *)

val mixture : (float * Pdf.t) list -> Pdf.t
(** [mixture weighted] is the weighted mixture of component PDFs; weights
    must be positive and are renormalized.  The grid is the union support
    at the finest component resolution. *)
