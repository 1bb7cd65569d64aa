(** Interval abstract domain over the reals.

    The carrier is the flat lattice of closed intervals [[lo, hi]] plus
    [Bottom] (the empty set).  Two join structures are exposed because
    the verifier uses the same carrier under two different orders:

    - the {e containment} order ([subset] / [hull]) — the classic
      interval domain of abstract interpretation, used wherever an
      interval stands for "the set of values this quantity can take";
      and
    - the {e max-plus} order ([sup]) — componentwise [max], used by the
      arrival-time analysis where joining two path prefixes at a node
      takes the worst case of each bound independently ([arrival = max]
      over fan-ins, then [+] the gate delay).

    Both are join-semilattices with [Bottom] as the least element. *)

type t = Bottom | Range of { lo : float; hi : float }

val bottom : t
val top : t
(** [[-inf, +inf]]. *)

val make : lo:float -> hi:float -> t
(** Raises [Invalid_argument] when [hi < lo] or either bound is NaN. *)

val of_pair : float * float -> t
val singleton : float -> t
val zero : t
(** [singleton 0.0] — the arrival time of a primary input. *)

val is_bottom : t -> bool
val equal : t -> t -> bool

val range : t -> (float * float) option
(** [None] for [Bottom]. *)

val hull : t -> t -> t
(** Least interval containing both — the containment-order join. *)

val sup : t -> t -> t
(** Componentwise max — the max-plus join.  [Bottom] is the identity. *)

val add : t -> t -> t
(** Interval sum; [Bottom] is absorbing. *)

val contains : ?slack:float -> t -> float -> bool
(** Membership, with the interval widened by [slack] (default 0) on both
    sides.  [Bottom] contains nothing. *)

val subset : ?slack:float -> t -> of_:t -> bool
(** [subset a ~of_:b]: is [a] contained in [b] widened by [slack]?
    [Bottom] is a subset of everything. *)

val width : t -> float
(** [hi - lo]; 0 for [Bottom]. *)

val magnitude : t -> float
(** [max |lo| |hi|]; 0 for [Bottom] — the scale used for relative
    tolerances. *)

val pp : Format.formatter -> t -> unit
