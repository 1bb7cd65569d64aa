(** A string-keyed table with dense slots, the netlist's name index.

    Every distinct name gets one slot, numbered densely from 0 in order
    of first sight, holding an [int] value ([-1] until set).  A key can
    be interned as a substring of a larger text — a byte range of the
    file being parsed — so a parser hashes each name occurrence once
    and slices a key only the first time it is seen.

    {!Netlist} owns one of these per netlist (name to node id); the
    parsers and the lint rules resolve names through it instead of
    building tables of their own. *)

type t

val create : int -> t
(** [create n] is an empty table sized for about [n] keys (it grows as
    needed). *)

val length : t -> int
(** Number of slots (distinct keys) so far. *)

val find : t -> string -> int
(** The slot of a key, or [-1] when absent. *)

val intern_sub : t -> string -> int -> int -> int
(** [intern_sub t text off len] is the slot of the key
    [String.sub text off len], added with value [-1] when absent; the
    key is sliced only then. *)

val intern : t -> string -> int
(** [intern t key] is [intern_sub t key 0 (String.length key)], keeping
    [key] itself (no copy) when it is new. *)

val trim : t -> unit
(** Release the spare slot capacity (the table still grows if more
    keys come). *)

val key : t -> int -> string
val value : t -> int -> int
val set_value : t -> int -> int -> unit
