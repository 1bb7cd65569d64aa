(** The byte-level cursor the [.bench], DEF and SPEF readers share.

    A cursor walks a text line by line (lines end at ['\n'], numbered
    from 1 exactly as [String.split_on_char '\n'] would number them)
    and, within a line, token by token (DEF/SPEF tokens are separated
    by spaces and tabs).  Everything is byte offsets into the one
    text: a token is sliced into a string only when a reader keeps it,
    and numbers are read in place.

    Numbers are read exactly: a plain decimal whose mantissa is below
    2{^53} and whose power of ten is at most 22 in magnitude is one
    correctly rounded IEEE operation, so it gives the same bits as
    [float_of_string]; any other spelling (hex, underscores, [nan],
    [inf], long mantissas, stray bytes) is handed to
    [float_of_string]/[int_of_string] on the sliced token, so the
    accepted language is exactly theirs. *)

type t = private {
  text : string;
  mutable line : int;  (** number of the current line (1-based) *)
  mutable line_start : int;  (** offset of its first byte *)
  mutable line_end : int;  (** offset of its ['\n'], or the text length *)
  mutable pos : int;  (** the token cursor within the line *)
  mutable tok_start : int;  (** the current token, [tok_start, tok_end) *)
  mutable tok_end : int;
}

val of_string : string -> t
(** A cursor before the first line. *)

val next_line : t -> bool
(** Move to the next line (the token cursor to its start); [false]
    after the last one. *)

val seek : t -> int -> unit
(** [seek t pos] puts the token cursor back (or forward) to offset [pos]
    of the current line, e.g. [pos] = a saved [t.pos]. *)

val line_text : t -> string
(** The raw current line, for error positions. *)

val next_token : t -> bool
(** Move to the line's next blank-separated token; [false] at the end
    of the line. *)

val token_is : t -> string -> bool
(** Is the current token exactly this string? *)

val token : t -> string
(** The current token, sliced. *)

val token_position : t -> Ssta_runtime.Ssta_error.position
(** The current token's position: the line, and the column
    [Ssta_error.position_of_token] finds for it in the raw line. *)

exception Not_a_number

val float_token : t -> float
(** The current token read as [float_of_string] reads it; raises
    {!Not_a_number} where [float_of_string] fails. *)

val int_token : t -> int
(** The current token read as [int_of_string] reads it; raises
    {!Not_a_number} where [int_of_string] fails. *)

val float_of_sub : string -> int -> int -> float
(** [float_of_sub s a b] reads [String.sub s a (b - a)] as
    {!float_token} does. *)
