(** Minimal strict JSON: the one printer behind every JSON document the
    program emits, and the parser of the analysis server's wire
    protocol.

    The repository deliberately carries no external JSON dependency.
    Path and block run reports, the criticality ranking, lint and check
    reports (JSON and SARIF) and every server response are built as
    {!t} values and rendered by {!to_string} or {!to_channel}; no other
    code escapes a JSON string or formats a JSON number.  The large
    arrays of a report (ranked paths, their node ids, endpoints, PDF
    densities) are {!Seq} values, produced while they print, so a
    report is never held whole as a tree.

    The parser is strict — it rejects exactly the malformed inputs the
    protocol fault corpus feeds it — and every rejection is a typed
    {!Ssta_runtime.Ssta_error.Parse} error with a 1-based column, never an
    exception.

    The printer is deterministic: object fields print in the order the
    caller supplied, finite numbers print in round-trip ["%.17g"] form,
    non-finite numbers print as [null], and nothing about the process or
    the clock leaks in, so identical values render byte-identical
    documents.

    Numbers are written in OCaml, straight into the output, with the
    exact bytes of C's ["%.17g"]:
    - an exact integer of magnitude below 2{^53} (not [-0]) by a digit
      loop;
    - a finite [x] with [1e-44 <= |x| < 1e17] by computing its 17
      significant digits exactly ([m * 5{^s} * 2{^q}] in 30-bit limbs,
      rounded half-even like glibc), then the ["%g"] layout: fixed
      notation for decimal exponents in [[-4, 16]], [d.ddde-XX] below;
    - anything else finite ([-0], subnormals, [|x| < 1e-44],
      [|x| >= 1e17]) by the C primitive behind [Printf.sprintf "%.17g"],
      unchanged.
    The writers share no mutable state, so documents may print
    concurrently from several threads or domains. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** a pre-rendered JSON document spliced verbatim into the
          output; never produced by {!parse} *)
  | Seq of t Seq.t
      (** an array whose elements are produced while it prints: the
          same bytes as [List] of the same elements.  Each rendering
          traverses the sequence once, so a sequence over an array or
          list (which replays) may print any number of times.  Never
          produced by {!parse}; the accessors treat it as a non-object. *)

val int : int -> t
(** [Number] of an integer. *)

val array : ('a -> t) -> 'a array -> t
(** [array f a] is the {!Seq} of [f] over [a], applied while printing. *)

val parse : string -> (t, Ssta_error.t) result
(** Parse one complete JSON document.  Strictness guarantees, each a
    typed parse error: the input must be valid UTF-8; exactly one
    top-level value (trailing garbage rejected); object keys must be
    unique; strings reject raw control characters and malformed escape
    sequences (including lone UTF-16 surrogates); nesting is capped at
    64 levels; numbers follow the JSON grammar (no leading [+], no bare
    [.5]). *)

val to_string : t -> string
(** Render on one line, no trailing newline.  A number prints exactly as
    [Printf.sprintf "%.17g"] would (so every finite float round-trips
    through {!parse}); non-finite numbers render as [null].  Strings
    escape the double quote, backslash, newline, carriage return and
    tab by name and other control characters as six-character unicode
    escapes. *)

val to_channel : out_channel -> t -> unit
(** The bytes of {!to_string}, written to the channel as they are
    produced: the document is never whole in memory, only a buffer of
    about 64 KB, emptied between array elements.  No trailing newline,
    no flush. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val keys : t -> string list
(** Object field names in document order; [[]] for non-objects. *)

val to_int : t -> int option
(** [Number] holding an exact integer (rejects 1.5, accepts 3.0). *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_str : t -> string option
