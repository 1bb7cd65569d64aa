(** Reader/writer for the ISCAS85 [.bench] netlist format.

    The format used to distribute the benchmark circuits the paper
    evaluates on:

    {v
      # comment
      INPUT(G1)
      OUTPUT(G17)
      G10 = NAND(G1, G3)
      G11 = NOT(G5)
    v}

    Signals may be referenced before their defining line; the parser
    resolves definitions in dependency order (the file must still be
    combinational — cyclic definitions are an error).

    The reader walks the text with a {!Scan} cursor and interns every
    name it reads as a {!Netlist.Builder.symbol}, so each occurrence is
    hashed once into the index the finished netlist keeps, and
    resolution works on symbols. *)

exception Parse_error of Ssta_runtime.Ssta_error.position * string
(** Position (line and, where recoverable, column) plus message.
    Resolution-phase errors (cycles, undefined signals) carry line 0. *)

val parse_string : ?name:string -> string -> Netlist.t
(** Parse the contents of a .bench file.  [name] overrides the circuit
    name (default ["bench"]).  Raises {!Parse_error}. *)

val parse_file : string -> Netlist.t
(** Parse from disk; circuit name is the file's basename without
    extension.  Raises {!Parse_error} (with the file in its position)
    or [Sys_error]. *)

val parse_string_res :
  ?name:string -> string -> (Netlist.t, Ssta_runtime.Ssta_error.t) result
(** Typed-error entry point: never raises. *)

val parse_file_res : string -> (Netlist.t, Ssta_runtime.Ssta_error.t) result
(** Typed-error entry point: never raises (I/O failures included). *)

val to_string : Netlist.t -> string
(** Render a netlist back to .bench text (a parse/print round trip
    preserves structure and names). *)

val write_file : string -> Netlist.t -> unit
