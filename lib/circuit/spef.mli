(** Minimal SPEF-style parasitics exchange.

    Alongside DEF coordinates, a real flow feeds the timer extracted net
    capacitances.  This module reads and writes the lumped-capacitance
    subset of SPEF (IEEE 1481): a header and one [*D_NET <net> <cap>]
    record per net, capacitance in picofarads.

    {v
      *SPEF "IEEE 1481-1998"
      *DESIGN c432
      *C_UNIT 1 PF
      *D_NET n10 0.0023
      *D_NET n11 0.0017
    v}

    Net names refer to driver nodes of the netlist; {!apply} turns the
    annotation into a per-node wire-capacitance vector for
    {!Ssta_timing.Graph} construction. *)

exception Parse_error of Ssta_runtime.Ssta_error.position * string

type t = {
  design : string;
  caps : (string * float) list;  (** net name, capacitance in farads *)
}

val parse_string : string -> t
(** Read through a {!Scan} cursor; raises {!Parse_error}. *)

val parse_file : string -> t

val parse_string_res : string -> (t, Ssta_runtime.Ssta_error.t) result
val parse_file_res : string -> (t, Ssta_runtime.Ssta_error.t) result
(** Typed-error entry points: never raise.  NaN, infinite and negative
    capacitances are parse errors with line/column positions. *)

val to_string : t -> string
val write_file : string -> t -> unit

val of_placement :
  ?wire:Ssta_tech.Wire.params -> design:string -> Netlist.t -> Placement.t
  -> t
(** Pseudo-extraction: estimate every net's capacitance from the
    placement with the half-perimeter model — the writer's counterpart
    of {!Ssta_timing.Graph.of_placed}. *)

val apply : t -> Netlist.t -> float array
(** Per-node wire capacitances (farads), 0 for unannotated nets; each
    net is looked up in the netlist's name index (the last record of a
    net wins).  Raises [Invalid_argument] if fewer than half the gates
    are annotated (wrong netlist/SPEF pairing). *)

val apply_res :
  t -> Netlist.t -> (float array, Ssta_runtime.Ssta_error.t) result
(** Typed-error variant of {!apply}: never raises. *)
