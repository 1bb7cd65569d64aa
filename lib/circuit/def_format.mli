(** Minimal Design Exchange Format (DEF) subset.

    The paper's program "reads the circuit-description as a DEF file" and
    extracts the (x, y) coordinates of the gates for the spatial
    correlation model.  This module writes and reads the subset needed
    for that: DESIGN/UNITS/DIEAREA and a COMPONENTS section with PLACED
    locations.

    {v
      DESIGN c432 ;
      UNITS DISTANCE MICRONS 1000 ;
      DIEAREA ( 0 0 ) ( 120000 120000 ) ;
      COMPONENTS 160 ;
        - G10 NAND2 + PLACED ( 20000 10000 ) N ;
        ...
      END COMPONENTS
      END DESIGN
    v}

    Coordinates are stored in DEF database units ([units] per micron). *)

exception Parse_error of Ssta_runtime.Ssta_error.position * string

type component = { comp_name : string; master : string; x : float; y : float }
(** One placed component; [x], [y] in microns. *)

type t = {
  design : string;
  units_per_micron : int;
  die_width : float;  (** microns *)
  die_height : float;  (** microns *)
  components : component list;
}

val parse_string : string -> t
(** Read through a {!Scan} cursor; raises {!Parse_error}. *)

val parse_file : string -> t

val parse_string_res : string -> (t, Ssta_runtime.Ssta_error.t) result
val parse_file_res : string -> (t, Ssta_runtime.Ssta_error.t) result
(** Typed-error entry points: never raise. *)

val to_string : t -> string
val write_file : string -> t -> unit

val of_placement : design:string -> Netlist.t -> Placement.t -> t
(** Export a placed netlist: one component per gate (primary inputs are
    pads, not components), master names like ["NAND2"], ["INV"]. *)

val placement_of : t -> Netlist.t -> Placement.t
(** Re-import coordinates onto a netlist by looking each component's
    name up in the netlist's name index (the last component of a name
    wins).  Gates without a component fall back to (0, 0); raises
    [Invalid_argument] if fewer than half the gates are matched (wrong
    netlist/DEF pairing). *)

val placement_of_res :
  t -> Netlist.t -> (Placement.t, Ssta_runtime.Ssta_error.t) result
(** Typed-error variant of {!placement_of}: never raises. *)
