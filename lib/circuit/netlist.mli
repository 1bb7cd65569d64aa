(** Combinational gate-level netlists.

    Node identifiers are dense integers: primary inputs come first
    (ids [0 .. num_inputs-1]), gates follow in construction order, which
    the {!Builder} guarantees to be topological (a gate may only use
    already-defined nodes as fan-ins).  This makes every well-formed
    netlist a DAG by construction — the property the paper's timing graph
    relies on. *)

type gate = {
  id : int;
  kind : Ssta_tech.Gate.kind;
  fanins : int array;  (** node ids, length = fan-in of [kind] *)
}

type cache
(** Memoized derived structures (fan-out lists and counts), filled in
    lazily on first use.  Opaque to clients. *)

type t = private {
  name : string;
  num_inputs : int;
  gates : gate array;  (** gate with id [num_inputs + i] at index [i] *)
  outputs : int array;  (** node ids designated as primary outputs *)
  node_names : string array;  (** one name per node id *)
  index : Name_index.t;
      (** name to node id: the table the {!Builder} filled while the
          netlist was built, kept instead of rebuilt; slots whose value
          is [-1] are names a parser saw that name no node.  Read-only:
          use {!node_id}/{!find_node}. *)
  cache : cache;
}

val num_nodes : t -> int
(** Inputs plus gates. *)

val num_gates : t -> int
val is_input : t -> int -> bool

val gate_of : t -> int -> gate
(** The gate driving node [id].  Raises [Invalid_argument] for primary
    inputs. *)

val node_name : t -> int -> string

val node_id : t -> string -> int
(** The node a name denotes, or [-1]: one hash through [index],
    no allocation. *)

val find_node : t -> string -> int option
(** {!node_id} as an option. *)

val fanouts : t -> int array array
(** [fanouts c].(id) lists the gate node-ids that consume node [id];
    O(nodes + edges) on the first call, then cached — repeated calls
    return the same arrays, which callers must treat as read-only. *)

val fanout_counts : t -> int array
(** Number of consumers per node (primary outputs add one sink each).
    Cached like {!fanouts}; treat the result as read-only. *)

val with_gate_kind : t -> int -> Ssta_tech.Gate.kind -> t
(** [with_gate_kind c id kind] is [c] with the gate at node [id] swapped
    to [kind] — a {e fresh} netlist value with an empty memo: the
    {!fanouts}/{!fanout_counts} memo is keyed on the netlist value, so
    an edit must never mutate in place (the stale memo would survive).
    The original is untouched and its memo stays valid.  Raises
    [Invalid_argument] for a primary input, a bad id, or a kind whose
    arity differs from the existing gate's fan-in count. *)

val levels : t -> int array
(** Topological level per node: inputs are 0, a gate is
    1 + max level of its fan-ins. *)

val depth : t -> int
(** Maximum level over all nodes (logic depth). *)

val gate_kind_histogram : t -> (Ssta_tech.Gate.kind * int) list
(** Count of gates per kind, sorted by decreasing count. *)

val simulate : t -> bool array -> bool array
(** [simulate c inputs] evaluates the circuit on an input assignment
    (length [num_inputs]) and returns the value of every node.  Used by
    tests to check that structural transformations preserve logic. *)

val output_values : t -> bool array -> bool array
(** Primary-output values for an input assignment. *)

val pp_stats : Format.formatter -> t -> unit

(** Incremental construction; the only way to create a netlist. *)
module Builder : sig
  type netlist := t
  type t

  val create : string -> t
  (** [create name] starts an empty netlist. *)

  val add_input : t -> string -> int
  (** Declare a primary input; returns its node id.  Raises
      [Invalid_argument] on duplicate names or if gates were already
      added. *)

  val add_gate : ?name:string -> t -> Ssta_tech.Gate.kind -> int list -> int
  (** [add_gate b kind fanins] appends a gate and returns its node id.
      Fan-ins must be existing node ids, and their count must match the
      gate's arity.  A default name [n<id>] is used when [name] is
      omitted. *)

  (** {2 Symbols}

      A parser resolves names straight through the builder's name index
      (which becomes the netlist's [index]): every name it reads
      is interned once as a {e symbol} — a dense slot, sliced from the
      text only the first time it is seen — and a symbol becomes a node
      when it is declared as an input or defines a gate. *)

  val symbol : t -> string -> int -> int -> int
  (** [symbol b text off len] is the symbol of the name
      [String.sub text off len], interned (naming no node yet) on first
      sight. *)

  val symbol_name : t -> int -> string

  val symbol_node : t -> int -> int
  (** The node id a symbol names, or [-1] while it names none. *)

  val num_symbols : t -> int
  (** Symbols so far; they are numbered [0 .. num_symbols b - 1]. *)

  val add_input_symbol : t -> int -> int
  (** {!add_input} under a symbol's name. *)

  val add_gate_symbol : t -> int -> Ssta_tech.Gate.kind -> int array -> int
  (** {!add_gate} under a symbol's name; the fan-in array becomes the
      gate's own. *)

  val mark_output : t -> int -> unit
  (** Declare an existing node to be a primary output (idempotent). *)

  val finish : t -> netlist
  (** Validate and freeze.  Raises [Invalid_argument] if the netlist has
      no inputs, no gates, or no outputs.  The netlist takes over the
      builder's name index, so the builder must not be used again. *)
end
