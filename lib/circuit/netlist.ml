module Gate = Ssta_tech.Gate

type gate = { id : int; kind : Gate.kind; fanins : int array }

type cache = {
  mutable c_fanouts : int array array option;
  mutable c_fanout_counts : int array option;
}

type t = {
  name : string;
  num_inputs : int;
  gates : gate array;
  outputs : int array;
  node_names : string array;
  cache : cache;
}

let num_nodes c = c.num_inputs + Array.length c.gates
let num_gates c = Array.length c.gates
let is_input c id = id >= 0 && id < c.num_inputs

let gate_of c id =
  if is_input c id then invalid_arg "Netlist.gate_of: node is a primary input";
  if id < 0 || id >= num_nodes c then invalid_arg "Netlist.gate_of: bad id";
  c.gates.(id - c.num_inputs)

let node_name c id =
  if id < 0 || id >= num_nodes c then invalid_arg "Netlist.node_name: bad id";
  c.node_names.(id)

let find_node c name =
  let n = num_nodes c in
  let rec search i =
    if i >= n then None
    else if String.equal c.node_names.(i) name then Some i
    else search (i + 1)
  in
  search 0

let fanout_counts c =
  match c.cache.c_fanout_counts with
  | Some counts -> counts
  | None ->
      let counts = Array.make (num_nodes c) 0 in
      Array.iter
        (fun g -> Array.iter (fun f -> counts.(f) <- counts.(f) + 1) g.fanins)
        c.gates;
      Array.iter (fun o -> counts.(o) <- counts.(o) + 1) c.outputs;
      c.cache.c_fanout_counts <- Some counts;
      counts

let fanouts c =
  match c.cache.c_fanouts with
  | Some result -> result
  | None ->
      let counts = Array.make (num_nodes c) 0 in
      Array.iter
        (fun g -> Array.iter (fun f -> counts.(f) <- counts.(f) + 1) g.fanins)
        c.gates;
      let result = Array.map (fun n -> Array.make n 0) counts in
      let fill = Array.make (num_nodes c) 0 in
      Array.iter
        (fun g ->
          Array.iter
            (fun f ->
              result.(f).(fill.(f)) <- g.id;
              fill.(f) <- fill.(f) + 1)
            g.fanins)
        c.gates;
      c.cache.c_fanouts <- Some result;
      result

(* Structural edits return a *fresh* netlist with a fresh memo record:
   the fanout/fanout-count memo is keyed on the netlist value, so
   mutating a netlist in place would silently serve stale derived
   structures to every later caller.  The gates array is copied; gate
   records and fan-in arrays are shared (they are never mutated). *)
let with_gate_kind c id kind =
  if is_input c id then
    invalid_arg "Netlist.with_gate_kind: node is a primary input";
  if id < 0 || id >= num_nodes c then
    invalid_arg "Netlist.with_gate_kind: bad id";
  let gi = id - c.num_inputs in
  let old = c.gates.(gi) in
  if Gate.fan_in kind <> Array.length old.fanins then
    invalid_arg
      (Printf.sprintf
         "Netlist.with_gate_kind: %s expects %d fan-ins, gate %s has %d"
         (Gate.name kind) (Gate.fan_in kind) c.node_names.(id)
         (Array.length old.fanins));
  let gates = Array.copy c.gates in
  gates.(gi) <- { old with kind };
  { c with gates; cache = { c_fanouts = None; c_fanout_counts = None } }

let levels c =
  let lv = Array.make (num_nodes c) 0 in
  Array.iter
    (fun g ->
      let deepest =
        Array.fold_left (fun acc f -> Int.max acc lv.(f)) 0 g.fanins
      in
      lv.(g.id) <- deepest + 1)
    c.gates;
  lv

let depth c = Array.fold_left Int.max 0 (levels c)

let gate_kind_histogram c =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      let n = try Hashtbl.find table g.kind with Not_found -> 0 in
      Hashtbl.replace table g.kind (n + 1))
    c.gates;
  Hashtbl.fold (fun kind n acc -> (kind, n) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let simulate c inputs =
  if Array.length inputs <> c.num_inputs then
    invalid_arg "Netlist.simulate: input width mismatch";
  let values = Array.make (num_nodes c) false in
  Array.blit inputs 0 values 0 c.num_inputs;
  Array.iter
    (fun g ->
      let ins = Array.to_list (Array.map (fun f -> values.(f)) g.fanins) in
      values.(g.id) <- Gate.eval g.kind ins)
    c.gates;
  values

let output_values c inputs =
  let values = simulate c inputs in
  Array.map (fun o -> values.(o)) c.outputs

let pp_stats fmt c =
  Format.fprintf fmt "%s: %d inputs, %d gates, %d outputs, depth %d" c.name
    c.num_inputs (num_gates c) (Array.length c.outputs) (depth c)

module Builder = struct
  type netlist = t

  let _ = fun (x : netlist) -> (x : t)

  type t = {
    bname : string;
    mutable inputs : string list;  (* reversed *)
    mutable bgates : gate list;  (* reversed *)
    mutable gate_names : string list;  (* reversed *)
    mutable next_id : int;
    mutable num_in : int;
    mutable outs : int list;  (* reversed, deduped *)
    marked : (int, unit) Hashtbl.t;  (* the node ids in [outs] *)
    mutable sealed_inputs : bool;
    seen_names : (string, unit) Hashtbl.t;
  }

  let create bname =
    { bname; inputs = []; bgates = []; gate_names = []; next_id = 0;
      num_in = 0; outs = []; marked = Hashtbl.create 64;
      sealed_inputs = false; seen_names = Hashtbl.create 64 }

  let register_name b name =
    if Hashtbl.mem b.seen_names name then
      invalid_arg ("Netlist.Builder: duplicate node name " ^ name);
    Hashtbl.add b.seen_names name ()

  let add_input b name =
    if b.sealed_inputs then
      invalid_arg "Netlist.Builder.add_input: gates already added";
    register_name b name;
    let id = b.next_id in
    b.inputs <- name :: b.inputs;
    b.next_id <- id + 1;
    b.num_in <- b.num_in + 1;
    id

  let add_gate ?name b kind fanins =
    b.sealed_inputs <- true;
    let id = b.next_id in
    let name = match name with Some n -> n | None -> "n" ^ string_of_int id in
    register_name b name;
    let arity = Gate.fan_in kind in
    if List.length fanins <> arity then
      invalid_arg
        (Printf.sprintf "Netlist.Builder.add_gate: %s expects %d fan-ins"
           (Gate.name kind) arity);
    List.iter
      (fun f ->
        if f < 0 || f >= id then
          invalid_arg "Netlist.Builder.add_gate: fan-in must be a prior node")
      fanins;
    b.bgates <- { id; kind; fanins = Array.of_list fanins } :: b.bgates;
    b.gate_names <- name :: b.gate_names;
    b.next_id <- id + 1;
    id

  let mark_output b id =
    if id < 0 || id >= b.next_id then
      invalid_arg "Netlist.Builder.mark_output: unknown node";
    if not (Hashtbl.mem b.marked id) then begin
      Hashtbl.add b.marked id ();
      b.outs <- id :: b.outs
    end

  let finish b =
    if b.num_in = 0 then invalid_arg "Netlist.Builder.finish: no inputs";
    if b.bgates = [] then invalid_arg "Netlist.Builder.finish: no gates";
    if b.outs = [] then invalid_arg "Netlist.Builder.finish: no outputs";
    let node_names =
      Array.of_list (List.rev b.inputs @ List.rev b.gate_names)
    in
    { name = b.bname;
      num_inputs = b.num_in;
      gates = Array.of_list (List.rev b.bgates);
      outputs = Array.of_list (List.rev b.outs);
      node_names;
      cache = { c_fanouts = None; c_fanout_counts = None } }
end
