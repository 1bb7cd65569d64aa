module Netlist = Ssta_circuit.Netlist
module Gate = Ssta_tech.Gate
module D = Diagnostic

let rules =
  [ ("net-dangling",
     "node output drives nothing and is not a primary output");
    ("net-unreachable",
     "gate has consumers but no directed path to any primary output");
    ("net-duplicate-gate",
     "two gates of the same kind share the same fan-in multiset");
    ("net-constant-gate",
     "gate output is provably constant (all fan-ins are the same node)");
    ("net-fanout-outlier", "node drives an unusually large fan-out");
    ("net-depth-outlier",
     "logic depth out of proportion with the gate count") ]

let node_loc c id = D.Node { id; name = Netlist.node_name c id }

let kind_code = function
  | Gate.Inv -> 0
  | Gate.Buf -> 1
  | Gate.Nand _ -> 2
  | Gate.Nor _ -> 3
  | Gate.And _ -> 4
  | Gate.Or _ -> 5
  | Gate.Xor2 -> 6
  | Gate.Xnor2 -> 7

let gate_key (g : Netlist.gate) =
  let f = g.Netlist.fanins and code = kind_code g.Netlist.kind in
  match Array.length f with
  | 1 -> [| code; f.(0) |]
  | 2 -> [| code; Int.min f.(0) f.(1); Int.max f.(0) f.(1) |]
  | n ->
      let sorted = Array.copy f in
      Array.sort Int.compare sorted;
      let key = Array.make (n + 1) code in
      Array.blit sorted 0 key 1 n;
      key

module Gate_key = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) = a = b

  let hash (a : t) =
    Array.fold_left (fun h x -> (h * 1000003) lxor x) (Array.length a) a
    land max_int
end)

let check ?(fanout_limit = 64) c =
  let n = Netlist.num_nodes c in
  let counts = Netlist.fanout_counts c in
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  (* net-dangling: primary outputs contribute one sink each to [counts],
     so a zero count implies the node is not an output either. *)
  for id = 0 to n - 1 do
    if counts.(id) = 0 then
      if Netlist.is_input c id then
        emit
          (D.make ~rule:"net-dangling" ~severity:D.Warning
             ~location:(node_loc c id)
             ~hint:"remove the input or connect it to a gate"
             "primary input is never used")
      else
        emit
          (D.make ~rule:"net-dangling" ~severity:D.Error
             ~location:(node_loc c id)
             ~hint:"mark the gate as a primary output or remove it"
             "gate output drives nothing and is not a primary output")
  done;
  (* net-unreachable: reverse DFS from the primary outputs over fan-ins.
     Dangling gates already got their own error above; this rule covers
     live-looking gates whose every forward path ends in a dangling
     sink. *)
  let reachable = Array.make n false in
  let rec visit id =
    if not reachable.(id) then begin
      reachable.(id) <- true;
      if not (Netlist.is_input c id) then
        Array.iter visit (Netlist.gate_of c id).Netlist.fanins
    end
  in
  Array.iter visit c.Netlist.outputs;
  Array.iter
    (fun (g : Netlist.gate) ->
      if (not reachable.(g.Netlist.id)) && counts.(g.Netlist.id) > 0 then
        emit
          (D.make ~rule:"net-unreachable" ~severity:D.Error
             ~location:(node_loc c g.Netlist.id)
             ~hint:"the gate's fan-out cone never reaches a primary output"
             "gate is unreachable from every primary output"))
    c.Netlist.gates;
  (* net-duplicate-gate: same kind, same fan-in multiset, keyed on ints:
     the kind's code followed by the sorted fan-ins (the arity is the
     key's length). *)
  let seen = Gate_key.create (Netlist.num_gates c) in
  Array.iter
    (fun (g : Netlist.gate) ->
      let key = gate_key g in
      match Gate_key.find_opt seen key with
      | None -> Gate_key.add seen key g.Netlist.id
      | Some first ->
          emit
            (D.make ~rule:"net-duplicate-gate" ~severity:D.Info
               ~location:(node_loc c g.Netlist.id)
               ~hint:"merge the duplicates unless they split load on purpose"
               (Printf.sprintf
                  "structurally identical to gate '%s' (id %d)"
                  (Netlist.node_name c first) first)))
    c.Netlist.gates;
  (* net-constant-gate: XOR/XNOR with every fan-in the same node. *)
  Array.iter
    (fun (g : Netlist.gate) ->
      (* a thunk: only XOR/XNOR gates pay for the check *)
      let all_same () =
        Array.length g.Netlist.fanins >= 2
        && Array.for_all (fun f -> f = g.Netlist.fanins.(0)) g.Netlist.fanins
      in
      match g.Netlist.kind with
      | Gate.Xor2 | Gate.Xnor2 when all_same () ->
          let value = if g.Netlist.kind = Gate.Xor2 then "0" else "1" in
          emit
            (D.make ~rule:"net-constant-gate" ~severity:D.Warning
               ~location:(node_loc c g.Netlist.id)
               ~hint:"replace the gate by the constant it computes"
               (Printf.sprintf
                  "all fan-ins are node %d; output is constant %s"
                  g.Netlist.fanins.(0) value))
      | _ -> ())
    c.Netlist.gates;
  (* net-fanout-outlier *)
  for id = 0 to n - 1 do
    if counts.(id) > fanout_limit then
      emit
        (D.make ~rule:"net-fanout-outlier" ~severity:D.Info
           ~location:(node_loc c id)
           ~hint:"consider buffering the net"
           (Printf.sprintf "fan-out %d exceeds the limit %d" counts.(id)
              fanout_limit))
  done;
  (* net-depth-outlier *)
  let gates = Netlist.num_gates c in
  let depth = Netlist.depth c in
  if gates >= 20 && depth > Int.max 30 (gates / 2) then
    emit
      (D.make ~rule:"net-depth-outlier" ~severity:D.Info ~location:D.Circuit
         ~hint:"chain-like topologies defeat spatial-correlation sharing"
         (Printf.sprintf "logic depth %d is extreme for %d gates" depth
            gates));
  List.rev !ds
