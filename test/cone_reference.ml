(* The worklist form of [Impact.cone_of]: the dirty set by the same
   rules, then the forward and backward slices as the two
   boolean-reachability fixpoints of the test-side [Worklist] solver.
   The two linear passes of [Impact.cone_of] are checked against it. *)

module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Layers = Ssta_correlation.Layers
module Config = Ssta_core.Config
module Impact = Ssta_check.Impact

module Reach = Worklist.Make (struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
end)

let dirty_of (d : Impact.design) changes =
  let n = Netlist.num_nodes d.Impact.circuit in
  let dirty = Array.make n false in
  let full = ref false in
  let pl = d.Impact.placement in
  List.iter
    (function
      | Impact.Gate_resize { node; _ } | Impact.Gate_retype { node; _ } ->
          dirty.(node) <- true;
          Array.iter
            (fun f -> dirty.(f) <- true)
            (Netlist.gate_of d.Impact.circuit node).Netlist.fanins
      | Impact.Cell_move { node; x; y; old_x; old_y } ->
          dirty.(node) <- true;
          let layers =
            Layers.create ~quad_levels:d.Impact.config.Config.quad_levels
              ~random_layer:false ~die_width:pl.Placement.die_width
              ~die_height:pl.Placement.die_height ()
          in
          let level = d.Impact.config.Config.quad_levels - 1 in
          let leaf x y = Layers.partition_of layers ~level ~x ~y in
          let p_old = leaf old_x old_y and p_new = leaf x y in
          Array.iter
            (fun (g : Netlist.gate) ->
              let gx, gy = pl.Placement.coords.(g.Netlist.id) in
              if Float.is_finite gx && Float.is_finite gy then begin
                let p = leaf gx gy in
                if p = p_old || p = p_new then dirty.(g.Netlist.id) <- true
              end)
            d.Impact.circuit.Netlist.gates
      | Impact.Config_set { effect = Config.Enumeration_only; _ } -> ()
      | Impact.Config_set { effect = Config.Analysis | Config.Tables; _ } ->
          full := true)
    changes;
  (dirty, !full)

let cone_of (d : Impact.design) changes : Impact.cone =
  let dirty, full = dirty_of d changes in
  let n = Array.length dirty in
  let slice direction =
    if full then Array.make n true
    else
      Reach.fixpoint ~direction d.Impact.circuit
        ~init:(fun id -> dirty.(id))
        ~transfer:(fun ~node:_ v -> v)
  in
  let forward = slice Worklist.Forward and backward = slice Worklist.Backward in
  let count p = Seq.length (Seq.filter p (Seq.init n Fun.id)) in
  { Impact.dirty;
    forward;
    backward;
    dirty_count = count (fun i -> dirty.(i));
    cone_nodes = count (fun i -> forward.(i) || backward.(i));
    affected_endpoints =
      List.filter
        (fun o -> forward.(o))
        (Array.to_list d.Impact.circuit.Netlist.outputs);
    full }
