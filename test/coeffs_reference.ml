(* The hashtable form of the Eq. (13) accumulation: one entry per
   (rv, layer, partition) a path touches, the random layer keyed on gate
   ids, each entry summed in path order from 0.0.  The dense
   [Path_coeffs] vector is checked against it. *)

module Params = Ssta_tech.Params
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Placement = Ssta_circuit.Placement
module Layers = Ssta_correlation.Layers
module Budget = Ssta_correlation.Budget
module Slots = Ssta_correlation.Slots

let of_path g pl layers (path : Paths.path) =
  let coeffs : (Slots.key, float) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun id ->
      if not (Graph.is_input g id) then begin
        let grad =
          Ssta_tech.Derivatives.gradient (Graph.electrical_exn g id)
            Params.nominal
        in
        let x, y = Placement.coord pl id in
        List.iter
          (fun rv ->
            let d = Params.get grad rv in
            for layer = 1 to Layers.num_layers layers - 1 do
              let partition =
                Layers.partition_of_gate layers ~level:layer ~gate_id:id ~x ~y
              in
              let key = { Slots.rv; layer; partition } in
              let prev = try Hashtbl.find coeffs key with Not_found -> 0.0 in
              Hashtbl.replace coeffs key (prev +. d)
            done)
          Params.all_rvs
      end)
    path.Paths.nodes;
  coeffs

let share budget (key : Slots.key) c =
  let sigma =
    Budget.sigma_of_layer budget ~total_sigma:(Params.sigma key.Slots.rv)
      key.Slots.layer
  in
  c *. c *. sigma *. sigma

let intra_variance coeffs budget =
  Hashtbl.fold (fun key c acc -> acc +. share budget key c) coeffs 0.0

let layer_variances coeffs budget =
  let shares = Array.make (Budget.layers budget) 0.0 in
  Hashtbl.iter
    (fun (key : Slots.key) c ->
      shares.(key.Slots.layer) <- shares.(key.Slots.layer) +. share budget key c)
    coeffs;
  shares
