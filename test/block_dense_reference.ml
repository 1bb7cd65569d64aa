(* The block sweep on plain dense arrays, sharing no support code with
   the engine: every arrival is a full Eq. 13 coefficient vector with a
   mean and a residual variance; a gate's vector is built from its
   partitions on the spot, the statistical max is Clark's on the dense
   vectors ([Slots_reference]'s checked kernels, variances squared from
   [Budget.sigma_of_layer]) and the sum adds the gate's vector slot by
   slot.  The engine's span-walking, fused and pooled sweep must give
   the same report, byte for byte. *)

module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Graph = Ssta_timing.Graph
module Sta = Ssta_timing.Sta
module Params = Ssta_tech.Params
module Layers = Ssta_correlation.Layers
module Budget = Ssta_correlation.Budget
module Slots = Ssta_correlation.Slots
module Config = Ssta_core.Config
module Pdf = Ssta_prob.Pdf
module Dist = Ssta_prob.Dist
module Erf = Ssta_prob.Erf
module Engine = Ssta_block.Engine
module Arrival = Ssta_block.Arrival

type arrival = { mean : float; v : float array; shared : float; resid : float }

let zero = { mean = 0.0; v = [||]; shared = 0.0; resid = 0.0 }
let rvs = Array.of_list Params.all_rvs

let sigma2 budget rv layer =
  let s = Budget.sigma_of_layer budget ~total_sigma:(Params.sigma rv) layer in
  s *. s

(* Gate [id]'s own arrival: its sensitivities at its partition on every
   shared layer, its nominal delay, and its random-layer variance. *)
let gate (config : Config.t) layers placement graph id =
  let budget = config.Config.budget in
  let grad = (Graph.grads graph).(id) in
  let num_layers = Layers.num_layers layers in
  let shared = if config.Config.random_layer then num_layers - 1 else num_layers in
  let v = Array.make (Slots.num_slots ~quad_levels:shared) 0.0 in
  let x, y = Placement.coord placement id in
  let var = ref 0.0 in
  for l = 0 to shared - 1 do
    let p = Layers.partition_of_gate layers ~level:l ~gate_id:id ~x ~y in
    Array.iteri
      (fun r rv ->
        let d = Params.get grad rv in
        v.((Slots.num_rvs * (Slots.layer_offset l + p)) + r) <- d;
        var := !var +. (d *. d *. sigma2 budget rv l))
      rvs
  done;
  let random = ref 0.0 in
  if config.Config.random_layer then
    Array.iter
      (fun rv ->
        let d = Params.get grad rv in
        random := !random +. (d *. d *. sigma2 budget rv (num_layers - 1)))
      rvs;
  { mean = graph.Graph.delay.(id); v; shared = !var; resid = !random }

let sum (config : Config.t) a b =
  let budget = config.Config.budget in
  if Array.length a.v = 0 then { b with mean = a.mean +. b.mean; resid = a.resid +. b.resid }
  else if Array.length b.v = 0 then
    { a with mean = a.mean +. b.mean; resid = a.resid +. b.resid }
  else begin
    let c = Array.make (Int.max (Array.length a.v) (Array.length b.v)) 0.0 in
    let shared = Slots_reference.combine_into budget c ~wa:1.0 a.v ~wb:1.0 b.v in
    { mean = a.mean +. b.mean; v = c; shared; resid = a.resid +. b.resid }
  end

let max (config : Config.t) a b =
  let budget = config.Config.budget in
  let va = a.shared +. a.resid and vb = b.shared +. b.resid in
  let cov = Slots_reference.dot budget a.v b.v in
  let theta = sqrt (Float.max 1e-300 (va +. vb -. (2.0 *. cov))) in
  let d = (a.mean -. b.mean) /. theta in
  if d > 8.0 then a
  else if d < -8.0 then b
  else begin
    let phi = Erf.normal_cdf d and dens = Erf.normal_pdf d in
    let mean = (a.mean *. phi) +. (b.mean *. (1.0 -. phi)) +. (theta *. dens) in
    let m2 =
      ((va +. (a.mean *. a.mean)) *. phi)
      +. ((vb +. (b.mean *. b.mean)) *. (1.0 -. phi))
      +. ((a.mean +. b.mean) *. theta *. dens)
    in
    let var = Float.max 0.0 (m2 -. (mean *. mean)) in
    let c = Array.make (Int.max (Array.length a.v) (Array.length b.v)) 0.0 in
    let shared =
      Slots_reference.combine_into budget c ~wa:phi a.v ~wb:(1.0 -. phi) b.v
    in
    { mean; v = c; shared; resid = Float.max 0.0 (var -. shared) }
  end

let fold_max config arrivals ids =
  Array.fold_left
    (fun acc f ->
      match acc with
      | None -> Some arrivals.(f)
      | Some m -> Some (max config m arrivals.(f)))
    None ids

let total_pdf (config : Config.t) a =
  let n = config.Config.quality_intra in
  let sigma = sqrt (Float.max 0.0 (a.shared +. a.resid)) in
  if sigma > 1e-6 *. Float.max (Float.abs a.mean) 1e-15 then
    Pdf.shift
      (Pdf.of_fun ~lo:(-.(config.Config.truncation *. sigma))
         ~hi:(config.Config.truncation *. sigma) ~n (fun x ->
           Erf.normal_pdf ~mu:0.0 ~sigma x))
      a.mean
  else Pdf.point_mass ~n a.mean

let analyze (config : Config.t) placement circuit =
  let sta = Sta.analyze circuit in
  let graph = sta.Sta.graph in
  let layers = Config.layers_for config placement in
  let n = Graph.num_nodes graph in
  let arrivals = Array.make n zero in
  for id = 0 to n - 1 do
    if not (Graph.is_input graph id) then
      arrivals.(id) <-
        sum config
          (Option.value ~default:zero (fold_max config arrivals (Graph.fanins graph id)))
          (gate config layers placement graph id)
  done;
  let stats a =
    let var = a.shared +. a.resid in
    let std = sqrt (Float.max 0.0 var) in
    let inter = ref 0.0 in
    for r = 0 to Int.min Slots.num_rvs (Array.length a.v) - 1 do
      inter := !inter +. (a.v.(r) *. a.v.(r) *. sigma2 config.Config.budget rvs.(r) 0)
    done;
    ( total_pdf config a,
      std,
      sqrt (Float.max 0.0 !inter),
      sqrt (Float.max 0.0 (var -. !inter)),
      a.mean +. (config.Config.confidence_sigma *. std) )
  in
  let outputs = circuit.Netlist.outputs in
  let endpoint o =
    let a = arrivals.(o) in
    let pdf, std, inter_sigma, intra_sigma, confidence_point = stats a in
    { Engine.node = o;
      name = Netlist.node_name circuit o;
      arrival = Arrival.zero ();
      pdf;
      mean = a.mean;
      std;
      inter_sigma;
      intra_sigma;
      confidence_point }
  in
  let a = Option.get (fold_max config arrivals outputs) in
  let pdf, std, inter_sigma, intra_sigma, confidence_point = stats a in
  { Engine.config;
    circuit_name = circuit.Netlist.name;
    num_gates = Netlist.num_gates circuit;
    sta;
    endpoints = Array.to_list (Array.map endpoint outputs);
    arrival = Arrival.zero ();
    pdf;
    mean = a.mean;
    std;
    inter_sigma;
    intra_sigma;
    confidence_point;
    runtime_s = 0.0 }
