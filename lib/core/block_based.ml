module Params = Ssta_tech.Params
module Erf = Ssta_prob.Erf
module Graph = Ssta_timing.Graph
module Layers = Ssta_correlation.Layers
module Budget = Ssta_correlation.Budget
module Path_coeffs = Ssta_correlation.Path_coeffs
module Placement = Ssta_circuit.Placement
module Netlist = Ssta_circuit.Netlist

type canonical = {
  mean : float;
  terms : (Path_coeffs.key, float) Hashtbl.t;
  indep : float;
}

let zero () = { mean = 0.0; terms = Hashtbl.create 8; indep = 0.0 }

let sigma_of_key (config : Config.t) (key : Path_coeffs.key) =
  Budget.sigma_of_layer config.Config.budget
    ~total_sigma:(Params.sigma key.Path_coeffs.rv)
    key.Path_coeffs.layer

let variance config c =
  Hashtbl.fold
    (fun key a acc ->
      let s = sigma_of_key config key in
      acc +. (a *. a *. s *. s))
    c.terms c.indep

let std config c = sqrt (Float.max 0.0 (variance config c))

let covariance config a b =
  (* Iterate the smaller table. *)
  let small, large =
    if Hashtbl.length a.terms <= Hashtbl.length b.terms then (a, b)
    else (b, a)
  in
  Hashtbl.fold
    (fun key ca acc ->
      match Hashtbl.find_opt large.terms key with
      | Some cb ->
          let s = sigma_of_key config key in
          acc +. (ca *. cb *. s *. s)
      | None -> acc)
    small.terms 0.0

let merge_terms ~wa ~wb a b =
  let terms = Hashtbl.create (Hashtbl.length a + Hashtbl.length b) in
  Hashtbl.iter (fun key v -> Hashtbl.replace terms key (wa *. v)) a;
  Hashtbl.iter
    (fun key v ->
      let prev = try Hashtbl.find terms key with Not_found -> 0.0 in
      Hashtbl.replace terms key (prev +. (wb *. v)))
    b;
  terms

let add a b =
  { mean = a.mean +. b.mean;
    terms = merge_terms ~wa:1.0 ~wb:1.0 a.terms b.terms;
    indep = a.indep +. b.indep }

(* Clark's max of two correlated Gaussians, with linear sensitivities
   blended by the tightness probability phi = P(A > B). *)
let clark_max config a b =
  let va = variance config a and vb = variance config b in
  let cov = covariance config a b in
  let theta2 = Float.max 1e-300 (va +. vb -. (2.0 *. cov)) in
  let theta = sqrt theta2 in
  let d = (a.mean -. b.mean) /. theta in
  if d > 8.0 then a
  else if d < -8.0 then b
  else begin
    let phi = Erf.normal_cdf d in
    let dens = Erf.normal_pdf d in
    let mean = (a.mean *. phi) +. (b.mean *. (1.0 -. phi)) +. (theta *. dens) in
    let second_moment =
      ((va +. (a.mean *. a.mean)) *. phi)
      +. ((vb +. (b.mean *. b.mean)) *. (1.0 -. phi))
      +. ((a.mean +. b.mean) *. theta *. dens)
    in
    let var = Float.max 0.0 (second_moment -. (mean *. mean)) in
    let terms = merge_terms ~wa:phi ~wb:(1.0 -. phi) a.terms b.terms in
    (* Match the total variance by assigning the remainder (not explained
       by the blended shared terms) to the independent residual. *)
    let blended = { mean; terms; indep = 0.0 } in
    let shared_var = variance config blended in
    { mean; terms; indep = Float.max 0.0 (var -. shared_var) }
  end

type result = {
  arrival : canonical;
  mean : float;
  std : float;
  confidence_point : float;
  runtime_s : float;
}

let gate_canonical layers placement graph id =
  let grad = (Graph.grads graph).(id) in
  let x, y = Placement.coord placement id in
  let terms = Hashtbl.create 16 in
  List.iter
    (fun rv ->
      let d = Params.get grad rv in
      for layer = 0 to Layers.num_layers layers - 1 do
        let partition =
          Layers.partition_of_gate layers ~level:layer ~gate_id:id ~x ~y
        in
        Hashtbl.replace terms
          { Path_coeffs.rv; layer; partition }
          d
      done)
    Params.all_rvs;
  { mean = graph.Graph.delay.(id); terms; indep = 0.0 }

let analyze ?(config = Config.default) ?placement circuit =
  let started = Unix.gettimeofday () in
  let graph = Graph.of_netlist circuit in
  let placement =
    match placement with Some pl -> pl | None -> Placement.place circuit
  in
  let layers = Config.layers_for config placement in
  let n = Graph.num_nodes graph in
  let arrivals = Array.make n (zero ()) in
  for id = 0 to n - 1 do
    if not (Graph.is_input graph id) then begin
      let fanins = Graph.fanins graph id in
      let merged =
        Array.fold_left
          (fun acc f ->
            match acc with
            | None -> Some arrivals.(f)
            | Some m -> Some (clark_max config m arrivals.(f)))
          None fanins
      in
      let input_arrival = match merged with Some m -> m | None -> zero () in
      arrivals.(id) <-
        add input_arrival (gate_canonical layers placement graph id)
    end
  done;
  let outputs = graph.Graph.circuit.Netlist.outputs in
  let arrival =
    Array.fold_left
      (fun acc o ->
        match acc with
        | None -> Some arrivals.(o)
        | Some m -> Some (clark_max config m arrivals.(o)))
      None outputs
    |> function
    | Some m -> m
    | None -> invalid_arg "Block_based.analyze: circuit has no outputs"
  in
  let mean = arrival.mean and sd = std config arrival in
  { arrival;
    mean;
    std = sd;
    confidence_point = mean +. (config.Config.confidence_sigma *. sd);
    runtime_s = Unix.gettimeofday () -. started }
