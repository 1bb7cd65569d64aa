module Params = Ssta_tech.Params
module Erf = Ssta_prob.Erf
module Graph = Ssta_timing.Graph
module Path_coeffs = Ssta_correlation.Path_coeffs
module Slots = Ssta_correlation.Slots

type result = {
  mean : float;
  std : float;
  confidence_point : float;
  paths_used : int;
}

let canonical_of_analysis (config : Config.t) graph (a : Path_analysis.t) =
  let coeffs = a.Path_analysis.coeffs in
  let quad_levels = coeffs.Path_coeffs.quad_levels in
  let dense = Path_coeffs.to_dense coeffs in
  let terms = Hashtbl.create 64 in
  (* Intra layer RVs carry the Eq. (13) coefficients verbatim: the
     quad-tree ones from the dense vector ... *)
  for layer = 1 to quad_levels - 1 do
    for partition = 0 to (1 lsl (2 * layer)) - 1 do
      List.iter
        (fun rv ->
          let key = { Slots.rv; layer; partition } in
          let c = dense.(Slots.slot key) in
          if c <> 0.0 then Hashtbl.replace terms key c)
        Params.all_rvs
    done
  done;
  (* ... and the random layer's, one RV per gate, from the gradients of
     the path's gates (the vector keeps only their squares). *)
  if coeffs.Path_coeffs.random_sq <> [||] then
    Array.iter
      (fun id ->
        if not (Graph.is_input graph id) then begin
          let grad = (Graph.grads graph).(id) in
          List.iter
            (fun rv ->
              Hashtbl.replace terms
                { Slots.rv; layer = quad_levels; partition = id }
                (Params.get grad rv))
            Params.all_rvs
        end)
      a.Path_analysis.path.Ssta_timing.Paths.nodes;
  (* The inter part is shared by every path: key it on layer 0. *)
  List.iter
    (fun rv ->
      Hashtbl.replace terms
        { Slots.rv; layer = 0; partition = 0 }
        (Params.get coeffs.Path_coeffs.grad_sum rv))
    Params.all_rvs;
  let linear = { Block_based.mean = a.Path_analysis.mean; terms; indep = 0.0 } in
  (* Keep the numeric PDF's variance: whatever the linearization misses
     goes into the independent residual. *)
  let linear_var = Block_based.variance config linear in
  let numeric_var = a.Path_analysis.std *. a.Path_analysis.std in
  { linear with
    Block_based.indep = Float.max 0.0 (numeric_var -. linear_var) }

let statistical_max ?config ?(max_paths = 200) (m : Methodology.t) =
  let config =
    match config with Some c -> c | None -> m.Methodology.config
  in
  let ranked = m.Methodology.ranked in
  let graph = m.Methodology.sta.Ssta_timing.Sta.graph in
  let used = Int.min max_paths (Array.length ranked) in
  if used = 0 then invalid_arg "Path_max.statistical_max: no paths";
  let folded = ref None in
  for i = 0 to used - 1 do
    let canon =
      canonical_of_analysis config graph ranked.(i).Ranking.analysis
    in
    folded :=
      (match !folded with
      | None -> Some canon
      | Some acc -> Some (Block_based.clark_max config acc canon))
  done;
  match !folded with
  | None -> assert false
  | Some acc ->
      let std = Block_based.std config acc in
      { mean = acc.Block_based.mean;
        std;
        confidence_point =
          acc.Block_based.mean +. (config.Config.confidence_sigma *. std);
        paths_used = used }

let yield_at ?config m ~clock =
  let r = statistical_max ?config m in
  if r.std <= 0.0 then if clock >= r.mean then 1.0 else 0.0
  else Erf.normal_cdf ~mu:r.mean ~sigma:r.std clock
