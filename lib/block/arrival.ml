module Pdf = Ssta_prob.Pdf
module Combine = Ssta_prob.Combine
module Dist = Ssta_prob.Dist
module Params = Ssta_tech.Params
module Derivatives = Ssta_tech.Derivatives
module Graph = Ssta_timing.Graph
module Layers = Ssta_correlation.Layers
module Budget = Ssta_correlation.Budget
module Path_coeffs = Ssta_correlation.Path_coeffs
module Placement = Ssta_circuit.Placement
module Config = Ssta_core.Config
module Block_based = Ssta_core.Block_based

type t = {
  canon : Block_based.canonical;
  resid : Pdf.t option;
}

let zero () =
  { canon = { Block_based.mean = 0.0; terms = Hashtbl.create 4; indep = 0.0 };
    resid = None }

(* A residual is worth carrying on a grid only when its width is visible
   at the scale of the arrival mean; grid PDFs whose support is many
   orders of magnitude below the mean would lose all cell resolution to
   float absorption once shifted. *)
let significant_sigma ~scale sigma =
  sigma > 1e-6 *. Float.max (Float.abs scale) 1e-15

let resid_gaussian (config : Config.t) ~scale var =
  let sigma = sqrt (Float.max 0.0 var) in
  if significant_sigma ~scale sigma then
    Some
      (Dist.truncated_gaussian ~n:config.Config.quality_intra
         ~bound:config.Config.truncation ~mu:0.0 ~sigma ())
  else None

(* Re-establish the invariant canon.indep = Var(resid grid) so that the
   canonical-form covariance/Clark machinery (Block_based) sees exactly
   the variance the grid carries. *)
let with_resid canon resid =
  let indep = match resid with None -> 0.0 | Some p -> Pdf.variance p in
  ({ canon with Block_based.indep }, resid)

let mean t = t.canon.Block_based.mean
let variance config t = Block_based.variance config t.canon
let std config t = Block_based.std config t.canon

let shared_variance config t =
  Block_based.variance config { t.canon with Block_based.indep = 0.0 }

let inter_variance (config : Config.t) t =
  Hashtbl.fold
    (fun (key : Path_coeffs.key) a acc ->
      if key.Path_coeffs.layer = 0 then begin
        let s =
          Budget.sigma_of_layer config.Config.budget
            ~total_sigma:(Params.sigma key.Path_coeffs.rv)
            0
        in
        acc +. (a *. a *. s *. s)
      end
      else acc)
    t.canon.Block_based.terms 0.0

let inter_sigma config t = sqrt (Float.max 0.0 (inter_variance config t))

let intra_sigma config t =
  sqrt (Float.max 0.0 (variance config t -. inter_variance config t))

let confidence_point (config : Config.t) t =
  mean t +. (config.Config.confidence_sigma *. std config t)

let total_pdf (config : Config.t) t =
  let n = config.Config.quality_intra in
  let mu = mean t in
  let shared_sigma = sqrt (Float.max 0.0 (shared_variance config t)) in
  let shared =
    if significant_sigma ~scale:mu shared_sigma then
      Some
        (Dist.truncated_gaussian ~n ~bound:config.Config.truncation ~mu:0.0
           ~sigma:shared_sigma ())
    else None
  in
  match (t.resid, shared) with
  | None, None -> Pdf.point_mass ~n mu
  | Some r, None -> Pdf.shift r mu
  | None, Some s -> Pdf.shift s mu
  | Some r, Some s -> Pdf.shift (Combine.sum ~n r s) mu

let quantile config t q = Pdf.quantile (total_pdf config t) q

let of_gate (config : Config.t) layers placement graph id =
  let e = Graph.electrical_exn graph id in
  let grad = Derivatives.gradient e Params.nominal in
  let x, y = Placement.coord placement id in
  let num_layers = Layers.num_layers layers in
  let shared_layers =
    if config.Config.random_layer then num_layers - 1 else num_layers
  in
  let terms = Hashtbl.create 16 in
  let random_var = ref 0.0 in
  List.iter
    (fun rv ->
      let d = Params.get grad rv in
      for layer = 0 to shared_layers - 1 do
        let partition =
          Layers.partition_of_gate layers ~level:layer ~gate_id:id ~x ~y
        in
        Hashtbl.replace terms { Path_coeffs.rv; layer; partition } d
      done;
      if config.Config.random_layer then begin
        let s =
          Budget.sigma_of_layer config.Config.budget
            ~total_sigma:(Params.sigma rv) (num_layers - 1)
        in
        random_var := !random_var +. (d *. d *. s *. s)
      end)
    Params.all_rvs;
  let gate_mean = graph.Graph.delay.(id) in
  let resid = resid_gaussian config ~scale:gate_mean !random_var in
  let canon, resid =
    with_resid { Block_based.mean = gate_mean; terms; indep = 0.0 } resid
  in
  { canon; resid }

let sum (config : Config.t) a b =
  let n = config.Config.quality_intra in
  let resid =
    match (a.resid, b.resid) with
    | None, r | r, None -> r
    | Some ra, Some rb -> Some (Combine.sum ~n ra rb)
  in
  let canon, resid = with_resid (Block_based.add a.canon b.canon) resid in
  { canon; resid }

let clark_max config a b =
  let canon = Block_based.clark_max config a.canon b.canon in
  (* The far-apart short circuit returns an operand's canonical form
     unchanged; keep its grid residual (shape included) too. *)
  if canon == a.canon then a
  else if canon == b.canon then b
  else begin
    let resid =
      resid_gaussian config ~scale:canon.Block_based.mean
        canon.Block_based.indep
    in
    let canon, resid = with_resid canon resid in
    { canon; resid }
  end

(* P(A >= B) for independent grid operands: sum_i m_A(i) * F_B(x_i). *)
let tightness pa pb =
  let acc = ref 0.0 in
  for i = 0 to Pdf.size pa - 1 do
    acc := !acc +. (Pdf.mass_at pa i *. Pdf.cdf pb (Pdf.x_at pa i))
  done;
  Float.min 1.0 (Float.max 0.0 !acc)

let grid_max (config : Config.t) a b =
  let n = config.Config.quality_intra in
  let ta = total_pdf config a and tb = total_pdf config b in
  let m = Combine.binop ~n Float.max ta tb in
  let mx = Pdf.moments m in
  let max_mean = mx.Pdf.m_mean and max_var = mx.Pdf.m_var in
  let phi = tightness ta tb in
  let terms =
    Block_based.merge_terms ~wa:phi ~wb:(1.0 -. phi) a.canon.Block_based.terms
      b.canon.Block_based.terms
  in
  let blended = { Block_based.mean = max_mean; terms; indep = 0.0 } in
  let blended_shared = Block_based.variance config blended in
  let resid_var = Float.max 0.0 (max_var -. blended_shared) in
  let resid =
    (* Keep the exact max's shape: recenter the grid and deflate it so
       shared + residual variance reproduces the grid moments. *)
    if significant_sigma ~scale:max_mean (sqrt resid_var) && max_var > 0.0
    then
      Some (Pdf.scale (Pdf.shift m (-.max_mean)) (sqrt (resid_var /. max_var)))
    else None
  in
  let canon, resid = with_resid blended resid in
  { canon; resid }

let max (config : Config.t) a b =
  match config.Config.block_max with
  | Config.Clark_max -> clark_max config a b
  | Config.Grid_max -> grid_max config a b
