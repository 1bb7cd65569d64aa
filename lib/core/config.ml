module Budget = Ssta_correlation.Budget
module Layers = Ssta_correlation.Layers

type engine = Path | Block

let engine_name = function Path -> "path" | Block -> "block"

let engines = [ Path; Block ]

type max_policy = Clark_max

let max_policy_name Clark_max = "clark"

let max_policies = [ Clark_max ]

type t = {
  quality_intra : int;
  quality_inter : int;
  confidence : float;
  quad_levels : int;
  random_layer : bool;
  budget : Budget.t;
  truncation : float;
  corner_k : float;
  confidence_sigma : float;
  max_paths : int;
  inter_shape : Ssta_prob.Shape.t;
  inter_cache : bool;
  affine_prune : bool;
  engine : engine;
  block_max : max_policy;
}

let num_layers t = t.quad_levels + if t.random_layer then 1 else 0

let default =
  let quad_levels = 4 and random_layer = true in
  { quality_intra = 100;
    quality_inter = 50;
    confidence = 0.05;
    quad_levels;
    random_layer;
    budget = Budget.equal ~layers:(quad_levels + 1);
    truncation = 6.0;
    corner_k = Ssta_tech.Corner.default_k;
    confidence_sigma = 3.0;
    max_paths = 20_000;
    inter_shape = Ssta_prob.Shape.Gaussian;
    inter_cache = true;
    affine_prune = true;
    engine = Path;
    block_max = Clark_max }

let with_confidence t confidence = { t with confidence }

let with_quality t ~intra ~inter =
  { t with quality_intra = intra; quality_inter = inter }

let with_inter_shape t inter_shape = { t with inter_shape }

let with_budget_split t ~inter_fraction =
  { t with
    budget = Budget.inter_intra ~inter_fraction ~layers:(num_layers t) }

let layers_for t pl =
  Layers.of_placement ~quad_levels:t.quad_levels ~random_layer:t.random_layer
    pl

type param_effect = Enumeration_only | Analysis | Tables

let params =
  [ ("affine-prune", "static affine path screening (0 or 1)");
    ("confidence", "the C constant: slack = C * sigma_C");
    ("confidence-sigma", "ranking confidence point, in sigmas");
    ("corner-k", "worst-case corner multiplier");
    ("max-paths", "near-critical enumeration safety cap");
    ("quality-inter", "inter-PDF discretization (cells)");
    ("quality-intra", "intra-PDF discretization (cells)");
    ("truncation", "Gaussian truncation, in sigmas") ]

(* The effect classification drives incremental re-analysis
   (Ssta_check.Impact): [Enumeration_only] parameters never enter a
   per-path analysis — they steer slack, ranking caps or the screener —
   so cached path results stay valid; [Analysis] parameters change every
   path's statistics; [Tables] parameters additionally invalidate the
   warm inter-table/kernel-cache state (see
   Path_analysis.warm_compatible, which compares exactly the [Tables]
   fields plus the budget and inter shape, neither settable here). *)
let set_param t name v =
  let as_int ~lo what k =
    if Float.is_integer v && v >= float_of_int lo && v <= 1e9 then
      k (int_of_float v)
    else
      Error (Printf.sprintf "%s must be an integer >= %d, got %g" what lo v)
  in
  match name with
  | "confidence" ->
      if v >= 0.0 then Ok ({ t with confidence = v }, Enumeration_only)
      else Error (Printf.sprintf "confidence must be >= 0, got %g" v)
  | "max-paths" ->
      as_int ~lo:1 "max-paths" (fun i ->
          Ok ({ t with max_paths = i }, Enumeration_only))
  | "affine-prune" ->
      if v = 0.0 || v = 1.0 then
        Ok ({ t with affine_prune = v = 1.0 }, Enumeration_only)
      else Error (Printf.sprintf "affine-prune must be 0 or 1, got %g" v)
  | "quality-intra" ->
      as_int ~lo:2 "quality-intra" (fun i ->
          Ok ({ t with quality_intra = i }, Analysis))
  | "corner-k" ->
      if v >= 0.0 then Ok ({ t with corner_k = v }, Analysis)
      else Error (Printf.sprintf "corner-k must be >= 0, got %g" v)
  | "confidence-sigma" ->
      if v >= 0.0 then Ok ({ t with confidence_sigma = v }, Analysis)
      else Error (Printf.sprintf "confidence-sigma must be >= 0, got %g" v)
  | "quality-inter" ->
      as_int ~lo:2 "quality-inter" (fun i ->
          Ok ({ t with quality_inter = i }, Tables))
  | "truncation" ->
      if v > 0.0 then Ok ({ t with truncation = v }, Tables)
      else Error (Printf.sprintf "truncation must be positive, got %g" v)
  | _ ->
      Error
        (Printf.sprintf "unknown parameter %S (known: %s)" name
           (String.concat ", " (List.map fst params)))

let validate t =
  if t.quality_intra < 2 then Error "quality_intra must be >= 2"
  else if t.quality_inter < 2 then Error "quality_inter must be >= 2"
  else if t.confidence < 0.0 then Error "confidence must be >= 0"
  else if t.quad_levels < 1 then Error "quad_levels must be >= 1"
  else if Budget.layers t.budget <> num_layers t then
    Error "budget layer count does not match the layer structure"
  else if t.truncation <= 0.0 then Error "truncation must be positive"
  else if t.confidence_sigma < 0.0 then Error "confidence_sigma must be >= 0"
  else if t.max_paths < 1 then Error "max_paths must be >= 1"
  else Ok ()
