module Params = Ssta_tech.Params

type t = { weights : float array; rv_var : float array }

let num_rvs = List.length Params.all_rvs
let layers t = Array.length t.weights

let weight t u =
  if u < 0 || u >= layers t then invalid_arg "Budget.weight: bad layer";
  t.weights.(u)

let inter_fraction t = t.weights.(0)

let sigma_of_layer t ~total_sigma u =
  if total_sigma < 0.0 then
    invalid_arg "Budget.sigma_of_layer: negative sigma";
  total_sigma *. sqrt (weight t u)

let of_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Budget.of_weights: empty";
  Array.iter
    (fun w ->
      if not (Float.is_finite w && w >= 0.0) then
        invalid_arg "Budget.of_weights: weights must be finite and non-negative")
    weights;
  let total = Array.fold_left ( +. ) 0.0 weights in
  if not (total > 0.0) then invalid_arg "Budget.of_weights: all-zero weights";
  let t =
    { weights = Array.map (fun w -> w /. total) weights; rv_var = [||] }
  in
  let sigma = Array.of_list (List.map Params.sigma Params.all_rvs) in
  { t with
    rv_var =
      Array.init (n * num_rvs) (fun i ->
          let s =
            sigma_of_layer t ~total_sigma:sigma.(i mod num_rvs) (i / num_rvs)
          in
          s *. s) }

let equal ~layers =
  if layers < 1 then invalid_arg "Budget.equal: layers >= 1";
  of_weights (Array.make layers 1.0)

let inter_intra ~inter_fraction ~layers =
  if layers < 2 then invalid_arg "Budget.inter_intra: layers >= 2";
  if inter_fraction < 0.0 || inter_fraction > 1.0 then
    invalid_arg "Budget.inter_intra: inter_fraction must be in [0, 1]";
  let rest = (1.0 -. inter_fraction) /. float_of_int (layers - 1) in
  of_weights
    (Array.init layers (fun i -> if i = 0 then inter_fraction else rest))

let variance_check t ~total_sigma =
  Array.fold_left
    (fun acc w -> acc +. (w *. total_sigma *. total_sigma))
    0.0 t.weights
