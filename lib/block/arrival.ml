module Pdf = Ssta_prob.Pdf
module Combine = Ssta_prob.Combine
module Dist = Ssta_prob.Dist
module Erf = Ssta_prob.Erf
module Params = Ssta_tech.Params
module Graph = Ssta_timing.Graph
module Layers = Ssta_correlation.Layers
module Slots = Ssta_correlation.Slots
module Budget = Ssta_correlation.Budget
module Placement = Ssta_circuit.Placement
module Config = Ssta_core.Config

type residual = Gauss of float | Grid of Pdf.t

type t = {
  mean : float;
  coeffs : float array;
      (** shared-layer coefficients by {!Slots.slot}; shorter vectors are
          zero-padded ([[||]] is all zero) *)
  shared_var : float;  (** variance of the shared part, under the budget *)
  resid : residual;
}

(* The coefficient vectors use the shared {!Ssta_correlation.Slots}
   layout: partition-major and RV-minor, built whole-partition, so their
   lengths are multiples of 5. *)

(* The fresh vector [wa * a + wb * b] and its shared variance. *)
let combine budget ~wa a ~wb b =
  let c = Array.create_float (Int.max (Array.length a) (Array.length b)) in
  (c, Slots.combine_into budget c ~wa a ~wb b)

(* ----- construction ----- *)

let zero_arrival =
  { mean = 0.0; coeffs = [||]; shared_var = 0.0; resid = Gauss 0.0 }

let zero () = zero_arrival

let make (config : Config.t) ?(mean = 0.0) ?(terms = []) resid =
  let quad_levels = config.Config.quad_levels in
  let coeffs =
    if terms = [] then [||] else Array.make (Slots.num_slots ~quad_levels) 0.0
  in
  List.iter
    (fun ((key : Slots.key), c) ->
      if key.Slots.layer >= quad_levels then
        invalid_arg "Arrival.make: key outside the shared layers";
      coeffs.(Slots.slot key) <- c)
    terms;
  { mean; coeffs; shared_var = Slots.dot config.Config.budget coeffs coeffs; resid }

(* A gate's delay form without its coefficient vector: sensitivity
   [sens.(r)] to RV [r] sits at slot [bases.(l) + r] on every shared
   layer [l] of a [len]-slot vector.  [gate_shared_var] is summed in
   slot order, term by term from zero.  Once the layer count and each
   partition are checked, the five sensitivities and the budget's
   variance table are read unchecked. *)
type gate_form = {
  delay : float;
  sens : float array;
  bases : int array;
  len : int;
  gate_shared_var : float;
  random_var : float;
}

let gate_form (config : Config.t) layers placement graph id =
  let grad = (Graph.grads graph).(id) in
  let sens =
    [| Params.get grad Params.Tox;
       Params.get grad Params.Leff;
       Params.get grad Params.Vdd;
       Params.get grad Params.Vtn;
       Params.get grad Params.Vtp |]
  in
  let x, y = Placement.coord placement id in
  let num_layers = Layers.num_layers layers in
  let shared_layers =
    if config.Config.random_layer then num_layers - 1 else num_layers
  in
  let budget = config.Config.budget in
  if num_layers > Budget.layers budget then
    invalid_arg "Arrival.gate_form: the budget lacks a layer";
  let vars = budget.Budget.rv_var in
  let bases = Array.make shared_layers 0 in
  let shared_var = ref 0.0 in
  for layer = 0 to shared_layers - 1 do
    let partition =
      Layers.partition_of_gate layers ~level:layer ~gate_id:id ~x ~y
    in
    if partition < 0 || partition >= 1 lsl (2 * layer) then
      invalid_arg "Arrival.gate_form: partition outside its layer";
    bases.(layer) <- Slots.num_rvs * (Slots.layer_offset layer + partition);
    let k = layer * Slots.num_rvs in
    for r = 0 to Slots.num_rvs - 1 do
      let d = Array.unsafe_get sens r in
      shared_var := !shared_var +. (d *. d *. Array.unsafe_get vars (k + r))
    done
  done;
  let random_var = ref 0.0 in
  if config.Config.random_layer then begin
    let k = (num_layers - 1) * Slots.num_rvs in
    for r = 0 to Slots.num_rvs - 1 do
      let d = Array.unsafe_get sens r in
      random_var := !random_var +. (d *. d *. Array.unsafe_get vars (k + r))
    done
  end;
  { delay = graph.Graph.delay.(id);
    sens;
    bases;
    len = Slots.num_slots ~quad_levels:shared_layers;
    gate_shared_var = !shared_var;
    random_var = !random_var }

(* Write the gate's sensitivities into [c], or add them when [add].
   [gate_form] keeps every base a whole partition below [g.len]. *)
let put_sens g c ~add =
  if Array.length c < g.len then invalid_arg "Arrival.put_sens: short vector";
  for l = 0 to Array.length g.bases - 1 do
    let base = Array.unsafe_get g.bases l in
    for r = 0 to Slots.num_rvs - 1 do
      let d = Array.unsafe_get g.sens r in
      let i = base + r in
      Array.unsafe_set c i (if add then Array.unsafe_get c i +. d else d)
    done
  done

let of_gate config layers placement graph id =
  let g = gate_form config layers placement graph id in
  let coeffs = Array.make g.len 0.0 in
  put_sens g coeffs ~add:false;
  { mean = g.delay;
    coeffs;
    shared_var = g.gate_shared_var;
    resid = Gauss g.random_var }

(* ----- accessors ----- *)

let mean t = t.mean
let residual t = t.resid

let coeff t key =
  let i = Slots.slot key in
  if i < Array.length t.coeffs then t.coeffs.(i) else 0.0

let resid_variance = function Gauss v -> v | Grid p -> Pdf.variance p
let variance (_ : Config.t) t = t.shared_var +. resid_variance t.resid
let std config t = sqrt (Float.max 0.0 (variance config t))

let inter_variance (config : Config.t) t =
  let acc = ref 0.0 in
  for r = 0 to Int.min Slots.num_rvs (Array.length t.coeffs) - 1 do
    let c = t.coeffs.(r) in
    acc := !acc +. (c *. c *. Slots.var config.Config.budget ~layer:0 r)
  done;
  !acc

let inter_sigma config t = sqrt (Float.max 0.0 (inter_variance config t))

let intra_sigma config t =
  sqrt (Float.max 0.0 (variance config t -. inter_variance config t))

let confidence_point (config : Config.t) t =
  mean t +. (config.Config.confidence_sigma *. std config t)

(* ----- grids ----- *)

(* A width is worth a grid only when it is visible at the scale of the
   arrival mean; grid PDFs whose support is many orders of magnitude
   below the mean would lose all cell resolution to float absorption
   once shifted. *)
let significant_sigma ~scale sigma =
  sigma > 1e-6 *. Float.max (Float.abs scale) 1e-15

let gaussian_grid (config : Config.t) sigma =
  Dist.truncated_gaussian ~n:config.Config.quality_intra
    ~bound:config.Config.truncation ~mu:0.0 ~sigma ()

(* A residual as a grid, or [None] when it is negligible at [scale]. *)
let resid_grid config ~scale = function
  | Grid p -> Some p
  | Gauss v ->
      let sigma = sqrt (Float.max 0.0 v) in
      if significant_sigma ~scale sigma then Some (gaussian_grid config sigma)
      else None

let total_pdf (config : Config.t) t =
  let n = config.Config.quality_intra in
  let mu = t.mean in
  match t.resid with
  | Gauss v -> (
      match resid_grid config ~scale:mu (Gauss (t.shared_var +. v)) with
      | Some g -> Pdf.shift g mu
      | None -> Pdf.point_mass ~n mu)
  | Grid r -> (
      match resid_grid config ~scale:mu (Gauss t.shared_var) with
      | Some s -> Pdf.shift (Combine.sum ~n r s) mu
      | None -> Pdf.shift r mu)

let quantile config t q = Pdf.quantile (total_pdf config t) q

(* ----- operators ----- *)

(* The residual of [a + b]: variances add; a {!Grid} side forces a
   convolution, with a {!Gauss} other side materialized at the scale of
   its own arrival's mean. *)
let sum_resid (config : Config.t) a b =
  let n = config.Config.quality_intra in
  match (a.resid, b.resid) with
  | Gauss va, Gauss vb -> Gauss (va +. vb)
  | Grid ra, rb ->
      Grid
        (match resid_grid config ~scale:b.mean rb with
        | Some gb -> Combine.sum ~n ra gb
        | None -> ra)
  | ra, Grid rb ->
      Grid
        (match resid_grid config ~scale:a.mean ra with
        | Some ga -> Combine.sum ~n ga rb
        | None -> rb)

let sum (config : Config.t) a b =
  let coeffs, shared_var =
    if Array.length a.coeffs = 0 then (b.coeffs, b.shared_var)
    else if Array.length b.coeffs = 0 then (a.coeffs, a.shared_var)
    else combine config.Config.budget ~wa:1.0 a.coeffs ~wb:1.0 b.coeffs
  in
  { mean = a.mean +. b.mean; coeffs; shared_var; resid = sum_resid config a b }

(* ----- the per-sweep vector pool ----- *)

type pool = { clark : bool; mutable free : float array list }

let pool (config : Config.t) =
  { clark = config.Config.block_max = Config.Clark_max; free = [] }

(* The public operators' pool: nothing is recycled into it, so it stays
   empty and is never written. *)
let no_pool = { clark = false; free = [] }

let recycle pool t =
  if pool.clark && Array.length t.coeffs > 0 then
    pool.free <- t.coeffs :: pool.free

(* A vector of [n] slots no arrival reads: the pool's last recycled one
   when it has that length, else a fresh one. *)
let take pool n =
  match pool.free with
  | v :: rest when Array.length v = n ->
      pool.free <- rest;
      v
  | _ -> Array.create_float n

(* Clark's max of two correlated Gaussians, with the coefficients
   blended by the tightness probability phi = P(A > B) and the
   variance they leave unexplained assigned to the residual.  The
   blend is written into [into] when it has the result's length, else
   into a vector from {!take}. *)
let clark_into ~into pool (config : Config.t) a b =
  let va = variance config a and vb = variance config b in
  let cov = Slots.dot config.Config.budget a.coeffs b.coeffs in
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
    let n = Int.max (Array.length a.coeffs) (Array.length b.coeffs) in
    let coeffs = if Array.length into = n then into else take pool n in
    let shared_var =
      Slots.combine_into config.Config.budget coeffs ~wa:phi a.coeffs
        ~wb:(1.0 -. phi) b.coeffs
    in
    let resid = Gauss (Float.max 0.0 (var -. shared_var)) in
    { mean; coeffs; shared_var; resid }
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
  let coeffs, shared_var =
    combine config.Config.budget ~wa:phi a.coeffs ~wb:(1.0 -. phi) b.coeffs
  in
  let resid_var = Float.max 0.0 (max_var -. shared_var) in
  let resid =
    (* Keep the exact max's shape: recenter the grid and deflate it so
       shared + residual variance reproduces the grid moments. *)
    if significant_sigma ~scale:max_mean (sqrt resid_var) && max_var > 0.0
    then
      Grid (Pdf.scale (Pdf.shift m (-.max_mean)) (sqrt (resid_var /. max_var)))
    else Gauss 0.0
  in
  { mean = max_mean; coeffs; shared_var; resid }

let max (config : Config.t) a b =
  match config.Config.block_max with
  | Config.Clark_max -> clark_into ~into:[||] no_pool config a b
  | Config.Grid_max -> grid_max config a b

(* ----- folds and the engine's per-gate step ----- *)

(* [max] folded left to right over [arrivals.(ids.(k))], bit for bit,
   under the Clark policy, with every blend in one vector this call
   owns: the first blend takes it from the pool, later blends overwrite
   it in place (the blend is elementwise, so [c := phi c + (1 - phi) b]
   is safe).  Returns the fold result and that vector ([[||]] when no
   blend happened).  When the result's vector is not the owned one, the
   result is one of the stored arrivals (a single operand, or a Clark
   early return). *)
let clark_fold pool config arrivals ids =
  let owned = ref [||] and input = ref arrivals.(ids.(0)) in
  for k = 1 to Array.length ids - 1 do
    let a = !input and b = arrivals.(ids.(k)) in
    let m = clark_into ~into:!owned pool config a b in
    if m != a && m != b then owned := m.coeffs;
    input := m
  done;
  (!input, !owned)

let max_fold pool (config : Config.t) arrivals ids =
  if Array.length ids = 0 then invalid_arg "Arrival.max_fold: no operands";
  match config.Config.block_max with
  | Config.Clark_max -> fst (clark_fold pool config arrivals ids)
  | Config.Grid_max ->
      let acc = ref arrivals.(ids.(0)) in
      for k = 1 to Array.length ids - 1 do
        acc := grid_max config !acc arrivals.(ids.(k))
      done;
      !acc

(* One gate of the sweep: [sum (fold max fanins) (of_gate id)], bit
   for bit.  Under the Clark policy the result's vector is always one
   this call owns: the fold's blend vector when it holds the fold
   result at full length, else one from the pool into which the fold
   result is copied (it is a stored arrival, or shorter).  The gate's
   sensitivities are then added in place. *)
let step pool (config : Config.t) layers placement graph arrivals id =
  let fanins = Graph.fanins graph id in
  let nf = Array.length fanins in
  match config.Config.block_max with
  | Config.Grid_max ->
      let input =
        if nf = 0 then zero_arrival else max_fold pool config arrivals fanins
      in
      sum config input (of_gate config layers placement graph id)
  | Config.Clark_max ->
      let a, owned =
        if nf = 0 then (zero_arrival, [||])
        else clark_fold pool config arrivals fanins
      in
      let g = gate_form config layers placement graph id in
      let la = Array.length a.coeffs in
      let n = Int.max la g.len in
      let coeffs =
        if a.coeffs == owned && la = n then owned
        else begin
          let c =
            if Array.length owned = n && a.coeffs != owned then owned
            else take pool n
          in
          Array.blit a.coeffs 0 c 0 la;
          Array.fill c la (n - la) 0.0;
          c
        end
      in
      let shared_var =
        if la = 0 then begin
          (* [sum] takes the gate's own vector and variance. *)
          put_sens g coeffs ~add:false;
          g.gate_shared_var
        end
        else if g.len = 0 then a.shared_var
        else begin
          (* [sum] adds +0.0 to every other slot; leaving them as they
             are differs only on a -0.0 slot, which no dot product
             sees. *)
          put_sens g coeffs ~add:true;
          (* The same slot-order accumulation [combine] performs. *)
          Slots.dot config.Config.budget coeffs coeffs
        end
      in
      let gate =
        { mean = g.delay;
          coeffs = [||];
          shared_var = 0.0;
          resid = Gauss g.random_var }
      in
      { mean = a.mean +. g.delay;
        coeffs;
        shared_var;
        resid = sum_resid config a gate }
