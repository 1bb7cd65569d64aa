module Pdf = Ssta_prob.Pdf
module Dist = Ssta_prob.Dist
module Erf = Ssta_prob.Erf
module Params = Ssta_tech.Params
module Graph = Ssta_timing.Graph
module Layers = Ssta_correlation.Layers
module Slots = Ssta_correlation.Slots
module Budget = Ssta_correlation.Budget
module Placement = Ssta_circuit.Placement
module Gate_table = Ssta_correlation.Gate_table
module Config = Ssta_core.Config

type t = {
  mean : float;
  coeffs : float array;
      (** shared-layer coefficients by {!Slots.slot}; shorter vectors are
          zero-padded ([[||]] is all zero) *)
  shared_var : float;  (** variance of the shared part, under the budget *)
  resid : float;  (** variance of the independent residual *)
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
  { mean = 0.0; coeffs = [||]; shared_var = 0.0; resid = 0.0 }

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

(* A gate's delay form without its coefficient vector: the five
   sensitivities of [grad] (in {!Params.rv_index} order) sit at slots
   [Gate_table.chunk_base bases (off + l) + r] on every shared layer
   [l] of a [len]-slot vector.  [gate_shared_var] is summed in slot
   order, term by term from zero.  The bases are a chunk of the
   design's gate table (or, for {!of_gate}, one laid out the same way
   from the layering on the spot), so every base is a whole partition
   below [len]; once the layer count is checked against the budget its
   variance table is read unchecked. *)
type gate_form = {
  delay : float;
  grad : Params.t;
  bases : Bytes.t;
  off : int;
  shared_layers : int;
  len : int;
  gate_shared_var : float;
  random_var : float;
}

let gate_form (config : Config.t) layers graph ~bases ~off id =
  let grad = (Graph.grads graph).(id) in
  let num_layers = Layers.num_layers layers in
  let shared_layers =
    if config.Config.random_layer then num_layers - 1 else num_layers
  in
  let budget = config.Config.budget in
  if num_layers > Budget.layers budget then
    invalid_arg "Arrival.gate_form: the budget lacks a layer";
  let vars = budget.Budget.rv_var in
  let term d k = d *. d *. Array.unsafe_get vars k in
  let shared_var = ref 0.0 in
  for layer = 0 to shared_layers - 1 do
    let k = layer * Slots.num_rvs in
    shared_var := !shared_var +. term grad.Params.tox k;
    shared_var := !shared_var +. term grad.Params.leff (k + 1);
    shared_var := !shared_var +. term grad.Params.vdd (k + 2);
    shared_var := !shared_var +. term grad.Params.vtn (k + 3);
    shared_var := !shared_var +. term grad.Params.vtp (k + 4)
  done;
  let random_var = ref 0.0 in
  if config.Config.random_layer then begin
    let k = (num_layers - 1) * Slots.num_rvs in
    random_var := !random_var +. term grad.Params.tox k;
    random_var := !random_var +. term grad.Params.leff (k + 1);
    random_var := !random_var +. term grad.Params.vdd (k + 2);
    random_var := !random_var +. term grad.Params.vtn (k + 3);
    random_var := !random_var +. term grad.Params.vtp (k + 4)
  end;
  { delay = graph.Graph.delay.(id);
    grad;
    bases;
    off;
    shared_layers;
    len = Slots.num_slots ~quad_levels:shared_layers;
    gate_shared_var = !shared_var;
    random_var = !random_var }

(* Write the gate's sensitivities into [c], or add them when [add]. *)
let put_sens g c ~add =
  if Array.length c < g.len then invalid_arg "Arrival.put_sens: short vector";
  let put i d =
    Array.unsafe_set c i (if add then Array.unsafe_get c i +. d else d)
  in
  let grad = g.grad in
  for l = 0 to g.shared_layers - 1 do
    let base = Gate_table.chunk_base g.bases (g.off + l) in
    put base grad.Params.tox;
    put (base + 1) grad.Params.leff;
    put (base + 2) grad.Params.vdd;
    put (base + 3) grad.Params.vtn;
    put (base + 4) grad.Params.vtp
  done

let of_gate (config : Config.t) layers placement graph id =
  let x, y = Placement.coord placement id in
  let num_layers = Layers.num_layers layers in
  let shared_layers =
    if config.Config.random_layer then num_layers - 1 else num_layers
  in
  let bases = Bytes.create (4 * Int.max 0 shared_layers) in
  for layer = 0 to shared_layers - 1 do
    let partition =
      Layers.partition_of_gate layers ~level:layer ~gate_id:id ~x ~y
    in
    if partition < 0 || partition >= 1 lsl (2 * layer) then
      invalid_arg "Arrival.gate_form: partition outside its layer";
    Bytes.set_int32_ne bases (4 * layer)
      (Int32.of_int (Slots.num_rvs * (Slots.layer_offset layer + partition)))
  done;
  let g = gate_form config layers graph ~bases ~off:0 id in
  let coeffs = Array.make g.len 0.0 in
  put_sens g coeffs ~add:false;
  { mean = g.delay;
    coeffs;
    shared_var = g.gate_shared_var;
    resid = g.random_var }

(* ----- accessors ----- *)

let mean t = t.mean
let residual t = t.resid

let coeff t key =
  let i = Slots.slot key in
  if i < Array.length t.coeffs then t.coeffs.(i) else 0.0

let variance (_ : Config.t) t = t.shared_var +. t.resid
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

(* ----- concretization ----- *)

(* One truncated Gaussian of the shared plus residual variance, shifted
   by the mean (a sum of independent Gaussians is Gaussian).  A width is
   worth a grid only when it is visible at the scale of the mean; grid
   PDFs whose support is many orders of magnitude below the mean would
   lose all cell resolution to float absorption once shifted. *)
let total_pdf (config : Config.t) t =
  let n = config.Config.quality_intra in
  let sigma = sqrt (Float.max 0.0 (t.shared_var +. t.resid)) in
  if sigma > 1e-6 *. Float.max (Float.abs t.mean) 1e-15 then
    Pdf.shift
      (Dist.truncated_gaussian ~n ~bound:config.Config.truncation ~mu:0.0
         ~sigma ())
      t.mean
  else Pdf.point_mass ~n t.mean

(* ----- operators ----- *)

let sum (config : Config.t) a b =
  let coeffs, shared_var =
    if Array.length a.coeffs = 0 then (b.coeffs, b.shared_var)
    else if Array.length b.coeffs = 0 then (a.coeffs, a.shared_var)
    else combine config.Config.budget ~wa:1.0 a.coeffs ~wb:1.0 b.coeffs
  in
  { mean = a.mean +. b.mean; coeffs; shared_var; resid = a.resid +. b.resid }

(* ----- the per-sweep vector pool ----- *)

type pool = { mutable free : float array list }

let pool () = { free = [] }

(* The pool of {!max}: nothing is recycled into it, so it stays empty
   and is never written, which is what lets every domain share it. *)
let no_pool = pool ()

let recycle pool t =
  if Array.length t.coeffs > 0 then pool.free <- t.coeffs :: pool.free

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
    { mean; coeffs; shared_var; resid = Float.max 0.0 (var -. shared_var) }
  end

let max config a b = clark_into ~into:[||] no_pool config a b

(* ----- folds and the engine's per-gate step ----- *)

(* [max] folded left to right over [arrivals.(ids.(k))], bit for bit,
   with every blend in one vector this call owns: the first blend takes
   it from the pool, later blends overwrite it in place (the blend is
   elementwise, so [c := phi c + (1 - phi) b] is safe).  Returns the
   fold result and that vector ([[||]] when no blend happened).  When
   the result's vector is not the owned one, the result is one of the
   stored arrivals (a single operand, or a Clark early return). *)
let clark_fold pool config arrivals ids =
  let owned = ref [||] and input = ref arrivals.(ids.(0)) in
  for k = 1 to Array.length ids - 1 do
    let a = !input and b = arrivals.(ids.(k)) in
    let m = clark_into ~into:!owned pool config a b in
    if m != a && m != b then owned := m.coeffs;
    input := m
  done;
  (!input, !owned)

let max_fold pool config arrivals ids =
  if Array.length ids = 0 then invalid_arg "Arrival.max_fold: no operands";
  fst (clark_fold pool config arrivals ids)

(* One gate of the sweep: [sum (fold max fanins) (of_gate id)], bit
   for bit.  The result's vector is always one this call owns: the
   fold's blend vector when it holds the fold result at full length,
   else one from the pool into which the fold result is copied (it is a
   stored arrival, or shorter).  The gate's sensitivities are then
   added in place. *)
let step pool (config : Config.t) (gates : Gate_table.t) arrivals id =
  let graph = gates.Gate_table.graph in
  let fanins = Graph.fanins graph id in
  let a, owned =
    if Array.length fanins = 0 then (zero_arrival, [||])
    else clark_fold pool config arrivals fanins
  in
  let layers = gates.Gate_table.layers in
  let g =
    gate_form config layers graph
      ~bases:gates.Gate_table.bases.(id lsr Gate_table.chunk_bits)
      ~off:
        ((id land ((1 lsl Gate_table.chunk_bits) - 1))
        * layers.Layers.quad_levels)
      id
  in
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
      (* [sum] adds +0.0 to every other slot; leaving them as they are
         differs only on a -0.0 slot, which no dot product sees. *)
      put_sens g coeffs ~add:true;
      (* The same slot-order accumulation [combine] performs. *)
      Slots.dot config.Config.budget coeffs coeffs
    end
  in
  { mean = a.mean +. g.delay;
    coeffs;
    shared_var;
    resid = a.resid +. g.random_var }
