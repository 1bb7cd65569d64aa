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
  spans : Slots.spans;
      (** the support of [coeffs]: one span of partitions per layer,
          with every slot outside the spans +0.0 *)
  shared_var : float;  (** variance of the shared part, under the budget *)
  resid : float;  (** variance of the independent residual *)
}

(* The coefficient vectors use the shared {!Ssta_correlation.Slots}
   layout: partition-major and RV-minor, built whole-partition, so their
   lengths are multiples of 5.  A gate's delay depends only on the
   partitions it sits in, so an arrival's vector is zero outside its
   fan-in cone's partitions.  Each arrival keeps the hull of those
   partitions on every layer (its spans); the covariance walks the
   intersection of two arrivals' spans and the Clark blend their union,
   which is bit for bit the dense arithmetic because every slot outside
   a support is +0.0.  One span per layer costs no more bookkeeping
   than the dense loops' own per-layer bounds. *)

(* ----- construction ----- *)

let zero_arrival =
  { mean = 0.0; coeffs = [||]; spans = [||]; shared_var = 0.0;
    resid = 0.0 }

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
  let spans =
    if terms = [] then [||]
    else
      Slots.spans_of_parts ~layers:quad_levels
        (List.map (fun (key, _) -> Slots.slot key / Slots.num_rvs) terms)
  in
  { mean;
    coeffs;
    spans;
    shared_var = Slots.dot config.Config.budget coeffs coeffs;
    resid }

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

(* The gate's partition on each shared layer into [parts]. *)
let gate_parts g (parts : int array) =
  for l = 0 to g.shared_layers - 1 do
    parts.(l) <- Gate_table.chunk_base g.bases (g.off + l) / Slots.num_rvs
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
  let parts = Array.make g.shared_layers 0 in
  gate_parts g parts;
  let spans = Slots.empty_spans ~layers:g.shared_layers in
  Slots.widen_spans spans parts;
  { mean = g.delay;
    coeffs;
    spans;
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
   lose all cell resolution to float absorption once shifted.  The
   centred grid is built here and given up, so the shift moves it. *)
let total_pdf (config : Config.t) t =
  let n = config.Config.quality_intra in
  let sigma = sqrt (Float.max 0.0 (t.shared_var +. t.resid)) in
  if sigma > 1e-6 *. Float.max (Float.abs t.mean) 1e-15 then
    Pdf.shift_owned
      (Dist.truncated_gaussian ~n ~bound:config.Config.truncation ~mu:0.0
         ~sigma ())
      t.mean
  else Pdf.point_mass ~n t.mean

(* ----- the per-sweep vector pool ----- *)

type pool = {
  mutable free : t list;
      (** dead step results; their slots outside their spans are +0.0 *)
  mutable walk_len : int;  (** the vector length [walk] is sized for *)
  mutable owned : t;
      (** the arrival whose vector the current fold writes into
          ([zero_arrival] when none) *)
  mutable walk : Slots.spans;  (** scratch support *)
  mutable gate : int array;  (** the current gate's partitions *)
  out : float array;
      (** the blend kernel's two sums, then Clark's phi, mean and
          variance *)
  work : int array;  (** partitions walked by the slot kernels *)
}

let pool () =
  { free = [];
    walk_len = -1;
    owned = zero_arrival;
    walk = [||];
    gate = [||];
    out = Array.make 5 0.0;
    work = [| 0 |] }

let walked pool = pool.work.(0)

let recycle pool t =
  if Array.length t.coeffs > 0 then pool.free <- t :: pool.free

(* The layers of an [n]-slot vector. *)
let layers_of n =
  let l = ref 0 in
  while Slots.num_slots ~quad_levels:!l < n do
    incr l
  done;
  !l

(* A vector of [n] slots no arrival reads: the pool's last recycled one
   when it has that length (its stale slots lie inside its spans), else
   a fresh all-zero one with empty spans. *)
let take pool n =
  match pool.free with
  | v :: rest when Array.length v.coeffs = n ->
      pool.free <- rest;
      v
  | _ ->
      { zero_arrival with
        coeffs = Array.make n 0.0;
        spans = Slots.empty_spans ~layers:(layers_of n) }

(* The scratch support, with a span for each layer of an [n]-slot
   vector. *)
let walk_for pool n =
  if pool.walk_len <> n then begin
    pool.walk <- Array.make (2 * layers_of n) 0;
    pool.walk_len <- n
  end;
  pool.walk

(* The fold's own vector goes back to the pool once no arrival reads it:
   when the fold result is a stored arrival after all (a Clark early
   return), or has been copied out. *)
let drop_owned pool =
  recycle pool pool.owned;
  pool.owned <- zero_arrival

(* The vector the blend of [a] with an [n]-slot result writes into: the
   fold's own when it holds [a] at that length, else one from {!take}.
   Its slots outside the spans being written are zeroed by {!finish}. *)
let target pool a n =
  let owned = pool.owned in
  if Array.length owned.coeffs = n && owned.coeffs == a.coeffs then owned
  else begin
    drop_owned pool;
    take pool n
  end

(* [c] now holds the result on [walk]: zero what its old spans held
   outside the walk, and take the walk as its spans (a plain loop:
   [Array.blit] pays a write barrier per element of an int array). *)
let finish c (walk : Slots.spans) =
  Slots.clear_outside c.coeffs c.spans walk;
  let s = c.spans in
  for i = 0 to Array.length walk - 1 do
    s.(i) <- walk.(i)
  done

(* ----- operators ----- *)

let no_gate = [||]

let sum (config : Config.t) a b =
  if Array.length a.coeffs = 0 then
    { b with mean = a.mean +. b.mean; resid = a.resid +. b.resid }
  else if Array.length b.coeffs = 0 then
    { a with mean = a.mean +. b.mean; resid = a.resid +. b.resid }
  else begin
    let n = Int.max (Array.length a.coeffs) (Array.length b.coeffs) in
    let coeffs = Array.make n 0.0 and spans = Array.make (2 * layers_of n) 0 in
    Slots.union_spans spans a.spans b.spans;
    let out = Array.make 2 0.0 in
    Slots.blend_gate_spans config.Config.budget spans coeffs ~wa:1.0 a.coeffs
      ~wb:1.0 b.coeffs ~gate:no_gate Params.zero [| 0 |] out;
    { mean = a.mean +. b.mean;
      coeffs;
      spans;
      shared_var = out.(0);
      resid = a.resid +. b.resid }
  end

(* Clark's max of two correlated Gaussians: 1 when the means differ by
   more than 8 standard deviations of [a - b] in [a]'s favour, 2 in
   [b]'s, else 0 with the tightness probability phi = P(A > B), the
   mean and the variance of the max in [pool.out.(2 .. 4)].  The
   covariance walks the intersection of the operands' spans. *)
let clark_moments pool budget a b =
  let va = a.shared_var +. a.resid and vb = b.shared_var +. b.resid in
  let walk =
    walk_for pool (Int.min (Array.length a.coeffs) (Array.length b.coeffs))
  in
  Slots.inter_spans walk a.spans b.spans;
  let cov = Slots.dot_spans budget walk a.coeffs b.coeffs pool.work in
  let theta2 = Float.max 1e-300 (va +. vb -. (2.0 *. cov)) in
  let theta = sqrt theta2 in
  let d = (a.mean -. b.mean) /. theta in
  if d > 8.0 then 1
  else if d < -8.0 then 2
  else begin
    let phi = Erf.normal_cdf d in
    let dens = Erf.normal_pdf d in
    let mean = (a.mean *. phi) +. (b.mean *. (1.0 -. phi)) +. (theta *. dens) in
    let second_moment =
      ((va +. (a.mean *. a.mean)) *. phi)
      +. ((vb +. (b.mean *. b.mean)) *. (1.0 -. phi))
      +. ((a.mean +. b.mean) *. theta *. dens)
    in
    let out = pool.out in
    out.(2) <- phi;
    out.(3) <- mean;
    out.(4) <- Float.max 0.0 (second_moment -. (mean *. mean));
    0
  end

(* Clark's blend (after {!clark_moments} returned 0), with [gate]'s
   sensitivities added in the same pass when [gate] is not empty: the
   coefficients are blended by phi over the union of the operands'
   spans (and the gate's partitions) into a vector from {!target}.
   Returns that vector's arrival with the result's spans; the sums are
   in [pool.out.(0 .. 1)]. *)
let blend_into pool budget a b ~gate grad =
  let out = pool.out in
  let n = Int.max (Array.length a.coeffs) (Array.length b.coeffs) in
  let c = target pool a n in
  let walk = walk_for pool n in
  Slots.union_spans walk a.spans b.spans;
  Slots.widen_spans walk gate;
  Slots.blend_gate_spans budget walk c.coeffs ~wa:out.(2) a.coeffs
    ~wb:(1.0 -. out.(2)) b.coeffs ~gate grad pool.work out;
  finish c walk;
  c

let blend pool budget a b =
  let out = pool.out in
  let mean = out.(3) and var = out.(4) in
  if Array.length a.coeffs = 0 && Array.length b.coeffs = 0 then
    { mean; coeffs = [||]; spans = [||]; shared_var = 0.0; resid = var }
  else begin
    let c = blend_into pool budget a b ~gate:no_gate Params.zero in
    let shared_var = out.(0) in
    { mean;
      coeffs = c.coeffs;
      spans = c.spans;
      shared_var;
      resid = Float.max 0.0 (var -. shared_var) }
  end

let clark pool budget a b =
  match clark_moments pool budget a b with
  | 1 -> a
  | 2 -> b
  | _ -> blend pool budget a b

let max (config : Config.t) a b = clark (pool ()) config.Config.budget a b

(* ----- folds and the engine's per-gate step ----- *)

(* [max] folded left to right over [arrivals.(ids.(0 .. upto - 1))],
   bit for bit, with every blend in one vector the fold owns
   ([pool.owned]): the first blend takes it from the pool, later blends
   overwrite it in place (the blend is elementwise, so
   [c := phi c + (1 - phi) b] is safe).  When the result is not
   [pool.owned], it is one of the stored arrivals (a single operand, or
   a Clark early return). *)
let fold_prefix pool budget arrivals ids upto =
  pool.owned <- zero_arrival;
  let input = ref arrivals.(ids.(0)) in
  for k = 1 to upto - 1 do
    let a = !input and b = arrivals.(ids.(k)) in
    let m = clark pool budget a b in
    if m != a && m != b then pool.owned <- m;
    input := m
  done;
  !input

let max_fold pool (config : Config.t) arrivals ids =
  if Array.length ids = 0 then invalid_arg "Arrival.max_fold: no operands";
  let m =
    fold_prefix pool config.Config.budget arrivals ids (Array.length ids)
  in
  if pool.owned.coeffs != m.coeffs then drop_owned pool;
  pool.owned <- zero_arrival;
  m

(* [sum a (the gate)] in a vector this call owns: the fold's own when it
   holds [a] at full length, else one from the pool into which [a]'s
   spans are copied (it is a stored arrival, or shorter).  The gate's
   sensitivities are then added in place and the variance summed over
   the result's spans. *)
let add_gate pool budget g a =
  let owned = pool.owned in
  let la = Array.length a.coeffs in
  let n = Int.max la g.len in
  let c =
    if a.coeffs == owned.coeffs && la = n then owned
    else begin
      let c = take pool n in
      Slots.clear_outside c.coeffs c.spans a.spans;
      for l = 0 to (Array.length a.spans / 2) - 1 do
        let lo = a.spans.(2 * l) and hi = a.spans.((2 * l) + 1) in
        if hi > lo then
          Array.blit a.coeffs (Slots.num_rvs * lo) c.coeffs
            (Slots.num_rvs * lo) (Slots.num_rvs * (hi - lo))
      done;
      Slots.union_spans c.spans a.spans [||];
      drop_owned pool;
      c
    end
  in
  pool.owned <- zero_arrival;
  let shared_var =
    if la = 0 then begin
      (* [sum] takes the gate's own vector and variance. *)
      put_sens g c.coeffs ~add:false;
      Slots.widen_spans c.spans pool.gate;
      g.gate_shared_var
    end
    else begin
      (* [sum] adds +0.0 to every other slot; leaving them as they are
         differs only on a -0.0 slot, which no dot product sees. *)
      put_sens g c.coeffs ~add:true;
      Slots.widen_spans c.spans pool.gate;
      (* The slot-order sum [sum]'s blend performs. *)
      Slots.dot_spans budget c.spans c.coeffs c.coeffs pool.work
    end
  in
  { mean = a.mean +. g.delay;
    coeffs = c.coeffs;
    spans = c.spans;
    shared_var;
    resid = a.resid +. g.random_var }

(* The last Clark merge of a gate with [k >= 2] fan-ins, fused with the
   gate's own sensitivities: one pass over the union of the operands'
   spans and the gate's partitions writes [phi a + (1 - phi) b + gate]
   and sums both the blend's variance (for Clark's residual) and the
   result's (for the arrival), bit for bit the blend followed by
   {!add_gate}.  Early returns, and operands shorter than the gate's
   vector, take that path instead. *)
let merge_gate pool budget g a b =
  match clark_moments pool budget a b with
  | 1 -> add_gate pool budget g a
  | 2 -> add_gate pool budget g b
  | _ ->
      let n = Int.max (Array.length a.coeffs) (Array.length b.coeffs) in
      if n < g.len then begin
        let m = blend pool budget a b in
        if n > 0 then pool.owned <- m;
        add_gate pool budget g m
      end
      else begin
        let c = blend_into pool budget a b ~gate:pool.gate g.grad in
        let out = pool.out in
        pool.owned <- zero_arrival;
        { mean = out.(3) +. g.delay;
          coeffs = c.coeffs;
          spans = c.spans;
          shared_var = out.(1);
          resid = Float.max 0.0 (out.(4) -. out.(0)) +. g.random_var }
      end

(* One gate of the sweep: [sum (fold max fanins) (of_gate id)], bit
   for bit. *)
let step pool (config : Config.t) (gates : Gate_table.t) arrivals id =
  let budget = config.Config.budget in
  let graph = gates.Gate_table.graph in
  let fanins = Graph.fanins graph id in
  let layers = gates.Gate_table.layers in
  let g =
    gate_form config layers graph
      ~bases:gates.Gate_table.bases.(id lsr Gate_table.chunk_bits)
      ~off:
        ((id land ((1 lsl Gate_table.chunk_bits) - 1))
        * layers.Layers.quad_levels)
      id
  in
  if Array.length pool.gate <> g.shared_layers then
    pool.gate <- Array.make g.shared_layers 0;
  gate_parts g pool.gate;
  let k = Array.length fanins in
  if k = 0 then begin
    pool.owned <- zero_arrival;
    add_gate pool budget g zero_arrival
  end
  else begin
    let a = fold_prefix pool budget arrivals fanins (k - 1) in
    if k = 1 then add_gate pool budget g a
    else merge_gate pool budget g a arrivals.(fanins.(k - 1))
  end
