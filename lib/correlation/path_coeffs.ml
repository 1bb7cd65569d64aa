module Params = Ssta_tech.Params
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Placement = Ssta_circuit.Placement

type key = Slots.key = { rv : Params.rv; layer : int; partition : int }

type t = {
  alpha_sum : float;
  beta_sum : float;
  gate_count : int;
  nominal_delay : float;
  grad_sum : Params.t;
  quad_levels : int;
  coeffs : float array;
  random_sq : float array;
}

type workspace = unit

let workspace_create () = ()

(* Add [grad]'s five derivatives to [acc.(base) .. acc.(base + 4)] in
   {!Params.rv_index} order (and, below, their squares to
   [acc.(0) .. acc.(4)]); reading the fields keeps the floats unboxed. *)
let add_derivatives acc base (grad : Params.t) =
  acc.(base) <- acc.(base) +. grad.Params.tox;
  acc.(base + 1) <- acc.(base + 1) +. grad.Params.leff;
  acc.(base + 2) <- acc.(base + 2) +. grad.Params.vdd;
  acc.(base + 3) <- acc.(base + 3) +. grad.Params.vtn;
  acc.(base + 4) <- acc.(base + 4) +. grad.Params.vtp

let add_squares acc (grad : Params.t) =
  acc.(0) <- acc.(0) +. (grad.Params.tox *. grad.Params.tox);
  acc.(1) <- acc.(1) +. (grad.Params.leff *. grad.Params.leff);
  acc.(2) <- acc.(2) +. (grad.Params.vdd *. grad.Params.vdd);
  acc.(3) <- acc.(3) +. (grad.Params.vtn *. grad.Params.vtn);
  acc.(4) <- acc.(4) +. (grad.Params.vtp *. grad.Params.vtp)

let of_path ?grads ?ws:_ g pl (layers : Layers.t) (path : Paths.path) =
  let grads = match grads with Some a -> a | None -> Graph.grads g in
  let quad_levels = layers.Layers.quad_levels in
  let coeffs = Array.make (Slots.num_slots ~quad_levels) 0.0 in
  let random_sq =
    if layers.Layers.random_layer then Array.make Slots.num_rvs 0.0 else [||]
  in
  let alpha_sum = ref 0.0 and beta_sum = ref 0.0 in
  let gate_count = ref 0 and nominal_delay = ref 0.0 in
  let grad_sum = Array.make Slots.num_rvs 0.0 in
  let nodes = path.Paths.nodes in
  for k = 0 to Array.length nodes - 1 do
    let id = nodes.(k) in
    if not (Graph.is_input g id) then begin
      let e = Graph.electrical_exn g id in
      alpha_sum := !alpha_sum +. e.Ssta_tech.Gate.alpha;
      beta_sum := !beta_sum +. e.Ssta_tech.Gate.beta;
      incr gate_count;
      nominal_delay := !nominal_delay +. g.Graph.delay.(id);
      let grad = grads.(id) in
      add_derivatives grad_sum 0 grad;
      let x, y = Placement.coord pl id in
      (* Intra layers start at 1; layer 0 is the inter part. *)
      for layer = 1 to quad_levels - 1 do
        let partition = Layers.partition_of layers ~level:layer ~x ~y in
        add_derivatives coeffs
          (Slots.num_rvs * (Slots.layer_offset layer + partition))
          grad
      done;
      if random_sq <> [||] then add_squares random_sq grad
    end
  done;
  { alpha_sum = !alpha_sum;
    beta_sum = !beta_sum;
    gate_count = !gate_count;
    nominal_delay = !nominal_delay;
    grad_sum =
      { Params.tox = grad_sum.(0);
        leff = grad_sum.(1);
        vdd = grad_sum.(2);
        vtn = grad_sum.(3);
        vtp = grad_sum.(4) };
    quad_levels;
    coeffs;
    random_sq }

let of_table (tb : Gate_table.t) (path : Paths.path) =
  let quad_levels = tb.Gate_table.layers.Layers.quad_levels in
  let coeffs = Array.make (Slots.num_slots ~quad_levels) 0.0 in
  let random_sq =
    if tb.Gate_table.layers.Layers.random_layer then
      Array.make Slots.num_rvs 0.0
    else [||]
  in
  let random = random_sq <> [||] in
  let graph = tb.Gate_table.graph and grads = tb.Gate_table.grads in
  let corner = tb.Gate_table.corner and bases = tb.Gate_table.bases in
  let mask = (1 lsl Gate_table.chunk_bits) - 1 in
  let alpha_sum = ref 0.0 and beta_sum = ref 0.0 and worst_sum = ref 0.0 in
  let gate_count = ref 0 and nominal_delay = ref 0.0 in
  let grad_sum = Array.make Slots.num_rvs 0.0 in
  let nodes = path.Paths.nodes in
  for k = 0 to Array.length nodes - 1 do
    let id = nodes.(k) in
    match graph.Graph.electrical.(id) with
    | None -> ()
    | Some e ->
      alpha_sum := !alpha_sum +. e.Ssta_tech.Gate.alpha;
      beta_sum := !beta_sum +. e.Ssta_tech.Gate.beta;
      incr gate_count;
      nominal_delay := !nominal_delay +. graph.Graph.delay.(id);
      (* [Elmore.delay_of corner e], written out so that the float
         stays unboxed. *)
      worst_sum :=
        !worst_sum
        +. corner.Ssta_tech.Elmore.geometry
           *. ((e.Ssta_tech.Gate.alpha *. corner.Ssta_tech.Elmore.vn)
              +. (e.Ssta_tech.Gate.beta *. corner.Ssta_tech.Elmore.vp));
      let grad = grads.(id) in
      add_derivatives grad_sum 0 grad;
      (* The table's chunk of 32-bit bases, read in place as
         {!Gate_table.chunk_base} does (see {!Gate_table.chunk_bits}). *)
      let b = bases.(id lsr Gate_table.chunk_bits)
      and row = (id land mask) * quad_levels in
      for layer = 1 to quad_levels - 1 do
        add_derivatives coeffs
          (Int32.to_int (Bytes.get_int32_ne b (4 * (row + layer))))
          grad
      done;
      if random then add_squares random_sq grad
  done;
  ( { alpha_sum = !alpha_sum;
      beta_sum = !beta_sum;
      gate_count = !gate_count;
      nominal_delay = !nominal_delay;
      grad_sum =
        { Params.tox = grad_sum.(0);
          leff = grad_sum.(1);
          vdd = grad_sum.(2);
          vtn = grad_sum.(3);
          vtp = grad_sum.(4) };
      quad_levels;
      coeffs;
      random_sq },
    !worst_sum )

let random_variance t budget =
  let acc = ref 0.0 in
  for r = 0 to Array.length t.random_sq - 1 do
    acc := !acc +. (t.random_sq.(r) *. Slots.var budget ~layer:t.quad_levels r)
  done;
  !acc

let intra_variance t budget =
  Slots.sq_norm budget t.coeffs +. random_variance t budget

let layer_variances t budget =
  Array.init (Budget.layers budget) (fun u ->
      if u = 0 then 0.0
      else if u < t.quad_levels then Slots.sq_norm budget ~layer:u t.coeffs
      else if u = t.quad_levels then random_variance t budget
      else 0.0)
