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
  parts : int array;
  part_coeffs : float array;
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

(* One accumulator per domain: a dense vector over every partition, all
   zero between walks, and the partitions the current walk touched, so
   that reading the result back and clearing it cost the few partitions
   a path crosses, not the whole layout. *)
type scratch = {
  mutable dense : float array;
  mutable seen : Bytes.t;  (* per slot: a partition's first slot touched *)
  mutable touched : int array;  (* touched partitions' first slots *)
  mutable ntouched : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { dense = [||]; seen = Bytes.empty; touched = [||]; ntouched = 0 })

let clear sc =
  for i = 0 to sc.ntouched - 1 do
    let base = sc.touched.(i) in
    Array.fill sc.dense base Slots.num_rvs 0.0;
    Bytes.set sc.seen base '\000'
  done;
  sc.ntouched <- 0

(* The domain's scratch, clear and large enough.  A walk that raised (a
   node id outside the graph) left its partial sums behind; the next
   walk clears them here. *)
let scratch ~quad_levels =
  let sc = Domain.DLS.get scratch_key in
  clear sc;
  let n = Slots.num_slots ~quad_levels in
  if Array.length sc.dense < n then begin
    sc.dense <- Array.make n 0.0;
    sc.seen <- Bytes.make n '\000';
    sc.touched <- Array.make (Slots.layer_offset quad_levels) 0
  end;
  sc

(* Add a gate's five derivatives to the partition whose first slot is
   [base]. *)
let add_part sc base grad =
  if Bytes.get sc.seen base = '\000' then begin
    Bytes.set sc.seen base '\001';
    sc.touched.(sc.ntouched) <- base;
    sc.ntouched <- sc.ntouched + 1
  end;
  add_derivatives sc.dense base grad

(* The touched partitions holding a non-zero slot, in increasing order,
   with their five slots; leaves the scratch clear.  Summed derivatives
   start at +0.0 and so are never -0.0: a slot is zero exactly when
   [<> 0.0] says so. *)
let take sc =
  let t = sc.touched and n = sc.ntouched in
  for i = 1 to n - 1 do
    let p = t.(i) and j = ref (i - 1) in
    while !j >= 0 && t.(!j) > p do
      t.(!j + 1) <- t.(!j);
      decr j
    done;
    t.(!j + 1) <- p
  done;
  let live b =
    let d = sc.dense in
    d.(b) <> 0.0 || d.(b + 1) <> 0.0 || d.(b + 2) <> 0.0 || d.(b + 3) <> 0.0
    || d.(b + 4) <> 0.0
  in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if live t.(i) then incr k
  done;
  let parts = Array.make !k 0 in
  let part_coeffs = Array.make (Slots.num_rvs * !k) 0.0 in
  k := 0;
  for i = 0 to n - 1 do
    let base = t.(i) in
    if live base then begin
      parts.(!k) <- base / Slots.num_rvs;
      Array.blit sc.dense base part_coeffs (Slots.num_rvs * !k) Slots.num_rvs;
      incr k
    end
  done;
  clear sc;
  (parts, part_coeffs)

let of_path ?grads ?ws:_ g pl (layers : Layers.t) (path : Paths.path) =
  let grads = match grads with Some a -> a | None -> Graph.grads g in
  let quad_levels = layers.Layers.quad_levels in
  let sc = scratch ~quad_levels in
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
        add_part sc
          (Slots.num_rvs * (Slots.layer_offset layer + partition))
          grad
      done;
      if random_sq <> [||] then add_squares random_sq grad
    end
  done;
  let parts, part_coeffs = take sc in
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
    parts;
    part_coeffs;
    random_sq }

let of_table (tb : Gate_table.t) (path : Paths.path) =
  let quad_levels = tb.Gate_table.layers.Layers.quad_levels in
  let sc = scratch ~quad_levels in
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
  (* [add_part], written out: the scratch's arrays are read once. *)
  let dense = sc.dense and seen = sc.seen and touched = sc.touched in
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
        let base = Int32.to_int (Bytes.get_int32_ne b (4 * (row + layer))) in
        if Bytes.get seen base = '\000' then begin
          Bytes.set seen base '\001';
          touched.(sc.ntouched) <- base;
          sc.ntouched <- sc.ntouched + 1
        end;
        add_derivatives dense base grad
      done;
      if random then add_squares random_sq grad
  done;
  let parts, part_coeffs = take sc in
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
      parts;
      part_coeffs;
      random_sq },
    !worst_sum )

let to_dense t =
  let n =
    Array.fold_left
      (fun n p -> Int.max n (Slots.num_rvs * (p + 1)))
      (Slots.num_slots ~quad_levels:t.quad_levels)
      t.parts
  in
  let v = Array.make n 0.0 in
  Array.iteri
    (fun i p ->
      Array.blit t.part_coeffs (Slots.num_rvs * i) v (Slots.num_rvs * p)
        Slots.num_rvs)
    t.parts;
  v

let random_variance t budget =
  let acc = ref 0.0 in
  for r = 0 to Array.length t.random_sq - 1 do
    acc := !acc +. (t.random_sq.(r) *. Slots.var budget ~layer:t.quad_levels r)
  done;
  !acc

let intra_variance t budget =
  Slots.sq_norm budget ~parts:t.parts t.part_coeffs +. random_variance t budget

let layer_variances t budget =
  Array.init (Budget.layers budget) (fun u ->
      if u = 0 then 0.0
      else if u < t.quad_levels then
        Slots.sq_norm budget ~layer:u ~parts:t.parts t.part_coeffs
      else if u = t.quad_levels then random_variance t budget
      else 0.0)
