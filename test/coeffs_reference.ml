(* The hashtable form of the Eq. (13) accumulation: one entry per
   (rv, layer, partition) a path touches, the random layer keyed on gate
   ids, each entry summed in path order from 0.0.  The dense
   [Path_coeffs] vector is checked against it. *)

module Params = Ssta_tech.Params
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Placement = Ssta_circuit.Placement
module Layers = Ssta_correlation.Layers
module Budget = Ssta_correlation.Budget
module Slots = Ssta_correlation.Slots

let of_path g pl layers (path : Paths.path) =
  let coeffs : (Slots.key, float) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun id ->
      if not (Graph.is_input g id) then begin
        let grad =
          Ssta_tech.Derivatives.gradient (Graph.electrical_exn g id)
            Params.nominal
        in
        let x, y = Placement.coord pl id in
        List.iter
          (fun rv ->
            let d = Params.get grad rv in
            for layer = 1 to Layers.num_layers layers - 1 do
              let partition =
                Layers.partition_of_gate layers ~level:layer ~gate_id:id ~x ~y
              in
              let key = { Slots.rv; layer; partition } in
              let prev = try Hashtbl.find coeffs key with Not_found -> 0.0 in
              Hashtbl.replace coeffs key (prev +. d)
            done)
          Params.all_rvs
      end)
    path.Paths.nodes;
  coeffs

let share budget (key : Slots.key) c =
  let sigma =
    Budget.sigma_of_layer budget ~total_sigma:(Params.sigma key.Slots.rv)
      key.Slots.layer
  in
  c *. c *. sigma *. sigma

let intra_variance coeffs budget =
  Hashtbl.fold (fun key c acc -> acc +. share budget key c) coeffs 0.0

let layer_variances coeffs budget =
  let shares = Array.make (Budget.layers budget) 0.0 in
  Hashtbl.iter
    (fun (key : Slots.key) c ->
      shares.(key.Slots.layer) <- shares.(key.Slots.layer) +. share budget key c)
    coeffs;
  shares

(* The production table walk against the references, bit for bit:
   every quad-tree slot against the hashtable oracle, every field
   against [Path_coeffs.of_path], the corner sum against
   [Paths.worst_case_delay] (which must raise the table's corner error
   when there is one and the path has a gate).  [None] when all agree,
   else what differs. *)
module Gate_table = Ssta_correlation.Gate_table
module Path_coeffs = Ssta_correlation.Path_coeffs

let table_walk_mismatch (tb : Gate_table.t) (path : Paths.path) =
  let g = tb.Gate_table.graph and pl = tb.Gate_table.placement in
  let layers = tb.Gate_table.layers in
  let pc, worst = Path_coeffs.of_table tb path in
  let reference = Path_coeffs.of_path g pl layers path in
  let oracle = of_path g pl layers path in
  let bits = Int64.bits_of_float in
  let same a b = Int64.equal (bits a) (bits b) in
  let same_floats a b =
    Array.length a = Array.length b && Array.for_all2 same a b
  in
  let quad_levels = layers.Layers.quad_levels in
  let dense = Path_coeffs.to_dense pc in
  let slots_ok =
    Array.length dense = Slots.num_slots ~quad_levels
    &&
    List.for_all
      (fun layer ->
        List.for_all
          (fun partition ->
            List.for_all
              (fun rv ->
                let key = { Slots.rv; layer; partition } in
                let expected =
                  if layer = 0 then 0.0
                  else Option.value ~default:0.0 (Hashtbl.find_opt oracle key)
                in
                same expected dense.(Slots.slot key))
              Params.all_rvs)
          (List.init (1 lsl (2 * layer)) Fun.id))
      (List.init quad_levels Fun.id)
  in
  let worst_ok =
    match
      Paths.worst_case_delay ~corner_k:tb.Gate_table.corner_k g path
    with
    | w -> tb.Gate_table.corner_error = None && same w worst
    | exception Invalid_argument msg ->
        tb.Gate_table.corner_error = Some msg
        && pc.Path_coeffs.gate_count > 0
  in
  let checks =
    [ ("slots vs oracle", slots_ok);
      ("alpha_sum", same pc.Path_coeffs.alpha_sum reference.Path_coeffs.alpha_sum);
      ("beta_sum", same pc.Path_coeffs.beta_sum reference.Path_coeffs.beta_sum);
      ( "gate_count",
        pc.Path_coeffs.gate_count = reference.Path_coeffs.gate_count
        && pc.Path_coeffs.gate_count = Paths.path_gate_count g path );
      ( "nominal_delay",
        same pc.Path_coeffs.nominal_delay reference.Path_coeffs.nominal_delay );
      ( "grad_sum",
        List.for_all
          (fun rv ->
            same
              (Params.get pc.Path_coeffs.grad_sum rv)
              (Params.get reference.Path_coeffs.grad_sum rv))
          Params.all_rvs );
      ("quad_levels", pc.Path_coeffs.quad_levels = reference.Path_coeffs.quad_levels);
      ( "parts",
        pc.Path_coeffs.parts = reference.Path_coeffs.parts
        && same_floats pc.Path_coeffs.part_coeffs
             reference.Path_coeffs.part_coeffs );
      ( "parts increasing, each with a non-zero slot",
        let parts = pc.Path_coeffs.parts in
        Array.length pc.Path_coeffs.part_coeffs
        = Slots.num_rvs * Array.length parts
        && Array.for_all Fun.id
             (Array.mapi
                (fun i p ->
                  (i = 0 || parts.(i - 1) < p)
                  && Array.exists
                       (fun c -> c <> 0.0)
                       (Array.sub pc.Path_coeffs.part_coeffs
                          (Slots.num_rvs * i) Slots.num_rvs))
                parts) );
      ( "random_sq",
        same_floats pc.Path_coeffs.random_sq reference.Path_coeffs.random_sq );
      ("worst case", worst_ok) ]
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks

(* Two tables hold the same entries, bit for bit, for the same graph and
   placement (physically).  [None] when equal, else the first field
   that differs. *)
let table_mismatch (a : Gate_table.t) (b : Gate_table.t) =
  let bits = Int64.bits_of_float in
  let same x y = Int64.equal (bits x) (bits y) in
  let same_grad (p : Params.t) (q : Params.t) =
    List.for_all (fun rv -> same (Params.get p rv) (Params.get q rv)) Params.all_rvs
  in
  let n = Graph.num_nodes a.Gate_table.graph in
  let q = a.Gate_table.layers.Layers.quad_levels in
  let every f = List.for_all f (List.init n Fun.id) in
  let checks =
    [ ("graph", a.Gate_table.graph == b.Gate_table.graph);
      ("placement", a.Gate_table.placement == b.Gate_table.placement);
      ("layers", a.Gate_table.layers = b.Gate_table.layers);
      ("corner_k", same a.Gate_table.corner_k b.Gate_table.corner_k);
      ("corner_error", a.Gate_table.corner_error = b.Gate_table.corner_error);
      ( "grads",
        Array.length a.Gate_table.grads = Array.length b.Gate_table.grads
        && Array.for_all2 same_grad a.Gate_table.grads b.Gate_table.grads );
      ("worst", every (fun id -> same (Gate_table.worst a id) (Gate_table.worst b id)));
      ( "bases",
        every (fun id ->
            List.for_all
              (fun l -> Gate_table.base a id l = Gate_table.base b id l)
              (List.init q Fun.id)) ) ]
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks
