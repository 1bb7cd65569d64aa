module Netlist = Ssta_circuit.Netlist
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Params = Ssta_tech.Params
module Elmore = Ssta_tech.Elmore
module Budget = Ssta_correlation.Budget
module Config = Ssta_core.Config

type corners = {
  trunc : float;
  full_bound : float;
  inter_bound : float;
  intra_fraction : float;
}

(* Per-layer truncation inflates the worst total deviation of each RV
   to trunc * sigma * sum_u sqrt w_u (L1 over layers). *)
let corners (config : Config.t) =
  let budget = config.Config.budget in
  let trunc = config.Config.truncation in
  let scale_all = ref 0.0 in
  for u = 0 to Budget.layers budget - 1 do
    scale_all := !scale_all +. sqrt (Budget.weight budget u)
  done;
  let w0 = Budget.inter_fraction budget in
  { trunc;
    full_bound = trunc *. !scale_all;
    inter_bound = trunc *. sqrt w0;
    intra_fraction = Float.max 0.0 (1.0 -. w0) }

(* A single gate's intra sigma is sqrt (sum_rv grad^2 sigma^2 (1 - w0)).
   The intra PDF of a path is a Gaussian with variance sigma_path^2 =
   sum of squared layer coefficients (Eq. 14), truncated at
   +- trunc * sigma_path, and sigma_path is at most the sum of the
   per-gate sigmas (coefficients add before squaring), so summing
   trunc * sigma_gate along a path bounds the path's intra support. *)
let intra_sigma k (grad : Params.t) =
  let var =
    List.fold_left
      (fun acc rv ->
        let d = Params.get grad rv and s = Params.sigma rv in
        acc +. (d *. d *. s *. s))
      0.0 Params.all_rvs
  in
  sqrt (k.intra_fraction *. var)

type box = { total : Interval.t; inter : Interval.t; halfwidth : float }

let gate_box k ~intra_sigma e =
  let full = Interval.of_pair (Elmore.delay_bounds ~bound:k.full_bound e) in
  let inter = Interval.of_pair (Elmore.delay_bounds ~bound:k.inter_bound e) in
  let h = k.trunc *. intra_sigma in
  { total = Interval.hull full (Interval.add inter (Interval.make ~lo:(-.h) ~hi:h));
    inter;
    halfwidth = h }

type 'a sweep = { arrival : 'a array; suffix : 'a array; circuit : 'a }

let sweep ~bottom ~zero ~join ~add (c : Netlist.t) gate =
  let n = Netlist.num_nodes c in
  let fanouts = Netlist.fanouts c in
  let is_output = Array.make n false in
  Array.iter (fun id -> is_output.(id) <- true) c.Netlist.outputs;
  let join_over values init preds =
    Array.fold_left (fun acc p -> join acc values.(p)) init preds
  in
  (* Fan-ins have smaller ids, so ascending order sees each one final. *)
  let arrival = Array.make n bottom in
  for id = 0 to n - 1 do
    let inflow =
      if Netlist.is_input c id then zero
      else join_over arrival bottom (Netlist.gate_of c id).Netlist.fanins
    in
    arrival.(id) <- add inflow gate.(id)
  done;
  (* Consumers have larger ids: descending, the suffix including each
     node's own gate; the exclusive suffix is recovered per node. *)
  let inclusive = Array.make n bottom in
  for id = n - 1 downto 0 do
    let init = if is_output.(id) then zero else bottom in
    inclusive.(id) <- add (join_over inclusive init fanouts.(id)) gate.(id)
  done;
  let suffix =
    Array.init n (fun id ->
        let from_consumers = join_over inclusive bottom fanouts.(id) in
        if is_output.(id) then join zero from_consumers else from_consumers)
  in
  { arrival; suffix; circuit = join_over arrival bottom c.Netlist.outputs }

type t = {
  gate_total : Interval.t array;
  gate_inter : Interval.t array;
  intra_halfwidth : float array;
  arrival : Interval.t array;
  suffix : Interval.t array;
  circuit : Interval.t;
}

let compute (config : Config.t) (g : Graph.t) =
  let n = Graph.num_nodes g in
  let k = corners config in
  let gate_total = Array.make n Interval.zero in
  let gate_inter = Array.make n Interval.zero in
  let intra_halfwidth = Array.make n 0.0 in
  let grads = Graph.grads g in
  match
    for id = 0 to n - 1 do
      if not (Graph.is_input g id) then begin
        let b =
          gate_box k ~intra_sigma:(intra_sigma k grads.(id))
            (Graph.electrical_exn g id)
        in
        gate_total.(id) <- b.total;
        gate_inter.(id) <- b.inter;
        intra_halfwidth.(id) <- b.halfwidth
      end
    done
  with
  | exception Invalid_argument msg -> Error msg
  | () ->
      let s =
        sweep ~bottom:Interval.bottom ~zero:Interval.zero ~join:Interval.sup
          ~add:Interval.add g.Graph.circuit gate_total
      in
      Ok
        { gate_total;
          gate_inter;
          intra_halfwidth;
          arrival = s.arrival;
          suffix = s.suffix;
          circuit = s.circuit }

let sum_along (arr : Interval.t array) (path : Paths.path) =
  Array.fold_left (fun acc id -> Interval.add acc arr.(id)) Interval.zero
    path.Paths.nodes

let path_total t path = sum_along t.gate_total path
let path_inter t path = sum_along t.gate_inter path

let path_intra_halfwidth t (path : Paths.path) =
  Array.fold_left
    (fun acc id -> acc +. t.intra_halfwidth.(id))
    0.0 path.Paths.nodes
