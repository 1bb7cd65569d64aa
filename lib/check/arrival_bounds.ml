module Netlist = Ssta_circuit.Netlist
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Params = Ssta_tech.Params
module Elmore = Ssta_tech.Elmore
module Budget = Ssta_correlation.Budget
module Config = Ssta_core.Config

type t = {
  gate_total : Interval.t array;
  gate_inter : Interval.t array;
  intra_halfwidth : float array;
  arrival : Interval.t array;
  suffix : Interval.t array;
  circuit : Interval.t;
  forward_stats : string;
  backward_stats : string;
}

module Arrival_domain = struct
  type t = Interval.t

  let bottom = Interval.bottom
  let equal = Interval.equal
  let join = Interval.sup
  let widen = Interval.widen_sup
  let pp = Interval.pp
end

module Solver = Dataflow.Make (Arrival_domain)

let pp_stats (s : Solver.stats) =
  Printf.sprintf "visits=%d updates=%d widenings=%d converged=%b"
    s.Solver.visits s.Solver.updates s.Solver.widenings s.Solver.converged

(* Half-width of the analytic intra-die delay contribution of one gate.
   The intra PDF of a path is a Gaussian with variance
   sigma_path^2 = sum of squared layer coefficients (Eq. 14), truncated
   at +- trunc * sigma_path.  A single gate's intra sigma is
   sqrt (sum_rv grad^2 sigma^2 (1 - w0)), and sigma_path is at most the
   sum of the per-gate sigmas (coefficients add before squaring), so
   summing trunc * sigma_gate along a path bounds the path's intra
   support. *)
let intra_halfwidth_of ~trunc ~intra_fraction (grad : Params.t) =
  let var =
    List.fold_left
      (fun acc rv ->
        let d = Params.get grad rv and s = Params.sigma rv in
        acc +. (d *. d *. s *. s))
      0.0 Params.all_rvs
  in
  trunc *. sqrt (intra_fraction *. var)

let compute (config : Config.t) (g : Graph.t) =
  let c = g.Graph.circuit in
  let n = Netlist.num_nodes c in
  let budget = config.Config.budget in
  let trunc = config.Config.truncation in
  let num_layers = Budget.layers budget in
  (* Per-layer truncation inflates the worst total deviation of each RV
     to trunc * sigma * sum_u sqrt w_u (L1 over layers). *)
  let scale_all = ref 0.0 in
  for u = 0 to num_layers - 1 do
    scale_all := !scale_all +. sqrt (Budget.weight budget u)
  done;
  let scale_all = !scale_all in
  let w0 = Budget.inter_fraction budget in
  let intra_fraction = Float.max 0.0 (1.0 -. w0) in
  let gate_total = Array.make n Interval.zero in
  let gate_inter = Array.make n Interval.zero in
  let intra_halfwidth = Array.make n 0.0 in
  let grads = Graph.grads g in
  match
    for id = 0 to n - 1 do
      if not (Graph.is_input g id) then begin
        let e = Graph.electrical_exn g id in
        let full = Interval.of_pair (Elmore.delay_bounds ~bound:(trunc *. scale_all) e) in
        let inter =
          Interval.of_pair (Elmore.delay_bounds ~bound:(trunc *. sqrt w0) e)
        in
        let h = intra_halfwidth_of ~trunc ~intra_fraction grads.(id) in
        gate_inter.(id) <- inter;
        intra_halfwidth.(id) <- h;
        gate_total.(id) <-
          Interval.hull full
            (Interval.add inter (Interval.make ~lo:(-.h) ~hi:h))
      end
    done
  with
  | exception Invalid_argument msg -> Error msg
  | () ->
      let forward =
        Solver.fixpoint ~direction:Dataflow.Forward c
          ~init:(fun id ->
            if Netlist.is_input c id then Interval.zero else Interval.bottom)
          ~transfer:(fun ~node inflow -> Interval.add inflow gate_total.(node))
      in
      let arrival = forward.Solver.values in
      (* Backward value: suffix delay including the node's own gate
         delay; the exclusive suffix is recovered per node below. *)
      let is_output = Array.make n false in
      Array.iter (fun id -> is_output.(id) <- true) c.Netlist.outputs;
      let backward =
        Solver.fixpoint ~direction:Dataflow.Backward c
          ~init:(fun id -> if is_output.(id) then Interval.zero else Interval.bottom)
          ~transfer:(fun ~node inflow -> Interval.add inflow gate_total.(node))
      in
      let fanouts = Netlist.fanouts c in
      let suffix =
        Array.init n (fun id ->
            let from_consumers =
              Array.fold_left
                (fun acc cid -> Interval.sup acc backward.Solver.values.(cid))
                Interval.bottom fanouts.(id)
            in
            if is_output.(id) then Interval.sup Interval.zero from_consumers
            else from_consumers)
      in
      let circuit =
        Array.fold_left
          (fun acc id -> Interval.sup acc arrival.(id))
          Interval.bottom c.Netlist.outputs
      in
      Ok
        { gate_total;
          gate_inter;
          intra_halfwidth;
          arrival;
          suffix;
          circuit;
          forward_stats = pp_stats forward.Solver.stats;
          backward_stats = pp_stats backward.Solver.stats }

let sum_along (arr : Interval.t array) (path : Paths.path) =
  Array.fold_left (fun acc id -> Interval.add acc arr.(id)) Interval.zero
    path.Paths.nodes

let path_total t path = sum_along t.gate_total path
let path_inter t path = sum_along t.gate_inter path

let path_intra_halfwidth t (path : Paths.path) =
  Array.fold_left
    (fun acc id -> acc +. t.intra_halfwidth.(id))
    0.0 path.Paths.nodes
