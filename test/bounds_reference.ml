(* The worklist form of [Arrival_bounds.compute] and [Affine.compute]:
   every per-gate value by its formula spelled out in full, then the
   arrival and suffix recurrences as forward and backward fixpoints of
   the test-side [Worklist] solver.  The library's one-pass sweeps are
   checked against it bit for bit. *)

module Netlist = Ssta_circuit.Netlist
module Graph = Ssta_timing.Graph
module Params = Ssta_tech.Params
module Elmore = Ssta_tech.Elmore
module Budget = Ssta_correlation.Budget
module Config = Ssta_core.Config
module Interval = Ssta_check.Interval
module Affine = Ssta_check.Affine

(* What the recurrence needs of a domain: the worklist's lattice plus a
   unit and a sum. *)
module type SEMIRING = sig
  include Worklist.DOMAIN

  val zero : t
  val add : t -> t -> t
end

(* (arrival, suffix exclusive of the node's own gate, circuit). *)
module Recurrence (D : SEMIRING) = struct
  module S = Worklist.Make (D)

  let run (c : Netlist.t) (gate : D.t array) =
    let n = Netlist.num_nodes c in
    let transfer ~node inflow = D.add inflow gate.(node) in
    let arrival =
      S.fixpoint ~direction:Worklist.Forward c ~transfer ~init:(fun id ->
          if Netlist.is_input c id then D.zero else D.bottom)
    in
    let is_output = Array.make n false in
    Array.iter (fun id -> is_output.(id) <- true) c.Netlist.outputs;
    let inclusive =
      S.fixpoint ~direction:Worklist.Backward c ~transfer ~init:(fun id ->
          if is_output.(id) then D.zero else D.bottom)
    in
    let fanouts = Netlist.fanouts c in
    let suffix =
      Array.init n (fun id ->
          let from_consumers =
            Array.fold_left
              (fun acc cid -> D.join acc inclusive.(cid))
              D.bottom fanouts.(id)
          in
          if is_output.(id) then D.join D.zero from_consumers
          else from_consumers)
    in
    let circuit =
      Array.fold_left
        (fun acc id -> D.join acc arrival.(id))
        D.bottom c.Netlist.outputs
    in
    (arrival, suffix, circuit)
end

module Interval_recurrence = Recurrence (struct
  type t = Interval.t

  let bottom = Interval.bottom
  let equal = Interval.equal
  let join = Interval.sup
  let zero = Interval.zero
  let add = Interval.add
end)

module Affine_recurrence = Recurrence (struct
  type t = Affine.t

  let bottom = Affine.Bottom
  let equal = Affine.equal
  let join = Affine.join
  let zero = Affine.const 0.0
  let add = Affine.add
end)

(* The corner boxes: full variation (L1 over layers) and inter-die. *)
let corner_bounds (config : Config.t) =
  let budget = config.Config.budget in
  let trunc = config.Config.truncation in
  let scale_all = ref 0.0 in
  for u = 0 to Budget.layers budget - 1 do
    scale_all := !scale_all +. sqrt (Budget.weight budget u)
  done;
  (trunc *. !scale_all, trunc *. sqrt (Budget.inter_fraction budget))

let intra_var (grad : Params.t) =
  List.fold_left
    (fun acc rv ->
      let d = Params.get grad rv and s = Params.sigma rv in
      acc +. (d *. d *. s *. s))
    0.0 Params.all_rvs

(* (gate_total, gate_inter, intra_halfwidth, arrival, suffix, circuit),
   or the first [Invalid_argument] message. *)
let interval_bounds (config : Config.t) (g : Graph.t) =
  let n = Graph.num_nodes g in
  let trunc = config.Config.truncation in
  let full_bound, inter_bound = corner_bounds config in
  let w0 = Budget.inter_fraction config.Config.budget in
  let intra_fraction = Float.max 0.0 (1.0 -. w0) in
  let gate_total = Array.make n Interval.zero in
  let gate_inter = Array.make n Interval.zero in
  let halfwidth = Array.make n 0.0 in
  let grads = Graph.grads g in
  match
    for id = 0 to n - 1 do
      if not (Graph.is_input g id) then begin
        let e = Graph.electrical_exn g id in
        let full = Interval.of_pair (Elmore.delay_bounds ~bound:full_bound e) in
        let inter =
          Interval.of_pair (Elmore.delay_bounds ~bound:inter_bound e)
        in
        let h = trunc *. sqrt (intra_fraction *. intra_var grads.(id)) in
        gate_inter.(id) <- inter;
        halfwidth.(id) <- h;
        gate_total.(id) <-
          Interval.hull full
            (Interval.add inter (Interval.make ~lo:(-.h) ~hi:h))
      end
    done
  with
  | exception Invalid_argument msg -> Error msg
  | () ->
      let arrival, suffix, circuit =
        Interval_recurrence.run g.Graph.circuit gate_total
      in
      Ok (gate_total, gate_inter, halfwidth, arrival, suffix, circuit)

(* (gate, arrival, suffix, circuit), or the first [Invalid_argument]
   message. *)
let affine_bounds (config : Config.t) (g : Graph.t) =
  let n = Graph.num_nodes g in
  let trunc = config.Config.truncation in
  let full_bound, inter_bound = corner_bounds config in
  let w0 = Budget.inter_fraction config.Config.budget in
  let sqrt_w0 = sqrt w0 in
  let intra_fraction = Float.max 0.0 (1.0 -. w0) in
  let grads = Graph.grads g in
  let gate_form id =
    let grad = grads.(id) and d0 = g.Graph.delay.(id) in
    let e = Graph.electrical_exn g id in
    let coeffs =
      Array.of_list
        (List.map
           (fun rv ->
             Interval.singleton
               (Params.get grad rv *. Params.sigma rv *. sqrt_w0))
           Params.all_rvs)
    in
    let intra_sigma = sqrt (intra_fraction *. intra_var grad) in
    let full = Interval.of_pair (Elmore.delay_bounds ~bound:full_bound e) in
    let inter = Interval.of_pair (Elmore.delay_bounds ~bound:inter_bound e) in
    let h = trunc *. intra_sigma in
    let total =
      Interval.hull full (Interval.add inter (Interval.make ~lo:(-.h) ~hi:h))
    in
    let gt_lo, gt_hi =
      match Interval.range total with Some r -> r | None -> (d0, d0)
    in
    let half =
      trunc
      *. (Array.fold_left (fun acc c -> acc +. Interval.magnitude c) 0.0 coeffs
         +. intra_sigma)
    in
    Affine.Form
      { Affine.center = d0;
        coeffs;
        intra_sigma;
        residual =
          Interval.make
            ~lo:(Float.min 0.0 (gt_lo -. (d0 -. half)))
            ~hi:(Float.max 0.0 (gt_hi -. (d0 +. half))) }
  in
  let gate = Array.make n (Affine.const 0.0) in
  match
    for id = 0 to n - 1 do
      if not (Graph.is_input g id) then gate.(id) <- gate_form id
    done
  with
  | exception Invalid_argument msg -> Error msg
  | () ->
      let arrival, suffix, circuit =
        Affine_recurrence.run g.Graph.circuit gate
      in
      Ok (gate, arrival, suffix, circuit)
