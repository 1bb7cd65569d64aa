module Netlist = Ssta_circuit.Netlist
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Sta = Ssta_timing.Sta
module Longest_path = Ssta_timing.Longest_path
module Params = Ssta_tech.Params
module Elmore = Ssta_tech.Elmore
module Budget = Ssta_correlation.Budget
module Config = Ssta_core.Config
module Erf = Ssta_prob.Erf
module Json = Ssta_runtime.Json

type form = {
  center : float;
  coeffs : Interval.t array;
  intra_sigma : float;
  residual : Interval.t;
}

type t = Bottom | Form of form

let num_rvs = List.length Params.all_rvs
let zero_coeffs () = Array.make num_rvs (Interval.singleton 0.0)

let const c =
  Form
    { center = c;
      coeffs = zero_coeffs ();
      intra_sigma = 0.0;
      residual = Interval.zero }

let add a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Form a, Form b ->
      Form
        { center = a.center +. b.center;
          coeffs = Array.map2 Interval.add a.coeffs b.coeffs;
          intra_sigma = a.intra_sigma +. b.intra_sigma;
          residual = Interval.add a.residual b.residual }

(* Interval scaled by a constant; the endpoints swap when k < 0. *)
let iscale k i =
  match Interval.range i with
  | None -> Interval.Bottom
  | Some (lo, hi) ->
      let a = k *. lo and b = k *. hi in
      Interval.make ~lo:(Float.min a b) ~hi:(Float.max a b)

let scale k = function
  | Bottom -> Bottom
  | Form f ->
      Form
        { center = k *. f.center;
          coeffs = Array.map (iscale k) f.coeffs;
          intra_sigma = Float.abs k *. f.intra_sigma;
          residual = iscale k f.residual }

let max a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Form a, Form b ->
      Form
        { center = Float.max a.center b.center;
          coeffs = Array.map2 Interval.hull a.coeffs b.coeffs;
          intra_sigma = Float.max a.intra_sigma b.intra_sigma;
          residual = Interval.hull a.residual b.residual }

let join = max

let equal a b =
  match (a, b) with
  | Bottom, Bottom -> true
  | Form a, Form b ->
      Float.equal a.center b.center
      && Array.for_all2 Interval.equal a.coeffs b.coeffs
      && Float.equal a.intra_sigma b.intra_sigma
      && Interval.equal a.residual b.residual
  | _ -> false

let pp fmt = function
  | Bottom -> Format.pp_print_string fmt "_|_"
  | Form f ->
      Format.fprintf fmt "%.6g" f.center;
      List.iteri
        (fun i rv ->
          Format.fprintf fmt " + %a*%s" Interval.pp f.coeffs.(i)
            (Params.rv_name rv))
        Params.all_rvs;
      Format.fprintf fmt " (intra<=%.3g, res=%a)" f.intra_sigma Interval.pp
        f.residual

let sum_coeff_magnitude f =
  Array.fold_left (fun acc c -> acc +. Interval.magnitude c) 0.0 f.coeffs

let concretize ~trunc = function
  | Bottom -> Interval.bottom
  | Form f ->
      let half = trunc *. (sum_coeff_magnitude f +. f.intra_sigma) in
      Interval.add
        (Interval.make ~lo:(f.center -. half) ~hi:(f.center +. half))
        f.residual

let sigma_upper = function
  | Bottom -> 0.0
  | Form f ->
      let acc =
        Array.fold_left
          (fun acc c ->
            let m = Interval.magnitude c in
            acc +. (m *. m))
          0.0 f.coeffs
      in
      sqrt (acc +. (f.intra_sigma *. f.intra_sigma))

(* ----- whole-circuit analysis ----- *)

type analysis = {
  gate : t array;
  arrival : t array;
  suffix : t array;
  circuit : t;
  trunc : float;
}

(* One gate's delay as a form.  The linear part is the tangent plane at
   nominal, split into the inter-die share (per-RV coefficients scaled
   by sigma * sqrt w0) and the orthogonal intra-die sigma; the residual
   is whatever the certified gate interval of Arrival_bounds sticks out
   beyond the tangent box, clamped so it always contains 0.  By
   construction the concretization at the analysis truncation is the
   hull of the certified interval and the tangent box — sound without
   any convexity assumption on the delay model. *)
let gate_form (k : Arrival_bounds.corners) ~sqrt_w0 ~d0 ~grad e =
  let coeffs =
    Array.of_list
      (List.map
         (fun rv ->
           Interval.singleton
             (Params.get grad rv *. Params.sigma rv *. sqrt_w0))
         Params.all_rvs)
  in
  let intra_sigma = Arrival_bounds.intra_sigma k grad in
  let box = Arrival_bounds.gate_box k ~intra_sigma e in
  let gt_lo, gt_hi =
    match Interval.range box.Arrival_bounds.total with
    | Some r -> r
    | None -> (d0, d0)
  in
  let half =
    k.Arrival_bounds.trunc
    *. (Array.fold_left (fun acc c -> acc +. Interval.magnitude c) 0.0 coeffs
       +. intra_sigma)
  in
  let res_lo = Float.min 0.0 (gt_lo -. (d0 -. half)) in
  let res_hi = Float.max 0.0 (gt_hi -. (d0 +. half)) in
  Form
    { center = d0;
      coeffs;
      intra_sigma;
      residual = Interval.make ~lo:res_lo ~hi:res_hi }

let compute (config : Config.t) (g : Graph.t) =
  let n = Graph.num_nodes g in
  let k = Arrival_bounds.corners config in
  let sqrt_w0 = sqrt (Budget.inter_fraction config.Config.budget) in
  let grads = Graph.grads g in
  let gate = Array.make n (const 0.0) in
  match
    for id = 0 to n - 1 do
      if not (Graph.is_input g id) then
        gate.(id) <-
          gate_form k ~sqrt_w0 ~d0:g.Graph.delay.(id) ~grad:grads.(id)
            (Graph.electrical_exn g id)
    done
  with
  | exception Invalid_argument msg -> Error msg
  | () ->
      let s =
        Arrival_bounds.sweep ~bottom:Bottom ~zero:(const 0.0) ~join ~add
          g.Graph.circuit gate
      in
      Ok
        { gate;
          arrival = s.Arrival_bounds.arrival;
          suffix = s.Arrival_bounds.suffix;
          circuit = s.Arrival_bounds.circuit;
          trunc = k.Arrival_bounds.trunc }

let path_form a (path : Paths.path) =
  Array.fold_left
    (fun acc id -> add acc a.gate.(id))
    (const 0.0) path.Paths.nodes

let through a u = add a.arrival.(u) a.suffix.(u)

(* ----- static path screening ----- *)

type screen = {
  pruned : bool array;
  nodes_visited : int;
  nodes_pruned : int;
  threshold : float;
}

(* [suffix_center u] is the nominal center of node [u]'s exclusive
   suffix, [neg_infinity] when [u] is on no complete path. *)
let screen_by ~suffix_center (sta : Sta.t) ~slack =
  let labels = sta.Sta.labels in
  let critical = sta.Sta.critical_delay in
  (* Must match Paths.enumerate: threshold = critical - slack - eps,
     and we leave one further eps of margin so that ulp-level
     summation-order drift (~1e-22 s, see the tie-tick comment in
     Paths) can never promote a pruned node into a pushable one. *)
  let eps = 1e-15 +. (1e-12 *. Float.abs critical) in
  let threshold = critical -. slack -. eps in
  let n = Array.length labels in
  let pruned = Array.make n false in
  let nodes_pruned = ref 0 in
  for u = 0 to n - 1 do
    let s = suffix_center u in
    let p = s = neg_infinity || labels.(u) +. s < threshold -. eps in
    pruned.(u) <- p;
    if p then incr nodes_pruned
  done;
  { pruned; nodes_visited = n; nodes_pruned = !nodes_pruned; threshold }

let screen a sta ~slack =
  screen_by sta ~slack ~suffix_center:(fun u ->
      match a.suffix.(u) with Bottom -> neg_infinity | Form s -> s.center)

let prune_hook s u = s.pruned.(u)

let screen_counters s =
  [ ("affine-screen-nodes-pruned", s.nodes_pruned);
    ("affine-screen-nodes-visited", s.nodes_visited) ]

(* [compute] fails exactly when some gate's corner box leaves the delay
   model's domain, which the corners alone decide: probing the first
   gate decides it for all. *)
let corners_in_domain config (g : Graph.t) =
  let gates = g.Graph.circuit.Netlist.gates in
  Array.length gates = 0
  ||
  match
    Arrival_bounds.gate_box (Arrival_bounds.corners config) ~intra_sigma:0.0
      (Graph.electrical_exn g gates.(0).Netlist.id)
  with
  | _ -> true
  | exception Invalid_argument _ -> false

(* The screen reads only the suffix centers, and a center is the
   max-plus suffix of nominal delays (joins take the max of centers,
   adds sum them), so one {!Longest_path.suffix} sweep replaces both
   affine sweeps. *)
let methodology_screen config ~sta ~slack =
  let g = sta.Sta.graph in
  if not (corners_in_domain config g) then ((fun _ -> false), [])
  else
    let suffix = Longest_path.suffix g in
    let s = screen_by sta ~slack ~suffix_center:(Array.get suffix) in
    (prune_hook s, screen_counters s)

(* ----- per-node criticality ----- *)

type crit = {
  node : int;
  through_center : float;
  slack : float;
  sigma : float;
  z : float;
  prob : float;
}

let criticality a (sta : Sta.t) =
  let g = sta.Sta.graph in
  let critical = sta.Sta.critical_delay in
  let crits = ref [] in
  for u = 0 to Graph.num_nodes g - 1 do
    if not (Graph.is_input g u) then begin
      match through a u with
      | Bottom -> ()
      | Form f ->
          let slack = Float.max 0.0 (critical -. f.center) in
          let sigma = sigma_upper (Form f) in
          let z = if sigma > 0.0 then slack /. sigma else infinity in
          let prob = Erf.erfc (z /. sqrt 2.0) /. 2.0 in
          crits :=
            { node = u; through_center = f.center; slack; sigma; z; prob }
            :: !crits
    end
  done;
  List.sort
    (fun a b ->
      match Float.compare a.z b.z with
      | 0 -> Int.compare a.node b.node
      | c -> c)
    (List.rev !crits)

let pp_criticality ?(top = 20) (g : Graph.t) fmt crits =
  let name id = Netlist.node_name g.Graph.circuit id in
  Format.fprintf fmt
    "criticality (affine upper bound, %d gates, top %d):@." (List.length crits)
    top;
  Format.fprintf fmt "  %-16s %10s %10s %8s %10s@." "gate" "slack_ps"
    "sigma_ps" "z" "P_crit<=";
  List.iteri
    (fun i c ->
      if i < top then
        Format.fprintf fmt "  %-16s %10.3f %10.3f %8.3f %10.3e@." (name c.node)
          (Elmore.ps c.slack) (Elmore.ps c.sigma) c.z c.prob)
    crits

let criticality_json (g : Graph.t) crits =
  Json.Obj
    [ ( "criticality",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [ ("node", Json.int c.node);
                   ( "name",
                     Json.String (Netlist.node_name g.Graph.circuit c.node) );
                   ("through_s", Json.Number c.through_center);
                   ("slack_s", Json.Number c.slack);
                   ("sigma_s", Json.Number c.sigma);
                   ("z", Json.Number c.z);
                   ("prob_ub", Json.Number c.prob) ])
             crits) ) ]
