open Ssta_circuit
open Ssta_correlation
open Ssta_timing
open Helpers
module Params = Ssta_tech.Params

let layers4 () =
  Layers.create ~quad_levels:4 ~random_layer:true ~die_width:100.0
    ~die_height:100.0 ()

(* ---------------- Layers ---------------- *)

let test_layer_counts () =
  let l = layers4 () in
  check_int "5 layers total" 5 (Layers.num_layers l);
  check_int "layer 0 partitions" 1 (Layers.partitions_at l 0);
  check_int "layer 1 partitions" 4 (Layers.partitions_at l 1);
  check_int "layer 3 partitions" 64 (Layers.partitions_at l 3);
  check_true "layer 4 is random" (Layers.is_random_layer l 4);
  check_true "layer 3 is spatial" (not (Layers.is_random_layer l 3))

let test_partitions_at_random_rejected () =
  let l = layers4 () in
  check_raises_invalid "random layer has per-gate partitions" (fun () ->
      ignore (Layers.partitions_at l 4));
  check_raises_invalid "bad level" (fun () ->
      ignore (Layers.partitions_at l 9))

let test_partition_of_quadrants () =
  let l = layers4 () in
  (* level 1 splits the die in 4: row-major quadrants *)
  check_int "bottom-left" 0 (Layers.partition_of l ~level:1 ~x:10.0 ~y:10.0);
  check_int "bottom-right" 1 (Layers.partition_of l ~level:1 ~x:90.0 ~y:10.0);
  check_int "top-left" 2 (Layers.partition_of l ~level:1 ~x:10.0 ~y:90.0);
  check_int "top-right" 3 (Layers.partition_of l ~level:1 ~x:90.0 ~y:90.0)

let test_partition_of_level0 () =
  let l = layers4 () in
  check_int "whole die" 0 (Layers.partition_of l ~level:0 ~x:55.0 ~y:3.0)

let test_partition_clamping () =
  let l = layers4 () in
  check_int "clamped below" 0 (Layers.partition_of l ~level:1 ~x:(-5.0) ~y:0.0);
  check_int "clamped above" 3
    (Layers.partition_of l ~level:1 ~x:200.0 ~y:200.0)

let test_partition_of_gate_random_layer () =
  let l = layers4 () in
  check_int "random partition = gate id" 17
    (Layers.partition_of_gate l ~level:4 ~gate_id:17 ~x:0.0 ~y:0.0)

let test_create_validation () =
  check_raises_invalid "quad_levels >= 1" (fun () ->
      ignore (Layers.create ~quad_levels:0 ~die_width:1.0 ~die_height:1.0 ()));
  check_raises_invalid "positive die" (fun () ->
      ignore (Layers.create ~die_width:0.0 ~die_height:1.0 ()))

let prop_partition_in_range =
  qcheck "partition index within 4^level"
    QCheck.(triple (int_range 0 3) (float_range 0.0 100.0)
              (float_range 0.0 100.0))
    (fun (level, x, y) ->
      let l = layers4 () in
      let p = Layers.partition_of l ~level ~x ~y in
      p >= 0 && p < Layers.partitions_at l level)

let prop_nearby_points_share_partitions =
  qcheck "same point, same partition at every level"
    QCheck.(pair (float_range 0.0 99.0) (float_range 0.0 99.0))
    (fun (x, y) ->
      let l = layers4 () in
      List.for_all
        (fun level ->
          Layers.partition_of l ~level ~x ~y
          = Layers.partition_of l ~level ~x ~y)
        [ 0; 1; 2; 3 ])

(* ---------------- Budget ---------------- *)

let test_equal_budget () =
  let b = Budget.equal ~layers:5 in
  check_int "layers" 5 (Budget.layers b);
  for u = 0 to 4 do
    check_close ~tol:1e-12 "equal weights" 0.2 (Budget.weight b u)
  done;
  check_close ~tol:1e-12 "inter fraction" 0.2 (Budget.inter_fraction b)

let test_inter_intra_budget () =
  let b = Budget.inter_intra ~inter_fraction:0.5 ~layers:5 in
  check_close ~tol:1e-12 "layer 0" 0.5 (Budget.weight b 0);
  check_close ~tol:1e-12 "intra layers split the rest" 0.125
    (Budget.weight b 1);
  let zero = Budget.inter_intra ~inter_fraction:0.0 ~layers:5 in
  check_close ~tol:1e-12 "pure intra" 0.0 (Budget.inter_fraction zero)

let test_budget_normalization () =
  let b = Budget.of_weights [| 2.0; 6.0 |] in
  check_close ~tol:1e-12 "normalized" 0.25 (Budget.weight b 0)

let test_budget_validation () =
  check_raises_invalid "empty" (fun () -> ignore (Budget.of_weights [||]));
  check_raises_invalid "negative" (fun () ->
      ignore (Budget.of_weights [| 1.0; -1.0 |]));
  check_raises_invalid "all zero" (fun () ->
      ignore (Budget.of_weights [| 0.0; 0.0 |]));
  check_raises_invalid "bad fraction" (fun () ->
      ignore (Budget.inter_intra ~inter_fraction:1.5 ~layers:3))

let test_variance_conservation () =
  (* Eq. (6): the per-layer variances must sum to the total variance. *)
  List.iter
    (fun b ->
      let total_sigma = 0.04 in
      let recombined =
        List.init (Budget.layers b) (fun u ->
            let s = Budget.sigma_of_layer b ~total_sigma u in
            s *. s)
        |> List.fold_left ( +. ) 0.0
      in
      check_close ~tol:1e-12 "sum of layer variances = total variance"
        (total_sigma *. total_sigma) recombined)
    [ Budget.equal ~layers:5;
      Budget.inter_intra ~inter_fraction:0.75 ~layers:5;
      Budget.of_weights [| 0.1; 0.2; 0.3; 0.4 |] ]

let prop_variance_check =
  qcheck "variance_check returns sigma^2"
    QCheck.(pair (float_range 0.01 1.0) (int_range 1 8))
    (fun (sigma, layers) ->
      let b = Budget.equal ~layers in
      Float.abs (Budget.variance_check b ~total_sigma:sigma -. (sigma *. sigma))
      < 1e-12)

(* ---------------- Slot kernels ---------------- *)

let bits = Int64.bits_of_float

let budgets =
  [ Budget.equal ~layers:5;
    Budget.equal ~layers:3;
    Budget.inter_intra ~inter_fraction:0.5 ~layers:5;
    Budget.inter_intra ~inter_fraction:0.0 ~layers:5;
    Budget.of_weights [| 0.1; 0.2; 0.3; 0.4 |];
    Budget.of_weights [| 3.0; 1e-3; 7.0; 0.0; 2.5 |] ]

let test_var_table () =
  List.iter
    (fun b ->
      for layer = 0 to Budget.layers b - 1 do
        List.iter
          (fun rv ->
            let s =
              Budget.sigma_of_layer b ~total_sigma:(Params.sigma rv) layer
            in
            check_true
              (Printf.sprintf "var %d %s = sigma_of_layer^2" layer
                 (Params.rv_name rv))
              (bits (Slots.var b ~layer (Params.rv_index rv)) = bits (s *. s)))
          Params.all_rvs
      done;
      check_raises_invalid "layer past the budget" (fun () ->
          ignore (Slots.var b ~layer:(Budget.layers b) 0));
      check_raises_invalid "negative layer" (fun () ->
          ignore (Slots.var b ~layer:(-1) 0));
      check_raises_invalid "RV index 5" (fun () ->
          ignore (Slots.var b ~layer:0 Slots.num_rvs)))
    budgets

(* A whole-partition vector of up to [max_len] slots: empty a tenth of
   the time, and about a fifth of its slots signed zeros. *)
let random_vector st ~max_len =
  let len =
    if Random.State.int st 10 = 0 then 0
    else Slots.num_rvs * Random.State.int st ((max_len / Slots.num_rvs) + 1)
  in
  Array.init len (fun _ ->
      match Random.State.int st 10 with
      | 0 -> -0.0
      | 1 -> 0.0
      | _ -> Random.State.float st 2.0 -. 1.0)

let random_weight st =
  match Random.State.int st 4 with
  | 0 -> 1.0
  | 1 -> 0.0
  | _ -> Random.State.float st 1.0

let same_vector x y =
  Array.length x = Array.length y
  && Array.for_all2 (fun u v -> bits u = bits v) x y

let prop_kernels_match_reference =
  qcheck ~count:500 "dot = the checked reference"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let b = List.nth budgets (Random.State.int st (List.length budgets)) in
      (* Every layer the budget has variances for. *)
      let max_len = Slots.num_rvs * Slots.layer_offset (Budget.layers b) in
      let x = random_vector st ~max_len and y = random_vector st ~max_len in
      bits (Slots.dot b x y) = bits (Slots_reference.dot b x y)
      && bits (Slots.dot b x x) = bits (Slots_reference.dot b x x))

(* A random support over [layers] layers: each layer's span empty, the
   whole layer, one partition or a random stretch.  Whole-layer spans on
   neighbouring layers meet at the layer boundary. *)
let random_spans st ~layers =
  let s = Array.make (2 * layers) 0 in
  for l = 0 to layers - 1 do
    let lo = Slots.layer_offset l and hi = Slots.layer_offset (l + 1) in
    let a, b =
      match Random.State.int st 4 with
      | 0 -> (lo, lo)
      | 1 -> (lo, hi)
      | 2 ->
          let p = lo + Random.State.int st (hi - lo) in
          (p, p + 1)
      | _ ->
          let x = lo + Random.State.int st (hi - lo)
          and y = lo + Random.State.int st (hi - lo) in
          (Int.min x y, Int.max x y + 1)
    in
    s.(2 * l) <- a;
    s.((2 * l) + 1) <- b
  done;
  s

let in_spans (s : Slots.spans) p =
  let r = ref false in
  for l = 0 to (Array.length s / 2) - 1 do
    if s.(2 * l) <= p && p < s.((2 * l) + 1) then r := true
  done;
  !r

(* A vector of [layers] layers that is +0.0 outside [s] and, inside,
   random with signed zeros. *)
let vector_on st s ~layers =
  Array.init (Slots.num_slots ~quad_levels:layers) (fun i ->
      if not (in_spans s (i / Slots.num_rvs)) then 0.0
      else
        match Random.State.int st 8 with
        | 0 -> -0.0
        | 1 -> 0.0
        | _ -> Random.State.float st 2.0 -. 1.0)

(* Per-layer hull of two supports: [f] picks the intersection (max/min)
   or the union (min/max) of the non-empty spans. *)
let combine_spans ~inter ~layers (x : Slots.spans) (y : Slots.spans) =
  Array.init (2 * layers) (fun i ->
      let l = i / 2 in
      let get (s : Slots.spans) j =
        if 2 * l < Array.length s && s.(2 * l) < s.((2 * l) + 1) then
          Some s.((2 * l) + j)
        else None
      in
      let lo = Slots.layer_offset l in
      let j = i mod 2 in
      match (get x j, get y j) with
      | Some u, Some v ->
          if inter then
            let a = Int.max (Option.get (get x 0)) (Option.get (get y 0))
            and b = Int.min (Option.get (get x 1)) (Option.get (get y 1)) in
            if a < b then if j = 0 then a else b else lo
          else if j = 0 then Int.min u v
          else Int.max u v
      | Some u, None | None, Some u -> if inter then lo else u
      | None, None -> lo)

let prop_span_kernels_match_dense =
  qcheck ~count:500 "span kernels = the dense reference chain, bit for bit"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let b = List.nth budgets (Random.State.int st (List.length budgets)) in
      let layers = 1 + Random.State.int st (Budget.layers b) in
      (* Unequal lengths: either operand may stop a few layers short. *)
      let la = Random.State.int st (layers + 1)
      and lb = Random.State.int st (layers + 1) in
      let sa = random_spans st ~layers:la and sb = random_spans st ~layers:lb in
      let x = vector_on st sa ~layers:la and y = vector_on st sb ~layers:lb in
      let work = [| 0 |] in
      let inter = combine_spans ~inter:true ~layers:(Int.min la lb) sa sb in
      let dot_ok =
        bits (Slots.dot_spans b inter x y work)
        = bits (Slots_reference.dot b x y)
      in
      (* The blend with a gate: one partition per layer, inside the walk. *)
      let gate =
        Array.init (Random.State.int st (layers + 1)) (fun l ->
            Slots.layer_offset l
            + Random.State.int st (Slots.layer_offset (l + 1) - Slots.layer_offset l))
      in
      let walk = combine_spans ~inter:false ~layers sa sb in
      Array.iteri
        (fun l p ->
          let lo = walk.(2 * l) and hi = walk.((2 * l) + 1) in
          if hi <= lo then begin
            walk.(2 * l) <- p;
            walk.((2 * l) + 1) <- p + 1
          end
          else begin
            walk.(2 * l) <- Int.min lo p;
            walk.((2 * l) + 1) <- Int.max hi (p + 1)
          end)
        gate;
      let d =
        { Params.tox = Random.State.float st 1.0; leff = -0.0;
          vdd = Random.State.float st 2.0 -. 1.0; vtn = 0.0;
          vtp = Random.State.float st 1.0 }
      in
      let wa = Float.abs (random_weight st) and wb = Float.abs (random_weight st) in
      let n = Slots.num_slots ~quad_levels:layers in
      (* [c] starts with stale values inside the walk only. *)
      let c = vector_on st walk ~layers in
      let out = [| nan; nan |] in
      Slots.blend_gate_spans b walk c ~wa x ~wb y ~gate d work out;
      let c_ref = Array.make n nan in
      let pre_ref = Slots_reference.combine_into b c_ref ~wa x ~wb y in
      Array.iteri
        (fun l p ->
          ignore l;
          Array.iteri
            (fun r v ->
              let i = (Slots.num_rvs * p) + r in
              c_ref.(i) <- c_ref.(i) +. v)
            [| d.Params.tox; d.Params.leff; d.Params.vdd; d.Params.vtn;
               d.Params.vtp |])
        gate;
      let blend_ok =
        same_vector c c_ref
        && bits out.(0) = bits pre_ref
        && bits out.(1) = bits (Slots_reference.dot b c_ref c_ref)
      in
      (* In place: the result overwrites its own operand. *)
      let inplace_ok =
        la < layers
        ||
        let a' = Array.copy x and c_in = Array.make n nan in
        let walk' = combine_spans ~inter:false ~layers sa sb in
        let out' = [| nan; nan |] in
        Slots.blend_gate_spans b walk' a' ~wa a' ~wb y ~gate:[||] Params.zero
          work out';
        bits out'.(0) = bits (Slots_reference.combine_into b c_in ~wa x ~wb y)
        && same_vector a' c_in
      in
      dot_ok && blend_ok && inplace_ok && work.(0) >= 0)

let test_span_kernels_check_walks () =
  let b = Budget.equal ~layers:3 in
  let v = Array.make 105 1.0 and work = [| 0 |] and out = [| 0.0; 0.0 |] in
  check_raises_invalid "span outside its layer" (fun () ->
      ignore (Slots.dot_spans b [| 0; 2 |] v v work));
  check_raises_invalid "walk past the budget's layers" (fun () ->
      ignore (Slots.dot_spans b (Array.make 8 0) v v work));
  check_raises_invalid "walk past the vector" (fun () ->
      ignore (Slots.dot_spans b [| 0; 1; 1; 5; 5; 21 |] (Array.make 25 1.0) v
                work));
  check_raises_invalid "blend past its result" (fun () ->
      Slots.blend_gate_spans b [| 0; 1; 1; 5; 5; 6 |] (Array.make 25 0.0)
        ~wa:1.0 v ~wb:1.0 v ~gate:[||] Params.zero work out);
  check_true "an empty walk sums nothing"
    (bits (Slots.dot_spans b [| 0; 0; 1; 1 |] v v work) = bits 0.0);
  check_true "the walk is counted" (work.(0) = 0)

let test_kernels_check_lengths () =
  let b = Budget.equal ~layers:3 in
  let whole = Array.make 25 1.0 in
  check_raises_invalid "dot of a partial partition" (fun () ->
      ignore (Slots.dot b (Array.make 7 1.0) (Array.make 9 1.0)));
  check_true "whole partitions pass"
    (bits (Slots.dot b whole whole) = bits (Slots_reference.dot b whole whole));
  (* 3 layers hold 5 * (1 + 4 + 16) = 105 slots; 106 to 425 need a
     fourth. *)
  let long = Array.make 425 1.0 in
  check_raises_invalid "dot past the budget's layers" (fun () ->
      ignore (Slots.dot b long long));
  check_true "105 slots fit 3 layers"
    (bits (Slots.dot b (Array.make 105 1.0) (Array.make 105 1.0))
    = bits (Slots_reference.dot b (Array.make 105 1.0) (Array.make 105 1.0)));
  check_true "the shorter length is the one checked"
    (Slots.dot b (Array.make 5 1.0) long
    = Slots_reference.dot b (Array.make 5 1.0) long)

(* ---------------- Path coefficients ---------------- *)

let context () =
  let c = small_random () in
  let g = Graph.of_netlist c in
  let pl = Placement.place c in
  let layers = Layers.of_placement pl in
  let labels = Longest_path.bellman_ford g in
  let nodes = Longest_path.critical_path g labels in
  let path = { Paths.nodes; delay = Paths.recompute_delay g nodes } in
  (g, pl, layers, path)

let test_coeffs_accumulate () =
  let g, pl, layers, path = context () in
  let pc = Path_coeffs.of_path g pl layers path in
  check_int "gate count matches path" (Paths.path_gate_count g path)
    pc.Path_coeffs.gate_count;
  check_close ~tol:1e-12 "nominal delay matches" path.Paths.delay
    pc.Path_coeffs.nominal_delay;
  check_true "alpha sum positive" (pc.Path_coeffs.alpha_sum > 0.0);
  check_true "beta sum positive" (pc.Path_coeffs.beta_sum > 0.0);
  (* alpha_sum must equal the sum over path gates *)
  let by_hand =
    List.fold_left
      (fun acc (e : Ssta_tech.Gate.electrical) -> acc +. e.Ssta_tech.Gate.alpha)
      0.0 (Paths.path_gates g path)
  in
  check_close ~tol:1e-12 "alpha sum by hand" by_hand pc.Path_coeffs.alpha_sum

let test_coeffs_layer_structure () =
  let g, pl, layers, path = context () in
  let pc = Path_coeffs.of_path g pl layers path in
  let v = Path_coeffs.to_dense pc in
  check_int "one slot per quad-tree RV"
    (Slots.num_slots ~quad_levels:layers.Layers.quad_levels)
    (Array.length v);
  check_true "has layer RVs" (Array.exists (fun c -> c <> 0.0) v);
  (* No layer-0 coefficients: inter stays nonlinear. *)
  for i = 0 to Slots.num_rvs - 1 do
    check_true "intra layers only" (v.(i) = 0.0)
  done;
  check_int "five random-layer sums" Slots.num_rvs
    (Array.length pc.Path_coeffs.random_sq);
  check_true "random-layer sums positive"
    (Array.for_all (fun s -> s > 0.0) pc.Path_coeffs.random_sq)

let test_coeffs_level1_sum_equals_gradient_sum () =
  (* On layer 1 the coefficients partition the path's gates, so summing
     them over partitions recovers the total derivative sum. *)
  let g, pl, layers, path = context () in
  let pc = Path_coeffs.of_path g pl layers path in
  let v = Path_coeffs.to_dense pc in
  List.iter
    (fun rv ->
      let total_by_partition = ref 0.0 in
      for partition = 0 to 3 do
        total_by_partition :=
          !total_by_partition
          +. v.(Slots.slot { Slots.rv; layer = 1; partition })
      done;
      let total_direct =
        Array.fold_left
          (fun acc id ->
            if Graph.is_input g id then acc
            else
              acc
              +. Ssta_tech.Params.get
                   (Ssta_tech.Derivatives.gradient (Graph.electrical_exn g id)
                      Ssta_tech.Params.nominal)
                   rv)
          0.0 path.Paths.nodes
      in
      check_close ~tol:1e-9 "partition sums = derivative total" total_direct
        !total_by_partition)
    Ssta_tech.Params.all_rvs

let test_intra_variance_positive_and_split_sensitivity () =
  let g, pl, layers, path = context () in
  let pc = Path_coeffs.of_path g pl layers path in
  let equal = Budget.equal ~layers:5 in
  let v_equal = Path_coeffs.intra_variance pc equal in
  check_true "variance positive" (v_equal > 0.0);
  let pure_inter = Budget.inter_intra ~inter_fraction:1.0 ~layers:5 in
  check_close ~tol:1e-15 "pure inter-die has zero intra variance" 0.0
    (Path_coeffs.intra_variance pc pure_inter);
  let pure_intra = Budget.inter_intra ~inter_fraction:0.0 ~layers:5 in
  check_true "pure intra has more intra variance"
    (Path_coeffs.intra_variance pc pure_intra > v_equal)

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let test_of_path_fast_options_bit_identical () =
  (* [~grads] is a pure acceleration and [~ws] is ignored: every field
     of the result must match the plain path exactly. *)
  let g, pl, layers, path = context () in
  let reference = Path_coeffs.of_path g pl layers path in
  let grads =
    Array.init (Graph.num_nodes g) (fun id ->
        match g.Graph.electrical.(id) with
        | Some e -> Ssta_tech.Derivatives.gradient e Ssta_tech.Params.nominal
        | None -> Ssta_tech.Params.zero)
  in
  let ws = Path_coeffs.workspace_create () in
  let same_floats a b =
    Array.length a = Array.length b && Array.for_all2 bits_equal a b
  in
  let same what (fast : Path_coeffs.t) =
    check_true (what ^ ": alpha_sum")
      (fast.Path_coeffs.alpha_sum = reference.Path_coeffs.alpha_sum);
    check_true (what ^ ": beta_sum")
      (fast.Path_coeffs.beta_sum = reference.Path_coeffs.beta_sum);
    check_int (what ^ ": gate_count") reference.Path_coeffs.gate_count
      fast.Path_coeffs.gate_count;
    check_true (what ^ ": nominal_delay")
      (fast.Path_coeffs.nominal_delay = reference.Path_coeffs.nominal_delay);
    List.iter
      (fun rv ->
        check_true (what ^ ": grad_sum")
          (Ssta_tech.Params.get fast.Path_coeffs.grad_sum rv
          = Ssta_tech.Params.get reference.Path_coeffs.grad_sum rv))
      Ssta_tech.Params.all_rvs;
    check_true (what ^ ": coefficient vector")
      (fast.Path_coeffs.parts = reference.Path_coeffs.parts
      && same_floats fast.Path_coeffs.part_coeffs
           reference.Path_coeffs.part_coeffs);
    check_true (what ^ ": random-layer sums")
      (same_floats fast.Path_coeffs.random_sq reference.Path_coeffs.random_sq)
  in
  same "grads" (Path_coeffs.of_path ~grads g pl layers path);
  same "ws" (Path_coeffs.of_path ~ws g pl layers path);
  same "grads+ws" (Path_coeffs.of_path ~grads ~ws g pl layers path)

(* The dense vector against the hashtable oracle on random circuits,
   layerings and budgets: each quad-tree slot is the oracle key's
   coefficient bit for bit (both sum in path order from 0.0), and the
   variances agree to rounding. *)
let prop_dense_matches_reference =
  qcheck ~count:60 "dense coefficients match the hashtable oracle"
    QCheck.(
      quad (int_range 1 5) bool bool (int_range 1 10_000))
    (fun (quad_levels, random_layer, equal_budget, seed) ->
      let c =
        Generators.random_layered ~name:"r" ~inputs:6 ~outputs:3 ~gates:40
          ~depth:6 ~seed ()
      in
      let g = Graph.of_netlist c in
      let pl = Placement.place c in
      let layers = Layers.of_placement ~quad_levels ~random_layer pl in
      let n = Layers.num_layers layers in
      let budget =
        if equal_budget || n < 2 then Budget.equal ~layers:n
        else Budget.inter_intra ~inter_fraction:0.4 ~layers:n
      in
      let labels = Longest_path.bellman_ford g in
      let nodes = Longest_path.critical_path g labels in
      let path = { Paths.nodes; delay = Paths.recompute_delay g nodes } in
      let pc = Path_coeffs.of_path g pl layers path in
      let oracle = Coeffs_reference.of_path g pl layers path in
      let rel_close a b =
        Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)
      in
      let slots_match =
        List.for_all
          (fun layer ->
            List.for_all
              (fun partition ->
                List.for_all
                  (fun rv ->
                    let key = { Slots.rv; layer; partition } in
                    let expected =
                      Option.value ~default:0.0 (Hashtbl.find_opt oracle key)
                    in
                    bits_equal expected
                      (Path_coeffs.to_dense pc).(Slots.slot key))
                  Ssta_tech.Params.all_rvs)
              (List.init (1 lsl (2 * layer)) Fun.id))
          (List.init quad_levels Fun.id)
      in
      let dense = Path_coeffs.layer_variances pc budget
      and reference = Coeffs_reference.layer_variances oracle budget in
      slots_match
      && Array.length dense = Array.length reference
      && Array.for_all2 rel_close dense reference
      && rel_close
           (Path_coeffs.intra_variance pc budget)
           (Coeffs_reference.intra_variance oracle budget))

(* The sparse Eq. (14) against the dense Neumaier chain on the dense
   vector, on arbitrary partition sets (layer 0 included, zero slots
   inside a kept partition): the whole quad-tree sum and every layer's
   share agree bit for bit. *)
let prop_sparse_sq_norm_matches_dense =
  qcheck ~count:200 "sparse Eq. 14 = dense Neumaier chain, bit for bit"
    QCheck.(triple (int_range 1 5) (int_range 0 200) (int_range 1 1_000_000))
    (fun (quad_levels, density, seed) ->
      let st = Random.State.make [| seed |] in
      let nparts = Slots.layer_offset quad_levels in
      let parts =
        List.filter
          (fun _ -> Random.State.int st 200 < density)
          (List.init nparts Fun.id)
      in
      let value () =
        match Random.State.int st 4 with
        | 0 -> 0.0
        | 1 -> -.Random.State.float st 1e-9
        | _ -> Random.State.float st 1e-9
      in
      let part_coeffs =
        Array.init (Slots.num_rvs * List.length parts) (fun _ -> value ())
      in
      let pc =
        { Path_coeffs.alpha_sum = 0.0;
          beta_sum = 0.0;
          gate_count = 0;
          nominal_delay = 0.0;
          grad_sum = Ssta_tech.Params.zero;
          quad_levels;
          parts = Array.of_list parts;
          part_coeffs;
          random_sq = [||] }
      in
      let budget =
        Budget.inter_intra ~inter_fraction:0.3 ~layers:(quad_levels + 1)
      in
      let dense = Path_coeffs.to_dense pc in
      bits_equal (Path_coeffs.intra_variance pc budget)
        (Slots_reference.sq_norm budget dense +. 0.0)
      && List.for_all
           (fun u ->
             bits_equal
               (Path_coeffs.layer_variances pc budget).(u)
               (Slots_reference.sq_norm budget ~layer:u dense))
           (List.init (quad_levels - 1) (fun u -> u + 1)))

let test_correlation_increases_variance () =
  (* Two gates in the same partition add coefficients before squaring:
     a path through co-located gates must have a larger intra variance
     than the same path spread across the die. *)
  let c = Generators.chain ~name:"ch" ~length:8 () in
  let g = Graph.of_netlist c in
  let n = Netlist.num_nodes c in
  let co_located =
    Placement.with_coords ~die_width:100.0 ~die_height:100.0
      (Array.make n (5.0, 5.0))
  in
  let spread =
    Placement.with_coords ~die_width:100.0 ~die_height:100.0
      (Array.init n (fun i ->
           (float_of_int (i * 11) +. 2.0, float_of_int (i * 11) +. 2.0)))
  in
  let labels = Longest_path.bellman_ford g in
  let nodes = Longest_path.critical_path g labels in
  let path = { Paths.nodes; delay = Paths.recompute_delay g nodes } in
  let budget = Budget.equal ~layers:5 in
  let variance pl =
    let layers = Layers.of_placement pl in
    Path_coeffs.intra_variance (Path_coeffs.of_path g pl layers path) budget
  in
  check_true "co-located (correlated) variance is larger"
    (variance co_located > variance spread)

(* ---------------- The gate table ---------------- *)

(* Up to [max_paths] longest paths of a graph, within 30% of its
   critical delay. *)
let some_paths ?(max_paths = 30) g =
  let labels = Longest_path.bellman_ford g in
  let critical = Array.fold_left Float.max 0.0 labels in
  (Paths.enumerate ~max_paths g ~labels ~slack:(0.3 *. critical)).Paths.paths

let walk_agrees what tb paths =
  List.iteri
    (fun i p ->
      match Coeffs_reference.table_walk_mismatch tb p with
      | None -> ()
      | Some field -> Alcotest.failf "%s: path %d: %s differs" what i field)
    paths

(* The table walk against the reference walks on random circuits,
   layerings, placements and corners, bit for bit — corner_k 100 leaves
   the model's domain, so the walk must defer the corner's error to
   exactly the paths the reference raises on. *)
let prop_table_walk_matches_reference =
  qcheck ~count:40 "table walk = reference walk on random_layered, bit for bit"
    QCheck.(
      quad (int_range 1 5) bool (int_range 0 2) (int_range 1 10_000))
    (fun (quad_levels, random_layer, corner, seed) ->
      let c =
        Generators.random_layered ~name:"r" ~inputs:6 ~outputs:3 ~gates:50
          ~depth:7 ~seed ()
      in
      let g = Graph.of_netlist c in
      let pl =
        if seed mod 2 = 0 then Placement.place c
        else Placement.place ~strategy:(Placement.Scattered seed) c
      in
      let layers = Layers.of_placement ~quad_levels ~random_layer pl in
      let corner_k = List.nth [ 3.5; 0.0; 100.0 ] corner in
      let tb = Gate_table.build g pl layers ~corner_k in
      walk_agrees "random_layered" tb (some_paths g);
      true)

let test_table_walk_iscas85 () =
  List.iter
    (fun (spec : Iscas85.spec) ->
      let c, pl = Iscas85.build_placed spec in
      let g = (Sta.analyze c).Sta.graph in
      let tb =
        Gate_table.build g pl (Layers.of_placement pl)
          ~corner_k:Ssta_tech.Corner.default_k
      in
      walk_agrees spec.Iscas85.name tb (some_paths ~max_paths:40 g))
    Iscas85.all

(* The table walk accumulates into a per-domain scratch vector: a walk
   that raises part-way (a node id past the graph) must leave no
   partial sums for the next walks, which still agree with the
   reference. *)
let test_table_walk_after_raise () =
  let c = small_random () in
  let g = Graph.of_netlist c in
  let pl = Placement.place c in
  let tb = Gate_table.build g pl (Layers.of_placement pl) ~corner_k:3.5 in
  let paths = some_paths g in
  let p = List.hd paths in
  let bad =
    { p with Paths.nodes = Array.append p.Paths.nodes [| Graph.num_nodes g |] }
  in
  (match Path_coeffs.of_table tb bad with
  | _ -> Alcotest.fail "a node id past the graph was accepted"
  | exception Invalid_argument _ -> ());
  walk_agrees "after a raising walk" tb paths

(* A patch re-derives the moved cells only: after moving a cell and
   re-driving a gate, the patched table equals a fresh build bit for
   bit, derived one entry, and shares every chunk but the moved cell's
   with the old table; a re-drive alone copies nothing. *)
let test_table_patch_equals_build () =
  let c = small_random () in
  let n = Netlist.num_nodes c in
  let pl = Placement.place c in
  let layers = Layers.of_placement pl in
  let g = Graph.with_drives c (Array.make n 1.0) in
  let tb = Gate_table.build g pl layers ~corner_k:3.5 in
  let gate = c.Netlist.num_inputs + 7 and other = c.Netlist.num_inputs + 30 in
  let drives = Array.make n 1.0 in
  drives.(gate) <- 1.4;
  let g', _ = Graph.redrive g c drives ~changed:[ gate ] in
  let coords = Array.copy pl.Placement.coords in
  coords.(other) <- (0.5, pl.Placement.die_height -. 0.5);
  let pl' = { pl with Placement.coords } in
  let before = Gate_table.derivations () and builds = Gate_table.builds () in
  let redriven = Gate_table.patch tb g' pl [] in
  check_true "a re-drive shares every chunk"
    (redriven.Gate_table.bases == tb.Gate_table.bases);
  let patched = Gate_table.patch tb g' pl' [ other ] in
  check_int "derived only the moved cell" 1 (Gate_table.derivations () - before);
  check_int "a patch is not a build" builds (Gate_table.builds ());
  Array.iteri
    (fun k chunk ->
      check_true
        (Printf.sprintf "chunk %d: copied iff the moved cell lives in it" k)
        ((chunk == tb.Gate_table.bases.(k))
        = (k <> other lsr Gate_table.chunk_bits)))
    patched.Gate_table.bases;
  List.iter
    (fun (what, t, pl) ->
      match
        Coeffs_reference.table_mismatch t (Gate_table.build g' pl layers ~corner_k:3.5)
      with
      | None -> ()
      | Some field -> Alcotest.failf "%s table: %s differs" what field)
    [ ("re-driven", redriven, pl); ("moved", patched, pl') ];
  check_true "the patched table fits the new image"
    (Gate_table.fits patched g' pl' layers ~corner_k:3.5);
  check_true "the old table does not"
    (not (Gate_table.fits tb g' pl' layers ~corner_k:3.5));
  check_true "nor another corner"
    (not (Gate_table.fits patched g' pl' layers ~corner_k:3.0));
  walk_agrees "patched" patched (some_paths g')

(* Eq. (14)'s zero skip: vectors over 0-5 layers (0 is the empty
   vector) whose slots are mostly +0.0 or -0.0, under random budgets,
   summed whole and per layer, equal the dense Neumaier chain bit for
   bit — also with every partition mirrored left to right, where equal
   dense sums (exact ties) must stay equal. *)
let prop_sq_norm_zero_skip =
  let mirror layers v =
    let w = Array.copy v in
    for l = 0 to layers - 1 do
      let cells = 1 lsl l in
      for p = 0 to (cells * cells) - 1 do
        let row = p / cells and col = p mod cells in
        let q = (row * cells) + (cells - 1 - col) in
        for r = 0 to Slots.num_rvs - 1 do
          w.(Slots.slot { Slots.rv = List.nth Params.all_rvs r; layer = l;
                          partition = q })
          <- v.(Slots.slot { Slots.rv = List.nth Params.all_rvs r; layer = l;
                             partition = p })
        done
      done
    done;
    w
  in
  qcheck ~count:300 "zero-skipping sq_norm = dense Neumaier, bit for bit"
    QCheck.(
      quad (int_range 0 5) (float_range 0.0 1.0) (int_range 0 3)
        (int_range 1 1_000_000))
    (fun (layers, inter_fraction, density, seed) ->
      let rng = Random.State.make [| seed |] in
      let n = Slots.num_slots ~quad_levels:layers in
      let v =
        Array.init n (fun _ ->
            match Random.State.int rng 8 with
            | k when k > density + 1 -> if Random.State.bool rng then 0.0 else -0.0
            | 0 -> Random.State.float rng 1e-9 -. 5e-10
            | 1 -> ldexp (Random.State.float rng 1.0) (-1060)
            | _ -> Random.State.float rng 2.0 -. 1.0)
      in
      let budget =
        Budget.inter_intra ~inter_fraction ~layers:(Int.max 2 (layers + 1))
      in
      let bits = Int64.bits_of_float in
      let same a b = Int64.equal (bits a) (bits b) in
      (* The dense vector as every partition in order. *)
      let sq_norm ?layer v =
        Slots.sq_norm budget ?layer
          ~parts:(Array.init (Array.length v / Slots.num_rvs) Fun.id)
          v
      in
      let agrees v =
        same (sq_norm v) (Slots_reference.sq_norm budget v)
        && List.for_all
             (fun l ->
               same (sq_norm ~layer:l v)
                 (Slots_reference.sq_norm budget ~layer:l v))
             (List.init (layers + 1) Fun.id)
      in
      let m = mirror layers v in
      agrees v && agrees m
      && same (Slots_reference.sq_norm budget v) (Slots_reference.sq_norm budget m)
         = same (sq_norm v) (sq_norm m))

let suite =
  ( "correlation",
    [ case "layer counts" test_layer_counts;
      case "random layer partition queries rejected"
        test_partitions_at_random_rejected;
      case "quadrant partitioning" test_partition_of_quadrants;
      case "level 0 is the whole die" test_partition_of_level0;
      case "partition clamping" test_partition_clamping;
      case "random layer uses gate ids" test_partition_of_gate_random_layer;
      case "layer creation validation" test_create_validation;
      prop_partition_in_range;
      prop_nearby_points_share_partitions;
      case "equal budget" test_equal_budget;
      case "inter/intra budget" test_inter_intra_budget;
      case "budget normalization" test_budget_normalization;
      case "budget validation" test_budget_validation;
      case "Eq. 6 variance conservation" test_variance_conservation;
      prop_variance_check;
      case "sigma^2 table = sigma_of_layer squared" test_var_table;
      prop_kernels_match_reference;
      case "slot kernels check their lengths once" test_kernels_check_lengths;
      case "coefficient accumulation" test_coeffs_accumulate;
      case "intra layers only in coefficients" test_coeffs_layer_structure;
      case "partition sums recover derivative totals"
        test_coeffs_level1_sum_equals_gradient_sum;
      case "intra variance responds to the split"
        test_intra_variance_positive_and_split_sensitivity;
      case "of_path grads/workspace options are bit-identical"
        test_of_path_fast_options_bit_identical;
      prop_dense_matches_reference;
      prop_sparse_sq_norm_matches_dense;
      case "spatial correlation increases path variance"
        test_correlation_increases_variance;
      prop_table_walk_matches_reference;
      slow_case "table walk = reference walk on ISCAS85, bit for bit"
        test_table_walk_iscas85;
      case "walks after a raising table walk agree with the reference"
        test_table_walk_after_raise;
      case "patched gate table = fresh build" test_table_patch_equals_build;
      prop_sq_norm_zero_skip;
      prop_span_kernels_match_dense;
      case "span kernels check their walks" test_span_kernels_check_walks ] )
