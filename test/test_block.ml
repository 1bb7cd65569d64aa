(* The block-based engine: the statistical sum/max operator algebra
   (Clark moments against closed forms, the grid-exact independent max
   against closed forms and Monte Carlo), correlation preservation
   through reconvergent fan-out, containment of the block answer in the
   affine envelope on random circuits, and byte-identity of the JSON
   report across worker counts. *)

module Pdf = Ssta_prob.Pdf
module Dist = Ssta_prob.Dist
module Rng = Ssta_prob.Rng
module Params = Ssta_tech.Params
module Gate = Ssta_tech.Gate
module Netlist = Ssta_circuit.Netlist
module Generators = Ssta_circuit.Generators
module Placement = Ssta_circuit.Placement
module Sta = Ssta_timing.Sta
module Config = Ssta_core.Config
module Block_based = Ssta_core.Block_based
module Monte_carlo = Ssta_core.Monte_carlo
module Derivatives = Ssta_tech.Derivatives
module Graph = Ssta_timing.Graph
module Budget = Ssta_correlation.Budget
module Slots = Ssta_correlation.Slots
module Interval = Ssta_check.Interval
module Affine = Ssta_check.Affine
module Arrival = Ssta_block.Arrival
module Engine = Ssta_block.Engine
open Helpers

let grid_config = { Config.default with Config.block_max = Config.Grid_max }

(* Synthetic arrivals: a zero-mean grid residual (or none) plus
   optional shared terms. *)
let arrival ?(mean = 0.0) ?(terms = []) resid =
  Arrival.make Config.default ~mean ~terms
    (match resid with None -> Arrival.Gauss 0.0 | Some p -> Arrival.Grid p)

let std_normal_resid () =
  Some (Dist.truncated_gaussian ~n:400 ~bound:6.0 ~mu:0.0 ~sigma:1.0 ())

(* A layer-0 key, and the coefficient that gives it unit variance under
   the default budget (so tests can speak in unit-variance terms). *)
let key =
  { Slots.rv = List.hd Params.all_rvs; layer = 0; partition = 0 }

let unit_coeff =
  let tbl = Hashtbl.create 1 in
  Hashtbl.replace tbl key 1.0;
  let v =
    Block_based.variance Config.default
      { Block_based.mean = 0.0; terms = tbl; indep = 0.0 }
  in
  1.0 /. sqrt v

(* --- operator algebra -------------------------------------------------- *)

let test_sum_moments () =
  let config = Config.default in
  let half_var_resid sigma =
    Some (Dist.truncated_gaussian ~n:400 ~bound:6.0 ~mu:0.0 ~sigma ())
  in
  let a =
    arrival ~mean:1.0 ~terms:[ (key, unit_coeff) ] (half_var_resid 0.5)
  in
  let b =
    arrival ~mean:2.0 ~terms:[ (key, 0.5 *. unit_coeff) ] (half_var_resid 0.5)
  in
  let s = Arrival.sum config a b in
  check_close "sum of means" 3.0 (Arrival.mean s);
  (* Var(A+B) = va + vb + 2 cov: shared coefficients add exactly. *)
  check_close ~tol:5e-3 "sum variance includes the covariance" 2.75
    (Arrival.variance config s);
  let m = Pdf.moments (Arrival.total_pdf config s) in
  check_close ~tol:5e-3 "total-pdf mean matches" 3.0 m.Pdf.m_mean;
  check_close ~tol:2e-2 "total-pdf variance matches" 2.75 m.Pdf.m_var

let test_clark_independent_normals () =
  let config = Config.default in
  let a = arrival (std_normal_resid ()) in
  let b = arrival (std_normal_resid ()) in
  let m = Arrival.max config a b in
  (* X, Y iid N(0,1): E[max] = 1/sqrt(pi), Var[max] = 1 - 1/pi, and
     Clark's moment matching is exact for jointly Gaussian inputs. *)
  check_close ~tol:2e-3 "Clark mean = 1/sqrt(pi)"
    (1.0 /. sqrt Float.pi) (Arrival.mean m);
  check_close ~tol:5e-3 "Clark variance = 1 - 1/pi"
    (1.0 -. (1.0 /. Float.pi))
    (Arrival.variance config m)

let test_clark_correlated_shared_term () =
  let config = Config.default in
  let rho = 0.6 in
  let a = arrival ~terms:[ (key, unit_coeff) ] None in
  let b =
    arrival
      ~terms:[ (key, rho *. unit_coeff) ]
      (Some
         (Dist.truncated_gaussian ~n:400 ~bound:6.0 ~mu:0.0
            ~sigma:(sqrt (1.0 -. (rho *. rho)))
            ()))
  in
  let m = Arrival.max config a b in
  (* Both std normal with correlation rho: E[max] = theta * phi(0) with
     theta = sqrt(2 - 2 rho). *)
  let theta = sqrt (2.0 -. (2.0 *. rho)) in
  check_close ~tol:2e-3 "Clark mean with correlation"
    (theta /. sqrt (2.0 *. Float.pi))
    (Arrival.mean m);
  check_close ~tol:5e-3 "Clark variance with correlation"
    (1.0 -. (theta *. theta /. (2.0 *. Float.pi)))
    (Arrival.variance config m)

let test_grid_max_uniforms () =
  let u () =
    (* zero-mean uniform residual, shifted to U(0,1) via the mean *)
    arrival ~mean:0.5 (Some (Dist.uniform ~n:400 ~lo:(-0.5) ~hi:0.5 ()))
  in
  let m = Arrival.max grid_config (u ()) (u ()) in
  (* X, Y iid U(0,1): max has CDF x^2, mean 2/3, variance 1/18 — a
     shape no Gaussian moment matching can represent exactly. *)
  check_close ~tol:5e-3 "grid max mean = 2/3" (2.0 /. 3.0) (Arrival.mean m);
  check_close ~tol:2e-2 "grid max variance = 1/18" (1.0 /. 18.0)
    (Arrival.variance grid_config m)

let test_grid_max_vs_mc () =
  let a = arrival ~mean:0.2 (std_normal_resid ()) in
  let b = arrival ~mean:0.0 (Some (Dist.uniform ~n:400 ~lo:(-1.5) ~hi:1.5 ())) in
  let pa = Arrival.total_pdf grid_config a
  and pb = Arrival.total_pdf grid_config b in
  let m = Arrival.max grid_config a b in
  let n = 4000 in
  let rng = Rng.create 7 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Float.max (Pdf.sample pa rng) (Pdf.sample pb rng)
  done;
  let mc_mean = !acc /. float_of_int n in
  (* 4 standard errors of the n-sample mean, plus grid slack. *)
  let se = sqrt (Arrival.variance grid_config m /. float_of_int n) in
  check_close_abs
    ~tol:((4.0 *. se) +. 0.01)
    "grid max mean within the MC confidence band" mc_mean (Arrival.mean m)

(* --- the dense form against its Hashtbl reference ----------------------- *)

let all_keys ~quad_levels =
  List.concat_map
    (fun rv ->
      List.concat_map
        (fun layer ->
          List.init (1 lsl (2 * layer)) (fun partition ->
              { Slots.rv; layer; partition }))
        (List.init quad_levels Fun.id))
    Params.all_rvs

let test_slot_bijective =
  qcheck ~count:50 "dense slots are injective and in range"
    QCheck.(int_range 1 5)
    (fun quad_levels ->
      let n = Slots.num_slots ~quad_levels in
      let seen = Array.make n false in
      List.for_all
        (fun k ->
          let i = Slots.slot k in
          0 <= i && i < n && (not seen.(i)) && (seen.(i) <- true; true))
        (all_keys ~quad_levels))

(* A random shared-layer term set (unit-scale variance per term), its
   dense arrival and its Block_based canonical form. *)
let random_pair st =
  let keys =
    Array.of_list (all_keys ~quad_levels:Config.default.Config.quad_levels)
  in
  let terms =
    List.init (1 + Random.State.int st 40) (fun _ ->
        let k = keys.(Random.State.int st (Array.length keys)) in
        let u = Random.State.float st 2.0 -. 1.0 in
        (k, u /. Params.sigma k.Slots.rv))
  in
  let mean = Random.State.float st 2.0 in
  let indep = 0.05 +. Random.State.float st 0.5 in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) terms;
  ( Arrival.make Config.default ~mean ~terms (Arrival.Gauss indep),
    { Block_based.mean; terms = tbl; indep } )

let rel_close a b =
  Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)

let reference_inter_sigma (c : Block_based.canonical) =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (k : Slots.key) v ->
      if k.Slots.layer = 0 then Hashtbl.replace tbl k v)
    c.Block_based.terms;
  Block_based.std Config.default
    { c with Block_based.terms = tbl; indep = 0.0 }

let test_dense_matches_reference =
  qcheck ~count:200 "dense form matches the Block_based reference"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let a, ca = random_pair st and b, cb = random_pair st in
      let config = Config.default in
      let m = Arrival.max config a b in
      let cm = Block_based.clark_max config ca cb in
      let coeffs_match arrival (c : Block_based.canonical) =
        List.for_all
          (fun k ->
            let want =
              Option.value ~default:0.0
                (Hashtbl.find_opt c.Block_based.terms k)
            in
            rel_close want (Arrival.coeff arrival k))
          (all_keys ~quad_levels:config.Config.quad_levels)
      in
      List.for_all
        (fun (arrival, c) ->
          rel_close (Block_based.variance config c)
            (Arrival.variance config arrival)
          && rel_close (reference_inter_sigma c)
               (Arrival.inter_sigma config arrival)
          && coeffs_match arrival c)
        [ (a, ca); (b, cb) ]
      (* The covariance enters the max through theta. *)
      && rel_close cm.Block_based.mean (Arrival.mean m)
      && rel_close (Block_based.variance config cm) (Arrival.variance config m)
      && coeffs_match m cm)

let test_chain_residual () =
  let config = Config.default in
  let c = Generators.chain ~name:"chain20" ~length:20 () in
  let pl = Placement.place c in
  let r = Engine.analyze ~config ~placement:pl c in
  let graph = r.Engine.sta.Sta.graph in
  let random_layer = Config.num_layers config - 1 in
  let expected = ref 0.0 in
  for id = 0 to Graph.num_nodes graph - 1 do
    if not (Graph.is_input graph id) then begin
      let grad =
        Derivatives.gradient (Graph.electrical_exn graph id) Params.nominal
      in
      List.iter
        (fun rv ->
          let d = Params.get grad rv in
          let s =
            Budget.sigma_of_layer config.Config.budget
              ~total_sigma:(Params.sigma rv) random_layer
          in
          expected := !expected +. (d *. d *. s *. s))
        Params.all_rvs
    end
  done;
  (match Arrival.residual r.Engine.arrival with
  | Arrival.Grid _ -> Alcotest.fail "Clark chain grew a grid residual"
  | Arrival.Gauss v ->
      check_close ~tol:1e-12 "residual = sum of per-gate random variances"
        1.0 (v /. !expected));
  let m = Pdf.moments (Arrival.total_pdf config r.Engine.arrival) in
  check_close ~tol:1e-2 "total-pdf mean" 1.0
    (m.Pdf.m_mean /. Arrival.mean r.Engine.arrival);
  check_close ~tol:1e-2 "total-pdf variance" 1.0
    (m.Pdf.m_var /. Arrival.variance config r.Engine.arrival)

(* --- correlation preservation ------------------------------------------ *)

let test_correlation_preserved_at_merge () =
  (* A = S + Xa, B = S + Xb with a dominant shared S: the true max is
     S + max(Xa, Xb), so E[max] barely exceeds the means.  Clark sees
     the covariance through the shared term; the grid-exact policy
     assumes independence and inflates the mean by an order of
     magnitude. *)
  let branch_sigma = 0.1 in
  let branch () =
    arrival
      ~terms:[ (key, unit_coeff) ]
      (Some
         (Dist.truncated_gaussian ~n:400 ~bound:6.0 ~mu:0.0
            ~sigma:branch_sigma ()))
  in
  let truth = branch_sigma /. sqrt Float.pi in
  let clark = Arrival.max Config.default (branch ()) (branch ()) in
  let grid = Arrival.max grid_config (branch ()) (branch ()) in
  check_close ~tol:3e-3 "Clark mean matches the correlated closed form"
    truth (Arrival.mean clark);
  check_true "independent grid max overestimates the correlated mean"
    (Arrival.mean grid -. truth > 5.0 *. Float.abs (Arrival.mean clark -. truth));
  (* Both policies preserve the shared sensitivity itself: the merged
     arrival still carries the full unit coefficient on the shared key. *)
  List.iter
    (fun (name, m) ->
      check_close ~tol:1e-9
        (name ^ " max blends the shared coefficient to unity")
        unit_coeff (Arrival.coeff m key))
    [ ("clark", clark); ("grid", grid) ]

let diamond () =
  let b = Netlist.Builder.create "diamond" in
  let i1 = Netlist.Builder.add_input b "a" in
  let i2 = Netlist.Builder.add_input b "b" in
  let g1 = Netlist.Builder.add_gate b (Gate.Nand 2) [ i1; i2 ] in
  let g2 = Netlist.Builder.add_gate b Gate.Inv [ g1 ] in
  let g3 = Netlist.Builder.add_gate b Gate.Inv [ g1 ] in
  let g4 = Netlist.Builder.add_gate b (Gate.Nand 2) [ g2; g3 ] in
  Netlist.Builder.mark_output b g4;
  Netlist.Builder.finish b

let test_diamond_vs_mc () =
  let c = diamond () in
  let pl = Placement.place c in
  let r = Engine.analyze ~config:Config.default ~placement:pl c in
  let s = Monte_carlo.sampler Config.default r.Engine.sta.Sta.graph pl in
  let samples =
    Monte_carlo.circuit_delay_samples s ~n:4000 (Rng.create 1234)
  in
  let n = float_of_int (Array.length samples) in
  let mc_mean = Array.fold_left ( +. ) 0.0 samples /. n in
  let mc_var =
    Array.fold_left
      (fun acc d -> acc +. ((d -. mc_mean) *. (d -. mc_mean)))
      0.0 samples
    /. (n -. 1.0)
  in
  let mc_std = sqrt mc_var in
  (* Through the reconvergent diamond the two merge operands share
     every layer term of g1 and of the common partitions; Clark's max
     must stay on the MC answer. *)
  check_close ~tol:0.02 "diamond block mean tracks MC" mc_mean r.Engine.mean;
  check_close ~tol:0.25 "diamond block sigma tracks MC" mc_std r.Engine.std;
  check_true "variance splits into inter + intra (Eq. 14)"
    (Float.abs
       ((r.Engine.inter_sigma *. r.Engine.inter_sigma)
       +. (r.Engine.intra_sigma *. r.Engine.intra_sigma)
       -. (r.Engine.std *. r.Engine.std))
    <= 1e-9 *. r.Engine.std *. r.Engine.std);
  (* The grid policy still runs the diamond; ignoring the merge
     correlation can only push the max mean up. *)
  let g = Engine.analyze ~config:grid_config ~placement:pl c in
  check_true "independent-max mean is not below Clark's"
    (g.Engine.mean >= r.Engine.mean -. (1e-6 *. r.Engine.mean))

(* --- containment in the affine envelope -------------------------------- *)

let test_block_within_affine_envelope =
  qcheck ~count:8 "block answer falls inside the affine envelope"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let c =
        Generators.random_layered ~name:"blockenv" ~inputs:6 ~outputs:3
          ~gates:40 ~depth:6 ~seed ()
      in
      let sta = Sta.analyze c in
      match Affine.compute fast_config sta.Sta.graph with
      | Error _ -> false
      | Ok aff ->
          let env =
            Affine.concretize ~trunc:aff.Affine.trunc aff.Affine.circuit
          in
          let slack = 1e-6 *. Interval.magnitude env in
          let r = Engine.analyze ~config:fast_config c in
          Interval.contains ~slack env r.Engine.mean
          && Interval.contains ~slack env r.Engine.confidence_point)

(* --- determinism ------------------------------------------------------- *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_json_byte_identity () =
  let c = small_adder () in
  let pl = Placement.place c in
  List.iter
    (fun (name, config) ->
      let r1 = Engine.analyze ~config ~placement:pl c in
      let r2 =
        Ssta_parallel.Pool.with_pool ~jobs:4 (fun _pool ->
            Engine.analyze ~config ~placement:pl c)
      in
      Alcotest.(check string)
        (name ^ " report is byte-identical across worker counts")
        (Engine.json_report r1) (Engine.json_report r2);
      check_true
        (name ^ " report names the engine")
        (contains_substring (Engine.json_report r1) "\"engine\":\"block\""))
    [ ("clark", fast_config);
      ("grid", { fast_config with Config.block_max = Config.Grid_max }) ]

(* --- the fused per-gate step --------------------------------------------- *)

module Iscas85 = Ssta_circuit.Iscas85

(* The composite's report and the engine's. *)
let reports config placement circuit =
  ( Engine.json_report (Block_reference.analyze config placement circuit),
    Engine.json_report (Engine.analyze ~config ~placement circuit) )

let test_step_matches_reference_iscas85 () =
  List.iter
    (fun (spec : Iscas85.spec) ->
      let circuit, placement = Iscas85.build_placed spec in
      List.iter
        (fun (policy, quality) ->
          List.iter
            (fun conf ->
              let config =
                { (Config.with_confidence
                     (Config.with_quality Config.default ~intra:quality
                        ~inter:Config.default.Config.quality_inter)
                     conf)
                  with
                  Config.block_max = policy;
                  confidence_sigma = conf }
              in
              let want, got = reports config placement circuit in
              Alcotest.(check string)
                (Printf.sprintf "%s %s at %g: fused sweep = composite"
                   spec.Iscas85.name
                   (Config.max_policy_name policy)
                   conf)
                want got)
            [ Config.default.Config.confidence_sigma; 2.0; 4.5 ])
        (* The grid policy convolves at every merge; a coarser grid
           keeps its ten circuits quick and changes nothing the step
           does. *)
        [ (Config.Clark_max, Config.default.Config.quality_intra);
          (Config.Grid_max, 16) ])
    Iscas85.all

(* A random DAG in which about two gates in five read one node on two
   of their inputs. *)
let random_repeat_circuit seed =
  let st = Random.State.make [| seed |] in
  let b = Netlist.Builder.create "repeat" in
  let inputs = 2 + Random.State.int st 5 in
  let nodes =
    ref
      (List.init inputs (fun i ->
           Netlist.Builder.add_input b (Printf.sprintf "i%d" i)))
  in
  let pick () = List.nth !nodes (Random.State.int st (List.length !nodes)) in
  for _ = 1 to 8 + Random.State.int st 40 do
    let x = pick () in
    let kind, fanins =
      match Random.State.int st 5 with
      | 0 -> (Gate.Nand 2, [ x; x ])
      | 1 -> (Gate.Nor 3, [ x; pick (); x ])
      | 2 -> (Gate.Inv, [ x ])
      | _ -> (Gate.Nand 2, [ x; pick () ])
    in
    nodes := !nodes @ [ Netlist.Builder.add_gate b kind fanins ]
  done;
  let gates = List.filteri (fun i _ -> i >= inputs) !nodes in
  Netlist.Builder.mark_output b (List.nth gates (List.length gates - 1));
  List.iter
    (fun g -> if Random.State.int st 4 = 0 then Netlist.Builder.mark_output b g)
    gates;
  Netlist.Builder.finish b

let test_step_matches_reference_random =
  qcheck ~count:30 "fused sweep = composite on random circuits"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let layered =
        Generators.random_layered ~name:"rand" ~inputs:8 ~outputs:4 ~gates:60
          ~depth:8 ~seed ()
      in
      List.for_all
        (fun circuit ->
          let placement = Placement.place circuit in
          List.for_all
            (fun policy ->
              let config = { fast_config with Config.block_max = policy } in
              let want, got = reports config placement circuit in
              String.equal want got)
            [ Config.Clark_max; Config.Grid_max ])
        [ layered; random_repeat_circuit seed ])

(* Primary outputs that also feed gates: g2 is read by g3 and g4, g3 by
   g4.  The pooled sweep never recycles an output's vector, so the
   endpoints' reports must still match the composite. *)
let outputs_feed_gates () =
  let module B = Netlist.Builder in
  let b = B.create "outfeed" in
  let i1 = B.add_input b "a" in
  let i2 = B.add_input b "b" in
  let g1 = B.add_gate b (Gate.Nand 2) [ i1; i2 ] in
  let g2 = B.add_gate b Gate.Inv [ g1 ] in
  let g3 = B.add_gate b (Gate.Nand 2) [ g1; g2 ] in
  let g4 = B.add_gate b (Gate.Nor 2) [ g3; g2 ] in
  let g5 = B.add_gate b Gate.Inv [ g4 ] in
  List.iter (B.mark_output b) [ g2; g5; g3 ];
  B.finish b

let an_output_feeds_a_gate circuit =
  let fanouts = Netlist.fanouts circuit in
  Array.exists (fun o -> Array.length fanouts.(o) > 0) circuit.Netlist.outputs

(* c880 has 8 of its 79 outputs feeding gates; the random_layered
   circuits have none. *)
let test_pooled_sweep_outputs_feed_gates () =
  let c880 = Iscas85.build (Option.get (Iscas85.by_name "c880")) in
  check_true "c880 has outputs that feed gates" (an_output_feeds_a_gate c880);
  let feeding = ref 0 in
  List.iter
    (fun circuit ->
      if an_output_feeds_a_gate circuit then incr feeding;
      let placement = Placement.place circuit in
      List.iter
        (fun policy ->
          let config = { fast_config with Config.block_max = policy } in
          let want, got = reports config placement circuit in
          Alcotest.(check string)
            (Printf.sprintf "%s %s: pooled sweep = composite"
               circuit.Netlist.name
               (Config.max_policy_name policy))
            want got)
        [ Config.Clark_max; Config.Grid_max ])
    ((outputs_feed_gates () :: c880
     :: List.init 5 (fun seed ->
            Generators.random_layered ~name:"layered" ~inputs:8 ~outputs:4
              ~gates:60 ~depth:8 ~seed:(seed + 1) ()))
    @ List.init 20 (fun seed -> random_repeat_circuit (seed + 1)));
  check_true
    (Printf.sprintf "outputs feed gates in %d of 27 circuits" !feeding)
    (!feeding >= 6)

(* Every fan-in's mean, variance and coefficients, bit for bit, before
   and after each step; and the step's result against the composite.
   The composite fold also counts Clark's early returns ([max] returns
   an operand itself), which must both fire on the circuit. *)
let test_step_leaves_operands_alone () =
  let config = Config.default in
  let spec = Option.get (Iscas85.by_name "c432") in
  let circuit, placement = Iscas85.build_placed spec in
  let graph = (Sta.analyze circuit).Sta.graph in
  let layers = Config.layers_for config placement in
  let keys = all_keys ~quad_levels:config.Config.quad_levels in
  let bits = Int64.bits_of_float in
  let snapshot a =
    ( bits (Arrival.mean a),
      bits (Arrival.variance config a),
      List.map (fun k -> bits (Arrival.coeff a k)) keys )
  in
  let left = ref 0 and right = ref 0 in
  let n = Graph.num_nodes graph in
  let arrivals = Array.make n (Arrival.zero ()) in
  (* The engine's release: per fan-in edge, outputs never. *)
  let uses = Array.make n 0 in
  for id = 0 to n - 1 do
    Array.iter (fun f -> uses.(f) <- uses.(f) + 1) (Graph.fanins graph id)
  done;
  Array.iter (fun o -> uses.(o) <- uses.(o) + 1) circuit.Netlist.outputs;
  let pool = Arrival.pool config in
  let recycled = ref 0 in
  for id = 0 to n - 1 do
    if not (Graph.is_input graph id) then begin
      let fanins = Graph.fanins graph id in
      let before = Array.map (fun f -> snapshot arrivals.(f)) fanins in
      let fused = Arrival.step pool config layers placement graph arrivals id in
      Array.iteri
        (fun k f ->
          check_true
            (Printf.sprintf "gate %d leaves fan-in %d unchanged" id f)
            (snapshot arrivals.(f) = before.(k)))
        fanins;
      ignore
        (Array.fold_left
           (fun acc f ->
             match acc with
             | None -> Some arrivals.(f)
             | Some m ->
                 let b = arrivals.(f) in
                 let r = Arrival.max config m b in
                 if m != b then begin
                   if r == m then incr left;
                   if r == b then incr right
                 end;
                 Some r)
           None fanins);
      let composite =
        Block_reference.gate config layers placement graph arrivals id
      in
      check_true
        (Printf.sprintf "gate %d: step = composite" id)
        (snapshot fused = snapshot composite);
      arrivals.(id) <- fused;
      Array.iter
        (fun f ->
          uses.(f) <- uses.(f) - 1;
          if uses.(f) = 0 && not (Graph.is_input graph f) then begin
            Arrival.recycle pool arrivals.(f);
            incr recycled;
            arrivals.(f) <- Arrival.zero ()
          end)
        fanins
    end
  done;
  check_true
    (Printf.sprintf "Clark's d > 8 return fired (%d)" !left)
    (!left > 0);
  check_true
    (Printf.sprintf "Clark's d < -8 return fired (%d)" !right)
    (!right > 0);
  check_true (Printf.sprintf "vectors recycled (%d)" !recycled) (!recycled > 0);
  (* Every output's vector survived the later steps' pool. *)
  let reference = Block_reference.arrivals config placement graph in
  Array.iter
    (fun o ->
      check_true
        (Printf.sprintf "output %d intact at the end of the sweep" o)
        (snapshot arrivals.(o) = snapshot reference.(o)))
    circuit.Netlist.outputs

let suite =
  ( "block",
    [ case "statistical sum adds moments and covariance" test_sum_moments;
      case "Clark max of independent normals vs closed form"
        test_clark_independent_normals;
      case "Clark max of correlated operands vs closed form"
        test_clark_correlated_shared_term;
      case "grid max of uniforms vs closed form" test_grid_max_uniforms;
      case "grid max vs Monte Carlo" test_grid_max_vs_mc;
      test_slot_bijective;
      test_dense_matches_reference;
      case "20-gate chain: variance-only residual and its total PDF"
        test_chain_residual;
      case "merge preserves shared-term correlation"
        test_correlation_preserved_at_merge;
      slow_case "reconvergent diamond tracks Monte Carlo"
        test_diamond_vs_mc;
      test_block_within_affine_envelope;
      case "block JSON report byte-identical across jobs"
        test_json_byte_identity;
      slow_case "fused sweep = composite on ISCAS85, both policies"
        test_step_matches_reference_iscas85;
      test_step_matches_reference_random;
      case "pooled sweep = composite when outputs feed gates"
        test_pooled_sweep_outputs_feed_gates;
      case "the step never writes into an operand"
        test_step_leaves_operands_alone ] )
