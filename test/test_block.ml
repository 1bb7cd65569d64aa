(* The block-based engine: the statistical sum/max operator algebra
   (Clark moments against closed forms and against a quadrature oracle
   of the bivariate-normal max), correlation preservation through
   reconvergent fan-out, containment of the block answer in the affine
   envelope on random circuits, and byte-identity of the JSON report
   across worker counts. *)

module Pdf = Ssta_prob.Pdf
module Erf = Ssta_prob.Erf
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

(* Synthetic arrivals: a residual of variance [var] plus optional
   shared terms. *)
let arrival ?(mean = 0.0) ?(terms = []) var =
  Arrival.make Config.default ~mean ~terms var

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
  let a = arrival ~mean:1.0 ~terms:[ (key, unit_coeff) ] 0.25 in
  let b = arrival ~mean:2.0 ~terms:[ (key, 0.5 *. unit_coeff) ] 0.25 in
  let s = Arrival.sum config a b in
  check_close "sum of means" 3.0 (Arrival.mean s);
  (* Var(A+B) = va + vb + 2 cov: shared coefficients add exactly. *)
  check_close ~tol:1e-12 "sum variance includes the covariance" 2.75
    (Arrival.variance config s);
  let m = Pdf.moments (Arrival.total_pdf config s) in
  check_close ~tol:5e-3 "total-pdf mean matches" 3.0 m.Pdf.m_mean;
  check_close ~tol:2e-2 "total-pdf variance matches" 2.75 m.Pdf.m_var

let test_clark_independent_normals () =
  let config = Config.default in
  let m = Arrival.max config (arrival 1.0) (arrival 1.0) in
  (* X, Y iid N(0,1): E[max] = 1/sqrt(pi), Var[max] = 1 - 1/pi, and
     Clark's moment matching is exact for jointly Gaussian inputs. *)
  check_close ~tol:1e-12 "Clark mean = 1/sqrt(pi)"
    (1.0 /. sqrt Float.pi) (Arrival.mean m);
  check_close ~tol:1e-12 "Clark variance = 1 - 1/pi"
    (1.0 -. (1.0 /. Float.pi))
    (Arrival.variance config m)

let test_clark_correlated_shared_term () =
  let config = Config.default in
  let rho = 0.6 in
  let a = arrival ~terms:[ (key, unit_coeff) ] 0.0 in
  let b = arrival ~terms:[ (key, rho *. unit_coeff) ] (1.0 -. (rho *. rho)) in
  let m = Arrival.max config a b in
  (* Both std normal with correlation rho: E[max] = theta * phi(0) with
     theta = sqrt(2 - 2 rho). *)
  let theta = sqrt (2.0 -. (2.0 *. rho)) in
  check_close ~tol:1e-12 "Clark mean with correlation"
    (theta /. sqrt (2.0 *. Float.pi))
    (Arrival.mean m);
  check_close ~tol:1e-12 "Clark variance with correlation"
    (1.0 -. (theta *. theta /. (2.0 *. Float.pi)))
    (Arrival.variance config m)

(* --- Clark's max against a quadrature oracle ----------------------------- *)

(* Composite Simpson's rule for [g] sampled at the [n + 1] nodes of an
   even [n]-panel grid of step [h]. *)
let simpson n h g =
  let acc = ref 0.0 in
  for i = 0 to n do
    let w =
      if i = 0 || i = n then 1.0 else if i land 1 = 1 then 4.0 else 2.0
    in
    acc := !acc +. (w *. g i)
  done;
  !acc *. h /. 3.0

let oracle_panels = 400

(* Tails beyond 8 standard deviations carry mass below 1e-15. *)
let oracle_cut = 8.0

(* The oracle's own error at 400 panels, against 1600, stays below
   2e-9 (relative to sigma for the mean, to sigma^2 for the variance,
   absolute for the tightness).  What remains between it and Clark is
   the library's Phi, a Chebyshev fit of erfc with absolute error below
   6e-8, which both use at different points: the worst difference over
   random draws is about 4e-8.  A tolerance of 1e-6 sits 25 times above
   that and far below what a wrong covariance or a swapped tightness
   weight produces (1e-2 and more). *)
let oracle_tol = 1e-6

(* E[M], Var[M] and P(A > B) for M = max(A, B) of a bivariate normal
   (A, B), without Clark's formulas.  Writing A = mu_a + s_a t with t
   standard normal, B given t is normal with mean mu_b + k t
   (k = cov / s_a) and variance s^2 = var_b - k^2, so

     F(x) = P(A <= x, B <= x)
          = int_{-inf}^{(x - mu_a) / s_a} phi(t) Phi((x - mu_b - k t) / s) dt

   and, on a range [lo, hi] outside which F is 0 or 1 to within the
   cut, E[M] = lo + int (1 - F) and E[(M - lo)^2] = int 2 (x - lo) (1 - F). *)
let bivariate_max ~mu_a ~var_a ~mu_b ~var_b ~cov =
  let n = oracle_panels and cut = oracle_cut in
  let sa = sqrt var_a and sb = sqrt var_b in
  let k = cov /. sa in
  let s = sqrt (var_b -. (k *. k)) in
  let over_t hi f =
    let h = (hi +. cut) /. float_of_int n in
    simpson n h (fun i ->
        let t = -.cut +. (float_of_int i *. h) in
        Erf.normal_pdf t *. Erf.normal_cdf (f t))
  in
  let cdf x =
    let u = Float.min cut ((x -. mu_a) /. sa) in
    if u <= -.cut then 0.0
    else over_t u (fun t -> (x -. mu_b -. (k *. t)) /. s)
  in
  let lo = Float.max (mu_a -. (cut *. sa)) (mu_b -. (cut *. sb))
  and hi = Float.max (mu_a +. (cut *. sa)) (mu_b +. (cut *. sb)) in
  let h = (hi -. lo) /. float_of_int n in
  let surv =
    Array.init (n + 1) (fun i -> 1.0 -. cdf (lo +. (float_of_int i *. h)))
  in
  let m1 = simpson n h (fun i -> surv.(i)) in
  let m2 = simpson n h (fun i -> 2.0 *. float_of_int i *. h *. surv.(i)) in
  (* P(A > B) = E_t[P(B < mu_a + s_a t | t)]. *)
  let tight =
    over_t cut (fun t -> (mu_a +. (sa *. t) -. mu_b -. (k *. t)) /. s)
  in
  (lo +. m1, m2 -. (m1 *. m1), tight)

(* Three shared RVs on three layers; a unit-scale weight u on key [i]
   is the coefficient [u / oracle_sigma.(i)], so it adds u^2 to a
   variance. *)
let oracle_keys =
  [| { Slots.rv = Params.Tox; layer = 0; partition = 0 };
     { Slots.rv = Params.Leff; layer = 1; partition = 2 };
     { Slots.rv = Params.Vtn; layer = 2; partition = 9 } |]

let oracle_sigma =
  Array.map
    (fun (k : Slots.key) ->
      Budget.sigma_of_layer Config.default.Config.budget
        ~total_sigma:(Params.sigma k.Slots.rv) k.Slots.layer)
    oracle_keys

let test_clark_vs_quadrature =
  qcheck ~count:100 "Clark max = bivariate-normal quadrature"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let weights () =
        Array.init (Array.length oracle_keys) (fun _ ->
            Random.State.float st 1.2 -. 0.6)
      in
      let ua = weights () and ub = weights () in
      let ra = 0.1 +. Random.State.float st 0.9
      and rb = 0.1 +. Random.State.float st 0.9 in
      let dot u v =
        let acc = ref 0.0 in
        Array.iteri (fun i x -> acc := !acc +. (x *. v.(i))) u;
        !acc
      in
      let var_a = dot ua ua +. ra and var_b = dot ub ub +. rb in
      let cov = dot ua ub in
      (* d = (mu_a - mu_b) / theta spans [-10, 10], |d| > 8 included. *)
      let theta = sqrt (var_a +. var_b -. (2.0 *. cov)) in
      let d = Random.State.float st 20.0 -. 10.0 in
      let mu_b = Random.State.float st 4.0 in
      let mu_a = mu_b +. (d *. theta) in
      let make mean u r =
        Arrival.make Config.default ~mean
          ~terms:
            (Array.to_list
               (Array.mapi
                  (fun i k -> (k, u.(i) /. oracle_sigma.(i)))
                  oracle_keys))
          r
      in
      let m = Arrival.max Config.default (make mu_a ua ra) (make mu_b ub rb) in
      let mean, var, tight = bivariate_max ~mu_a ~var_a ~mu_b ~var_b ~cov in
      let scale = Float.max var_a var_b in
      (* By Stein's lemma the max's coefficient on each shared RV is
         P(A > B) a_k + P(B > A) b_k. *)
      let coeff_err =
        Array.fold_left Float.max 0.0
          (Array.mapi
             (fun i k ->
               Float.abs
                 ((Arrival.coeff m k *. oracle_sigma.(i))
                 -. ((tight *. ua.(i)) +. ((1.0 -. tight) *. ub.(i)))))
             oracle_keys)
      in
      Float.abs (Arrival.mean m -. mean) <= oracle_tol *. sqrt scale
      && Float.abs (Arrival.variance Config.default m -. var)
         <= oracle_tol *. scale
      && coeff_err <= oracle_tol)

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
  ( Arrival.make Config.default ~mean ~terms indep,
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
  check_close ~tol:1e-12 "residual = sum of per-gate random variances" 1.0
    (Arrival.residual r.Engine.arrival /. !expected);
  let m = Pdf.moments (Arrival.total_pdf config r.Engine.arrival) in
  check_close ~tol:1e-2 "total-pdf mean" 1.0
    (m.Pdf.m_mean /. Arrival.mean r.Engine.arrival);
  check_close ~tol:1e-2 "total-pdf variance" 1.0
    (m.Pdf.m_var /. Arrival.variance config r.Engine.arrival)

(* --- correlation preservation ------------------------------------------ *)

let test_correlation_preserved_at_merge () =
  (* A = S + Xa, B = S + Xb with a dominant shared S: the true max is
     S + max(Xa, Xb), so E[max] barely exceeds the means.  Clark sees
     the covariance through the shared term. *)
  let branch_sigma = 0.1 in
  let branch () =
    arrival ~terms:[ (key, unit_coeff) ] (branch_sigma *. branch_sigma)
  in
  let m = Arrival.max Config.default (branch ()) (branch ()) in
  check_close ~tol:1e-12 "Clark mean matches the correlated closed form"
    (branch_sigma /. sqrt Float.pi)
    (Arrival.mean m);
  (* The merged arrival still carries the full unit coefficient on the
     shared key. *)
  check_close ~tol:1e-9 "max blends the shared coefficient to unity"
    unit_coeff (Arrival.coeff m key)

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
    <= 1e-9 *. r.Engine.std *. r.Engine.std)

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
  let config = fast_config in
  let r1 = Engine.analyze ~config ~placement:pl c in
  let r2 =
    Ssta_parallel.Pool.with_pool ~jobs:4 (fun _pool ->
        Engine.analyze ~config ~placement:pl c)
  in
  Alcotest.(check string) "report is byte-identical across worker counts"
    (Engine.json_report r1) (Engine.json_report r2);
  check_true "report names the engine"
    (contains_substring (Engine.json_report r1) "\"engine\":\"block\"")

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
        (fun conf ->
          let config =
            { (Config.with_confidence Config.default conf) with
              Config.confidence_sigma = conf }
          in
          let want, got = reports config placement circuit in
          Alcotest.(check string)
            (Printf.sprintf "%s at %g: fused sweep = composite"
               spec.Iscas85.name conf)
            want got)
        [ Config.default.Config.confidence_sigma; 2.0; 4.5 ])
    Iscas85.all

(* The dense oracle's report and the engine's: the same bytes. *)
let dense_reports config placement circuit =
  ( Engine.json_report (Block_dense_reference.analyze config placement circuit),
    Engine.json_report (Engine.analyze ~config ~placement circuit) )

let test_sweep_matches_dense_iscas85 () =
  List.iter
    (fun (spec : Iscas85.spec) ->
      let circuit, placement = Iscas85.build_placed spec in
      let want, got = dense_reports Config.default placement circuit in
      Alcotest.(check string)
        (Printf.sprintf "%s: span sweep = dense oracle" spec.Iscas85.name)
        want got)
    Iscas85.all

let test_sweep_matches_dense_random =
  qcheck ~count:30 "span sweep = dense oracle on random circuits"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let circuit =
        Generators.random_layered ~name:"rand" ~inputs:8 ~outputs:4 ~gates:60
          ~depth:8 ~seed ()
      in
      let want, got =
        dense_reports fast_config (Placement.place circuit) circuit
      in
      String.equal want got)

(* The kernels walk fewer partitions than dense passes would: on c432,
   whose cones each cover a corner of the die, under half of the 85
   partitions per pass. *)
let test_sweep_walks_supports () =
  let spec = Option.get (Iscas85.by_name "c432") in
  let circuit, placement = Iscas85.build_placed spec in
  let pool = Arrival.pool () in
  ignore (Engine.analyze ~placement ~pool circuit);
  let walked = Arrival.walked pool in
  check_true (Printf.sprintf "walked %d partitions" walked)
    (walked > 0 && walked < 85 * 3 * Netlist.num_gates circuit / 2)

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
          let want, got =
            reports fast_config (Placement.place circuit) circuit
          in
          String.equal want got)
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
      let want, got = reports fast_config (Placement.place circuit) circuit in
      Alcotest.(check string)
        (Printf.sprintf "%s: pooled sweep = composite" circuit.Netlist.name)
        want got)
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
  let pool = Arrival.pool () in
  let gates =
    Ssta_correlation.Gate_table.build graph placement layers
      ~corner_k:config.Config.corner_k
  in
  let recycled = ref 0 in
  for id = 0 to n - 1 do
    if not (Graph.is_input graph id) then begin
      let fanins = Graph.fanins graph id in
      let before = Array.map (fun f -> snapshot arrivals.(f)) fanins in
      let fused = Arrival.step pool config gates arrivals id in
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
      test_clark_vs_quadrature;
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
      slow_case "fused sweep = composite on ISCAS85, three confidences"
        test_step_matches_reference_iscas85;
      test_step_matches_reference_random;
      case "pooled sweep = composite when outputs feed gates"
        test_pooled_sweep_outputs_feed_gates;
      case "the step never writes into an operand"
        test_step_leaves_operands_alone;
      slow_case "span sweep = dense oracle on ISCAS85"
        test_sweep_matches_dense_iscas85;
      test_sweep_matches_dense_random;
      case "the kernels walk the supports only" test_sweep_walks_supports ] )
