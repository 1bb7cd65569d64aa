(* The affine-arrival abstract domain: transfer-function algebra, the
   hulled (distribution-free) maximum vs the naive Gaussian Clark max,
   refinement of the interval domain along explicit paths, Monte-Carlo
   containment of the circuit form, byte-identity of screened
   enumeration, the one-pass sweeps against the worklist oracle, and
   the criticality ranking. *)

module Generators = Ssta_circuit.Generators
module Netlist = Ssta_circuit.Netlist
module Iscas85 = Ssta_circuit.Iscas85
module Placement = Ssta_circuit.Placement
module Params = Ssta_tech.Params
module Rng = Ssta_prob.Rng
module Sta = Ssta_timing.Sta
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Config = Ssta_core.Config
module Monte_carlo = Ssta_core.Monte_carlo
module Interval = Ssta_check.Interval
module Arrival_bounds = Ssta_check.Arrival_bounds
module Affine = Ssta_check.Affine
module Json = Ssta_runtime.Json
module Err = Ssta_runtime.Ssta_error
open Helpers

let num_rvs = List.length Params.all_rvs

(* A hand-built form: center [c], one singleton coefficient [a] on the
   first RV, everything else zero. *)
let simple_form ?(intra = 0.0) ?(residual = Interval.zero) c a =
  let coeffs = Array.make num_rvs (Interval.singleton 0.0) in
  coeffs.(0) <- Interval.singleton a;
  Affine.Form { Affine.center = c; coeffs; intra_sigma = intra; residual }

let range_exn = function
  | Interval.Range { lo; hi } -> (lo, hi)
  | Interval.Bottom -> Alcotest.fail "unexpected bottom interval"

(* --- transfer-function algebra --------------------------------------- *)

let test_const_add_scale () =
  let trunc = 3.0 in
  let lo, hi = range_exn (Affine.concretize ~trunc (Affine.const 5.0)) in
  check_close "const concretizes to a point (lo)" 5.0 lo;
  check_close "const concretizes to a point (hi)" 5.0 hi;
  check_close "const has no variance" 0.0
    (Affine.sigma_upper (Affine.const 5.0));
  let f = simple_form 2.0 0.5 in
  let g = simple_form 1.0 (-0.25) in
  let lo, hi = range_exn (Affine.concretize ~trunc (Affine.add f g)) in
  (* Coefficients add before taking magnitudes: 0.5 - 0.25 = 0.25. *)
  check_close "add cancels opposite coefficients (lo)"
    (3.0 -. (trunc *. 0.25)) lo;
  check_close "add cancels opposite coefficients (hi)"
    (3.0 +. (trunc *. 0.25)) hi;
  check_true "add absorbs bottom"
    (Affine.add f Affine.Bottom = Affine.Bottom);
  (* Negative scaling flips the coefficient but not the envelope width. *)
  let s = Affine.scale (-2.0) f in
  let lo, hi = range_exn (Affine.concretize ~trunc s) in
  check_close "scale -2 (lo)" (-4.0 -. (trunc *. 1.0)) lo;
  check_close "scale -2 (hi)" (-4.0 +. (trunc *. 1.0)) hi;
  check_close "scale doubles sigma" (2.0 *. Affine.sigma_upper f)
    (Affine.sigma_upper s)

let test_join_is_hull () =
  let trunc = 3.0 in
  let f = simple_form 2.0 0.5 in
  let g = simple_form 1.0 (-0.25) in
  let j = Affine.join f g in
  let cj = Affine.concretize ~trunc j in
  (* The join abstracts the pointwise maximum: max(f(x), g(x)) must land
     inside the joined envelope for every x in the truncation box (the
     low side of g alone need not — max(f,g) >= f pointwise). *)
  let eval c a x = c +. (a *. x) in
  for i = -6 to 6 do
    let x = float_of_int i /. 6.0 *. trunc in
    let m = Float.max (eval 2.0 0.5 x) (eval 1.0 (-0.25) x) in
    check_true "pointwise max inside joined envelope"
      (Interval.contains ~slack:1e-12 cj m)
  done;
  let hi iv = snd (range_exn iv) in
  check_true "joined upper envelope dominates both"
    (hi cj >= hi (Affine.concretize ~trunc f) -. 1e-12
    && hi cj >= hi (Affine.concretize ~trunc g) -. 1e-12);
  check_true "bottom is join identity" (Affine.join Affine.Bottom f = f);
  check_true "join is max" (Affine.equal (Affine.max f g) j)

(* --- the hulled max is sound where the Gaussian Clark max is not ------ *)

(* A = a*X and B = -a*X with X standard normal are perfectly
   anti-correlated: max(A, B) = a*|X|, whose supremum over the
   truncation box |X| <= 6 is 6a.  Clark's formulas under the
   independence (rho = 0) assumption give mean 2a*phi(0) ~ 0.798a and
   std ~ 0.603a, so even the mean + 6 sigma quantile (~4.41a) is below
   the true supremum — a naive Gaussian max would certify an envelope
   that MC samples escape.  The hulled max keeps the full 6a. *)
let test_hulled_max_vs_clark () =
  let a = 1.0 and trunc = 6.0 in
  let f = simple_form 0.0 a in
  let g = simple_form 0.0 (-.a) in
  let true_sup = trunc *. a in
  let clark_mean = 2.0 *. a *. 0.3989422804014327 in
  let clark_std = sqrt (Float.max 0.0 ((a *. a) -. (clark_mean *. clark_mean))) in
  let clark_envelope = clark_mean +. (trunc *. clark_std) in
  check_true "naive Clark 6-sigma quantile is below the true supremum"
    (clark_envelope < true_sup -. 1.0);
  let _, hi = range_exn (Affine.concretize ~trunc (Affine.max f g)) in
  check_true "hulled max keeps the true supremum"
    (hi >= true_sup -. 1e-12)

(* --- whole-circuit analysis fixture ----------------------------------- *)

let affine_fixture =
  lazy
    (let c = small_adder () in
     let placement = Placement.place c in
     let sta = Sta.analyze c in
     let aff =
       match Affine.compute fast_config sta.Sta.graph with
       | Ok a -> a
       | Error e -> Alcotest.failf "affine analysis failed: %s" e
     in
     let bounds =
       match Arrival_bounds.compute fast_config sta.Sta.graph with
       | Ok b -> b
       | Error e -> Alcotest.failf "interval bounds failed: %s" e
     in
     (c, placement, sta, aff, bounds))

let test_arrival_centers_match_labels () =
  let _, _, sta, aff, _ = Lazy.force affine_fixture in
  (* The forward center arithmetic mirrors Bellman-Ford exactly. *)
  Array.iteri
    (fun id label ->
      match aff.Affine.arrival.(id) with
      | Affine.Bottom -> Alcotest.failf "node %d unreachable" id
      | Affine.Form f ->
          check_close "arrival center = nominal label" label f.Affine.center)
    sta.Sta.labels;
  match aff.Affine.circuit with
  | Affine.Bottom -> Alcotest.fail "circuit form is bottom"
  | Affine.Form f ->
      check_close "circuit center = critical delay" sta.Sta.critical_delay
        f.Affine.center

let test_path_form_vs_intervals () =
  let _, _, sta, aff, bounds = Lazy.force affine_fixture in
  let e = Sta.near_critical ~max_paths:50 sta ~slack:(0.2 *. sta.Sta.critical_delay) in
  check_true "fixture enumerates some paths" (e.Paths.paths <> []);
  List.iter
    (fun p ->
      let iv = Arrival_bounds.path_total bounds p in
      let cf = Affine.concretize ~trunc:aff.Affine.trunc (Affine.path_form aff p) in
      let slack = 1e-9 *. Interval.magnitude cf in
      (* Each gate residual is hulled around the certified corner bound,
         so the affine path envelope contains the interval one — the
         refinement is in the sensitivity split (the coefficients and
         intra bound the interval domain does not have), not in raw
         width. *)
      check_true "certified interval bound inside the affine path envelope"
        (Interval.subset ~slack iv ~of_:cf);
      check_true "nominal path delay inside the affine envelope"
        (Interval.contains ~slack cf p.Paths.delay);
      (* The sensitivity split exists and is non-trivial on every path. *)
      check_true "path form has positive variance bound"
        (Affine.sigma_upper (Affine.path_form aff p) > 0.0))
    e.Paths.paths

let test_mc_inside_circuit_envelope =
  qcheck ~count:10 "MC circuit-delay samples fall inside the affine envelope"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let _, placement, sta, aff, _ = Lazy.force affine_fixture in
      let s = Monte_carlo.sampler fast_config sta.Sta.graph placement in
      let rng = Rng.create seed in
      let samples = Monte_carlo.circuit_delay_samples s ~n:50 rng in
      let env = Affine.concretize ~trunc:aff.Affine.trunc aff.Affine.circuit in
      let slack = 1e-9 *. Interval.magnitude env in
      Array.for_all (fun d -> Interval.contains ~slack env d) samples)

(* --- static screening -------------------------------------------------- *)

let render (e : Paths.enumeration) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (p : Paths.path) ->
      Buffer.add_string b (Printf.sprintf "%.17g|" p.Paths.delay);
      Array.iter (fun id -> Buffer.add_string b (string_of_int id ^ ","))
        p.Paths.nodes;
      Buffer.add_char b '\n')
    e.Paths.paths;
  Buffer.add_string b
    (Printf.sprintf "explored=%d truncated=%b deadline=%b" e.Paths.explored
       e.Paths.truncated e.Paths.deadline_hit);
  Buffer.contents b

let test_screen_counters () =
  let _, _, sta, aff, _ = Lazy.force affine_fixture in
  let sc = Affine.screen aff sta ~slack:(0.05 *. sta.Sta.critical_delay) in
  check_int "visited = graph size" (Array.length sc.Affine.pruned)
    sc.Affine.nodes_visited;
  check_true "pruned <= visited" (sc.Affine.nodes_pruned <= sc.Affine.nodes_visited);
  match Affine.screen_counters sc with
  | [ (p, pv); (v, vv) ] ->
      Alcotest.(check string) "counter order" "affine-screen-nodes-pruned" p;
      Alcotest.(check string) "counter order" "affine-screen-nodes-visited" v;
      check_int "pruned counter" sc.Affine.nodes_pruned pv;
      check_int "visited counter" sc.Affine.nodes_visited vv
  | other -> Alcotest.failf "expected 2 counters, got %d" (List.length other)

let test_screened_enumeration_identical =
  qcheck ~count:8 "screened enumeration is byte-identical on random circuits"
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 2))
    (fun (seed, slack_idx) ->
      let c =
        Generators.random_layered ~name:"screen" ~inputs:6 ~outputs:3
          ~gates:40 ~depth:6 ~seed ()
      in
      let sta = Sta.analyze c in
      match Affine.compute fast_config sta.Sta.graph with
      | Error _ -> false
      | Ok aff ->
          let slack =
            [| 0.01; 0.05; 0.15 |].(slack_idx) *. sta.Sta.critical_delay
          in
          let sc = Affine.screen aff sta ~slack in
          let base = Sta.near_critical ~max_paths:500 sta ~slack in
          let pruned =
            Sta.near_critical ~max_paths:500
              ~prune:(Affine.prune_hook sc) sta ~slack
          in
          String.equal (render base) (render pruned))

(* The packaged screen against its oracle: the affine screen over the
   full fixpoint must prune the same nodes and count the same. *)
let packaged_matches_affine config sta ~slack =
  let hook, counters = Affine.methodology_screen config ~sta ~slack in
  let every_node f = List.for_all f (List.init (Array.length sta.Sta.labels) Fun.id) in
  match Affine.compute config sta.Sta.graph with
  | Error _ -> counters = [] && every_node (fun u -> not (hook u))
  | Ok aff ->
      let sc = Affine.screen aff sta ~slack in
      counters = Affine.screen_counters sc
      && every_node (fun u -> hook u = sc.Affine.pruned.(u))

let screen_slacks = [ 0.0; 0.01; 0.05; 0.2; 1.0 ]

let test_packaged_screen_iscas85 () =
  List.iter
    (fun (spec : Iscas85.spec) ->
      let sta = Sta.analyze (Iscas85.build spec) in
      List.iter
        (fun k ->
          if
            not
              (packaged_matches_affine Config.default sta
                 ~slack:(k *. sta.Sta.critical_delay))
          then
            Alcotest.failf "%s at slack %g x critical: packaged screen differs"
              spec.Iscas85.name k)
        screen_slacks)
    Iscas85.all

(* [c] plus [k] two-inverter chains hanging off random nodes, feeding
   nothing and marked as no output: gates that reach no output, with a
   bottom affine suffix and a [neg_infinity] max-plus one. *)
let with_dead_gates c ~k ~seed =
  let module B = Netlist.Builder in
  let b = B.create c.Netlist.name in
  for id = 0 to c.Netlist.num_inputs - 1 do
    ignore (B.add_input b (Netlist.node_name c id))
  done;
  Array.iter
    (fun (g : Netlist.gate) ->
      ignore (B.add_gate b g.Netlist.kind (Array.to_list g.Netlist.fanins)))
    c.Netlist.gates;
  let rng = Rng.create seed in
  let n = Netlist.num_nodes c in
  for _ = 1 to k do
    let d = B.add_gate b Ssta_tech.Gate.Inv [ Rng.int rng n ] in
    ignore (B.add_gate b Ssta_tech.Gate.Inv [ d ])
  done;
  Array.iter (B.mark_output b) c.Netlist.outputs;
  B.finish b

let test_packaged_screen_random =
  qcheck ~count:30 "packaged screen = affine screen on random circuits"
    QCheck.(triple (int_range 1 1_000_000) (int_range 0 3) (int_range 0 4))
    (fun (seed, k, slack_idx) ->
      let c =
        Generators.random_layered ~name:"pkg" ~inputs:6 ~outputs:3 ~gates:50
          ~depth:7 ~seed ()
      in
      let sta = Sta.analyze (with_dead_gates c ~k ~seed) in
      packaged_matches_affine fast_config sta
        ~slack:(List.nth screen_slacks slack_idx *. sta.Sta.critical_delay))

let test_packaged_screen_dead_gates () =
  let c = small_random () in
  let n = Netlist.num_nodes c in
  let sta = Sta.analyze (with_dead_gates c ~k:3 ~seed:7) in
  let aff =
    match Affine.compute fast_config sta.Sta.graph with
    | Ok aff -> aff
    | Error e -> Alcotest.failf "affine analysis failed: %s" e
  in
  List.iter
    (fun k ->
      let slack = k *. sta.Sta.critical_delay in
      check_true "packaged screen = affine screen"
        (packaged_matches_affine fast_config sta ~slack);
      let hook, _ = Affine.methodology_screen fast_config ~sta ~slack in
      for u = n to Array.length sta.Sta.labels - 1 do
        check_true "dead gate has a bottom suffix"
          (aff.Affine.suffix.(u) = Affine.Bottom);
        check_true "dead gate is pruned" (hook u)
      done)
    screen_slacks

(* A truncation wide enough that the slow corner leaves the delay
   model's domain: the affine analysis fails, and the packaged screen
   must degrade the same way — no-op hook, no counters. *)
let test_packaged_screen_out_of_domain () =
  let config = { fast_config with Config.truncation = 60.0 } in
  let sta = Sta.analyze (small_adder ()) in
  (match Affine.compute config sta.Sta.graph with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the affine analysis to fail");
  let hook, counters =
    Affine.methodology_screen config ~sta
      ~slack:(0.05 *. sta.Sta.critical_delay)
  in
  check_int "no counters" 0 (List.length counters);
  for u = 0 to Array.length sta.Sta.labels - 1 do
    check_true "no-op hook" (not (hook u))
  done

(* --- the one-pass sweeps against the worklist oracle ------------------ *)

(* Bit-for-bit structural equality: marshalling writes the raw bits of
   every float, so equal strings mean equal structures, -0.0 and NaN
   payloads included. *)
let same_bits a b =
  String.equal
    (Marshal.to_string a [ Marshal.No_sharing ])
    (Marshal.to_string b [ Marshal.No_sharing ])

(* An order-sensitive domain: [join] and [add] mix hashes without
   commuting, so folding the predecessors in another order, or dropping
   a gate value anywhere, changes some node's value — which the interval
   and affine joins (exact max and hull) would not reveal. *)
module Trace = struct
  type t = int option

  let bottom = None
  let equal = ( = )
  let mix a b = ((a * 1_000_003) + b) land 0x3fff_ffff

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (mix a b)

  let zero = Some 1

  let add a b =
    match (a, b) with
    | None, _ | _, None -> None
    | Some a, Some b -> Some (mix (mix a 7) b)
end

module Trace_recurrence = Bounds_reference.Recurrence (Trace)

let sweeps_match_oracle config c =
  let g = Graph.of_netlist c in
  let intervals =
    Result.map
      (fun (b : Arrival_bounds.t) ->
        Arrival_bounds.
          ( b.gate_total, b.gate_inter, b.intra_halfwidth, b.arrival,
            b.suffix, b.circuit ))
      (Arrival_bounds.compute config g)
  in
  let affine =
    Result.map
      (fun (a : Affine.analysis) ->
        Affine.(a.gate, a.arrival, a.suffix, a.circuit))
      (Affine.compute config g)
  in
  let gate = Array.init (Netlist.num_nodes c) (fun id -> Some (Trace.mix id 12345)) in
  let s =
    Arrival_bounds.sweep ~bottom:Trace.bottom ~zero:Trace.zero
      ~join:Trace.join ~add:Trace.add c gate
  in
  same_bits intervals (Bounds_reference.interval_bounds config g)
  && same_bits affine (Bounds_reference.affine_bounds config g)
  && Arrival_bounds.(s.arrival, s.suffix, s.circuit)
     = Trace_recurrence.run c gate

let test_sweeps_match_oracle_random =
  qcheck ~count:40 "sweeps = worklist oracle on random circuits, bit for bit"
    QCheck.(
      quad (int_range 1 1_000_000) (int_range 2 10) (int_range 10 120)
        (int_range 0 3))
    (fun (seed, depth, gates, k) ->
      let c =
        Generators.random_layered ~name:"oracle" ~inputs:6 ~outputs:4 ~gates
          ~depth ~seed ()
      in
      sweeps_match_oracle fast_config (with_dead_gates c ~k ~seed))

let test_sweeps_match_oracle_iscas85 () =
  List.iter
    (fun name ->
      let c = Iscas85.build (Option.get (Iscas85.by_name name)) in
      check_true (name ^ " sweeps = worklist oracle")
        (sweeps_match_oracle Config.default c))
    [ "c432"; "c880"; "c1355" ];
  check_true "out-of-domain errors = worklist oracle"
    (sweeps_match_oracle
       { fast_config with Config.truncation = 60.0 }
       (small_adder ()))

(* --- criticality ------------------------------------------------------- *)

let test_criticality_ranking () =
  let _, _, sta, aff, _ = Lazy.force affine_fixture in
  let crits = Affine.criticality aff sta in
  check_true "non-empty" (crits <> []);
  let top = List.hd crits in
  check_close "most critical node has zero slack" 0.0 top.Affine.slack;
  check_close "most critical node has z = 0" 0.0 top.Affine.z;
  check_close "critical probability bound is one half" 0.5 top.Affine.prob
    ~tol:1e-6;
  check_close "top through-center = critical delay" sta.Sta.critical_delay
    top.Affine.through_center;
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        (a.Affine.z < b.Affine.z
        || (a.Affine.z = b.Affine.z && a.Affine.node < b.Affine.node))
        && sorted rest
    | _ -> true
  in
  check_true "sorted by ascending z, node tiebreak" (sorted crits);
  List.iter
    (fun (cr : Affine.crit) ->
      check_true "slack is non-negative" (cr.Affine.slack >= 0.0);
      check_true "probability bound in (0, 0.5 + eps]"
        (cr.Affine.prob > 0.0 && cr.Affine.prob <= 0.5 +. 1e-6))
    crits;
  let doc = Json.to_string (Affine.criticality_json sta.Sta.graph crits) in
  match Json.parse doc with
  | Error e ->
      Alcotest.failf "criticality JSON does not parse: %s" (Err.to_string e)
  | Ok v -> (
      match Json.member "criticality" v with
      | Some (Json.List l) ->
          Alcotest.(check int) "one entry per crit" (List.length crits)
            (List.length l)
      | _ -> Alcotest.fail "criticality JSON has no criticality list")

let suite =
  ( "affine",
    [ case "const/add/scale algebra" test_const_add_scale;
      case "join is the componentwise hull" test_join_is_hull;
      case "hulled max sound where Gaussian Clark max is not"
        test_hulled_max_vs_clark;
      case "arrival centers match Bellman-Ford labels"
        test_arrival_centers_match_labels;
      case "path forms vs the interval domain" test_path_form_vs_intervals;
      test_mc_inside_circuit_envelope;
      case "screen counters" test_screen_counters;
      test_screened_enumeration_identical;
      case "packaged screen = affine screen on ISCAS85"
        test_packaged_screen_iscas85;
      test_packaged_screen_random;
      case "packaged screen prunes gates that reach no output"
        test_packaged_screen_dead_gates;
      case "packaged screen fails where the affine analysis does"
        test_packaged_screen_out_of_domain;
      test_sweeps_match_oracle_random;
      case "sweeps = worklist oracle on ISCAS85, bit for bit"
        test_sweeps_match_oracle_iscas85;
      case "criticality ranking" test_criticality_ranking ] )
