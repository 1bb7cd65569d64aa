(* Static verification subsystem: the interval domain, the test-side
   worklist oracle, arrival-time bounds against Monte-Carlo samples, the
   PDF sanitizer, the whole-program checker (clean runs and seeded
   violations), reporter determinism and the check-id registry. *)

module Netlist = Ssta_circuit.Netlist
module Generators = Ssta_circuit.Generators
module Iscas85 = Ssta_circuit.Iscas85
module Placement = Ssta_circuit.Placement
module Params = Ssta_tech.Params
module Elmore = Ssta_tech.Elmore
module Gate = Ssta_tech.Gate
module Pdf = Ssta_prob.Pdf
module Rng = Ssta_prob.Rng
module Sta = Ssta_timing.Sta
module Paths = Ssta_timing.Paths
module Config = Ssta_core.Config
module Monte_carlo = Ssta_core.Monte_carlo
module D = Ssta_lint.Diagnostic
module Lint = Ssta_lint.Engine
module Lint_reporter = Ssta_lint.Reporter
module Interval = Ssta_check.Interval
module Arrival_bounds = Ssta_check.Arrival_bounds
module Pdfsan = Ssta_check.Pdfsan
module Checker = Ssta_check.Checker
open Helpers

let fires rule ds =
  List.exists (fun (d : D.t) -> String.equal d.D.rule rule) ds

let errors_of ds = List.filter (fun (d : D.t) -> d.D.severity = D.Error) ds

let assert_no_errors label ds =
  match errors_of ds with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s: expected no errors, got %s" label
        (String.concat "; "
           (List.map (fun (d : D.t) -> Fmt.str "%a" D.pp d) errs))

(* --- interval domain ------------------------------------------------- *)

let test_interval_basics () =
  check_raises_invalid "inverted interval" (fun () ->
      Interval.make ~lo:1.0 ~hi:0.0);
  check_raises_invalid "nan bound" (fun () ->
      Interval.make ~lo:Float.nan ~hi:0.0);
  let a = Interval.make ~lo:1.0 ~hi:3.0 in
  let b = Interval.make ~lo:2.0 ~hi:5.0 in
  check_true "hull" (Interval.equal (Interval.hull a b)
                       (Interval.make ~lo:1.0 ~hi:5.0));
  check_true "sup" (Interval.equal (Interval.sup a b)
                      (Interval.make ~lo:2.0 ~hi:5.0));
  check_true "add" (Interval.equal (Interval.add a b)
                      (Interval.make ~lo:3.0 ~hi:8.0));
  check_true "bottom absorbs add"
    (Interval.is_bottom (Interval.add a Interval.bottom));
  check_true "bottom is sup identity"
    (Interval.equal (Interval.sup Interval.bottom a) a);
  check_true "bottom is hull identity"
    (Interval.equal (Interval.hull Interval.bottom a) a);
  check_true "contains with slack"
    (Interval.contains ~slack:0.5 a 3.4
     && not (Interval.contains a 3.4)
     && not (Interval.contains Interval.bottom 0.0));
  check_true "subset"
    (Interval.subset a ~of_:(Interval.make ~lo:0.0 ~hi:4.0)
    && Interval.subset Interval.bottom ~of_:a
    && not (Interval.subset b ~of_:a))

(* --- the worklist oracle ----------------------------------------------- *)

module Solver = Worklist.Make (struct
  type t = Interval.t

  let bottom = Interval.bottom
  let equal = Interval.equal
  let join = Interval.hull
end)

let depth_transfer c ~node v =
  if Netlist.is_input c node then v
  else Interval.add v (Interval.singleton 1.0)

let test_dataflow_forward_chain () =
  let c = Generators.chain ~name:"chain" ~length:6 () in
  let init id =
    if Netlist.is_input c id then Interval.zero else Interval.bottom
  in
  let r = Solver.fixpoint c ~init ~transfer:(depth_transfer c) in
  (* Every node's value is its gate depth, exactly. *)
  Array.iter
    (fun o ->
      let depth = ref 0 in
      for id = 0 to Netlist.num_nodes c - 1 do
        if not (Netlist.is_input c id) then incr depth
      done;
      match r.(o) with
      | Interval.Range { lo; hi } ->
          check_close "chain output depth" (float_of_int !depth) lo;
          check_close "chain output depth hi" (float_of_int !depth) hi
      | Interval.Bottom -> Alcotest.fail "output unreached")
    c.Netlist.outputs

let test_dataflow_backward () =
  let c = Generators.chain ~name:"chain" ~length:4 () in
  let init id =
    if Array.exists (fun o -> o = id) c.Netlist.outputs then Interval.zero
    else Interval.bottom
  in
  let r =
    Solver.fixpoint ~direction:Worklist.Backward c ~init
      ~transfer:(depth_transfer c)
  in
  (* The input sees the whole chain of gates below it. *)
  let gates = ref 0 in
  for id = 0 to Netlist.num_nodes c - 1 do
    if not (Netlist.is_input c id) then incr gates
  done;
  match r.(0) with
  | Interval.Range { hi; _ } ->
      check_close "input suffix depth" (float_of_int !gates) hi
  | Interval.Bottom -> Alcotest.fail "input unreached"

(* --- Elmore corner bounds -------------------------------------------- *)

let some_gate = Gate.electrical (Gate.Nand 2)

let test_delay_bounds_basic () =
  let lo, hi = Elmore.delay_bounds ~bound:3.0 some_gate in
  let nom = Elmore.nominal_delay some_gate in
  check_true "bounds bracket nominal" (lo < nom && nom < hi);
  let lo0, hi0 = Elmore.delay_bounds ~bound:0.0 some_gate in
  check_close "zero box collapses lo" nom lo0;
  check_close "zero box collapses hi" nom hi0;
  (* A box wide enough to push geometry through zero keeps a sound
     (zero) lower bound instead of failing. *)
  let lo_wide, hi_wide = Elmore.delay_bounds ~bound:12.0 some_gate in
  check_true "wide box lower bound is 0" (lo_wide = 0.0);
  check_true "wide box upper bound grows" (hi_wide > hi);
  check_raises_invalid "negative bound" (fun () ->
      Elmore.delay_bounds ~bound:(-1.0) some_gate)

let test_delay_bounds_contain_samples =
  qcheck ~count:200 "random parameter points stay inside delay_bounds"
    QCheck.(
      quad (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)
        (float_range (-1.0) 1.0) (float_range (-1.0) 1.0))
    (fun (z1, z2, z3, z4) ->
      let bound = 3.0 in
      let lo, hi = Elmore.delay_bounds ~bound some_gate in
      let dev rv z = z *. bound *. Params.sigma rv in
      let p =
        { Params.tox = Params.nominal.Params.tox +. dev Params.Tox z1;
          leff = Params.nominal.Params.leff +. dev Params.Leff z2;
          vdd = Params.nominal.Params.vdd +. dev Params.Vdd z3;
          vtn = Params.nominal.Params.vtn +. dev Params.Vtn z4;
          vtp = Params.nominal.Params.vtp +. dev Params.Vtp z4 }
      in
      let d = Elmore.gate_delay some_gate p in
      let slack = 1e-12 *. Float.abs d in
      d >= lo -. slack && d <= hi +. slack)

(* --- arrival bounds vs Monte-Carlo ----------------------------------- *)

let bounds_fixture =
  lazy
    (let c = small_adder () in
     let placement = Placement.place c in
     let sta = Sta.analyze c in
     let b =
       match Arrival_bounds.compute fast_config sta.Sta.graph with
       | Ok b -> b
       | Error e -> Alcotest.failf "bounds not computable: %s" e
     in
     (c, placement, sta, b))

let test_arrival_bounds_structure () =
  let _, _, sta, b = Lazy.force bounds_fixture in
  (* Nominal labels inside the arrival intervals, and the duality
     arrival + suffix <= circuit. *)
  let hi = function
    | Interval.Range { hi; _ } -> hi
    | Interval.Bottom -> Alcotest.fail "bottom interval"
  in
  let circuit_hi = hi b.Arrival_bounds.circuit in
  Array.iteri
    (fun id label ->
      check_true "label inside arrival"
        (Interval.contains ~slack:(1e-9 *. Float.abs label)
           b.Arrival_bounds.arrival.(id) label);
      let slack = 1e-9 *. circuit_hi in
      check_true "duality arrival + suffix <= circuit"
        (hi b.Arrival_bounds.arrival.(id)
         +. hi b.Arrival_bounds.suffix.(id)
         <= circuit_hi +. slack))
    sta.Sta.labels;
  check_true "critical delay inside circuit interval"
    (Interval.contains
       ~slack:(1e-9 *. sta.Sta.critical_delay)
       b.Arrival_bounds.circuit sta.Sta.critical_delay)

let test_mc_samples_inside_bounds =
  qcheck ~count:20 "MC path-delay samples fall inside static intervals"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let _, placement, sta, b = Lazy.force bounds_fixture in
      let s = Monte_carlo.sampler fast_config sta.Sta.graph placement in
      let rng = Rng.create seed in
      let path = sta.Sta.critical_path in
      let iv = Arrival_bounds.path_total b path in
      let samples = Monte_carlo.path_delay_samples s ~n:50 rng path in
      let slack = 1e-9 *. Interval.magnitude iv in
      Array.for_all (fun d -> Interval.contains ~slack iv d) samples)

let test_mc_circuit_inside_bounds =
  qcheck ~count:10 "MC circuit-delay samples fall inside circuit interval"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let _, placement, sta, b = Lazy.force bounds_fixture in
      let s = Monte_carlo.sampler fast_config sta.Sta.graph placement in
      let rng = Rng.create seed in
      let samples = Monte_carlo.circuit_delay_samples s ~n:50 rng in
      let iv = b.Arrival_bounds.circuit in
      let slack = 1e-9 *. Interval.magnitude iv in
      Array.for_all (fun d -> Interval.contains ~slack iv d) samples)

(* --- PDF sanitizer --------------------------------------------------- *)

let unit_gaussian_pdf () =
  Pdf.of_fun ~lo:(-4.0) ~hi:4.0 ~n:128 (fun x -> exp (-0.5 *. x *. x))

let test_pdfsan_clean_ops () =
  let (), session =
    Pdfsan.with_session (fun () ->
        let p = unit_gaussian_pdf () in
        let q = Pdf.affine p ~mul:2.0 ~add:1.0 in
        ignore (Ssta_prob.Combine.sum p q);
        ignore (Ssta_prob.Combine.mixture [ (0.5, p); (0.5, q) ]))
  in
  check_true "ops audited" (Pdfsan.ops session >= 3);
  check_int "no findings on clean ops" 0
    (List.length (Pdfsan.findings session))

let test_pdfsan_catches_corruption () =
  let bad = Pdf.of_fun ~lo:0.0 ~hi:1.0 ~n:8 (fun _ -> infinity) in
  let session = Pdfsan.create () in
  Pdfsan.audit session
    { Pdf.trace_op = "test.corrupt";
      trace_expected = Some (0.0, 1.0);
      trace_mass_in = Some 1.0;
      trace_clamped = 0.0;
      trace_output = bad };
  check_true "density violation found"
    (fires "check-pdfsan-density" (Pdfsan.findings session))

let test_pdfsan_catches_mass_and_support () =
  let p = unit_gaussian_pdf () in
  let session = Pdfsan.create () in
  Pdfsan.audit session
    { Pdf.trace_op = "test.mass-drift";
      trace_expected = None;
      trace_mass_in = Some 0.5;
      trace_clamped = 0.0;
      trace_output = p };
  check_true "mass drift found"
    (fires "check-pdfsan-mass" (Pdfsan.findings session));
  let session2 = Pdfsan.create () in
  Pdfsan.audit session2
    { Pdf.trace_op = "test.support-escape";
      trace_expected = Some (-1.0, 1.0);
      trace_mass_in = None;
      trace_clamped = 0.0;
      trace_output = p (* support [-4, 4] escapes [-1, 1] *) };
  check_true "support escape found"
    (fires "check-pdfsan-support" (Pdfsan.findings session2));
  let session3 = Pdfsan.create () in
  Pdfsan.audit session3
    { Pdf.trace_op = "test.clamped";
      trace_expected = None;
      trace_mass_in = None;
      trace_clamped = 0.01;
      trace_output = p };
  check_true "clamped mass found"
    (fires "check-pdfsan-clamped" (Pdfsan.findings session3))

let test_pdfsan_uninstall_restores_silence () =
  let (), session =
    Pdfsan.with_session (fun () -> ignore (unit_gaussian_pdf ()))
  in
  let before = Pdfsan.ops session in
  ignore (Pdf.affine (unit_gaussian_pdf ()) ~mul:1.0 ~add:0.0);
  check_int "no audits after uninstall" before (Pdfsan.ops session);
  check_true "hook removed" (not (Pdf.trace_active ()))

(* --- whole-program checker ------------------------------------------- *)

let check_c432 ?inject () =
  let c, placement =
    Iscas85.build_placed (Option.get (Iscas85.by_name "c432"))
  in
  Checker.run
    (Checker.input ~config:fast_config ~placement ~path_limit:8 ?inject c)

let test_checker_clean_run () =
  let r = check_c432 () in
  assert_no_errors "c432" r.Checker.diagnostics;
  check_int "clean exit code" 0 (Lint.exit_code r.Checker.diagnostics);
  check_true "nodes certified" (r.Checker.nodes_certified > 0);
  check_true "paths certified" (r.Checker.paths_certified > 0);
  check_true "ops audited" (r.Checker.ops_audited > 0)

let test_checker_injections () =
  List.iter
    (fun (inject, rule) ->
      let r = check_c432 ~inject () in
      let ds = r.Checker.diagnostics in
      if not (fires rule ds) then
        Alcotest.failf "expected %s to fire; got: %s" rule
          (String.concat "; "
             (List.map (fun (d : D.t) -> Fmt.str "%a" D.pp d) ds));
      check_true "injection exits nonzero" (Lint.exit_code ds <> 0))
    [ (Checker.Bad_budget, "check-var-budget");
      (Checker.Bad_placement, "check-place-bounds");
      (Checker.Corrupt_pdf, "check-pdfsan-density") ]

let test_injection_ids_distinct () =
  let rules =
    List.map
      (fun inject ->
        let r = check_c432 ~inject () in
        match errors_of r.Checker.diagnostics with
        | d :: _ -> d.D.rule
        | [] -> Alcotest.fail "injection produced no error")
      [ Checker.Bad_budget; Checker.Bad_placement; Checker.Corrupt_pdf ]
  in
  check_int "three distinct diagnostic ids" 3
    (List.length (List.sort_uniq String.compare rules))

(* A tampered coefficient vector: two quad-tree layers short of the
   layering, a non-zero inter-die (layer 0) slot and a negative
   random-layer sum.
   The key check names the defects; the conservation check sees the
   layer-0 term counted by the reported variance but by no layer. *)
let test_variance_check_tampered () =
  let module Path_coeffs = Ssta_correlation.Path_coeffs in
  let module Path_analysis = Ssta_core.Path_analysis in
  let module Variance_check = Ssta_check.Variance_check in
  let c, placement =
    Iscas85.build_placed (Option.get (Iscas85.by_name "c432"))
  in
  let sta = Sta.analyze c in
  let ctx = Path_analysis.context Config.default sta.Sta.graph placement in
  let pa = Path_analysis.analyze ctx sta.Sta.critical_path in
  let check pa = Variance_check.check_path Config.default ~label:"p" pa in
  assert_no_errors "untampered path" (check pa);
  let pc = pa.Path_analysis.coeffs in
  (* Keep layers 0-2 (partitions below 21), then copy the layer-1
     partition the path crosses (the first kept) onto layer 0. *)
  let kept =
    List.filter
      (fun i -> pc.Path_coeffs.parts.(i) < 21)
      (List.init (Array.length pc.Path_coeffs.parts) Fun.id)
  in
  let kept = List.hd kept :: kept in
  let parts =
    Array.of_list
      (0 :: List.map (fun i -> pc.Path_coeffs.parts.(i)) (List.tl kept))
  in
  let part_coeffs =
    Array.concat
      (List.map (fun i -> Array.sub pc.Path_coeffs.part_coeffs (5 * i) 5) kept)
  in
  let random_sq = Array.copy pc.Path_coeffs.random_sq in
  random_sq.(1) <- -1.0e-30;
  let tampered =
    { pa with
      Path_analysis.coeffs =
        { pc with
          Path_coeffs.quad_levels = 3;
          parts;
          part_coeffs;
          random_sq } }
  in
  let ds = check tampered in
  check_true "check-var-key fires" (fires "check-var-key" ds);
  check_true "check-var-conservation fires" (fires "check-var-conservation" ds)

(* Satellite: the sanitizer stays silent and the verifier certifies all
   built-in benchmarks. *)
let test_builtins_certify_clean () =
  List.iter
    (fun (spec : Iscas85.spec) ->
      let c, placement = Iscas85.build_placed spec in
      let r =
        Checker.run
          (Checker.input ~config:fast_config ~placement ~path_limit:4 c)
      in
      assert_no_errors spec.Iscas85.name r.Checker.diagnostics;
      check_true
        (spec.Iscas85.name ^ ": pdfsan silent")
        (not
           (List.exists
              (fun (d : D.t) ->
                String.length d.D.rule >= 12
                && String.sub d.D.rule 0 12 = "check-pdfsan")
              r.Checker.diagnostics));
      check_true
        (spec.Iscas85.name ^ ": ops audited")
        (r.Checker.ops_audited > 0))
    Iscas85.all

(* --- reporter determinism (satellite) -------------------------------- *)

let scrambled_diags () =
  let mk rule severity location message =
    D.make ~rule ~severity ~location message
  in
  [ mk "zz-last" D.Info (D.File { path = "b.v"; line = 2; col = 0 }) "m1";
    mk "aa-first" D.Error (D.File { path = "b.v"; line = 10; col = 0 }) "m2";
    mk "mid-rule" D.Warning (D.File { path = "a.v"; line = 99; col = 3 }) "m3";
    mk "node-rule" D.Error (D.Node { id = 7; name = "g7" }) "m4";
    mk "pdf-rule" D.Info (D.Pdf "path#1") "m5";
    mk "aa-first" D.Error (D.File { path = "b.v"; line = 2; col = 0 }) "m6" ]

let render_text ds =
  Format.asprintf "%t" (fun fmt ->
      Lint_reporter.text ~circuit_name:"t" fmt ds)

let render_json ds =
  Ssta_runtime.Json.to_string (Lint_reporter.json ~circuit_name:"t" ds)

let render_sarif ds =
  Ssta_runtime.Json.to_string
    (Lint_reporter.sarif ~tool:"t" ~rules:[ ("aa-first", "d") ]
       ~circuit_name:"t" ds)

let test_reporters_deterministic () =
  let ds = scrambled_diags () in
  let rev = List.rev ds in
  check_true "text order-independent"
    (String.equal (render_text ds) (render_text rev));
  check_true "json order-independent"
    (String.equal (render_json ds) (render_json rev));
  check_true "sarif order-independent"
    (String.equal (render_sarif ds) (render_sarif rev));
  (* The presentation order itself: by location (path before line),
     then rule id. *)
  let sorted = List.sort D.presentation_compare (scrambled_diags ()) in
  let rules = List.map (fun (d : D.t) -> d.D.rule) sorted in
  Alcotest.(check (list string))
    "presentation order"
    [ "node-rule"; "pdf-rule"; "mid-rule"; "aa-first"; "zz-last"; "aa-first" ]
    rules

let test_sarif_shape () =
  let out = render_sarif (scrambled_diags ()) in
  let has needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "sarif schema" (has "sarif-2.1.0.json");
  check_true "sarif version" (has "\"version\":\"2.1.0\"");
  check_true "sarif rule catalogue" (has "\"rules\":[{\"id\":\"aa-first\"");
  check_true "sarif physical location" (has "\"startLine\":2");
  check_true "sarif logical location" (has "logicalLocations");
  check_true "sarif levels" (has "\"level\":\"error\"" && has "\"level\":\"note\"")

(* --- registry (satellite): ids unique and stable --------------------- *)

let expected_check_ids =
  [ "check-affine-containment"; "check-affine-screen";
    "check-affine-variance"; "check-block-vs-path";
    "check-bound-arrival"; "check-bound-domain"; "check-bound-nominal";
    "check-bound-quantile"; "check-bound-support"; "check-health";
    "check-impact-equivalence"; "check-inter-cache-consistency";
    "check-internal"; "check-interrupted";
    "check-parallel-determinism"; "check-pdfsan-cdf";
    "check-pdfsan-clamped";
    "check-pdfsan-density"; "check-pdfsan-mass"; "check-pdfsan-support";
    "check-place-bounds"; "check-place-nesting"; "check-place-partition";
    "check-place-sibling"; "check-var-additivity"; "check-var-budget";
    "check-var-conservation"; "check-var-intra-pdf"; "check-var-key" ]

let test_check_registry () =
  let ids = List.map fst Checker.all_checks in
  Alcotest.(check (list string)) "check ids are stable" expected_check_ids ids;
  let combined = List.map fst Lint.all_rules @ ids in
  let uniq = List.sort_uniq String.compare combined in
  check_int "ids unique across lint and check" (List.length combined)
    (List.length uniq);
  List.iter
    (fun id ->
      check_true (id ^ " is namespaced")
        (String.length id > 6 && String.sub id 0 6 = "check-"))
    ids;
  List.iter
    (fun (_, doc) -> check_true "non-empty description" (doc <> ""))
    Checker.all_checks

let suite =
  ( "check",
    [ case "interval basics" test_interval_basics;
      case "dataflow forward chain" test_dataflow_forward_chain;
      case "dataflow backward" test_dataflow_backward;
      case "Elmore corner bounds" test_delay_bounds_basic;
      test_delay_bounds_contain_samples;
      case "arrival bounds structure and duality"
        test_arrival_bounds_structure;
      test_mc_samples_inside_bounds;
      test_mc_circuit_inside_bounds;
      case "pdfsan silent on clean operations" test_pdfsan_clean_ops;
      case "pdfsan catches corrupt density" test_pdfsan_catches_corruption;
      case "pdfsan catches mass drift, support escape, clamping"
        test_pdfsan_catches_mass_and_support;
      case "pdfsan uninstall restores silence"
        test_pdfsan_uninstall_restores_silence;
      case "checker certifies c432 clean" test_checker_clean_run;
      case "seeded violations are caught" test_checker_injections;
      case "injection ids are distinct" test_injection_ids_distinct;
      case "variance check catches a tampered vector"
        test_variance_check_tampered;
      slow_case "all built-ins certify clean, pdfsan silent"
        test_builtins_certify_clean;
      case "reporters are order-independent" test_reporters_deterministic;
      case "sarif document shape" test_sarif_shape;
      case "check-id registry unique and stable" test_check_registry ] )
