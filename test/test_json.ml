(* The one JSON printer: numbers print exactly as "%.17g" (its integer
   fast path included), non-finite numbers as null, and every document
   the program emits parses under the strict parser and re-prints byte
   for byte — the bytes the server embeds in its responses. *)

open Helpers
module Json = Ssta_runtime.Json
module Err = Ssta_runtime.Ssta_error
module Iscas85 = Ssta_circuit.Iscas85
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Report = Ssta_core.Report
module Block_engine = Ssta_block.Engine
module Affine = Ssta_check.Affine
module Lint = Ssta_lint.Engine
module Lint_reporter = Ssta_lint.Reporter
module Sta = Ssta_timing.Sta

(* Floats that stress the printer's two branches: exact integers of
   either sign, -0, the 2^53 boundary where the integer fast path must
   hand over to "%.17g", subnormals, huge magnitudes, and arbitrary bit
   patterns (which also yield nan and the infinities). *)
let float_gen =
  let open QCheck.Gen in
  let near_2_53 =
    map2
      (fun k neg ->
        let x = 0x1p53 +. float_of_int k in
        if neg then -.x else x)
      (int_range (-4) 4) bool
  in
  let scaled =
    map2 (fun m e -> Float.ldexp m e) (float_range (-1.0) 1.0)
      (int_range (-1080) 1030)
  in
  oneof
    [ map float_of_int (int_range (-1_000_000_000) 1_000_000_000);
      near_2_53;
      scaled;
      map Int64.float_of_bits ui64;
      oneofl
        [ 0.0; -0.0; 1.0; -1.0; 0.5; 1e16; 1e17; -1e17; 0x1p53; -0x1p53;
          Float.pred 0x1p53; Float.succ 0x1p53; 0x1p63; 0x1p64;
          Float.min_float; 4.9e-324; -4.9e-324; Float.max_float;
          -.Float.max_float; 1e-300; 1e300; Float.nan; Float.infinity;
          Float.neg_infinity ] ]

let prop_number_matches_sprintf =
  qcheck ~count:2000 "numbers print as %.17g, non-finite as null"
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
    (fun x ->
      let s = Json.to_string (Json.Number x) in
      if Float.is_finite x then String.equal s (Printf.sprintf "%.17g" x)
      else String.equal s "null")

let test_string_escapes () =
  Alcotest.(check string)
    "escapes" {|"a\"b\\c\nd\re\tf\u0001g"|}
    (Json.to_string (Json.String "a\"b\\c\nd\re\tf\001g"));
  Alcotest.(check string) "clean string" {|"n123"|}
    (Json.to_string (Json.String "n123"))

(* --- every emitted document ------------------------------------------ *)

let round_trips what doc =
  match Json.parse doc with
  | Error e -> Alcotest.failf "%s does not parse: %s" what (Err.to_string e)
  | Ok v -> Alcotest.(check string) (what ^ " re-prints") doc (Json.to_string v)

let circuits = [ "c432"; "c6288" ]

let placed name = Iscas85.build_placed (Option.get (Iscas85.by_name name))

(* Formats do not depend on resolution, so keep the runs cheap. *)
let config = { fast_config with Config.max_paths = 50 }

let test_path_report () =
  List.iter
    (fun name ->
      let circuit, placement = placed name in
      round_trips (name ^ " path report")
        (Report.json_report (Methodology.run ~config ~placement circuit)))
    circuits

let test_block_report () =
  List.iter
    (fun name ->
      let circuit, placement = placed name in
      List.iter
        (fun policy ->
          let config = { config with Config.block_max = policy } in
          round_trips
            (Printf.sprintf "%s block report (%s)" name
               (Config.max_policy_name policy))
            (Block_engine.json_report
               (Block_engine.analyze ~config ~placement circuit)))
        [ Config.Clark_max; Config.Grid_max ])
    circuits

let test_criticality () =
  List.iter
    (fun name ->
      let circuit, _ = placed name in
      let sta = Sta.analyze circuit in
      match Affine.compute config sta.Sta.graph with
      | Error msg -> Alcotest.failf "%s: affine analysis failed: %s" name msg
      | Ok aff ->
          round_trips (name ^ " criticality")
            (Json.to_string
               (Affine.criticality_json sta.Sta.graph
                  (Affine.criticality aff sta))))
    circuits

let test_lint_reports () =
  List.iter
    (fun name ->
      let circuit, placement = placed name in
      let ds = Lint.run (Lint.input ~placement circuit) in
      check_true (name ^ " has diagnostics") (ds <> []);
      round_trips (name ^ " lint json")
        (Json.to_string (Lint_reporter.json ~circuit_name:name ds));
      round_trips (name ^ " lint sarif")
        (Json.to_string
           (Lint_reporter.sarif ~tool:"ssta-lint" ~rules:Lint.all_rules
              ~circuit_name:name ds)))
    circuits

let suite =
  ( "json",
    [ prop_number_matches_sprintf;
      case "string escapes" test_string_escapes;
      case "path reports round-trip" test_path_report;
      case "block reports round-trip" test_block_report;
      case "criticality round-trips" test_criticality;
      case "lint json and sarif round-trip" test_lint_reports ] )
