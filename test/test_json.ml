(* The one JSON printer: numbers print exactly as "%.17g" (its digit
   loop and exact 17-digit writer checked against C's printf), non-finite
   numbers as null, streamed arrays and the channel writer print the
   bytes of the materialized document, and every document the program
   emits parses under the strict parser and re-prints byte for byte —
   the bytes the server embeds in its responses. *)

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

(* --- the printer against C's "%.17g" ---------------------------------- *)

let check_printf what x =
  let got = Json.to_string (Json.Number x) in
  let want = Printf.sprintf "%.17g" x in
  if not (String.equal got want) then
    Alcotest.failf "%s: %h prints %s, %%.17g gives %s" what x got want

let check_both what x =
  check_printf what x;
  check_printf what (-.x)

(* [n] ulps either side of [x], [x] included. *)
let around ?(n = 3) x =
  let rec walk step k y acc =
    if k = 0 then acc else walk step (k - 1) (step y) (y :: acc)
  in
  walk Float.pred n (Float.pred x) []
  @ (x :: walk Float.succ n (Float.succ x) [])

let test_printer_oracle () =
  let rng = Random.State.make [| 21 |] in
  (* random finite bit patterns (the sign bit is one of them) *)
  let n = ref 0 in
  while !n < 1_000_000 do
    let x = Int64.float_of_bits (Random.State.bits64 rng) in
    if Float.is_finite x then begin
      incr n;
      check_printf "random bits" x
    end
  done;
  (* the exact writer's domain, [1e-44, 1e17), which uniform bit patterns
     hit only one time in ten *)
  for _ = 1 to 1_000_000 do
    let x =
      Float.ldexp (1.0 +. Random.State.float rng 1.0)
        (Random.State.int rng 204 - 147)
    in
    check_printf "in-domain" (if Random.State.bool rng then x else -.x)
  done;
  List.iter (check_both "zero, subnormal, extreme")
    [ 0.0; 4.9e-324; Float.pred Float.min_float; Float.min_float;
      Float.succ Float.min_float; 1e-310; Float.max_float;
      Float.pred Float.max_float ];
  for k = -45 to 20 do
    let p = float_of_string (Printf.sprintf "1e%d" k) in
    List.iter (check_both (Printf.sprintf "10^%d" k)) (around ~n:1 p)
  done;
  List.iter (check_both "2^53 +- 1") (around 0x1p53);
  List.iter (check_both "2^53 neighbours") [ 0x1p53 -. 1.0; 0x1p53 +. 2.0 ];
  for _ = 1 to 10_000 do
    (* integers from 2^53 to past 1e17 *)
    check_both "integer >= 2^53"
      (Float.ldexp (1.0 +. Random.State.float rng 1.0)
         (53 + Random.State.int rng 8))
  done;
  List.iter
    (fun p -> List.iter (check_both "%g switch point") (around ~n:8 p))
    [ 1e-5; 1e-4; 1e16; 1e17 ];
  (* exact ties at the 18th significant digit: round half to even *)
  for i = 0 to 10_000 do
    let k = float_of_int i in
    List.iter (check_both "tie")
      [ 0x1p50 +. k +. 0.25; 0x1p50 +. k +. 0.75; 0x1p49 +. k +. 0.125;
        0x1p49 +. k +. 0.375; 0x1p49 +. k +. 0.625 ]
  done

(* --- streamed arrays and the channel writer --------------------------- *)

let tree_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun x -> Json.Number x) float_gen;
               map
                 (fun s -> Json.String s)
                 (string_size ~gen:printable (int_bound 6)) ]
         in
         if n = 0 then leaf
         else
           let children = list_size (int_bound 4) (self (n / 2)) in
           frequency
             [ (1, leaf);
               (2, map (fun l -> Json.List l) children);
               ( 2,
                 map
                   (fun l ->
                     Json.Obj (List.mapi (fun i v -> (string_of_int i, v)) l))
                   children ) ])

(* Every [List] as a [Seq] over the same (streamed) elements. *)
let rec streamed = function
  | Json.List l -> Json.Seq (Seq.map streamed (List.to_seq l))
  | Json.Obj fields ->
      Json.Obj (List.map (fun (k, v) -> (k, streamed v)) fields)
  | v -> v

let via_channel v =
  let file = Filename.temp_file "ssta-json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      Json.to_channel oc v;
      close_out oc;
      In_channel.with_open_bin file In_channel.input_all)

let prop_streamed_matches =
  qcheck ~count:300 "streamed arrays and channel print the same bytes"
    (QCheck.make ~print:Json.to_string tree_gen)
    (fun v ->
      let s = streamed v in
      let want = Json.to_string v in
      String.equal want (Json.to_string s) && String.equal want (via_channel s))

let prop_parse_reprints =
  qcheck ~count:300 "printed documents parse and re-print byte for byte"
    (QCheck.make ~print:Json.to_string tree_gen)
    (fun v ->
      let s = Json.to_string v in
      match Json.parse s with
      | Ok w -> String.equal s (Json.to_string w)
      | Error _ -> false)

(* JSON number literals (integers of every length, fractions,
   exponents, both signs) parse to strtod's double, bit for bit. *)
let literal_gen =
  let open QCheck.Gen in
  let digits k = string_size ~gen:(char_range '0' '9') (return k) in
  let int_part =
    oneof
      [ return "0";
        map2 (fun d rest -> String.make 1 d ^ rest) (char_range '1' '9')
          (int_range 0 19 >>= digits) ]
  in
  let frac =
    oneof [ return ""; map (fun d -> "." ^ d) (int_range 1 18 >>= digits) ]
  in
  let exp =
    oneof
      [ return "";
        map2 (fun sign e -> "e" ^ sign ^ string_of_int e)
          (oneofl [ ""; "+"; "-" ]) (int_range 0 40) ]
  in
  map4
    (fun sign i f e -> sign ^ i ^ f ^ e)
    (oneofl [ ""; "-" ])
    int_part frac exp

let prop_number_literals =
  qcheck ~count:3000 "number literals parse as strtod does"
    (QCheck.make ~print:Fun.id literal_gen)
    (fun lit ->
      match Json.parse lit with
      | Ok (Json.Number x) ->
          Int64.equal (Int64.bits_of_float x)
            (Int64.bits_of_float (float_of_string lit))
      | _ -> false)

let test_streamed_edges () =
  let check what want v =
    Alcotest.(check string) what want (Json.to_string v)
  in
  check "empty" "[]" (Json.Seq Seq.empty);
  check "nested empty" "[[],[[]]]"
    (Json.Seq
       (List.to_seq
          [ Json.Seq Seq.empty; Json.Seq (Seq.return (Json.Seq Seq.empty)) ]));
  check "array helper" "[1,2,3]" (Json.array Json.int [| 1; 2; 3 |]);
  (* a document several channel chunks long *)
  let big =
    Json.Obj
      [ ("a", Json.array (fun i -> Json.Number (float_of_int i /. 7.0))
                (Array.init 50_000 Fun.id)) ]
  in
  Alcotest.(check string)
    "multi-chunk channel" (Json.to_string big) (via_channel big)

(* The validator skips ASCII eight bytes at a time: multi-byte
   characters and invalid bytes are found at every alignment. *)
let test_utf8_alignment () =
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  for k = 0 to 17 do
    let pad = String.make k 'a' in
    let text = pad ^ "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80" ^ pad in
    (match Json.parse ("\"" ^ text ^ "\"") with
    | Ok (Json.String s) -> Alcotest.(check string) "multi-byte text" text s
    | _ -> Alcotest.failf "valid UTF-8 after %d ASCII bytes rejected" k);
    List.iter
      (fun bad ->
        match Json.parse ("\"" ^ pad ^ bad ^ pad ^ "\"") with
        | Error e ->
            check_true
              (Printf.sprintf "invalid byte after %d ASCII bytes at column %d"
                 k (k + 2))
              (contains (Err.to_string e)
                 (Printf.sprintf "<input>:1:%d:" (k + 2)))
        | Ok _ ->
            Alcotest.failf "invalid UTF-8 after %d ASCII bytes accepted" k)
      [ "\xff"; "\xc3"; "\xed\xa0\x80" ]
  done

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
      round_trips (name ^ " block report")
        (Block_engine.json_report
           (Block_engine.analyze ~config ~placement circuit)))
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
      case "printer matches %.17g" test_printer_oracle;
      prop_streamed_matches;
      prop_parse_reprints;
      prop_number_literals;
      case "streamed array edges" test_streamed_edges;
      case "UTF-8 validation at every alignment" test_utf8_alignment;
      case "string escapes" test_string_escapes;
      case "path reports round-trip" test_path_report;
      case "block reports round-trip" test_block_report;
      case "criticality round-trips" test_criticality;
      case "lint json and sarif round-trip" test_lint_reports ] )
