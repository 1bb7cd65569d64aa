(* The byte-level front end (.bench/.def/.spef readers, attach through
   the netlist's name index, lint on that index) against the reference
   front end in [Frontend_reference]: on every input both must accept
   with equal results or reject with the same typed error, and lint must
   report the same diagnostics in the same order. *)

open Helpers
module Err = Ssta_runtime.Ssta_error
module Fault = Ssta_runtime.Fault
module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Bench_format = Ssta_circuit.Bench_format
module Def_format = Ssta_circuit.Def_format
module Spef = Ssta_circuit.Spef
module Scan = Ssta_circuit.Scan
module Iscas85 = Ssta_circuit.Iscas85
module Generators = Ssta_circuit.Generators
module Lint = Ssta_lint.Engine
module Ref = Frontend_reference

(* The three texts [ssta generate] writes for a netlist. *)
let texts name c =
  let pl = Placement.place c in
  ( Bench_format.to_string c,
    Def_format.to_string (Def_format.of_placement ~design:name c pl),
    Spef.to_string (Spef.of_placement ~design:name c pl) )

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_netlist (a : Netlist.t) (b : Netlist.t) =
  String.equal a.Netlist.name b.Netlist.name
  && a.Netlist.num_inputs = b.Netlist.num_inputs
  && a.Netlist.gates = b.Netlist.gates
  && a.Netlist.outputs = b.Netlist.outputs
  && a.Netlist.node_names = b.Netlist.node_names

let same_def (a : Def_format.t) (b : Def_format.t) =
  String.equal a.Def_format.design b.Def_format.design
  && a.Def_format.units_per_micron = b.Def_format.units_per_micron
  && same_float a.Def_format.die_width b.Def_format.die_width
  && same_float a.Def_format.die_height b.Def_format.die_height
  && List.equal
       (fun (x : Def_format.component) (y : Def_format.component) ->
         String.equal x.Def_format.comp_name y.Def_format.comp_name
         && String.equal x.Def_format.master y.Def_format.master
         && same_float x.Def_format.x y.Def_format.x
         && same_float x.Def_format.y y.Def_format.y)
       a.Def_format.components b.Def_format.components

let same_spef (a : Spef.t) (b : Spef.t) =
  String.equal a.Spef.design b.Spef.design
  && List.equal
       (fun (n, c) (n', c') -> String.equal n n' && same_float c c')
       a.Spef.caps b.Spef.caps

let same_placement (a : Placement.t) (b : Placement.t) =
  same_float a.Placement.die_width b.Placement.die_width
  && same_float a.Placement.die_height b.Placement.die_height
  && Array.length a.Placement.coords = Array.length b.Placement.coords
  && Array.for_all2
       (fun (x, y) (x', y') -> same_float x x' && same_float y y')
       a.Placement.coords b.Placement.coords

let same_caps a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let show_err e =
  match e with
  | Err.Parse { pos; _ } -> Fmt.str "%a: %a" Err.pp_position pos Err.pp e
  | _ -> Err.to_string e

(* Both accept with [same] results, or both reject with equal errors. *)
let agree what same got want =
  match (got, want) with
  | Ok a, Ok b ->
      if not (same a b) then Alcotest.failf "%s: results differ" what
  | Error e, Error e' ->
      if e <> e' then
        Alcotest.failf "%s: error %s, reference %s" what (show_err e)
          (show_err e')
  | Ok _, Error e ->
      Alcotest.failf "%s: accepted what the reference rejects (%s)" what
        (show_err e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: rejected what the reference accepts (%s)" what
        (show_err e)

let show_diags ds =
  String.concat "\n    " (List.map (Fmt.str "%a" Ssta_lint.Diagnostic.pp) ds)

(* Parse, attach and lint one file set both ways. *)
let check_file_set ?(what = "") ~name (bench, def, spef) =
  let what s = if what = "" then s else what ^ ": " ^ s in
  let c = Bench_format.parse_string_res ~name bench in
  let c' = Ref.Bench.parse_string_res ~name bench in
  agree (what "bench") same_netlist c c';
  let d = Def_format.parse_string_res def in
  let d' = Ref.Def.parse_string_res def in
  agree (what "def") same_def d d';
  let s = Spef.parse_string_res spef in
  let s' = Ref.Spef_ref.parse_string_res spef in
  agree (what "spef") same_spef s s';
  match (c, c') with
  | Ok c, Ok c' ->
      let pl = Result.bind d (fun d -> Def_format.placement_of_res d c) in
      let pl' = Result.bind d' (fun d -> Ref.Def.placement_of_res d c') in
      agree (what "placement_of") same_placement pl pl';
      let caps = Result.bind s (fun s -> Spef.apply_res s c) in
      let caps' = Result.bind s' (fun s -> Ref.Spef_ref.apply_res s c') in
      agree (what "Spef.apply") same_caps caps caps';
      let ds =
        Lint.run
          (Lint.input ?placement:(Result.to_option pl)
             ?spef:(Result.to_option s) ?def:(Result.to_option d) ~deep:false
             c)
      in
      let ds' =
        Ref.lint ?placement:(Result.to_option pl') ?spef:(Result.to_option s')
          ?def:(Result.to_option d') c'
      in
      if compare ds ds' <> 0 then
        Alcotest.failf "%s: lint differs:\n    %s\n  reference:\n    %s"
          (what "lint") (show_diags ds) (show_diags ds')
  | _ -> ()

let test_iscas85 () =
  List.iter
    (fun (spec : Iscas85.spec) ->
      let name = spec.Iscas85.name in
      check_file_set ~what:name ~name (texts name (Iscas85.build spec)))
    Iscas85.all

let prop_random_layered =
  qcheck ~count:40 "random_layered file sets = the reference"
    QCheck.(
      quad (int_range 2 12) (int_range 1 6) (int_range 4 250)
        (int_range 0 10_000))
    (fun (depth, outputs, gates, seed) ->
      let c =
        Generators.random_layered ~name:"rl" ~inputs:(2 + (seed mod 9))
          ~outputs ~gates:(Int.max gates depth) ~depth ~seed ()
      in
      check_file_set ~name:"rl" (texts "rl" c);
      true)

(* Every corruption of the fault harness, one artifact at a time. *)
let test_fault_corpus () =
  let bases =
    [ ("c432", Iscas85.build (Option.get (Iscas85.by_name "c432")));
      ("rand", small_random ()) ]
  in
  List.iter
    (fun (name, c) ->
      let bench, def, spef = texts name c in
      List.iter
        (fun seed ->
          let corpus extra = Fault.standard ~seed () @ extra in
          let run fmt (corruption : Fault.corruption) set =
            check_file_set
              ~what:(Printf.sprintf "%s %s seed %d %s" name fmt seed
                       corruption.Fault.label)
              ~name set
          in
          List.iter
            (fun k -> run "bench" k (Fault.apply k bench, def, spef))
            (corpus
               [ Fault.substitute ~pattern:"NAND" ~by:"FROB";
                 Fault.substitute ~pattern:"INPUT" ~by:"OUTPUT";
                 Fault.substitute ~pattern:"(" ~by:"";
                 Fault.substitute ~pattern:")" ~by:"";
                 Fault.substitute ~pattern:"," ~by:",,";
                 Fault.substitute ~pattern:"\n" ~by:"\r\n";
                 Fault.substitute ~pattern:" = " ~by:"=";
                 Fault.substitute ~pattern:"G1" ~by:"G 1" ]);
          List.iter
            (fun k -> run "def" k (bench, Fault.apply k def, spef))
            (corpus
               [ Fault.substitute ~pattern:"PLACED" ~by:"FLOATING";
                 Fault.substitute ~pattern:"0" ~by:"nan";
                 Fault.substitute ~pattern:"COMPONENTS" ~by:"COMPONENT";
                 Fault.substitute ~pattern:" ( " ~by:" (";
                 Fault.substitute ~pattern:"\n" ~by:"\r\n";
                 Fault.substitute ~pattern:"MICRONS 1000" ~by:"MICRONS 0x10" ]);
          List.iter
            (fun k -> run "spef" k (bench, def, Fault.apply k spef))
            (corpus
               [ Fault.substitute ~pattern:"0.0" ~by:"-1.0";
                 Fault.substitute ~pattern:"0.0" ~by:"inf";
                 Fault.substitute ~pattern:"*D_NET" ~by:"*D_NAT";
                 Fault.substitute ~pattern:"0.00" ~by:"1_0.0";
                 Fault.substitute ~pattern:"\n" ~by:"\r\n" ]))
        [ 7; 42; 1234 ])
    bases

(* Hand-written corners of each grammar: trimming, comments, forward
   references, shadowed and duplicate definitions, odd number
   spellings, and the order in which errors are found. *)
let bench_cases =
  [ "INPUT(A)\nOUTPUT(Y)\nY = NOT(G5)\nG5 = NOT(A)\n";
    "\n# header\nINPUT(A)  # trailing\n\n\012OUTPUT(B)\r\nB = BUF(A)\t\n";
    "INPUT(A)\nOUTPUT(Y)\nA = NOT(Q)\nY = BUF(A)\n";
    "INPUT(A)\nINPUT(A)\nOUTPUT(A)\nX = NOT(A)\n";
    "INPUT(A)\nOUTPUT(B)\nB = FROB(A)\n";
    "INPUT(A)\nOUTPUT(B)\nB = NOT(B)\n";
    "INPUT(A)\nOUTPUT(B)\nB = NOT(A\n";
    "INPUT(A)\nOUTPUT(B)\nB = NOT(A)\nB = NOT(A)\n";
    "INPUT(A)\nWIBBLE(A)\nOUTPUT(A)\nX = NOT(A)\n";
    "INPUT(A)\nOUTPUT(B)\nB = NAND(A, , A)\n";
    "INPUT(A)\nOUTPUT(B)\nB = NAND(A,A\n";
    "INPUT(A)\nOUTPUT(B)\n = NOT(A)\n";
    "INPUT(A)\nOUTPUT(B)\nB = \n";
    "INPUT(A)\nOUTPUT(B)\nB = NOT()\n";
    "INPUT(A)\nOUTPUT(B)\nB = NOT(A)(\n";
    "INPUT(A, B)\nOUTPUT(A)\n";
    "INPUT()\n";
    "input(a)\noutput(b)\nb = nand(a, a)\n";
    "INPUT(A$)\n";
    "INPUT(A)\nOUTPUT(Z)\nB = NOT(A)\n";
    "INPUT(A)\nOUTPUT(B)\nB = a = NOT(A)\n";
    "INPUT(A)\nOUTPUT(B)\nB = XOR(A, A)\nC = AND(A)\n";
    "OUTPUT(B)\nB = NOT(B)\n";
    "INPUT(A)\n";
    "";
    "INPUT(A)\nOUTPUT(B)\nB = NOT(C)\nC = NOT(D)\nD = NOT(B)\n";
    "INPUT(A)\nOUTPUT(B)\nB=NOT(A)#x\n" ]

let def_cases =
  [ "DESIGN t ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( 0 0 ) ( 9000 9000 ) ;\n\
     COMPONENTS 2 ;\n  - B INV + PLACED ( 1000 2000 ) N ;\n\
     - B INV + PLACED ( 1500 2500 ) N ;\nEND COMPONENTS\nEND DESIGN\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n - B INV + PLACED ( a b ) N ;\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n - B INV + PLACED ( 1 b ) N ;\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n - B INV + PLACED ( inf 1 ) N ;\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n - B INV + PLACED PLACED ( 1 2 ) N ;\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n - B INV + PLACED ( 1\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n - B INV + PLACED ( 1e3 -2.5e-1 ) N ;\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n - B INV + PLACED ( 0x10 1_000 ) N ;\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n - B INV + FIXED ( 1 2 ) N ;\n";
    "DESIGN t ;\n - B INV + PLACED ( 1 2 ) N ;\n";
    "DESIGN t ;\nUNITS DISTANCE MICRONS 0 ;\n";
    "DESIGN t ;\nUNITS DISTANCE MICRONS +20 ;\n";
    "DESIGN t ;\nUNITS DISTANCE MICRONS x ;\n";
    "DESIGN t ;\nDIEAREA ( 0 0 ) ( 1 1 ) ( 2 2 ) ;\n";
    "DESIGN t ;\nDIEAREA ( 0 0 ) ( nan 1 ) ;\n";
    "DESIGN t ;\nDIEAREA (0 0) (100 100) ;\n";
    "DESIGN\n";
    "UNITS DISTANCE MICRONS 1000 ;\n";
    "DESIGN t\r\nCOMPONENTS 1 ;\r\n - B INV + PLACED ( 1 2\r\n";
    "DESIGN t ;\nCOMPONENTS 1 ;\n\t-\tB\tINV\t+\tPLACED\t(\t7\t8\t)\n" ]

let spef_cases =
  [ "*SPEF\n*DESIGN t\n*D_NET B 0.0023\n*D_NET B 1e-3\n*D_NET Q 2\n";
    "*DESIGN t\n*D_NET B\n";
    "*DESIGN t\n*D_NET\n";
    "*DESIGN t\n*D_NET B -1\n";
    "*DESIGN t\n*D_NET B -0\n";
    "*DESIGN t\n*D_NET B nan\n";
    "*DESIGN t\n*D_NET B -inf\n";
    "*DESIGN t\n*D_NET B 0x1p-3\n";
    "*DESIGN t\n*D_NET B 1_0.5\n";
    "*DESIGN t\n*D_NET B 12345678901234567890\n";
    "*DESIGN t\n*D_NET B 1e400\n";
    "*DESIGN t\n*D_NET B 0.1.2\n";
    "*DESIGN t\n*D_NET B 3\r\n";
    "*DESIGN\n";
    "D_NET B 1\n*DESIGN t\n" ]

let test_edge_cases () =
  let good_bench = "INPUT(A)\nOUTPUT(B)\nB = NOT(A)\n" in
  let good_def = List.hd def_cases and good_spef = List.hd spef_cases in
  List.iteri
    (fun i b ->
      check_file_set ~what:(Printf.sprintf "bench case %d" i) ~name:"t"
        (b, good_def, good_spef))
    bench_cases;
  List.iteri
    (fun i d ->
      check_file_set ~what:(Printf.sprintf "def case %d" i) ~name:"t"
        (good_bench, d, good_spef))
    def_cases;
  List.iteri
    (fun i s ->
      check_file_set ~what:(Printf.sprintf "spef case %d" i) ~name:"t"
        (good_bench, good_def, s))
    spef_cases;
  (* Coverage counts nodes, not records: one gate of four named three
     times is a quarter. *)
  let chain =
    "INPUT(A)\nOUTPUT(E)\nB = NOT(A)\nC = NOT(B)\nD = NOT(C)\nE = NOT(D)\n"
  in
  let placed = "  - B INV + PLACED ( 1 2 ) N ;\n" in
  check_file_set ~what:"repeated DEF component" ~name:"t"
    ( chain,
      "DESIGN t ;\nDIEAREA ( 0 0 ) ( 9000 9000 ) ;\nCOMPONENTS 3 ;\n" ^ placed
      ^ placed ^ placed,
      good_spef );
  check_file_set ~what:"repeated SPEF net" ~name:"t"
    (chain, good_def, "*DESIGN t\n*D_NET B 1\n*D_NET B 2\n*D_NET B 3\n")

(* Numbers: the cursor's readers against float_of_string/int_of_string,
   bit for bit, on strings over a number-ish alphabet and on plain
   decimals. *)
let number_gen =
  let open QCheck.Gen in
  let alphabet = "0123456789012345678901234567890123456789.eE+-_xpn " in
  let noise =
    string_size
      ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
      (int_range 0 14)
  in
  let decimal =
    map
      (fun (m, f, e) ->
        Printf.sprintf "%s%s%s" m f e)
      (triple
         (map string_of_int (int_range (-99999999) 99999999))
         (oneof [ return ""; map (Printf.sprintf ".%d") (int_range 0 999999) ])
         (oneof
            [ return ""; map (Printf.sprintf "e%d") (int_range (-30) 30) ]))
  in
  (* 15 to 19 significant digits: around the 2^53 mantissa bound *)
  let long =
    map
      (fun (digits, point, e) ->
        let n = String.length digits in
        let p = point mod (n + 1) in
        Printf.sprintf "%s.%se%d" (String.sub digits 0 p)
          (String.sub digits p (n - p)) e)
      (triple
         (string_size ~gen:(char_range '0' '9') (int_range 15 19))
         (int_bound 19) (int_range (-8) 8))
  in
  oneof [ noise; decimal; long ]

let prop_numbers =
  qcheck ~count:2000 "Scan numbers = float_of_string / int_of_string"
    (QCheck.make ~print:(Printf.sprintf "%S") number_gen)
    (fun s ->
      let n = String.length s in
      let f =
        try Some (Scan.float_of_sub s 0 n) with Scan.Not_a_number -> None
      in
      let f_ok =
        match (f, float_of_string_opt s) with
        | Some a, Some b -> same_float a b
        | None, None -> true
        | _ -> false
      in
      (* as a DEF/SPEF token: no blanks inside *)
      let i_ok =
        String.contains s ' ' || n = 0
        ||
        let cur = Scan.of_string s in
        ignore (Scan.next_line cur);
        ignore (Scan.next_token cur);
        let i = try Some (Scan.int_token cur) with Scan.Not_a_number -> None in
        i = int_of_string_opt s
      in
      f_ok && i_ok)

let suite =
  ( "frontend",
    [ case "ISCAS85 file sets = the reference" test_iscas85;
      prop_random_layered;
      case "every Fault corruption = the reference" test_fault_corpus;
      case "edge cases = the reference" test_edge_cases;
      prop_numbers ] )
