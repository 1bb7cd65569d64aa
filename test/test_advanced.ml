(* Parser robustness: random and mutated inputs must either parse or
   fail with the reader's own error, never leak another exception. *)

open Ssta_circuit
open Ssta_prob
open Helpers

(* ---------------- Parser fuzzing ---------------- *)

let printable rng =
  let n = 1 + Rng.int rng 400 in
  String.init n (fun _ ->
      let c = Rng.int rng 96 in
      if c = 95 then '\n' else Char.chr (32 + c))

let test_bench_fuzz_no_crash () =
  let rng = Rng.create 2024 in
  for _ = 1 to 400 do
    let text = printable rng in
    match Bench_format.parse_string text with
    | (_ : Netlist.t) -> ()
    | exception Bench_format.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "bench parser leaked %s on %S" (Printexc.to_string e)
          text
  done

let test_verilog_fuzz_no_crash () =
  let rng = Rng.create 4048 in
  for _ = 1 to 400 do
    let text = "module m (a);\n" ^ printable rng in
    match Verilog.parse_string text with
    | (_ : Netlist.t) -> ()
    | exception Verilog.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "verilog parser leaked %s on %S" (Printexc.to_string e)
          text
  done

let test_def_fuzz_no_crash () =
  let rng = Rng.create 777 in
  for _ = 1 to 400 do
    let text = "DESIGN x ;\n" ^ printable rng in
    match Def_format.parse_string text with
    | (_ : Def_format.t) -> ()
    | exception Def_format.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "def parser leaked %s on %S" (Printexc.to_string e)
          text
  done

let test_mutated_bench_roundtrip () =
  (* Take a real .bench text and flip random characters: the parser must
     either succeed or fail cleanly. *)
  let base = Bench_format.to_string (small_adder ()) in
  let rng = Rng.create 31 in
  for _ = 1 to 300 do
    let b = Bytes.of_string base in
    for _ = 1 to 3 do
      Bytes.set b
        (Rng.int rng (Bytes.length b))
        (Char.chr (32 + Rng.int rng 96))
    done;
    match Bench_format.parse_string (Bytes.to_string b) with
    | (_ : Netlist.t) -> ()
    | exception Bench_format.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "mutated bench leaked %s" (Printexc.to_string e)
  done

let suite =
  ( "advanced",
    [ case "bench parser fuzz" test_bench_fuzz_no_crash;
      case "verilog parser fuzz" test_verilog_fuzz_no_crash;
      case "def parser fuzz" test_def_fuzz_no_crash;
      case "mutated bench inputs" test_mutated_bench_roundtrip ] )
