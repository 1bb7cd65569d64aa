(* Regenerate the paper's Table 2 over the (substituted) ISCAS85 suite and
   compare against the published rows.

     dune exec examples/benchmark_suite.exe            # fast subset
     dune exec examples/benchmark_suite.exe -- --all   # all ten circuits *)

module Iscas85 = Ssta_circuit.Iscas85
open Ssta_core

let fast_subset = [ "c432"; "c499"; "c880"; "c1908"; "c7552" ]

let () =
  let all = Array.exists (String.equal "--all") Sys.argv in
  let specs =
    if all then Iscas85.all
    else
      List.filter
        (fun (s : Iscas85.spec) -> List.mem s.Iscas85.name fast_subset)
        Iscas85.all
  in
  Report.pp_table2_header Fmt.stdout ();
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let circuit, placement = Iscas85.build_placed spec in
        (* Use the paper's per-circuit confidence constant (Table 2 col. 6);
           cap enumeration like the paper had to on c6288. *)
        let config =
          Config.with_confidence Config.default
            spec.Iscas85.paper.Iscas85.confidence
        in
        let config = { config with Config.max_paths = 4000 } in
        let m = Methodology.run ~config ~placement circuit in
        let row = Report.table2_row m in
        Report.pp_table2_row Fmt.stdout row;
        (spec.Iscas85.paper, row))
      specs
  in
  Report.pp_table2_paper_comparison Fmt.stdout rows
