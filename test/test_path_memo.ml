open Ssta_core
open Helpers
module Health = Ssta_runtime.Health
module Iscas85 = Ssta_circuit.Iscas85
module Generators = Ssta_circuit.Generators
module Paths = Ssta_timing.Paths
module Pool = Ssta_parallel.Pool

(* The per-context path memo: a path's PDFs are keyed on the bits of
   (A, B, Eq. 14 variance), so a memoized context must return exactly
   what a fresh context returns for every path — PDFs, moments, sigmas,
   confidence point and the Guard ledger — and its counters must not
   depend on the worker count. *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_ledger a b =
  Health.events a = Health.events b
  && Health.count a = Health.count b
  && Health.renormalizations a = Health.renormalizations b
  && Health.worst_defect a = Health.worst_defect b
  && Health.counters a = Health.counters b

let same_analysis (a : Path_analysis.t) (b : Path_analysis.t) =
  a.Path_analysis.path.Paths.nodes = b.Path_analysis.path.Paths.nodes
  && a.Path_analysis.gate_count = b.Path_analysis.gate_count
  && compare a.Path_analysis.coeffs b.Path_analysis.coeffs = 0
  && pdf_bits_equal a.Path_analysis.intra_pdf b.Path_analysis.intra_pdf
  && pdf_bits_equal a.Path_analysis.inter_pdf b.Path_analysis.inter_pdf
  && pdf_bits_equal a.Path_analysis.total_pdf b.Path_analysis.total_pdf
  && List.for_all2 same_float
       Path_analysis.
         [ a.det_delay; a.mean; a.std; a.intra_sigma; a.inter_sigma;
           a.confidence_point; a.worst_case ]
       Path_analysis.
         [ b.det_delay; b.mean; b.std; b.intra_sigma; b.inter_sigma;
           b.confidence_point; b.worst_case ]

(* Every path of the run, in rank order: the run's own analysis and a
   second memoized context's answer (with its private ledger) must both
   equal a fresh context's.  Fresh contexts share one warm state — the
   inter tables and kernel cache are pure, only the memo is per
   context.  Returns the number of mismatches. *)
let mismatches ~config ~placement circuit =
  let m = Methodology.run ~config ~placement circuit in
  let graph = m.Methodology.sta.Ssta_timing.Sta.graph in
  let warm = Path_analysis.warm config in
  let memo = Path_analysis.context ~warm config graph placement in
  let bad = ref 0 in
  Array.iter
    (fun (r : Ranking.ranked) ->
      let p = r.Ranking.analysis.Path_analysis.path in
      let fresh_ledger = Health.create () and memo_ledger = Health.create () in
      let fresh =
        Path_analysis.analyze ~health:fresh_ledger
          (Path_analysis.context ~warm config graph placement)
          p
      in
      let memoized = Path_analysis.analyze ~health:memo_ledger memo p in
      if
        not
          (same_analysis r.Ranking.analysis fresh
          && same_analysis memoized fresh
          && same_ledger memo_ledger fresh_ledger)
      then incr bad)
    m.Methodology.ranked;
  let st = Path_analysis.memo_stats memo in
  check_int "one lookup per analysis" (Array.length m.Methodology.ranked)
    st.Path_analysis.memo_lookups;
  (!bad, m)

let test_iscas_exact name max_paths () =
  let spec = Option.get (Iscas85.by_name name) in
  let circuit, placement = Iscas85.build_placed spec in
  let config = { Config.default with Config.max_paths } in
  let bad, m = mismatches ~config ~placement circuit in
  check_int (name ^ ": paths differing from a fresh analysis") 0 bad;
  let c = Health.counter m.Methodology.health in
  check_true (name ^ ": memo shares work")
    (c "path-memo-distinct" < c "path-memo-lookups")

let qcheck_random_exact =
  qcheck ~count:12 "memoized == fresh context on random circuits"
    QCheck.(pair (int_range 0 10_000) (int_range 20 70))
    (fun (seed, gates) ->
      let circuit =
        Generators.random_layered ~name:"memo" ~inputs:6 ~outputs:3 ~gates
          ~depth:6 ~seed ()
      in
      let placement = Ssta_circuit.Placement.place circuit in
      let config = { fast_config with Config.max_paths = 200 } in
      fst (mismatches ~config ~placement circuit) = 0)

let test_jobs_byte_identical () =
  let spec = Option.get (Iscas85.by_name "c1355") in
  let circuit, placement = Iscas85.build_placed spec in
  let config = { Config.default with Config.max_paths = 2_000 } in
  let report jobs =
    Pool.with_pool ~jobs (fun pool ->
        Report.json_report (Methodology.run ~config ~placement ~pool circuit))
  in
  let r1 = report 1 in
  check_true "jobs 1 == jobs 2" (String.equal r1 (report 2));
  check_true "jobs 1 == jobs 4" (String.equal r1 (report 4))

(* [Path_analysis.analyze] calls a run makes: the deterministic
   critical path once, then every enumerated path except its copies. *)
let analyses (m : Methodology.t) =
  let det = m.Methodology.det_critical.Path_analysis.path.Paths.nodes in
  Array.fold_left
    (fun n (r : Ranking.ranked) ->
      if r.Ranking.analysis.Path_analysis.path.Paths.nodes = det then n
      else n + 1)
    1 m.Methodology.ranked

let test_counters () =
  let m = Methodology.run ~config:fast_config (small_random ()) in
  let c = Health.counter m.Methodology.health in
  check_int "lookups = analyses" (analyses m) (c "path-memo-lookups");
  check_true "1 <= distinct <= lookups"
    (c "path-memo-distinct" >= 1
    && c "path-memo-distinct" <= c "path-memo-lookups");
  (* A warm state lets a run splice in shared work: the memo counters
     stay out of its report, like the arena counters. *)
  let warm = Path_analysis.warm fast_config in
  match Methodology.analyze ~config:fast_config ~warm (small_random ()) with
  | Error _ -> Alcotest.fail "warm run failed"
  | Ok w ->
      check_int "no memo counters under warm" 0
        (Health.counter w.Methodology.health "path-memo-lookups")

let suite =
  ( "path-memo",
    [ case "counters" test_counters;
      slow_case "c499 (full): memoized == fresh"
        (test_iscas_exact "c499" 20_000);
      slow_case "c1355 (cap 2000): memoized == fresh"
        (test_iscas_exact "c1355" 2_000);
      slow_case "c6288 (cap 2000): memoized == fresh"
        (test_iscas_exact "c6288" 2_000);
      qcheck_random_exact;
      slow_case "c1355 report byte-identical at jobs 1/2/4"
        test_jobs_byte_identical ] )
