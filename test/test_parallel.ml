open Ssta_circuit
open Ssta_core
open Helpers
module Pool = Ssta_parallel.Pool

(* ---------------- Pool primitives ---------------- *)

let await ?(deadline_s = 5.0) msg cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < deadline_s do
    Unix.sleepf 0.001
  done;
  check_true msg (cond ())

let test_default_jobs_positive () =
  check_true "at least one" (Pool.default_jobs () >= 1)

let test_create_rejects_zero () =
  check_raises_invalid "jobs 0" (fun () -> ignore (Pool.create ~jobs:0 ()))

let test_map_prefix_empty () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let prefix, stopped =
        Pool.map_prefix pool ~should_stop:(fun () -> false) succ [||]
      in
      check_int "empty" 0 (Array.length prefix);
      check_true "not stopped" (not stopped))

let test_map_prefix_matches_map_any_chunk () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let a = Array.init 1_000 (fun i -> i) in
      let expected = Array.map (fun x -> x * x) a in
      (* default chunk, one item per claim, and a chunk that leaves a
         partial last chunk *)
      List.iter
        (fun chunk ->
          check_true "squares"
            (Pool.map_prefix pool ?chunk ~should_stop:(fun () -> false)
               (fun x -> x * x)
               a
            = (expected, false)))
        [ None; Some 1; Some 7 ])

let test_run_counts_every_chunk_once () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let hits = Array.make 100 0 in
      Pool.run pool ~chunks:100 (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri (fun i n ->
          if n <> 1 then Alcotest.failf "chunk %d ran %d times" i n)
        hits)

let test_run_rejects_negative_chunks () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Pool.run pool ~chunks:0 (fun _ -> Alcotest.fail "chunk of an empty run");
      check_raises_invalid "chunks -1" (fun () ->
          Pool.run pool ~chunks:(-1) ignore))

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.map_prefix pool ~chunk:1
          ~should_stop:(fun () -> false)
          (fun i -> if i = 17 then failwith "boom17" else i)
          (Array.init 64 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> check_true "message" (msg = "boom17"))

let test_exception_lowest_index_wins () =
  (* Two failing chunks: the caller must see the lowest index's exception
     no matter which worker hit its failure first. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.map_prefix pool ~chunk:1
          ~should_stop:(fun () -> false)
          (fun i -> if i = 5 || i = 50 then failwith (string_of_int i) else i)
          (Array.init 64 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> check_true "lowest index" (msg = "5"))

let test_map_prefix_no_stop_is_full_map () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let a = Array.init 200 (fun i -> i) in
      let prefix, stopped =
        Pool.map_prefix pool ~should_stop:(fun () -> false) (fun x -> x + 1) a
      in
      check_true "not stopped" (not stopped);
      check_true "full map" (prefix = Array.map (( + ) 1) a))

let test_map_prefix_stop_returns_contiguous_prefix () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = 500 in
      let consumed = Atomic.make 0 in
      let a = Array.init n (fun i -> i) in
      let prefix, stopped =
        Pool.map_prefix pool ~chunk:1
          ~should_stop:(fun () -> Atomic.get consumed >= 20)
          (fun x ->
            Atomic.incr consumed;
            x * 3)
          a
      in
      check_true "stopped" stopped;
      check_true "proper prefix" (Array.length prefix < n);
      Array.iteri (fun i v ->
          if v <> i * 3 then
            Alcotest.failf "slot %d holds %d, not a contiguous prefix" i v)
        prefix)

let test_jobs_one_is_inline () =
  let pool = Pool.create ~jobs:1 () in
  let a = Array.init 100 (fun i -> i) in
  check_true "map"
    (Pool.map_prefix pool ~should_stop:(fun () -> false) succ a
    = (Array.map succ a, false));
  let seen = ref 0 in
  let prefix, stopped =
    Pool.map_prefix pool ~chunk:1
      ~should_stop:(fun () -> !seen >= 10)
      (fun x -> incr seen; x)
      a
  in
  check_true "stopped" stopped;
  (* jobs = 1 matches the historical sequential deadline semantics
     exactly: the prefix is precisely the items before the predicate
     fired. *)
  check_int "exact sequential prefix" 10 (Array.length prefix);
  ignore (Pool.shutdown pool)

let test_map_prefix_polls_once_per_chunk () =
  (* The deadline granularity of a fan-out is its chunk: 10 items in
     chunks of 4 poll 3 times, and one item per chunk polls per item. *)
  let pool = Pool.create ~jobs:1 () in
  let polls_for chunk =
    let polls = ref 0 in
    ignore
      (Pool.map_prefix pool ~chunk
         ~should_stop:(fun () -> incr polls; false)
         Fun.id
         (Array.init 10 Fun.id));
    !polls
  in
  check_int "chunk 4" 3 (polls_for 4);
  check_int "chunk 1" 10 (polls_for 1)

let test_with_pool_shuts_down_on_raise () =
  let leaked = ref None in
  (match
     Pool.with_pool ~jobs:2 (fun pool ->
         leaked := Some pool;
         await "worker parks" (fun () -> Pool.idle_workers pool = 1);
         failwith "body")
   with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  match !leaked with
  | None -> Alcotest.fail "body never ran"
  | Some pool ->
      (* a joined worker has left its park session *)
      check_int "workers joined" 0 (Pool.idle_workers pool)

(* ---------------- Idle parking ---------------- *)

let test_idle_counters_jobs1 () =
  let pool = Pool.create ~jobs:1 () in
  check_int "no workers to park" 0 (Pool.idle_workers pool);
  check_int "no park sessions" 0 (Pool.park_count pool);
  Pool.shutdown pool

let test_workers_park_between_regions () =
  (* A worker parks on the condition variable right after creation and
     again after each work region — an idle pool burns no CPU. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      await "worker parks after creation" (fun () ->
          Pool.idle_workers pool = 1 && Pool.park_count pool >= 1);
      (* A trivial region can finish on the caller alone while the worker
         sleeps through it — which by design keeps the worker's park
         session open.  Spin in each chunk until the worker has either
         woken (idle 0) or already started a new park session, so the
         region provably ends the first session. *)
      let p0 = Pool.park_count pool in
      Pool.run pool ~chunks:4 (fun _ ->
          let t0 = Unix.gettimeofday () in
          while
            Pool.idle_workers pool = 1
            && Pool.park_count pool = p0
            && Unix.gettimeofday () -. t0 < 5.0
          do
            Unix.sleepf 0.0005
          done);
      await "worker re-parks after the region" (fun () ->
          Pool.idle_workers pool = 1 && Pool.park_count pool >= 2))

(* ---------------- End-to-end determinism ---------------- *)

let quick_config = { fast_config with Config.max_paths = 100 }

let report_with_jobs ~jobs config circuit =
  Pool.with_pool ~jobs (fun pool ->
      Report.json_report (Methodology.run ~config ~pool circuit))

let test_iscas85_reports_byte_identical_across_jobs () =
  List.iter
    (fun (spec : Iscas85.spec) ->
      let circuit = Iscas85.build spec in
      let seq = report_with_jobs ~jobs:1 quick_config circuit in
      let par = report_with_jobs ~jobs:4 quick_config circuit in
      if not (String.equal seq par) then begin
        let n = Int.min (String.length seq) (String.length par) in
        let i = ref 0 in
        while !i < n && seq.[!i] = par.[!i] do incr i done;
        Alcotest.failf "%s: reports diverge at byte %d (lengths %d vs %d)"
          spec.Iscas85.name !i (String.length seq) (String.length par)
      end)
    Iscas85.all

let qcheck_random_circuit_reports_byte_identical =
  qcheck ~count:8 "random circuits: --jobs 1 == --jobs 4 report"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let circuit =
        Generators.random_layered ~name:"qpar" ~inputs:6 ~outputs:3 ~gates:40
          ~depth:6 ~seed ()
      in
      String.equal
        (report_with_jobs ~jobs:1 quick_config circuit)
        (report_with_jobs ~jobs:4 quick_config circuit))

(* ---------------- Pool-less callers ---------------- *)

(* Callers that take an optional pool run on a jobs=1 pool when none is
   given; these tests pin that the pool-less call and an explicit jobs=1
   pool give the same answer, stop included, and that a multi-domain
   pool only ever changes where a stop lands. *)

module Mc = Ssta_prob.Mc

let bits a = Array.map Int64.bits_of_float a

let summary_bits (s : Ssta_prob.Stats.summary) =
  let open Ssta_prob.Stats in
  (s.count, bits [| s.mean; s.variance; s.std; s.min; s.max; s.skewness |])

let sharded_n = (6 * Mc.shard_size) + 100  (* 7 shards, the last partial *)

let sharded ?pool ?should_stop () =
  Mc.run_sharded ?pool ?should_stop ~n:sharded_n ~seed:11 (fun rng ->
      Ssta_prob.Rng.gaussian rng ~mu:2.0 ~sigma:0.5)

(* Fires on its [k]-th poll.  The driver polls before every shard after
   shard 0, so a sequential run keeps exactly [k] shards.  Atomic, since
   a multi-domain pool polls from several domains. *)
let stop_after k =
  let polls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add polls 1 >= k - 1

let check_same_sharded msg (a : Mc.result) (b : Mc.result) =
  check_true (msg ^ ": samples bit-identical")
    (bits a.Mc.samples = bits b.Mc.samples);
  check_true (msg ^ ": summary bit-identical")
    (summary_bits a.Mc.summary = summary_bits b.Mc.summary);
  check_true (msg ^ ": same stopped flag") (a.Mc.stopped = b.Mc.stopped)

let test_sharded_pool_independent () =
  let bare = sharded () in
  check_int "every draw kept" sharded_n (Array.length bare.Mc.samples);
  check_true "not stopped" (not bare.Mc.stopped);
  check_same_sharded "jobs 1" bare (sharded ~pool:(Pool.create ~jobs:1 ()) ());
  Pool.with_pool ~jobs:4 (fun pool ->
      check_same_sharded "jobs 4" bare (sharded ~pool ());
      check_same_sharded "jobs 4, stop never fires" bare
        (sharded ~pool ~should_stop:(fun () -> false) ()))

let test_sharded_stop_same_prefix () =
  let k = 3 in
  let kept = k * Mc.shard_size in
  let full = sharded () in
  let bare = sharded ~should_stop:(stop_after k) () in
  check_true "stopped" bare.Mc.stopped;
  check_int "kept exactly k shards" kept (Array.length bare.Mc.samples);
  check_true "kept samples are the full run's prefix"
    (bits bare.Mc.samples = bits (Array.sub full.Mc.samples 0 kept));
  check_same_sharded "jobs 1 stop" bare
    (sharded ~pool:(Pool.create ~jobs:1 ()) ~should_stop:(stop_after k) ());
  (* At jobs 4 the predicate races the other domains' claims, so the cut
     may land elsewhere — but only on a shard boundary, and what is kept
     is still the full run's bit-identical prefix. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let par = sharded ~pool ~should_stop:(stop_after k) () in
      let m = Array.length par.Mc.samples in
      let prefix = Array.sub full.Mc.samples 0 m in
      check_true "stopped" par.Mc.stopped;
      check_true "cut on a shard boundary, shard 0 kept"
        (m >= Mc.shard_size && m mod Mc.shard_size = 0 && m < sharded_n);
      check_true "samples are the full run's prefix"
        (bits par.Mc.samples = bits prefix);
      check_true "summary is the prefix's"
        (summary_bits par.Mc.summary
        = summary_bits (Ssta_prob.Stats.summarize prefix)))

let c499 () =
  match Iscas85.by_name "c499" with
  | Some s -> Iscas85.build s
  | None -> assert false

let test_methodology_without_pool_is_jobs_one () =
  let circuit = c499 () in
  check_true "report"
    (String.equal
       (Report.json_report (Methodology.run ~config:quick_config circuit))
       (report_with_jobs ~jobs:1 quick_config circuit))

let test_cancelled_methodology_same_prefix () =
  (* A cancel hook that fires on a fixed poll makes the cut
     deterministic on one domain.  Firing three polls before the end of
     a full run lands it in the per-path analysis (polled once per path,
     last), so the run degrades without its last three paths — and the
     pool-less run must cut at exactly the same path. *)
  let circuit = c499 () in
  let analyze ?pool fire_at =
    let polls = ref 0 in
    let cancelled () =
      incr polls;
      !polls > fire_at
    in
    match Methodology.analyze ~config:quick_config ~cancelled ?pool circuit with
    | Ok m -> (m, !polls)
    | Error e -> Alcotest.failf "run failed: %a" Ssta_runtime.Ssta_error.pp e
  in
  let full, total = analyze max_int in
  let bare, _ = analyze (total - 3) in
  check_true "cut run is degraded" (Methodology.is_degraded bare);
  check_int "the last three paths are cut"
    (Methodology.num_critical_paths full - 3)
    (Methodology.num_critical_paths bare);
  let jobs1, _ = analyze ~pool:(Pool.create ~jobs:1 ()) (total - 3) in
  check_true "same degraded report"
    (String.equal (Report.json_report bare) (Report.json_report jobs1))

(* ---------------- Deadline degradation under parallelism ---------------- *)

let test_deadline_degraded_parallel_prefix_is_exact () =
  (* A deadline-degraded parallel run must return a subset of the
     complete run's paths with bit-identical per-path analyses — the
     budget machinery may cut the work short but never approximates what
     it did complete. *)
  let spec =
    match Iscas85.by_name "c499" with Some s -> s | None -> assert false
  in
  let circuit = Iscas85.build spec in
  let config = { fast_config with Config.max_paths = 2_000 } in
  let full =
    match Methodology.analyze ~config circuit with
    | Ok m -> m
    | Error e ->
        Alcotest.failf "full run failed: %a" Ssta_runtime.Ssta_error.pp e
  in
  let budget = Ssta_runtime.Budget.make ~deadline_s:0.05 () in
  let degraded =
    Pool.with_pool ~jobs:4 (fun pool ->
        match Methodology.analyze ~config ~budget ~pool circuit with
        | Ok m -> m
        | Error e ->
            Alcotest.failf "degraded run failed: %a" Ssta_runtime.Ssta_error.pp
              e)
  in
  let full_by_nodes = Hashtbl.create 64 in
  Array.iter
    (fun (r : Ranking.ranked) ->
      Hashtbl.replace full_by_nodes
        r.Ranking.analysis.Path_analysis.path.Ssta_timing.Paths.nodes
        r.Ranking.analysis)
    full.Methodology.ranked;
  check_true "degraded analyzed no more paths than the full run"
    (Methodology.num_critical_paths degraded
    <= Methodology.num_critical_paths full);
  Array.iter
    (fun (r : Ranking.ranked) ->
      let a = r.Ranking.analysis in
      match
        Hashtbl.find_opt full_by_nodes
          a.Path_analysis.path.Ssta_timing.Paths.nodes
      with
      | None -> Alcotest.fail "degraded run invented a path"
      | Some f ->
          (* Same code path on the same inputs: exact float equality. *)
          check_true "mean exact" (a.Path_analysis.mean = f.Path_analysis.mean);
          check_true "std exact" (a.Path_analysis.std = f.Path_analysis.std);
          check_true "confidence point exact"
            (a.Path_analysis.confidence_point = f.Path_analysis.confidence_point))
    degraded.Methodology.ranked;
  if
    Methodology.num_critical_paths degraded
    < Methodology.num_critical_paths full
  then check_true "cut run is marked degraded" (Methodology.is_degraded degraded)

let suite =
  ( "parallel",
    [ case "default jobs positive" test_default_jobs_positive;
      case "create rejects jobs 0" test_create_rejects_zero;
      case "map_prefix empty" test_map_prefix_empty;
      case "map_prefix matches Array.map at any chunk size"
        test_map_prefix_matches_map_any_chunk;
      case "run executes every chunk once" test_run_counts_every_chunk_once;
      case "run rejects negative chunks" test_run_rejects_negative_chunks;
      case "exceptions propagate" test_exception_propagates;
      case "lowest-index exception wins" test_exception_lowest_index_wins;
      case "map_prefix without stop is a full map"
        test_map_prefix_no_stop_is_full_map;
      case "map_prefix stop returns contiguous prefix"
        test_map_prefix_stop_returns_contiguous_prefix;
      case "jobs 1 runs inline with sequential semantics"
        test_jobs_one_is_inline;
      case "map_prefix polls once per chunk"
        test_map_prefix_polls_once_per_chunk;
      case "with_pool shuts down when the body raises"
        test_with_pool_shuts_down_on_raise;
      case "run_sharded same samples without a pool and at any jobs"
        test_sharded_pool_independent;
      case "run_sharded stop keeps the same prefix without a pool"
        test_sharded_stop_same_prefix;
      case "methodology without a pool equals a one-job pool"
        test_methodology_without_pool_is_jobs_one;
      case "cancelled methodology cuts at the same path without a pool"
        test_cancelled_methodology_same_prefix;
      case "jobs 1 pool has no parked workers" test_idle_counters_jobs1;
      case "workers park between regions" test_workers_park_between_regions;
      slow_case "ISCAS85 reports byte-identical at jobs 1 and 4"
        test_iscas85_reports_byte_identical_across_jobs;
      qcheck_random_circuit_reports_byte_identical;
      slow_case "deadline-degraded parallel prefix is exact"
        test_deadline_degraded_parallel_prefix_is_exact ] )
