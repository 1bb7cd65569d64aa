(* Measurement harness: each section times one layer of the analysis,
   checks its relative invariants and writes one BENCH_*.json artifact
   into the current directory.  The paper's tables and figures come
   from the CLI (`ssta table2`, `ssta figures`, ...), not from here.

     dune exec bench/main.exe                          # every section
     dune exec bench/main.exe -- screening incremental # a subset
     dune exec bench/main.exe -- dim --only=c432,c499 --assert

   [--only=c432,c499] restricts the circuits, [--assert] turns each
   section's invariants into hard failures.  An unknown section, flag or
   circuit name is a usage error (exit 2). *)

module Iscas85 = Ssta_circuit.Iscas85
module Sta = Ssta_timing.Sta
module Pool = Ssta_parallel.Pool
open Ssta_core

let section name = Fmt.pr "@.=== %s ===@." name

let spec_exn name =
  match Iscas85.by_name name with
  | Some s -> s
  | None -> Fmt.failwith "missing benchmark %s" name

(* The shared flags, set from the command line before any section runs. *)
let only : Iscas85.spec list ref = ref []
let assert_ = ref false

(* The circuits a section runs: [--only]'s, or [default]. *)
let selected default = match !only with [] -> default | specs -> specs

(* The shared cell runner: [f] run [repeats] times, each after a full
   major cycle and inside [within] (untimed set-up such as a fresh
   pool, handed to [f]), returning the last result, the minimum wall
   and the minor words of that fastest run.  The full cycle isolates cells from
   each other's garbage: without it the dead major heap left by earlier
   (uncached, high-Q) cells slows later ones by 20-40%, which poisons
   the exponent fits.  A full major cycle (not a compaction) keeps the
   heap pages mapped, so the timed region does not pay re-growth
   faults. *)
let dim_min_of ~within ~repeats f =
  let best_wall = ref infinity and best_minor = ref 0.0 in
  let last = ref None in
  for _ = 1 to repeats do
    Gc.full_major ();
    within (fun env ->
        let mw0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r = f env in
        let wall = Unix.gettimeofday () -. t0 in
        let minor = Gc.minor_words () -. mw0 in
        if wall < !best_wall then begin
          best_wall := wall;
          best_minor := minor
        end;
        last := Some r)
  done;
  match !last with
  | Some r -> (r, !best_wall, !best_minor)
  | None -> invalid_arg "dim_min_of: repeats must be positive"

(* [within] for cells that need no set-up. *)
let dim_direct k = k ()

(* ------------------------------------------------------------------ *)
(* Screening: the affine path-screener A/B harness.                    *)

(* A/B of the affine suffix-bound screener at jobs=1: near-critical
   enumeration with and without pruning must return byte-identical
   records (the screener's proof obligation — pruning only skips
   provably sub-threshold subtrees), while the pruned run saves frontier
   work.  It also times what the screen itself costs: the packaged
   max-plus screen `run` pays ([wall_screen_s]) next to the affine
   fixpoints it stands in for ([wall_affine_s]).  Every wall is a
   min-of-N cell of the shared runner ({!dim_min_of}).  Written
   to BENCH_screening.json as the screening artifact. *)
let render_enumeration (e : Ssta_timing.Paths.enumeration) =
  let module Paths = Ssta_timing.Paths in
  let b = Buffer.create 4096 in
  List.iter
    (fun (p : Paths.path) ->
      Buffer.add_string b (Printf.sprintf "%.17g|" p.Paths.delay);
      Array.iter
        (fun id ->
          Buffer.add_string b (string_of_int id);
          Buffer.add_char b ',')
        p.Paths.nodes;
      Buffer.add_char b '\n')
    e.Paths.paths;
  Buffer.add_string b
    (Printf.sprintf "explored=%d truncated=%b deadline=%b" e.Paths.explored
       e.Paths.truncated e.Paths.deadline_hit);
  Buffer.contents b

type screen_row = {
  s_name : string;
  s_nodes : int;
  s_pruned : int;
  s_fraction : float;
  s_wall_unpruned : float;
  s_wall_pruned : float;
  s_wall_screen : float;
  s_wall_affine : float;
  s_paths : int;
  s_equal : bool;
}

(* The packaged screen must cost at most this share of the affine
   analysis on every circuit of at least [screen_gate_nodes] nodes. *)
let screen_gate_ratio = 0.1
let screen_gate_nodes = 1000

(* Repeats of the screen, affine and enumeration cells. *)
let screening_repeats_screen = 20
let screening_repeats_affine = 5
let screening_repeats_enum = 3

let screening () =
  section "Screening: affine suffix-bound path pruning A/B (jobs=1)";
  let module Affine = Ssta_check.Affine in
  let module Paths = Ssta_timing.Paths in
  let max_paths = 2000 in
  let specs = selected Iscas85.all in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Fmt.pr "  %-7s %7s %7s %9s %12s %11s %10s %10s %6s %5s@." "name" "nodes"
    "pruned" "fraction" "unpruned(s)" "pruned(s)" "screen(s)" "affine(s)"
    "paths" "equal";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit, placement = Iscas85.build_placed spec in
        let config =
          Config.with_confidence Config.default
            spec.Iscas85.paper.Iscas85.confidence
        in
        let config = { config with Config.max_paths } in
        let sta = Sta.analyze circuit in
        let ctx = Path_analysis.context config sta.Sta.graph placement in
        let det = Path_analysis.analyze ctx sta.Sta.critical_path in
        let slack = config.Config.confidence *. det.Path_analysis.std in
        let aff =
          match Affine.compute config sta.Sta.graph with
          | Ok aff -> aff
          | Error msg -> Fmt.failwith "%s: affine analysis failed: %s" name msg
        in
        let sc = Affine.screen aff sta ~slack in
        let cell repeats f =
          dim_min_of ~within:dim_direct ~repeats f
        in
        let _, wall_screen, _ =
          cell screening_repeats_screen (fun () ->
              Affine.methodology_screen config ~sta ~slack)
        in
        let _, wall_affine, _ =
          cell screening_repeats_affine (fun () ->
              Affine.compute config sta.Sta.graph)
        in
        let base, wall_base, _ =
          cell screening_repeats_enum (fun () ->
              Sta.near_critical ~max_paths sta ~slack)
        in
        let pruned, wall_pruned, _ =
          cell screening_repeats_enum (fun () ->
              Sta.near_critical ~max_paths ~prune:(Affine.prune_hook sc) sta
                ~slack)
        in
        let equal =
          String.equal (render_enumeration base) (render_enumeration pruned)
        in
        let fraction =
          if sc.Affine.nodes_visited > 0 then
            float_of_int sc.Affine.nodes_pruned
            /. float_of_int sc.Affine.nodes_visited
          else 0.0
        in
        if not equal then
          fail "%s: pruned enumeration diverges from the unpruned one" name;
        if !assert_ && fraction <= 0.0 then
          fail "%s: screener pruned nothing (fraction %.4f)" name fraction;
        if
          !assert_
          && sc.Affine.nodes_visited >= screen_gate_nodes
          && wall_screen > screen_gate_ratio *. wall_affine
        then
          fail "%s: packaged screen %.6f s exceeds %g x the affine wall %.6f s"
            name wall_screen screen_gate_ratio wall_affine;
        Fmt.pr "  %-7s %7d %7d %8.1f%% %12.3f %11.3f %10.6f %10.6f %6d %5s@."
          name sc.Affine.nodes_visited sc.Affine.nodes_pruned
          (fraction *. 100.0) wall_base wall_pruned wall_screen wall_affine
          (List.length base.Paths.paths)
          (if equal then "yes" else "NO");
        { s_name = name;
          s_nodes = sc.Affine.nodes_visited;
          s_pruned = sc.Affine.nodes_pruned;
          s_fraction = fraction;
          s_wall_unpruned = wall_base;
          s_wall_pruned = wall_pruned;
          s_wall_screen = wall_screen;
          s_wall_affine = wall_affine;
          s_paths = List.length base.Paths.paths;
          s_equal = equal })
      specs
  in
  let oc = open_out "BENCH_screening.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  out "{\"max_paths\":%d,\"benchmarks\":[\n" max_paths;
  List.iteri
    (fun i r ->
      out
        "  {\"name\":\"%s\",\"nodes\":%d,\"pruned\":%d,\"fraction\":%.4f,\
         \"wall_unpruned_s\":%.4f,\"wall_pruned_s\":%.4f,\
         \"wall_screen_s\":%.6f,\"wall_affine_s\":%.6f,\"paths\":%d,\
         \"equal\":%b}%s\n"
        r.s_name r.s_nodes r.s_pruned r.s_fraction r.s_wall_unpruned
        r.s_wall_pruned r.s_wall_screen r.s_wall_affine r.s_paths r.s_equal
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_screening.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "screening assertions failed"

(* ------------------------------------------------------------------ *)
(* Incremental: edit-to-answer latency vs a full rerun.                 *)

(* A single-gate resize (drive 1.25) applied to a warm incremental
   image (Ssta_check.Impact): time the baseline init, the incremental
   re-analysis, and a warm-backed from-scratch run of the same edited
   design, and byte-compare the two reports.  The edited gate is the
   one whose dirty set ({g} + fanins) covers the fewest enumerated
   near-critical paths — the representative local ECO (fixing a buffer
   off the critical region), deterministic per circuit.  Timings are
   cells of the shared runner ({!dim_min_of}): the incremental wall is
   the faster of the uncommitted what-if (min of [incremental_repeats])
   and the one committing re-analysis, the full wall the min of
   [incremental_repeats] from-scratch runs.  [gates_retimed] counts the
   gates whose electricals the committed edit re-derived (the graph is
   carried across edits, so --assert holds it to the gate plus its
   fan-ins).
   Written to BENCH_incremental.json as the edit-to-answer artifact. *)
let incremental_repeats = 2

let incremental () =
  section "Incremental: dependence-cone re-analysis after one edit (jobs=1)";
  let module Impact = Ssta_check.Impact in
  let module Netlist = Ssta_circuit.Netlist in
  let max_paths = 2000 in
  let specs = selected Iscas85.all in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Fmt.pr "  %-7s %8s %8s %8s %8s %6s %7s %7s %7s %6s@." "name" "init(s)"
    "incr(s)" "full(s)" "speedup" "cone" "retimed" "reused" "reanal" "equal";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit, placement = Iscas85.build_placed spec in
        let config =
          Config.with_confidence Config.default
            spec.Iscas85.paper.Iscas85.confidence
        in
        let config = { config with Config.max_paths } in
        let d = Impact.design ~placement ~config circuit in
        let time ?(repeats = 1) f =
          let v, wall, _ = dim_min_of ~within:dim_direct ~repeats f in
          (v, wall)
        in
        let or_fail = function
          | Ok v -> v
          | Error e ->
              Fmt.failwith "%s: %s" name
                (Ssta_runtime.Ssta_error.to_string e)
        in
        let (state, baseline), init_s =
          time (fun () -> or_fail (Impact.init d))
        in
        (* Least-covered gate: re-enumerate the near-critical paths of
           the baseline and pick the gate whose dirty set touches the
           fewest of them. *)
        let gate =
          let module Paths = Ssta_timing.Paths in
          let n = Netlist.num_nodes circuit in
          let count = Array.make n 0 in
          let e =
            Sta.near_critical ~max_paths baseline.Methodology.sta
              ~slack:baseline.Methodology.slack
          in
          List.iter
            (fun (p : Paths.path) ->
              Array.iter
                (fun id -> count.(id) <- count.(id) + 1)
                p.Paths.nodes)
            e.Paths.paths;
          let best = ref circuit.Netlist.num_inputs in
          let best_cost = ref max_int in
          for id = circuit.Netlist.num_inputs to n - 1 do
            let g = Netlist.gate_of circuit id in
            let cost =
              Array.fold_left
                (fun acc f -> acc + count.(f))
                count.(id) g.Netlist.fanins
            in
            if cost < !best_cost then begin
              best := id;
              best_cost := cost
            end
          done;
          Netlist.node_name circuit !best
        in
        let edit =
          or_fail
            (Ssta_circuit.Edit.parse_string_res
               (Printf.sprintf "resize %s 1.25" gate))
        in
        let _, probe_s =
          time ~repeats:incremental_repeats (fun () ->
              or_fail (Impact.what_if state edit))
        in
        let retimed () =
          Ssta_runtime.Health.counter (Impact.ledger state)
            "impact-gates-retimed"
        in
        let retimed_before = retimed () in
        let o, commit_s =
          time (fun () -> or_fail (Impact.reanalyze state edit))
        in
        let gates_retimed = retimed () - retimed_before in
        let incr_s = Float.min probe_s commit_s in
        let edited = Impact.design_of state in
        let m_scratch, full_s =
          time ~repeats:incremental_repeats (fun () ->
              or_fail (Impact.scratch edited))
        in
        let identical =
          String.equal
            (Report.json_report o.Impact.report)
            (Report.json_report m_scratch)
        in
        let speedup = if incr_s > 0.0 then full_s /. incr_s else 1.0 in
        if not identical then
          fail "%s: incremental report diverges from the from-scratch run"
            name;
        (* A resize re-derives the electricals of the gate and its gate
           fan-ins only. *)
        let retime_bound =
          let node = Option.get (Netlist.find_node circuit gate) in
          1 + Array.length (Netlist.gate_of circuit node).Netlist.fanins
        in
        if !assert_ && gates_retimed > retime_bound then
          fail "%s: %d gates retimed, more than the %d of %s and its fan-ins"
            name gates_retimed retime_bound gate;
        if !assert_ && incr_s >= full_s then
          fail "%s: incremental (%.4fs) not faster than full rerun (%.4fs)"
            name incr_s full_s;
        Fmt.pr "  %-7s %8.3f %8.3f %8.3f %7.2fx %6d %7d %7d %7d %6s@." name
          init_s incr_s full_s speedup o.Impact.cone.Impact.cone_nodes
          gates_retimed o.Impact.reused o.Impact.reanalyzed
          (if identical then "yes" else "NO");
        (name, gate, init_s, incr_s, full_s, speedup,
         o.Impact.cone.Impact.cone_nodes, gates_retimed, o.Impact.invalidated,
         o.Impact.reused, o.Impact.reanalyzed, identical))
      specs
  in
  let oc = open_out "BENCH_incremental.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  out
    "{\"max_paths\":%d,\"edit\":\"resize least-covered-gate 1.25\",\
     \"benchmarks\":[\n"
    max_paths;
  List.iteri
    (fun i
         (name, gate, init_s, incr_s, full_s, speedup, cone, gates_retimed,
          invalidated, reused, reanalyzed, identical) ->
      out
        "  {\"name\":\"%s\",\"gate\":\"%s\",\"init_s\":%.6f,\
         \"incremental_s\":%.6f,\"full_s\":%.6f,\"speedup\":%.3f,\
         \"cone_nodes\":%d,\"gates_retimed\":%d,\"invalidated\":%d,\
         \"reused\":%d,\"reanalyzed\":%d,\"identical\":%b}%s\n"
        name gate init_s incr_s full_s speedup cone gates_retimed invalidated
        reused reanalyzed identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_incremental.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "incremental assertions failed"

(* ------------------------------------------------------------------ *)
(* Dimensional bench: the cartesian scaling harness.                    *)

(* One cell of the {benchmark x quality x jobs x inter-cache x engine}
   grid.  Walls are the min of [dim_repeats] runs (suppressing GC and
   scheduler noise — standard for wall-clock artifacts); minor words are
   taken from the fastest run (allocation volume is deterministic, the
   timing is not). *)
type dim_cell = {
  c_engine : string;  (* "path" | "block" *)
  c_q : int;  (* quality_intra; quality_inter = q/2 *)
  c_jobs : int;  (* 0 for the block engine (takes no pool) *)
  c_cache : bool;
  c_max_paths : int;
  c_paths : int;  (* ranked path count (0 for block) *)
  c_wall : float;
  c_minor : float;  (* Gc.minor_words delta of the fastest run *)
  c_counters : (string * int) list;  (* health counters ([] for block) *)
  c_report : string;  (* deterministic JSON report ("" for block) *)
}

let dim_repeats = 2
let dim_qs = [ 50; 100 ]
let dim_jobs = [ 1; 2 ]
let dim_q_sweep = 200  (* third point of the wall-vs-Q fit *)
let dim_paths_sweep = [ 500; 1000 ]  (* 2000 is the grid's base cap *)

let dim_counter_names =
  [ "path-memo-lookups"; "path-memo-distinct"; "inter-cache-lookups";
    "inter-cache-hits"; "inter-cache-distinct"; "arena-buffers-created";
    "arena-bytes-reused"; "arena-peak-bytes" ]

(* Cached jobs=1 walls measured on a single-core host when the
   inter-kernel cache landed — the fixed baseline the strict floors
   regress against.  SSTA_DIM_STRICT=1 turns the >= 1.5x floors into
   hard failures; without it the speedups are recorded but not asserted
   (CI walls are machine-dependent). *)
let dim_seed_cached =
  [ ("c499", 0.2740); ("c1355", 0.6022); ("c6288", 1.7363) ]

let dim_strict_floor = 1.5

let dim_strict () =
  match Sys.getenv_opt "SSTA_DIM_STRICT" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Least-squares slope of ln(wall) against ln(x): the empirical scaling
   exponent of one sweep axis. *)
let dim_fit_exponent points =
  let pts = List.filter (fun (x, w) -> x > 0 && w > 0.0) points in
  match pts with
  | [] | [ _ ] -> nan
  | _ ->
      let n = float_of_int (List.length pts) in
      let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
      List.iter
        (fun (x, w) ->
          let lx = log (float_of_int x) and ly = log w in
          sx := !sx +. lx;
          sy := !sy +. ly;
          sxx := !sxx +. (lx *. lx);
          sxy := !sxy +. (lx *. ly))
        pts;
      let d = (n *. !sxx) -. (!sx *. !sx) in
      if Float.abs d < 1e-12 then nan
      else ((n *. !sxy) -. (!sx *. !sy)) /. d

(* ------------------------------------------------------------------ *)
(* Block crossover: path-based vs block-based wall clock.              *)

(* Path-based cost is enumeration-dominated (O(paths * Q^3) after the
   near-critical walk); the block engine visits every gate once.  This
   harness times both engines per benchmark at the paper's settings on
   the shared cell runner ({!dim_min_of}: min of
   [blockcross_repeats] walls, each after a full major cycle) and
   records where the one-pass engine wins and the statistical gap
   between the two answers.  Two deterministic counts gate the block
   sweep's cost: its minor-heap words per gate (from the fastest run)
   and the partitions its slot kernels walk per gate ({!Arrival.walked}),
   beside the direct major-heap words per gate (gated at 0.6 coefficient
   vectors: the pooled sweep allocates about one vector per primary
   output and per frontier node, not one per gate).  The wall-clock win
   is recorded, and asserted only under SSTA_DIM_STRICT=1 (walls are
   machine-dependent).  Written to BENCH_blockcross.json. *)
let blockcross_repeats = 7

(* The deterministic gates: minor words at most half of the 460-490 per
   gate the sweep took when every endpoint grid was built through
   closures (now 123-202), and partitions walked at most 0.65 of what
   dense kernel passes would walk, 2k - 1 passes of 85 partitions for a
   gate with k >= 1 fan-ins (now 6-61%, the widest cones on c3540). *)
let blockcross_minor_limit = 240.0
let blockcross_walk_limit = 0.65

let blockcross () =
  section "Block crossover: path-based vs block-based engine (jobs=1)";
  let module Block_engine = Ssta_block.Engine in
  let module Arrival = Ssta_block.Arrival in
  let max_paths = 2000 in
  let specs = selected Iscas85.all in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Fmt.pr "  %-7s %6s %9s %10s %8s %9s %9s %6s %8s %8s %7s@." "name" "gates"
    "path(s)" "block(s)" "speedup" "dmean" "dsigma" "wins" "maj/gate"
    "min/gate" "walk%";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit, placement = Iscas85.build_placed spec in
        let config =
          Config.with_confidence Config.default
            spec.Iscas85.paper.Iscas85.confidence
        in
        let config = { config with Config.max_paths } in
        let m, path_wall, _ =
          dim_min_of ~within:dim_direct ~repeats:blockcross_repeats (fun () ->
              Methodology.run ~config ~placement circuit)
        in
        let r, block_wall, block_minor =
          dim_min_of ~within:dim_direct ~repeats:blockcross_repeats (fun () ->
              Block_engine.analyze ~config ~placement circuit)
        in
        let gates = float_of_int r.Block_engine.num_gates in
        (* One more sweep for the deterministic counts: the words it
           puts straight into the major heap (coefficient vectors are
           too large for the minor heap) and the partitions walked. *)
        let pool = Arrival.pool () in
        Gc.full_major ();
        let _, promoted0, major0 = Gc.counters () in
        ignore (Block_engine.analyze ~config ~placement ~pool circuit);
        let _, promoted1, major1 = Gc.counters () in
        let major_words_per_gate =
          (major1 -. major0 -. (promoted1 -. promoted0)) /. gates
        in
        let minor_words_per_gate = block_minor /. gates in
        let walked_per_gate = float_of_int (Arrival.walked pool) /. gates in
        let graph = r.Block_engine.sta.Ssta_timing.Sta.graph in
        let dense_passes = ref 0 in
        for id = 0 to Ssta_timing.Graph.num_nodes graph - 1 do
          if not (Ssta_timing.Graph.is_input graph id) then
            dense_passes :=
              !dense_passes
              + Int.max 1
                  ((2 * Array.length (Ssta_timing.Graph.fanins graph id)) - 1)
        done;
        let walk_ratio =
          float_of_int (Arrival.walked pool)
          /. float_of_int
               (!dense_passes
               * Ssta_correlation.Slots.layer_offset
                   config.Config.quad_levels)
        in
        let vector_words =
          float_of_int
            (Ssta_correlation.Slots.num_slots
               ~quad_levels:config.Config.quad_levels
            + 1)
        in
        let pa = m.Methodology.prob_critical.Ranking.analysis in
        let path_mean = pa.Path_analysis.mean in
        let path_std = pa.Path_analysis.std in
        let rel_mean =
          Float.abs (r.Block_engine.mean -. path_mean) /. path_mean
        in
        let rel_std =
          Float.abs (r.Block_engine.std -. path_std) /. path_std
        in
        let speedup =
          if block_wall > 0.0 then path_wall /. block_wall else 1.0
        in
        let wins = block_wall < path_wall in
        (* The block mean upper-bounds the most-critical path's mean
           (the circuit max dominates every path), so the one-sided
           check is a soundness gate, the relative ones a quality
           gate. *)
        if !assert_ then begin
          if r.Block_engine.mean < path_mean *. 0.98 then
            fail "%s: block mean %.4g below path mean %.4g" name
              r.Block_engine.mean path_mean;
          if rel_mean > 0.10 then
            fail "%s: block/path mean gap %.1f%% (tol 10%%)" name
              (rel_mean *. 100.0);
          if rel_std > 0.35 then
            fail "%s: block/path sigma gap %.1f%% (tol 35%%)" name
              (rel_std *. 100.0);
          if major_words_per_gate > 0.6 *. vector_words then
            fail "%s: %.0f major-heap words per gate (limit 0.6 x %.0f)" name
              major_words_per_gate vector_words;
          if minor_words_per_gate > blockcross_minor_limit then
            fail "%s: %.0f minor words per gate (limit %.0f)" name
              minor_words_per_gate blockcross_minor_limit;
          if walk_ratio > blockcross_walk_limit then
            fail "%s: the kernels walked %.0f%% of the dense passes (limit %.0f%%)"
              name (walk_ratio *. 100.0) (blockcross_walk_limit *. 100.0);
          if dim_strict () && not wins then
            fail "%s: block %.4f s does not beat path %.4f s" name block_wall
              path_wall
        end;
        Fmt.pr "  %-7s %6d %9.4f %10.4f %7.1fx %8.2f%% %8.2f%% %6s %8.0f %8.0f %6.0f%%@."
          name r.Block_engine.num_gates path_wall block_wall speedup
          (rel_mean *. 100.0) (rel_std *. 100.0)
          (if wins then "yes" else "no")
          major_words_per_gate minor_words_per_gate (walk_ratio *. 100.0);
        (name, r.Block_engine.num_gates, path_wall, block_wall, speedup,
         path_mean, path_std, pa.Path_analysis.confidence_point,
         r.Block_engine.mean, r.Block_engine.std,
         r.Block_engine.confidence_point, wins, major_words_per_gate,
         minor_words_per_gate, walked_per_gate))
      specs
  in
  if !assert_
     && not
          (List.exists
             (fun (_, _, _, _, _, _, _, _, _, _, _, w, _, _, _) -> w)
             rows)
  then fail "no benchmark where the block engine beats the path engine";
  let oc = open_out "BENCH_blockcross.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  out "{\"max_paths\":%d,\"max_policy\":\"clark\",\"repeats\":%d,\"benchmarks\":[\n"
    max_paths blockcross_repeats;
  List.iteri
    (fun i
         (name, gates, path_wall, block_wall, speedup, path_mean, path_std,
          path_conf, block_mean, block_std, block_conf, wins,
          major_words_per_gate, minor_words_per_gate, walked_per_gate) ->
      out
        "  {\"name\":\"%s\",\"gates\":%d,\"path_wall_s\":%.5f,\
         \"block_wall_s\":%.5f,\"speedup\":%.3f,\
         \"path\":{\"mean_s\":%.6e,\"std_s\":%.6e,\
         \"confidence_point_s\":%.6e},\
         \"block\":{\"mean_s\":%.6e,\"std_s\":%.6e,\
         \"confidence_point_s\":%.6e},\"block_wins\":%b,\
         \"block_major_words_per_gate\":%.1f,\
         \"block_minor_words_per_gate\":%.1f,\
         \"block_walked_per_gate\":%.1f}%s\n"
        name gates path_wall block_wall speedup path_mean path_std path_conf
        block_mean block_std block_conf wins major_words_per_gate
        minor_words_per_gate walked_per_gate
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_blockcross.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "blockcross assertions failed"


let dim_config ~confidence ~q ~cache ~max_paths =
  let config = Config.with_confidence Config.default confidence in
  let config = Config.with_quality config ~intra:q ~inter:(q / 2) in
  { config with Config.max_paths; Config.inter_cache = cache }

let dim_path_cell ~circuit ~placement ~confidence ~q ~jobs ~cache ~max_paths =
  let config = dim_config ~confidence ~q ~cache ~max_paths in
  let m, best_wall, best_minor =
    dim_min_of ~within:(Pool.with_pool ~jobs) ~repeats:dim_repeats
      (fun pool -> Methodology.run ~config ~placement ~pool circuit)
  in
  let counters =
    List.map
      (fun n -> (n, Ssta_runtime.Health.counter m.Methodology.health n))
      dim_counter_names
  in
  { c_engine = "path"; c_q = q; c_jobs = jobs; c_cache = cache;
    c_max_paths = max_paths; c_paths = Methodology.num_critical_paths m;
    c_wall = best_wall; c_minor = best_minor; c_counters = counters;
    c_report = Report.json_report m }

let dim_block_cell ~circuit ~placement ~confidence ~q ~cache ~max_paths =
  let config = dim_config ~confidence ~q ~cache ~max_paths in
  let _, best_wall, best_minor =
    dim_min_of ~within:dim_direct ~repeats:dim_repeats (fun () ->
        Ssta_block.Engine.analyze ~config ~placement circuit)
  in
  { c_engine = "block"; c_q = q; c_jobs = 0; c_cache = cache;
    c_max_paths = max_paths; c_paths = 0; c_wall = best_wall;
    c_minor = best_minor; c_counters = []; c_report = "" }

(* The per-path walk of the path engine at serve-enum's caps: the
   gate-table walk ([Path_coeffs.of_table]: Eq. 5 sums, Eq. 13 slots,
   gate count and worst corner in one pass) against the reference walks
   it replaced ([Path_coeffs.of_path] plus [Paths.worst_case_delay] and
   [Paths.path_gate_count]), over the ranked paths of one capped run.
   Each timed call walks the set once.  The cell also serves the same
   request to a fresh server, then repeats it warm: it counts the gate
   tables and the fresh path analyses the warm repeats make (the path
   cache answers every path, so both must be 0) and times the cold
   request against the fastest warm repeat. *)
type walk_cell = {
  w_name : string;
  w_cap : int;
  w_paths : int;
  w_visits : int;  (* path nodes walked per pass over the set *)
  w_table_wall : float;
  w_reference_wall : float;
  w_table_words : float;  (* minor words of the fastest timed call *)
  w_reference_words : float;
  w_build_s : float;  (* one table build, min of the repeats *)
  w_warm_builds : int;  (* tables built by the warm repeats *)
  w_warm_fresh : int;  (* paths the warm repeats analyzed afresh *)
  w_cold_wall : float;  (* the first request to a fresh server *)
  w_warm_wall : float;  (* the fastest warm repeat *)
}

let dim_walk_caps = [ ("c1355", 200); ("c6288", 100) ]
let dim_walk_confidence = 0.1
let dim_walk_repeats = 31
let dim_walk_warm_requests = 5
let dim_walk_ratio_max = 0.6
let dim_walk_warm_ratio_max = 0.5

let dim_walk_cell (name, cap) =
  let module Gate_table = Ssta_correlation.Gate_table in
  let module Path_coeffs = Ssta_correlation.Path_coeffs in
  let module Paths = Ssta_timing.Paths in
  let circuit, placement = Iscas85.build_placed (spec_exn name) in
  let config =
    { (Config.with_confidence Config.default dim_walk_confidence) with
      Config.max_paths = cap }
  in
  let m = Methodology.run ~config ~placement circuit in
  let graph = m.Methodology.sta.Sta.graph in
  let paths =
    Array.map
      (fun (r : Ranking.ranked) -> r.Ranking.analysis.Path_analysis.path)
      m.Methodology.ranked
  in
  let layers = Config.layers_for config placement in
  let corner_k = config.Config.corner_k in
  let tb, build_s, _ =
    dim_min_of ~within:dim_direct ~repeats:dim_walk_repeats (fun () ->
        Gate_table.build graph placement layers ~corner_k)
  in
  let sink = ref 0.0 in
  let walk f () = Array.iter (fun p -> sink := !sink +. f p) paths in
  let table =
    walk (fun p ->
        let c, worst = Path_coeffs.of_table tb p in
        c.Path_coeffs.alpha_sum +. worst +. float_of_int c.Path_coeffs.gate_count)
  and reference =
    walk (fun p ->
        let c = Path_coeffs.of_path graph placement layers p in
        c.Path_coeffs.alpha_sum
        +. Paths.worst_case_delay ~corner_k graph p
        +. float_of_int (Paths.path_gate_count graph p))
  in
  (* The two walks alternate, one timed call each, so that a change in
     host load hits both minima alike. *)
  let fastest = Array.make 2 (infinity, 0.0) in
  for _ = 1 to dim_walk_repeats do
    List.iteri
      (fun k f ->
        let (), wall, words = dim_min_of ~within:dim_direct ~repeats:1 f in
        if wall < fst fastest.(k) then fastest.(k) <- (wall, words))
      [ table; reference ]
  done;
  let table_wall, table_words = fastest.(0) in
  let reference_wall, reference_words = fastest.(1) in
  let server =
    Ssta_server.Server.create ~config:Config.default
      ~reload:(fun () -> Ok (circuit, placement))
      circuit placement
  in
  let ask line =
    match Ssta_server.Protocol.decode ~max_bytes:max_int line with
    | Ok env -> Ssta_server.Server.dispatch server env
    | Error _ -> invalid_arg "dim_walk_cell: bad request"
  in
  let timed_request () =
    let t0 = Unix.gettimeofday () in
    ignore
      (ask
         (Printf.sprintf {|{"op":"run","max_paths":%d,"confidence":%g}|} cap
            dim_walk_confidence));
    Unix.gettimeofday () -. t0
  in
  let misses () =
    let member k v = Option.get (Ssta_runtime.Json.member k v) in
    match Ssta_runtime.Json.parse (ask {|{"op":"health"}|}) with
    | Ok v ->
        let pc = member "path_cache" v in
        let count k = Option.get (Ssta_runtime.Json.to_int (member k pc)) in
        count "lookups" - count "hits"
    | Error _ -> invalid_arg "dim_walk_cell: bad health answer"
  in
  Gc.full_major ();
  let cold_wall = timed_request () in
  let builds = Gate_table.builds () and missed = misses () in
  let warm_wall = ref infinity in
  for _ = 1 to dim_walk_warm_requests do
    warm_wall := Float.min !warm_wall (timed_request ())
  done;
  { w_name = name;
    w_cap = cap;
    w_paths = Array.length paths;
    w_visits =
      Array.fold_left (fun a p -> a + Array.length p.Paths.nodes) 0 paths;
    w_table_wall = table_wall;
    w_reference_wall = reference_wall;
    w_table_words = table_words;
    w_reference_words = reference_words;
    w_build_s = build_s;
    w_warm_builds = Gate_table.builds () - builds;
    w_warm_fresh = misses () - missed;
    w_cold_wall = cold_wall;
    w_warm_wall = !warm_wall }

let walk_ns_per_visit w wall =
  wall *. 1e9 /. float_of_int (Int.max 1 w.w_visits)

let walk_words_per_path w words =
  words /. float_of_int (Int.max 1 w.w_paths)

(* The full cartesian sweep: {Q x jobs x cache} for the path engine and
   {Q x cache} for the block engine (which takes no pool), plus the
   extra Q and max-paths points that anchor the log-log exponent fits.
   Emits BENCH_dim.json with a deterministic schema (fixed key set and
   order; only the measured values vary) so CI can regress it. *)
let dim () =
  let strict = dim_strict () in
  section
    (Printf.sprintf
       "Dimensional bench: {benchmark x Q x jobs x cache x engine} \
        (host: %d core(s), repeats: %d, strict floors: %s)"
       (Pool.default_jobs ()) dim_repeats (if strict then "on" else "off"));
  let max_paths = 2000 in
  let specs = selected Iscas85.all in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Fmt.pr "  %-7s %-6s %4s %4s %6s %6s %6s %9s %12s@." "name" "engine" "Q"
    "jobs" "cache" "paths" "cap" "wall(s)" "minor-words";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit, placement = Iscas85.build_placed spec in
        let confidence = spec.Iscas85.paper.Iscas85.confidence in
        let pr_cell c =
          Fmt.pr "  %-7s %-6s %4d %4s %6s %6d %6d %9.4f %12.3e@." name
            c.c_engine c.c_q
            (if c.c_jobs = 0 then "-" else string_of_int c.c_jobs)
            (if c.c_cache then "on" else "off")
            c.c_paths c.c_max_paths c.c_wall c.c_minor;
          c
        in
        (* base path grid *)
        let base =
          List.concat_map
            (fun q ->
              List.concat_map
                (fun jobs ->
                  List.map
                    (fun cache ->
                      pr_cell
                        (dim_path_cell ~circuit ~placement ~confidence ~q
                           ~jobs ~cache ~max_paths))
                    [ false; true ])
                dim_jobs)
            dim_qs
        in
        (* exponent-fit anchors: one extra Q point, two path caps *)
        let anchors =
          let q_anchor =
            pr_cell
              (dim_path_cell ~circuit ~placement ~confidence ~q:dim_q_sweep
                 ~jobs:1 ~cache:true ~max_paths)
          in
          let cap_anchors =
            List.map
              (fun cap ->
                pr_cell
                  (dim_path_cell ~circuit ~placement ~confidence ~q:100
                     ~jobs:1 ~cache:true ~max_paths:cap))
              dim_paths_sweep
          in
          q_anchor :: cap_anchors
        in
        (* block engine: no pool dimension *)
        let block =
          List.concat_map
            (fun q ->
              List.map
                (fun cache ->
                  pr_cell
                    (dim_block_cell ~circuit ~placement ~confidence ~q ~cache
                       ~max_paths))
                [ false; true ])
            dim_qs
        in
        let grid = base @ anchors @ block in
        let find ~engine ~q ~jobs ~cache ~cap =
          List.find_opt
            (fun c ->
              String.equal c.c_engine engine
              && c.c_q = q && c.c_jobs = jobs && c.c_cache = cache
              && c.c_max_paths = cap)
            grid
        in
        (* --- log-log exponent fits ------------------------------- *)
        let q_points =
          List.filter_map
            (fun q ->
              Option.map
                (fun c -> (q, c.c_wall))
                (find ~engine:"path" ~q ~jobs:1 ~cache:true ~cap:max_paths))
            (dim_qs @ [ dim_q_sweep ])
        in
        let paths_points =
          List.filter_map
            (fun cap ->
              Option.map
                (fun c -> (c.c_paths, c.c_wall))
                (find ~engine:"path" ~q:100 ~jobs:1 ~cache:true ~cap))
            (dim_paths_sweep @ [ max_paths ])
        in
        let paths_increasing =
          let xs = List.map fst paths_points in
          List.length xs >= 2
          && List.for_all2 (fun a b -> a < b)
               (List.filteri (fun i _ -> i < List.length xs - 1) xs)
               (List.tl xs)
        in
        let q_exp = dim_fit_exponent q_points in
        let paths_exp =
          if paths_increasing then dim_fit_exponent paths_points else nan
        in
        Fmt.pr "  %-7s fits: wall ~ Q^%.2f%s@." name q_exp
          (if Float.is_nan paths_exp then
             " (path-count axis saturated; paths exponent skipped)"
           else Printf.sprintf ", wall ~ paths^%.2f" paths_exp);
        (* --- relative invariants (always checked with --assert) --- *)
        if !assert_ then begin
          (* cache on must not lose to cache off at the same settings *)
          List.iter
            (fun q ->
              List.iter
                (fun jobs ->
                  match
                    ( find ~engine:"path" ~q ~jobs ~cache:false ~cap:max_paths,
                      find ~engine:"path" ~q ~jobs ~cache:true ~cap:max_paths )
                  with
                  | Some off, Some on when off.c_wall >= 0.05 ->
                      if on.c_wall > off.c_wall *. 1.10 then
                        fail
                          "%s: Q=%d jobs=%d cached wall %.4fs slower than \
                           uncached %.4fs"
                          name q jobs on.c_wall off.c_wall
                  | _ -> ())
                dim_jobs)
            dim_qs;
          (* the arena must actually be exercised *)
          List.iter
            (fun c ->
              if
                String.equal c.c_engine "path"
                && List.assoc "arena-peak-bytes" c.c_counters = 0
              then
                fail "%s: Q=%d jobs=%d cache=%b reports no arena traffic"
                  name c.c_q c.c_jobs c.c_cache)
            grid;
          (* the deterministic report must not depend on the jobs axis *)
          List.iter
            (fun q ->
              List.iter
                (fun cache ->
                  match
                    ( find ~engine:"path" ~q ~jobs:1 ~cache ~cap:max_paths,
                      find ~engine:"path" ~q ~jobs:2 ~cache ~cap:max_paths )
                  with
                  | Some a, Some b when not (String.equal a.c_report b.c_report)
                    ->
                      fail "%s: Q=%d cache=%b report differs between jobs 1 \
                            and 2"
                        name q cache
                  | _ -> ())
                [ false; true ])
            dim_qs;
          (* exponents must stay in sane bands when the walls are large
             enough to measure *)
          if
            List.for_all (fun (_, w) -> w >= 0.05) q_points
            && not (Float.is_nan q_exp)
            && (q_exp < -0.2 || q_exp > 4.5)
          then
            (* Lower bound near zero, not a positive power: circuits
               whose per-path cost is coefficient-dominated (c6288's
               long multiplier paths) legitimately scale almost flat in
               Q once the inter cache is warm. *)
            fail "%s: wall-vs-Q exponent %.2f outside [-0.2, 4.5]" name q_exp;
          if
            paths_increasing
            && List.for_all (fun (_, w) -> w >= 0.05) paths_points
            && not (Float.is_nan paths_exp)
            && (paths_exp < 0.2 || paths_exp > 2.2)
          then
            fail "%s: wall-vs-paths exponent %.2f outside [0.2, 2.2]" name
              paths_exp
        end;
        (* --- strict absolute floors (opt-in: host-dependent) ------ *)
        let vs_seed =
          match
            ( List.assoc_opt name dim_seed_cached,
              find ~engine:"path" ~q:100 ~jobs:1 ~cache:true ~cap:max_paths )
          with
          | Some seed, Some c when c.c_wall > 0.0 ->
              let speedup = seed /. c.c_wall in
              Fmt.pr "  %-7s vs seed cached wall %.4fs: %.2fx@." name seed
                speedup;
              if strict && !assert_ && speedup < dim_strict_floor then
                fail
                  "%s: jobs=1 cached wall %.4fs only %.2fx over the seed \
                   %.4fs (floor %.1fx)"
                  name c.c_wall speedup seed dim_strict_floor;
              Some (seed, c.c_wall, speedup)
          | _ -> None
        in
        (name, grid, q_points, q_exp, paths_points, paths_exp, vs_seed))
      specs
  in
  Fmt.pr "  %-7s %4s %5s %7s %11s %11s %6s %11s %11s %9s %6s %6s %9s %9s@."
    "walk" "cap" "paths" "visits" "table-ns/v" "ref-ns/v" "ratio" "table-w/p"
    "ref-w/p" "build(s)" "warm" "fresh" "cold(s)" "warm(s)";
  let walks =
    List.map
      (fun cell ->
        let w = dim_walk_cell cell in
        let ratio = w.w_table_wall /. w.w_reference_wall in
        Fmt.pr
          "  %-7s %4d %5d %7d %11.2f %11.2f %6.3f %11.1f %11.1f %9.5f %6d %6d \
           %9.5f %9.5f@."
          w.w_name w.w_cap w.w_paths w.w_visits
          (walk_ns_per_visit w w.w_table_wall)
          (walk_ns_per_visit w w.w_reference_wall)
          ratio
          (walk_words_per_path w w.w_table_words)
          (walk_words_per_path w w.w_reference_words)
          w.w_build_s w.w_warm_builds w.w_warm_fresh w.w_cold_wall
          w.w_warm_wall;
        if !assert_ then begin
          if ratio > dim_walk_ratio_max then
            fail "%s/%d: table walk %.4fs is %.2fx the reference walk %.4fs \
                  (max %.2fx)"
              w.w_name w.w_cap w.w_table_wall ratio w.w_reference_wall
              dim_walk_ratio_max;
          if w.w_warm_builds <> 0 then
            fail "%s/%d: %d warm repeat requests built %d gate tables"
              w.w_name w.w_cap dim_walk_warm_requests w.w_warm_builds;
          if w.w_warm_fresh <> 0 then
            fail "%s/%d: %d warm repeat requests analyzed %d paths afresh"
              w.w_name w.w_cap dim_walk_warm_requests w.w_warm_fresh;
          if w.w_warm_wall > dim_walk_warm_ratio_max *. w.w_cold_wall then
            fail "%s/%d: warm repeat %.5fs is over %.2fx the cold request \
                  %.5fs"
              w.w_name w.w_cap w.w_warm_wall dim_walk_warm_ratio_max
              w.w_cold_wall
        end;
        w)
      dim_walk_caps
  in
  let oc = open_out "BENCH_dim.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  out
    "{\"schema\":\"bench-dim/1\",\"host_cores\":%d,\"repeats\":%d,\
     \"strict\":%b,\"benchmarks\":[\n"
    (Pool.default_jobs ()) dim_repeats strict;
  List.iteri
    (fun i (name, grid, q_points, q_exp, paths_points, paths_exp, vs_seed) ->
      let cell c =
        let counters =
          if c.c_counters = [] then ""
          else
            Printf.sprintf ",\"counters\":{%s}"
              (String.concat ","
                 (List.map
                    (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v)
                    c.c_counters))
        in
        Printf.sprintf
          "{\"engine\":\"%s\",\"quality\":%d,\"jobs\":%d,\
           \"inter_cache\":%b,\"max_paths\":%d,\"paths\":%d,\
           \"wall_s\":%.4f,\"minor_words\":%.0f%s}"
          c.c_engine c.c_q c.c_jobs c.c_cache c.c_max_paths c.c_paths c.c_wall
          c.c_minor counters
      in
      let points ps =
        String.concat ","
          (List.map (fun (x, w) -> Printf.sprintf "[%d,%.4f]" x w) ps)
      in
      let json_exp e =
        if Float.is_nan e then "null" else Printf.sprintf "%.3f" e
      in
      out "  {\"name\":\"%s\",\"grid\":[\n    %s\n  ],\n" name
        (String.concat ",\n    " (List.map cell grid));
      out
        "   \"fits\":{\"q_exponent\":%s,\"q_points\":[%s],\
         \"paths_exponent\":%s,\"paths_points\":[%s]}%s}%s\n"
        (json_exp q_exp) (points q_points) (json_exp paths_exp)
        (points paths_points)
        (match vs_seed with
        | Some (seed, wall, speedup) ->
            Printf.sprintf
              ",\n   \"vs_seed\":{\"seed_cached_wall_s\":%.4f,\
               \"wall_s\":%.4f,\"speedup\":%.3f}"
              seed wall speedup
        | None -> "")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "],\n\"path_walk\":[\n";
  List.iteri
    (fun i w ->
      out
        "  {\"name\":\"%s\",\"max_paths\":%d,\"confidence\":%g,\
         \"paths\":%d,\"gate_visits\":%d,\
         \"table_ns_per_visit\":%.2f,\"reference_ns_per_visit\":%.2f,\
         \"table_to_reference\":%.3f,\"table_minor_words_per_path\":%.1f,\
         \"reference_minor_words_per_path\":%.1f,\"table_build_s\":%.5f,\
         \"warm_repeat_requests\":%d,\"warm_repeat_table_builds\":%d,\
         \"warm_repeat_fresh_analyses\":%d,\"cold_request_s\":%.5f,\
         \"warm_request_s\":%.5f,\"warm_to_cold\":%.3f}%s\n"
        w.w_name w.w_cap dim_walk_confidence w.w_paths w.w_visits
        (walk_ns_per_visit w w.w_table_wall)
        (walk_ns_per_visit w w.w_reference_wall)
        (w.w_table_wall /. w.w_reference_wall)
        (walk_words_per_path w w.w_table_words)
        (walk_words_per_path w w.w_reference_words)
        w.w_build_s dim_walk_warm_requests w.w_warm_builds w.w_warm_fresh
        w.w_cold_wall w.w_warm_wall
        (w.w_warm_wall /. w.w_cold_wall)
        (if i = List.length walks - 1 then "" else ","))
    walks;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_dim.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "dim assertions failed"

(* ------------------------------------------------------------------ *)
(* Front end: what every [ssta run] pays before the analysis starts.   *)

(* The designs of perfbench's cli-light workload, read from the text
   [ssta generate] writes for them. *)
let frontend_designs =
  [ "c432"; "c880"; "c1908"; "c2670"; "c3540"; "c5315"; "c7552" ]

let frontend_repeats = 15

(* Minor-heap words per netlist node each phase may allocate (checked
   with --assert).  Allocation volume is deterministic for a given
   input, so unlike a wall this gate cannot flake. *)
let frontend_minor_limits =
  [ ("parse", 150.0); ("attach", 15.0); ("lint", 70.0) ]

(* The run-time front end of [ssta run --bench --def --spef], phase by
   phase, each phase a min-of-N cell of the shared runner: parse (the
   three formats, from strings), attach ([Def_format.placement_of] and
   [Spef.apply] onto the parsed netlist) and the lint pre-pass (netlist,
   placement, SPEF and config rules, no deep checks).  Writes
   BENCH_frontend.json. *)
let frontend () =
  section
    (Printf.sprintf
       "Front end: parse, attach and lint pre-pass (min of %d, jobs=1)"
       frontend_repeats);
  let module Bench_format = Ssta_circuit.Bench_format in
  let module Def_format = Ssta_circuit.Def_format in
  let module Spef = Ssta_circuit.Spef in
  let module Lint = Ssta_lint.Engine in
  let specs = selected (List.map spec_exn frontend_designs) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let ok = function
    | Ok v -> v
    | Error e -> failwith (Ssta_runtime.Ssta_error.to_string e)
  in
  Fmt.pr "  %-7s %6s %9s %9s %9s %9s %9s %9s   %s@." "name" "nodes"
    "bench(ms)" "def(ms)" "spef(ms)" "attach" "lint" "total"
    "minor words/node (parse attach lint)";
  let rows =
    List.map
      (fun (spec : Iscas85.spec) ->
        let name = spec.Iscas85.name in
        let circuit = Iscas85.build spec in
        let placement = Ssta_circuit.Placement.place circuit in
        let bench_text = Bench_format.to_string circuit in
        let def_text =
          Def_format.to_string
            (Def_format.of_placement ~design:name circuit placement)
        in
        let spef_text =
          Spef.to_string (Spef.of_placement ~design:name circuit placement)
        in
        let cell f =
          dim_min_of ~within:dim_direct ~repeats:frontend_repeats f
        in
        let c, bench_wall, bench_minor =
          cell (fun () -> ok (Bench_format.parse_string_res ~name bench_text))
        in
        let def, def_wall, def_minor =
          cell (fun () -> ok (Def_format.parse_string_res def_text))
        in
        let spef, spef_wall, spef_minor =
          cell (fun () -> ok (Spef.parse_string_res spef_text))
        in
        let (pl, _), attach_wall, attach_minor =
          cell (fun () ->
              ( ok (Def_format.placement_of_res def c),
                ok (Spef.apply_res spef c) ))
        in
        let ds, lint_wall, lint_minor =
          cell (fun () ->
              Lint.run
                (Lint.input ~placement:pl ~spef ~config:Config.default
                   ~deep:false c))
        in
        let nodes = float_of_int (Ssta_circuit.Netlist.num_nodes c) in
        let phases =
          [ ("parse", bench_wall +. def_wall +. spef_wall,
             (bench_minor +. def_minor +. spef_minor) /. nodes);
            ("attach", attach_wall, attach_minor /. nodes);
            ("lint", lint_wall, lint_minor /. nodes) ]
        in
        let total = List.fold_left (fun a (_, w, _) -> a +. w) 0.0 phases in
        if !assert_ then
          List.iter
            (fun (phase, _, per_node) ->
              let limit = List.assoc phase frontend_minor_limits in
              if per_node > limit then
                fail "%s: %s allocates %.1f minor words per node (limit %.0f)"
                  name phase per_node limit)
            phases;
        let per_node =
          String.concat " "
            (List.map (fun (_, _, m) -> Printf.sprintf "%.1f" m) phases)
        in
        Fmt.pr "  %-7s %6.0f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f   %s@." name
          nodes (bench_wall *. 1e3) (def_wall *. 1e3) (spef_wall *. 1e3)
          (attach_wall *. 1e3) (lint_wall *. 1e3) (total *. 1e3) per_node;
        ( name, nodes, List.length ds,
          [ ("bench", bench_wall, bench_minor /. nodes);
            ("def", def_wall, def_minor /. nodes);
            ("spef", spef_wall, spef_minor /. nodes) ],
          phases, total ))
      specs
  in
  let oc = open_out "BENCH_frontend.json" in
  let out fmt = Printf.ksprintf (output_string oc) fmt in
  let cells cs =
    String.concat ","
      (List.map
         (fun (phase, wall, per_node) ->
           Printf.sprintf
             "\"%s\":{\"wall_s\":%.6f,\"minor_words_per_node\":%.1f}" phase
             wall per_node)
         cs)
  in
  out
    "{\"schema\":\"bench-frontend/1\",\"repeats\":%d,\"limits\":{%s},\
     \"benchmarks\":[\n"
    frontend_repeats
    (String.concat ","
       (List.map
          (fun (phase, l) -> Printf.sprintf "\"%s\":%.0f" phase l)
          frontend_minor_limits));
  List.iteri
    (fun i (name, nodes, diagnostics, formats, phases, total) ->
      out
        "  {\"name\":\"%s\",\"nodes\":%.0f,\"diagnostics\":%d,\
         \"parse_by_format\":{%s},\"phases\":{%s},\"total_wall_s\":%.6f}%s\n"
        name nodes diagnostics (cells formats) (cells phases) total
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "]}\n";
  close_out oc;
  Fmt.pr "  wrote BENCH_frontend.json@.";
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Fmt.epr "  FAIL: %s@." f) fs;
      failwith "frontend assertions failed"

(* ------------------------------------------------------------------ *)

let sections =
  [ ("screening", screening); ("incremental", incremental);
    ("blockcross", blockcross); ("dim", dim); ("frontend", frontend) ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "bench: %s\nusage: main.exe [SECTION...] [--only=NAME,...] [--assert]\n\
         sections: %s\n"
        msg
        (String.concat " " (List.map fst sections));
      exit 2)
    fmt

let () =
  let only_flag = "--only=" in
  let n = String.length only_flag in
  let wanted =
    List.filter_map
      (fun a ->
        if a = "--assert" then (assert_ := true; None)
        else if String.starts_with ~prefix:only_flag a then begin
          only :=
            List.map
              (fun name ->
                match Iscas85.by_name name with
                | Some spec -> spec
                | None -> usage_error "unknown circuit %S in %s" name a)
              (String.split_on_char ',' (String.sub a n (String.length a - n)));
          None
        end
        else if String.starts_with ~prefix:"-" a then
          usage_error "unknown flag %s" a
        else
          match List.assoc_opt a sections with
          | Some f -> Some f
          | None -> usage_error "unknown section %S" a)
      (List.tl (Array.to_list Sys.argv))
  in
  let started = Unix.gettimeofday () in
  List.iter (fun f -> f ())
    (if wanted = [] then List.map snd sections else wanted);
  Fmt.pr "@.total bench wall-clock: %.1f s@." (Unix.gettimeofday () -. started)
