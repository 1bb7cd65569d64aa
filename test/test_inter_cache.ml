open Ssta_core
open Helpers
module Pdf = Ssta_prob.Pdf
module Pool = Ssta_parallel.Pool

(* The scale-covariant inter-kernel cache: covariance of cached results,
   determinism of the A/B switch and of parallel runs, counter
   accounting, and the single-pass moments helper it leans on. *)

let tables = lazy (Inter.tables fast_config)

let rel a b =
  Float.abs (a -. b) /. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))

let stats_close ?(tol = 1e-9) name a b =
  let pairs =
    [ ("mean", Pdf.mean a, Pdf.mean b);
      ("std", Pdf.std a, Pdf.std b);
      ("q0.001", Pdf.quantile a 0.001, Pdf.quantile b 0.001);
      ("q0.5", Pdf.quantile a 0.5, Pdf.quantile b 0.5);
      ("q0.999", Pdf.quantile a 0.999, Pdf.quantile b 0.999) ]
  in
  List.iter
    (fun (what, x, y) ->
      if rel x y > tol then
        Alcotest.failf "%s: %s diverges: %.17g vs %.17g (rel %.3g)" name what
          x y (rel x y))
    pairs

(* ---------------- Pdf.moments ---------------- *)

let qcheck_moments_bit_identical =
  qcheck ~count:100 "Pdf.moments == (mean, variance) bitwise"
    QCheck.(pair (int_range 0 1_000_000) (int_range 8 120))
    (fun (seed, n) ->
      let rng = Ssta_prob.Rng.create seed in
      let cells =
        Array.init n (fun _ -> Ssta_prob.Rng.float rng +. 1e-6)
      in
      let p = Pdf.make ~lo:(-3.0) ~step:0.17 cells in
      let m = Pdf.moments p in
      m.Pdf.m_mean = Pdf.mean p && m.Pdf.m_var = Pdf.variance p)

(* ---------------- Scale covariance ---------------- *)

let coeff_gen =
  QCheck.(
    quad (float_range 0.1 50.0) (float_range 0.0 50.0)
      (float_range 0.1 50.0) (float_range 0.0 50.0))

let qcheck_cached_matches_uncached =
  qcheck ~count:60 "cached pdf_dual == uncached within 1e-9 relative"
    QCheck.(pair coeff_gen (float_range 0.02 40.0))
    (fun ((al, ah, bl, bh), c) ->
      let t = Lazy.force tables in
      let cache = Inter.cache_create t in
      let al = c *. al and ah = c *. ah and bl = c *. bl and bh = c *. bh in
      let cached =
        Inter.pdf_dual ~cache t ~alpha_low:al ~alpha_high:ah ~beta_low:bl
          ~beta_high:bh
      in
      let fresh =
        Inter.pdf_dual t ~alpha_low:al ~alpha_high:ah ~beta_low:bl
          ~beta_high:bh
      in
      stats_close "cached vs fresh" cached fresh;
      true)

let test_hit_is_exact_rescale_of_same_direction () =
  (* Two calls along the same direction: the second is served by
     Pdf.scale from the first's kernel, and must still match its own
     from-scratch computation. *)
  let t = Lazy.force tables in
  let cache = Inter.cache_create t in
  let call ?cache c =
    Inter.pdf_dual ?cache t ~alpha_low:(3.0 *. c) ~alpha_high:(1.0 *. c)
      ~beta_low:(2.0 *. c) ~beta_high:(0.5 *. c)
  in
  ignore (call ~cache 1.0);
  let hit = call ~cache 7.25 in
  stats_close "hit vs fresh" hit (call 7.25);
  let st = Inter.cache_stats cache in
  check_int "lookups" 2 st.Inter.cs_lookups;
  check_int "distinct" 1 st.Inter.cs_distinct;
  check_int "hits" 1 st.Inter.cs_hits

let test_counters_distinguish_directions () =
  let t = Lazy.force tables in
  let cache = Inter.cache_create t in
  let call al bl = ignore (Inter.pdf_dual ~cache t ~alpha_low:al
                             ~alpha_high:0.0 ~beta_low:bl ~beta_high:0.0) in
  call 1.0 1.0;
  call 2.0 1.0;  (* different direction: alpha/beta ratio changed *)
  call 4.0 2.0;  (* scale of the 2.0 call: same direction *)
  let st = Inter.cache_stats cache in
  check_int "lookups" 3 st.Inter.cs_lookups;
  check_int "distinct" 2 st.Inter.cs_distinct;
  check_int "hits" 1 st.Inter.cs_hits

let test_cache_rejects_foreign_tables () =
  let t = Lazy.force tables in
  let other = Inter.tables fast_config in
  let cache = Inter.cache_create other in
  check_raises_invalid "foreign tables" (fun () ->
      ignore
        (Inter.pdf_dual ~cache t ~alpha_low:1.0 ~alpha_high:0.0 ~beta_low:1.0
           ~beta_high:0.0))

(* ---------------- Arena-backed kernel bit-identity ---------------- *)

let qcheck_arena_kernel_bit_identical =
  qcheck ~count:40 "inter kernel with arena == without, bitwise" coeff_gen
    (fun (al, ah, bl, bh) ->
      let t = Lazy.force tables in
      let arena = Ssta_prob.Arena.create () in
      let call ?arena () =
        Inter.pdf_dual ?arena t ~alpha_low:al ~alpha_high:ah ~beta_low:bl
          ~beta_high:bh
      in
      let plain = call () in
      let first = call ~arena () in
      (* second call recycles the released grid/column buffers *)
      let reused = call ~arena () in
      pdf_bits_equal plain first && pdf_bits_equal plain reused)

let test_arena_cached_bit_identical () =
  (* The arena must be invisible through the scale-covariant cache too:
     both the miss (kernel build) and the hit (O(Q) rescale) paths. *)
  let t = Lazy.force tables in
  let arena = Ssta_prob.Arena.create () in
  let run ?arena () =
    let cache = Inter.cache_create t in
    let miss =
      Inter.pdf_dual ~cache ?arena t ~alpha_low:3.0 ~alpha_high:1.0
        ~beta_low:2.0 ~beta_high:0.5
    in
    let hit =
      Inter.pdf_dual ~cache ?arena t ~alpha_low:6.0 ~alpha_high:2.0
        ~beta_low:4.0 ~beta_high:1.0
    in
    (miss, hit)
  in
  let miss_p, hit_p = run () in
  let miss_a, hit_a = run ~arena () in
  check_true "cache miss bit-identical" (pdf_bits_equal miss_p miss_a);
  check_true "cache hit bit-identical" (pdf_bits_equal hit_p hit_a)

(* ---------------- The inline floor and the frozen kernel ---------------- *)

let test_floor_int_edges () =
  let two62 = Float.ldexp 1.0 62 in
  let edges =
    [ 0.0; -0.0; 0.5; -0.5; 1.0; -1.0; 1.5; -1.5; 2.0 -. epsilon_float;
      -.(2.0 -. epsilon_float); Float.pred 1.0; -.Float.pred 1.0;
      Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
      Float.pred 0.5; -.Float.pred 0.5; 4503599627370495.5;
      -4503599627370495.5; 4503599627370496.0; -4503599627370497.0;
      Float.pred two62; -.Float.pred two62; 1e15 +. 0.25; -1e15 -. 0.25;
      Float.nan; -.Float.nan ]
  in
  List.iter
    (fun u ->
      check_int (Printf.sprintf "floor_int %h" u)
        (int_of_float (Float.floor u))
        (Ssta_prob.Combine.floor_int u))
    edges;
  let rng = Ssta_prob.Rng.create 5 in
  for _ = 1 to 10_000 do
    let u =
      Float.ldexp (Ssta_prob.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
        (Ssta_prob.Rng.int rng 62)
    in
    check_int (Printf.sprintf "floor_int %h" u)
      (int_of_float (Float.floor u))
      (Ssta_prob.Combine.floor_int u)
  done

(* Both inter-RV shapes that reach the kernel with distinct grids, at a
   small and the default inter quality. *)
let frozen_configs =
  lazy
    (List.map
       (fun (shape, q) ->
         let c =
           Config.with_inter_shape
             (Config.with_quality Config.default ~intra:40 ~inter:q)
             shape
         in
         (c, Inter.tables c, Inter_reference.tables c))
       [ (Ssta_prob.Shape.Gaussian, 16); (Ssta_prob.Shape.Gaussian, 50);
         (Ssta_prob.Shape.Triangular, 24) ])

let qcheck_kernel_matches_frozen =
  qcheck ~count:64 "inter kernel == frozen kernel, bitwise"
    QCheck.(pair coeff_gen (float_range 0.02 40.0))
    (fun ((al, ah, bl, bh), c) ->
      let al = c *. al and ah = c *. ah and bl = c *. bl and bh = c *. bh in
      List.for_all
        (fun (_, t, r) ->
          let arena = Ssta_prob.Arena.create () in
          let dual ?cache ?arena () =
            Inter.pdf_dual ?cache ?arena t ~alpha_low:al ~alpha_high:ah
              ~beta_low:bl ~beta_high:bh
          in
          let frozen =
            Inter_reference.compute r ~alpha_low:al ~alpha_high:ah
              ~beta_low:bl ~beta_high:bh
          in
          let frozen_cached =
            Inter_reference.pdf_dual_cached r ~alpha_low:al ~alpha_high:ah
              ~beta_low:bl ~beta_high:bh
          in
          let single = Inter.pdf t ~alpha_sum:(al +. ah) ~beta_sum:(bl +. bh) in
          let frozen_single =
            Inter_reference.compute r ~alpha_low:(al +. ah) ~alpha_high:0.0
              ~beta_low:(bl +. bh) ~beta_high:0.0
          in
          pdf_bits_equal frozen (dual ())
          && pdf_bits_equal frozen (dual ~arena ())
          && pdf_bits_equal frozen_cached (dual ~cache:(Inter.cache_create t) ())
          && pdf_bits_equal frozen_single single)
        (Lazy.force frozen_configs))

(* ---------------- A long-lived cache stays bounded ---------------- *)

let test_warm_cache_bounded () =
  let t = Lazy.force tables in
  let max_entries = 64 in
  let call cache i =
    (* alpha/beta ratio 1 + i/1000: every call a new direction *)
    ignore
      (Inter.pdf_dual ~cache t
         ~alpha_low:(1.0 +. (float_of_int i /. 1000.0))
         ~alpha_high:0.0 ~beta_low:1.0 ~beta_high:0.0)
  in
  let warm = Inter.cache_create ~max_entries ~distinct:false t in
  (* Each time the cache has just evicted everything and holds one
     kernel, it must hold exactly what it held the previous time: a
     structure that grows by direction would show here. *)
  let words_at_one_kernel = ref None in
  for i = 1 to 2_000 do
    call warm i;
    let st = Inter.cache_stats warm in
    if st.Inter.cs_entries > max_entries then
      Alcotest.failf "after %d directions the warm cache holds %d kernels" i
        st.Inter.cs_entries;
    if st.Inter.cs_entries = 1 then begin
      let words = Obj.reachable_words (Obj.repr warm) in
      match !words_at_one_kernel with
      | None -> words_at_one_kernel := Some words
      | Some w ->
          if words <> w then
            Alcotest.failf
              "after %d directions the warm cache holds %d words, %d before" i
              words w
    end
  done;
  let st = Inter.cache_stats warm in
  check_int "lookups" 2_000 st.Inter.cs_lookups;
  check_int "every direction built" 2_000 st.Inter.cs_builds;
  check_int "distinct counts builds" 2_000 st.Inter.cs_distinct;
  check_int "no hits" 0 st.Inter.cs_hits;
  call warm 2_000;
  check_int "a resident kernel answers" 1 (Inter.cache_stats warm).Inter.cs_hits;
  (* A per-run cache keeps its exact distinct count past eviction. *)
  let per_run = Inter.cache_create ~max_entries t in
  for i = 1 to 200 do
    call per_run i;
    call per_run i
  done;
  let st = Inter.cache_stats per_run in
  check_int "per-run distinct is exact" 200 st.Inter.cs_distinct;
  check_int "per-run hits" 200 st.Inter.cs_hits

(* ---------------- Whole-flow A/B and parallel determinism ---------------- *)

let quick_config = { fast_config with Config.max_paths = 100 }

let report ?(jobs = 1) config circuit =
  Pool.with_pool ~jobs (fun pool ->
      Report.json_report (Methodology.run ~config ~pool circuit))

(* Split a JSON report into string/number/punctuation tokens so the A/B
   comparison can hold structure and text exactly while giving numbers a
   relative tolerance (reports print floats at full precision, so the
   cache's ~1e-12 quantization perturbation is visible in the bytes). *)
type tok = Text of string | Num of float

let tokenize s =
  let is_num c =
    (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e'
    || c = 'E'
  in
  let toks = ref [] and i = ref 0 and len = String.length s in
  while !i < len do
    if s.[!i] = '"' then begin
      let j = ref (!i + 1) in
      while !j < len && s.[!j] <> '"' do incr j done;
      toks := Text (String.sub s !i (!j - !i + 1)) :: !toks;
      i := !j + 1
    end
    else if is_num s.[!i] then begin
      let j = ref !i in
      while !j < len && is_num s.[!j] do incr j done;
      let word = String.sub s !i (!j - !i) in
      (* "e" inside barewords like true/false is not a number *)
      (toks :=
         match float_of_string_opt word with
         | Some f -> Num f :: !toks
         | None -> Text word :: !toks);
      i := !j
    end
    else begin
      toks := Text (String.make 1 s.[!i]) :: !toks;
      incr i
    end
  done;
  List.rev !toks

(* Drop the health counters object: the cache ledger is only present
   when the cache is on, and is not part of the statistical results the
   A/B comparison is about. *)
let drop_counters s =
  let marker = "\"counters\":{" in
  match
    let m = String.length marker in
    let rec find i =
      if i + m > String.length s then None
      else if String.sub s i m = marker then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> s
  | Some i ->
      let j = ref (i + String.length marker) in
      while s.[!j] <> '}' do incr j done;
      String.sub s 0 i ^ String.sub s (!j + 1) (String.length s - !j - 1)

let test_cache_on_off_reports_equal () =
  let circuit = small_random () in
  let drop_flag s =
    List.fold_left
      (fun s sub ->
        let n = String.length sub in
        let rec find i =
          if i + n > String.length s then s
          else if String.sub s i n = sub then
            String.sub s 0 i ^ String.sub s (i + n) (String.length s - i - n)
          else find (i + 1)
        in
        find 0)
      s
      [ "\"inter_cache\":true"; "\"inter_cache\":false" ]
  in
  let toks inter_cache =
    tokenize
      (drop_flag
         (drop_counters (report { quick_config with Config.inter_cache } circuit)))
  in
  let rec cmp = function
    | [], [] -> ()
    | Text x :: a, Text y :: b when String.equal x y -> cmp (a, b)
    | Num x :: a, Num y :: b when rel x y <= 1e-9 -> cmp (a, b)
    | Num x :: _, Num y :: _ ->
        Alcotest.failf "number diverges: %.17g vs %.17g (rel %.3g)" x y
          (rel x y)
    | _ -> Alcotest.fail "reports differ structurally"
  in
  cmp (toks true, toks false)

let test_cache_on_off_stats_within_tol () =
  let circuit = small_adder () in
  let run inter_cache =
    Methodology.run ~config:{ quick_config with Config.inter_cache } circuit
  in
  let m_on = run true and m_off = run false in
  check_int "same path count"
    (Array.length m_on.Methodology.ranked)
    (Array.length m_off.Methodology.ranked);
  let by_det = Hashtbl.create 64 in
  Array.iter
    (fun (r : Ranking.ranked) ->
      Hashtbl.replace by_det r.Ranking.det_rank r.Ranking.analysis)
    m_off.Methodology.ranked;
  Array.iter
    (fun (r : Ranking.ranked) ->
      let a = r.Ranking.analysis in
      match Hashtbl.find_opt by_det r.Ranking.det_rank with
      | None -> Alcotest.fail "path sets differ"
      | Some f ->
          List.iter
            (fun (what, x, y) ->
              if rel x y > 1e-9 then
                Alcotest.failf "%s diverges: rel %.3g" what (rel x y))
            [ ("mean", a.Path_analysis.mean, f.Path_analysis.mean);
              ("std", a.Path_analysis.std, f.Path_analysis.std);
              ("confidence_point", a.Path_analysis.confidence_point,
               f.Path_analysis.confidence_point) ])
    m_on.Methodology.ranked

let test_cached_jobs_byte_identical () =
  let config = { quick_config with Config.inter_cache = true } in
  let circuit = small_random () in
  check_true "jobs 1 == jobs 4 with cache on"
    (String.equal (report ~jobs:1 config circuit)
       (report ~jobs:4 config circuit))

let test_run_surfaces_cache_counters () =
  let m =
    Methodology.run
      ~config:{ quick_config with Config.inter_cache = true }
      (small_adder ())
  in
  let c n = Ssta_runtime.Health.counter m.Methodology.health n in
  let lookups = c "inter-cache-lookups" in
  let distinct = c "inter-cache-distinct" in
  let hits = c "inter-cache-hits" in
  (* The path memo asks the kernel once per statistically distinct
     path; every analysis still goes through the memo. *)
  check_int "one lookup per distinct memo key" (c "path-memo-distinct")
    lookups;
  check_int "one memo lookup per analyzed path"
    (Array.length m.Methodology.ranked)
    (c "path-memo-lookups");
  check_int "hits = lookups - distinct" (lookups - distinct) hits;
  check_true "distinct positive" (distinct > 0)

let test_disabled_cache_reports_no_counters () =
  let m =
    Methodology.run
      ~config:{ quick_config with Config.inter_cache = false }
      (small_adder ())
  in
  check_int "no lookups counter" 0
    (Ssta_runtime.Health.counter m.Methodology.health "inter-cache-lookups")

let suite =
  ( "inter-cache",
    [ qcheck_moments_bit_identical;
      qcheck_cached_matches_uncached;
      case "cache hit is an exact rescale" test_hit_is_exact_rescale_of_same_direction;
      case "counters distinguish directions" test_counters_distinguish_directions;
      case "cache rejects foreign tables" test_cache_rejects_foreign_tables;
      case "floor_int = int_of_float (Float.floor u) on edge values"
        test_floor_int_edges;
      qcheck_kernel_matches_frozen;
      case "a warm cache retains at most max_entries keys"
        test_warm_cache_bounded;
      qcheck_arena_kernel_bit_identical;
      case "arena invisible through the cache" test_arena_cached_bit_identical;
      case "cache on/off reports equal modulo flag" test_cache_on_off_reports_equal;
      case "cache on/off stats within 1e-9" test_cache_on_off_stats_within_tol;
      slow_case "cached run byte-identical at jobs 1 and 4"
        test_cached_jobs_byte_identical;
      case "run surfaces cache counters" test_run_surfaces_cache_counters;
      case "disabled cache leaves no counters" test_disabled_cache_reports_no_counters ] )
