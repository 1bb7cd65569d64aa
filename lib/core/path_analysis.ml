module Pdf = Ssta_prob.Pdf
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Layers = Ssta_correlation.Layers
module Path_coeffs = Ssta_correlation.Path_coeffs
module Gate_table = Ssta_correlation.Gate_table
module Guard = Ssta_runtime.Guard
module Health = Ssta_runtime.Health

type t = {
  path : Paths.path;
  gate_count : int;
  coeffs : Path_coeffs.t;
  intra_pdf : Pdf.t;
  inter_pdf : Pdf.t;
  total_pdf : Pdf.t;
  det_delay : float;
  mean : float;
  std : float;
  intra_sigma : float;
  inter_sigma : float;
  confidence_point : float;
  worst_case : float;
}

(* Per-domain mutable scratch for the zero-allocation kernels: one
   arena (grid buffers) per worker domain, lazily created under a lock —
   the same sharding discipline as the inter-kernel cache.  Scratch
   contents never outlive one [analyze] call, so shard layout cannot
   affect results. *)
type domain_states = {
  mutable ds_shards : (int * Ssta_prob.Arena.t) list;
  ds_lock : Mutex.t;
}

let domain_states_create () = { ds_shards = []; ds_lock = Mutex.create () }

let domain_states_get d =
  let id = (Domain.self () :> int) in
  Mutex.protect d.ds_lock (fun () ->
      match List.assoc_opt id d.ds_shards with
      | Some s -> s
      | None ->
          let s = Ssta_prob.Arena.create () in
          d.ds_shards <- (id, s) :: d.ds_shards;
          s)

let domain_states_arena_stats d =
  Mutex.protect d.ds_lock (fun () ->
      Ssta_prob.Arena.merged_stats
        (List.map (fun (_, a) -> Ssta_prob.Arena.stats a) d.ds_shards))

(* One analysis per statistically distinct path.  A path's three PDFs
   are a function of exactly three floats — the Eq. 5 sums A and B
   (through the inter kernel) and the Eq. 14 intra variance — given the
   context's fixed config, inter tables and kernel cache (whose answers
   are a pure function of the call's coefficients).  Keying on their bit
   patterns therefore makes a hit return the very values a fresh
   computation would.  The entry keeps the [Guard] events of the
   analysis that computed it; every use replays them into the caller's
   ledger, so ledgers do not depend on which path missed.  Misses are
   computed under the lock, so exactly one analysis runs per key at any
   worker count and the counters are scheduling-independent. *)
type shared = {
  s_intra : Pdf.t;
  s_inter : Pdf.t;
  s_total : Pdf.t;
  s_mean : float;
  s_std : float;
  s_intra_sigma : float;
  s_inter_sigma : float;
  s_health : Health.t;  (* the computing analysis's Guard events *)
}

type memo = {
  entries : (int64 * int64 * int64, shared) Hashtbl.t;
  mutable lookups : int;
  memo_lock : Mutex.t;
}

type memo_stats = { memo_lookups : int; memo_distinct : int }

type context = {
  config : Config.t;
  graph : Graph.t;
  placement : Ssta_circuit.Placement.t;
  layers : Layers.t;
  tables : Inter.tables;
  health : Health.t;
  caches : Inter.caches option;  (* per-domain kernel cache shards *)
  cache_shared : bool;  (* caches owned by a longer-lived warm state *)
  domains : domain_states;  (* per-domain arena shards *)
  memo : memo;
  gates : Gate_table.t option Atomic.t;
      (* the caller's table, or one built on the first [analyze] *)
}

type warm = {
  w_config : Config.t;
  w_tables : Inter.tables;
  w_caches : Inter.caches option;
}

(* The inter tables read exactly these configuration fields (grid
   resolution, RV shape, truncation, layer-0 variance share); two
   configs agreeing on them may share tables and kernel caches. *)
let warm_compatible w config =
  let a = w.w_config and b = config in
  a.Config.quality_inter = b.Config.quality_inter
  && a.Config.inter_shape = b.Config.inter_shape
  && a.Config.truncation = b.Config.truncation
  && a.Config.budget = b.Config.budget

let warm config =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Path_analysis.warm: " ^ msg));
  let tables = Inter.tables config in
  { w_config = config;
    w_tables = tables;
    w_caches =
      (if config.Config.inter_cache then
         Some (Inter.caches_create ~distinct:false tables)
       else None) }

let warm_cache_stats w = Option.map Inter.caches_stats w.w_caches

let context ?health ?warm ?gates config graph placement =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Path_analysis.context: " ^ msg));
  let layers = Config.layers_for config placement in
  (match gates with
  | Some tb
    when not
           (Gate_table.fits tb graph placement layers
              ~corner_k:config.Config.corner_k) ->
      invalid_arg
        "Path_analysis.context: gate table built for another graph, \
         placement, layering or corner"
  | _ -> ());
  let health =
    match health with Some h -> h | None -> Health.create ()
  in
  let warm =
    match warm with
    | Some w when not (warm_compatible w config) ->
        invalid_arg
          "Path_analysis.context: warm state built for an incompatible \
           configuration (quality-inter/shape/truncation/budget differ)"
    | w -> w
  in
  let tables =
    match warm with Some w -> w.w_tables | None -> Inter.tables config
  in
  let caches, cache_shared =
    if not config.Config.inter_cache then (None, false)
    else
      match warm with
      | Some { w_caches = Some c; _ } -> (Some c, true)
      | _ -> (Some (Inter.caches_create tables), false)
  in
  { config;
    graph;
    placement;
    layers;
    tables;
    health;
    caches;
    cache_shared;
    domains = domain_states_create ();
    memo =
      { entries = Hashtbl.create 16;
        lookups = 0;
        memo_lock = Mutex.create () };
    gates = Atomic.make gates }

(* A race on the first call only repeats deterministic work; the
   compare-and-set keeps one table. *)
let rec gates ctx =
  match Atomic.get ctx.gates with
  | Some tb -> tb
  | None ->
      let tb =
        Gate_table.build ctx.graph ctx.placement ctx.layers
          ~corner_k:ctx.config.Config.corner_k
      in
      ignore (Atomic.compare_and_set ctx.gates None (Some tb));
      gates ctx

let health ctx = ctx.health
let grads ctx = Graph.grads ctx.graph

let cache_stats ctx = Option.map Inter.caches_stats ctx.caches
let cache_shared ctx = ctx.cache_shared
let arena_stats ctx = domain_states_arena_stats ctx.domains

let memo_stats ctx =
  Mutex.protect ctx.memo.memo_lock (fun () ->
      { memo_lookups = ctx.memo.lookups;
        memo_distinct = Hashtbl.length ctx.memo.entries })

(* The PDFs and their scalars for one memo key, with the Guard events in
   a private ledger.  A raise leaves its partial events in [health], as
   a direct analysis would. *)
let compute_shared ctx ~health ~arena coeffs intra_var =
  let cache = Option.map Inter.caches_get ctx.caches in
  let h = Health.create () in
  match
    let intra_pdf =
      Guard.check h ~op:"intra pdf" (Intra.pdf_of_variance ctx.config intra_var)
    in
    let inter_pdf =
      Guard.check h ~op:"inter pdf"
        (Inter.of_coeffs ?cache ~arena ctx.tables coeffs)
    in
    let total_pdf =
      Guard.sum ~n:ctx.config.Config.quality_intra ~arena h inter_pdf intra_pdf
    in
    let m = Pdf.moments total_pdf in
    { s_intra = intra_pdf;
      s_inter = inter_pdf;
      s_total = total_pdf;
      s_mean = m.Pdf.m_mean;
      s_std = sqrt m.Pdf.m_var;
      s_intra_sigma = Pdf.std intra_pdf;
      s_inter_sigma = Pdf.std inter_pdf;
      s_health = h }
  with
  | s -> s
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Health.merge ~into:health h;
      Printexc.raise_with_backtrace e bt

let analyze ?health ctx path =
  (* [health] overrides the context ledger so parallel callers can give
     each path a private ledger and merge them back in a fixed order. *)
  let health = match health with Some h -> h | None -> ctx.health in
  (* The arena and kernel-cache shard lookups take their own leaf locks
     and never the memo lock, so fetching the cache shard inside a miss
     cannot deadlock. *)
  let arena = domain_states_get ctx.domains in
  let tb = gates ctx in
  let coeffs, worst_case = Path_coeffs.of_table tb path in
  let intra_var = Intra.variance ctx.config coeffs in
  let key =
    ( Int64.bits_of_float coeffs.Path_coeffs.alpha_sum,
      Int64.bits_of_float coeffs.Path_coeffs.beta_sum,
      Int64.bits_of_float intra_var )
  in
  let s =
    Mutex.protect ctx.memo.memo_lock (fun () ->
        ctx.memo.lookups <- ctx.memo.lookups + 1;
        match Hashtbl.find_opt ctx.memo.entries key with
        | Some s -> s
        | None ->
            let s = compute_shared ctx ~health ~arena coeffs intra_var in
            Hashtbl.add ctx.memo.entries key s;
            s)
  in
  Health.merge ~into:health s.s_health;
  if coeffs.Path_coeffs.gate_count > 0 then Gate_table.check_corner tb;
  { path;
    gate_count = coeffs.Path_coeffs.gate_count;
    coeffs;
    intra_pdf = s.s_intra;
    inter_pdf = s.s_inter;
    total_pdf = s.s_total;
    det_delay = path.Paths.delay;
    mean = s.s_mean;
    std = s.s_std;
    intra_sigma = s.s_intra_sigma;
    inter_sigma = s.s_inter_sigma;
    confidence_point =
      s.s_mean +. (ctx.config.Config.confidence_sigma *. s.s_std);
    worst_case }

let overestimation_pct t =
  if t.confidence_point <= 0.0 then 0.0
  else (t.worst_case -. t.confidence_point) /. t.confidence_point *. 100.0
