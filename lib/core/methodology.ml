module Sta = Ssta_timing.Sta
module Paths = Ssta_timing.Paths
module Placement = Ssta_circuit.Placement
module Netlist = Ssta_circuit.Netlist
module Rbudget = Ssta_runtime.Budget
module Health = Ssta_runtime.Health
module Err = Ssta_runtime.Ssta_error
module Pool = Ssta_parallel.Pool

type status = Complete | Degraded of Rbudget.degradation list

type t = {
  circuit_name : string;
  num_gates : int;
  config : Config.t;
  sta : Sta.t;
  sigma_c : float;
  slack : float;
  truncated : bool;
  ranked : Ranking.ranked array;
  det_critical : Path_analysis.t;
  prob_critical : Ranking.ranked;
  runtime_s : float;
  status : status;
  health : Health.t;
}

let is_degraded t = match t.status with Complete -> false | Degraded _ -> true

let degradations t =
  match t.status with Complete -> [] | Degraded ds -> ds

let analysis_config config budget =
  match
    Rbudget.clamp_quality budget ~intra:config.Config.quality_intra
      ~inter:config.Config.quality_inter
  with
  | None -> config
  | Some (qi, qe) -> Config.with_quality config ~intra:qi ~inter:qe

let run_tracked ~config ~tracker ?placement ?wire ?wire_caps ?pool ?screen
    ?sta ?warm ?gates ?reuse ?record circuit =
  let started = Unix.gettimeofday () in
  let budget = Rbudget.limits tracker in
  let degradations = ref [] in
  let degrade d = degradations := d :: !degradations in
  let placement =
    match placement with Some pl -> pl | None -> Placement.place circuit
  in
  let sta =
    match sta, wire, wire_caps with
    | Some _, Some _, _ | Some _, _, Some _ ->
        invalid_arg "Methodology.run: sta excludes wire and wire_caps"
    | Some sta, None, None -> sta
    | None, Some _, Some _ ->
        invalid_arg "Methodology.run: wire and wire_caps are exclusive"
    | None, None, None -> Sta.analyze circuit
    | None, Some wire, None -> Sta.analyze_placed ~wire circuit placement
    | None, None, Some caps ->
        Sta.of_graph (Ssta_timing.Graph.with_wire_caps circuit caps)
  in
  (* Degrade the PDF resolution first: a cell cap trades accuracy for
     memory/time without dropping any path. *)
  let config =
    let clamped = analysis_config config budget in
    let qi = clamped.Config.quality_intra
    and qe = clamped.Config.quality_inter in
    if qi <> config.Config.quality_intra then
      degrade
        (Rbudget.Tightened
           { parameter = "quality-intra";
             from_ = float_of_int config.Config.quality_intra;
             to_ = float_of_int qi });
    if qe <> config.Config.quality_inter then
      degrade
        (Rbudget.Tightened
           { parameter = "quality-inter";
             from_ = float_of_int config.Config.quality_inter;
             to_ = float_of_int qe });
    clamped
  in
  let health = Health.create () in
  let ctx =
    Path_analysis.context ~health ?warm ?gates config sta.Sta.graph placement
  in
  (* Step 3: sigma_C from the deterministic critical path.  The path
     gets a private ledger merged back immediately — Health.merge
     replays events in order, so this is byte-identical to recording
     into the run ledger directly, and it gives the reuse/record hooks
     (incremental re-analysis, Ssta_check.Impact) a ledger that covers
     exactly this path's events. *)
  let consult_reuse p = match reuse with None -> None | Some f -> f p in
  let det_ledger = Health.create () in
  let det_critical, det_reused =
    match consult_reuse sta.Sta.critical_path with
    | Some (pa, cached) ->
        Health.merge ~into:det_ledger cached;
        (pa, true)
    | None ->
        (Path_analysis.analyze ~health:det_ledger ctx sta.Sta.critical_path,
         false)
  in
  Health.merge ~into:health det_ledger;
  (match record with
  | Some f when not det_reused -> f sta.Sta.critical_path det_critical det_ledger
  | _ -> ());
  let sigma_c = det_critical.Path_analysis.std in
  let slack = config.Config.confidence *. sigma_c in
  (* Step 4: all near-critical paths, deterministically ranked.  The
     budget clamps the enumeration cap and imposes the deadline. *)
  let max_paths = Rbudget.effective_max_paths budget config.Config.max_paths in
  let should_stop = Rbudget.stop_check tracker in
  (* Optional static screen (the affine suffix bound): the hook prunes
     only provably sub-threshold subtrees, so the enumeration record is
     byte-identical with or without it; the counters it reports are a
     pure function of graph + config + slack, keeping --jobs
     determinism. *)
  let prune, screen_counters =
    match screen with
    | None -> ((fun _ -> false), [])
    | Some f -> f ~sta ~slack
  in
  let enumeration =
    Sta.near_critical ~max_paths ~should_stop ~prune sta ~slack
  in
  let num_enumerated = List.length enumeration.Paths.paths in
  if enumeration.Paths.deadline_hit then
    degrade
      (Rbudget.Deadline_hit
         { phase = "enumeration";
           detail =
             Printf.sprintf "stopped after %d paths (%d candidates explored)"
               num_enumerated enumeration.Paths.explored });
  if enumeration.Paths.truncated && max_paths < config.Config.max_paths then
    degrade
      (Rbudget.Capped
         { resource = "paths";
           kept = num_enumerated;
           detail =
             Printf.sprintf "budget capped enumeration at %d paths" max_paths });
  (* Step 5: statistical analysis of each, then confidence ranking.
     Each path is analyzed on its own (Eqs. 13-14), so the paths fan out
     one per claim over the pool — a jobs=1 pool running inline when
     none is given.  Each path gets a private health ledger, merged back
     in path order, so the ledger — like every analysis — is identical
     at any worker count.  The deadline is polled before each path: a
     late breach keeps the contiguous analyzed prefix. *)
  let paths_arr = Array.of_list enumeration.Paths.paths in
  let ledgers = Array.map (fun _ -> Health.create ()) paths_arr in
  let det_nodes = det_critical.Path_analysis.path.Paths.nodes in
  (* The reuse hook is consulted for every path here, on the caller's
     thread, before the fan-out: the hook (typically a cache lookup) is
     never invoked from a worker domain, so it needs no synchronization.
     A hit pre-merges the cached ledger — identical events to a fresh
     analysis, since Path_analysis.analyze is deterministic. *)
  let reused =
    match reuse with
    | None -> [||]
    | Some f ->
        Array.mapi
          (fun i p ->
            if p.Paths.nodes = det_nodes then None
            else
              match f p with
              | Some (pa, cached) ->
                  Health.merge ~into:ledgers.(i) cached;
                  Some pa
              | None -> None)
          paths_arr
  in
  let analyze_one i =
    let p = paths_arr.(i) in
    if p.Paths.nodes = det_nodes then det_critical
    else
      match if reused = [||] then None else reused.(i) with
      | Some pa -> pa
      | None -> Path_analysis.analyze ~health:ledgers.(i) ctx p
  in
  let prefix, stopped =
    let pool =
      match pool with Some p -> p | None -> Pool.create ~jobs:1 ()
    in
    Pool.map_prefix pool ~chunk:1
      ~should_stop:(fun () -> Rbudget.stopped tracker)
      analyze_one
      (Array.init (Array.length paths_arr) Fun.id)
  in
  Array.iteri (fun i _ -> Health.merge ~into:health ledgers.(i)) prefix;
  (* Record freshly analyzed paths (again on the caller's thread).  The
     deterministic critical path was recorded above with its own
     ledger; its copies in the enumeration carry empty ledgers and are
     skipped so they never overwrite that entry. *)
  (match record with
  | None -> ()
  | Some f ->
      Array.iteri
        (fun i pa ->
          let p = paths_arr.(i) in
          let was_reused = reused <> [||] && Option.is_some reused.(i) in
          if (not was_reused) && p.Paths.nodes <> det_nodes then
            f p pa ledgers.(i))
        prefix);
  (* Surface the inter-kernel cache traffic through the ledger.  Only the
     scheduling-independent counters go in (lookups, distinct directions,
     and their difference — the hits a shared cache would serve), so the
     report stays byte-identical across --jobs.  A cache borrowed from a
     warm state is skipped entirely: its statistics span every request it
     ever served, so they belong to the warm-state owner's lifetime
     ledger, not this run's deterministic report. *)
  (if not (Path_analysis.cache_shared ctx) then
     match Path_analysis.cache_stats ctx with
     | None -> ()
     | Some st ->
         Health.counter_set health "inter-cache-lookups" st.Inter.cs_lookups;
         Health.counter_set health "inter-cache-distinct" st.Inter.cs_distinct;
         Health.counter_set health "inter-cache-hits" st.Inter.cs_hits);
  (* Scratch-arena and path-memo traffic.  All five counters are
     scheduling-independent: size classes are a set union, borrowed
     bytes a per-key sum, the arena peak equals the sequential per-key
     maximum because arenas drain between analyses, memo lookups count
     [analyze] calls and memo entries count distinct keys, each computed
     exactly once.  They do depend on which paths this run analyzed
     itself, so — like the inter-cache counters under a shared cache —
     they are skipped when a warm state or a reuse hook lets the run
     splice in work done elsewhere (incremental re-analysis must stay
     byte-identical to a warm from-scratch run). *)
  if Option.is_none warm && Option.is_none reuse then begin
    let st = Path_analysis.arena_stats ctx in
    if st.Ssta_prob.Arena.st_borrow_bytes > 0 then begin
      Health.counter_set health "arena-buffers-created"
        (Ssta_prob.Arena.buffers_created st);
      Health.counter_set health "arena-bytes-reused"
        (Ssta_prob.Arena.bytes_reused st);
      Health.counter_set health "arena-peak-bytes"
        st.Ssta_prob.Arena.st_peak_bytes
    end;
    let memo = Path_analysis.memo_stats ctx in
    Health.counter_set health "path-memo-lookups"
      memo.Path_analysis.memo_lookups;
    Health.counter_set health "path-memo-distinct"
      memo.Path_analysis.memo_distinct
  end;
  List.iter (fun (k, v) -> Health.counter_set health k v) screen_counters;
  if stopped then
    degrade
      (Rbudget.Deadline_hit
         { phase = "path-analysis";
           detail =
             Printf.sprintf "analyzed %d of %d enumerated paths"
               (Array.length prefix) num_enumerated });
  let analyses =
    match Array.to_list prefix with [] -> [ det_critical ] | l -> l
  in
  (* When paths were dropped, the run effectively used a smaller
     confidence C: report the value actually covered by the kept set. *)
  let dropped_paths =
    List.exists
      (function
        | Rbudget.Deadline_hit _ | Rbudget.Capped _ -> true
        | Rbudget.Tightened _ -> false)
      !degradations
  in
  if dropped_paths && sigma_c > 0.0 then begin
    let last = List.nth analyses (List.length analyses - 1) in
    let covered =
      (sta.Sta.critical_delay -. last.Path_analysis.det_delay) /. sigma_c
    in
    let c_eff = Float.max 0.0 (Float.min config.Config.confidence covered) in
    if c_eff < config.Config.confidence then
      degrade
        (Rbudget.Tightened
           { parameter = "confidence";
             from_ = config.Config.confidence;
             to_ = c_eff })
  end;
  let ranked = Ranking.rank analyses in
  let prob_critical = Ranking.probabilistic_critical ranked in
  let status =
    match List.rev !degradations with [] -> Complete | ds -> Degraded ds
  in
  { circuit_name = circuit.Netlist.name;
    num_gates = Netlist.num_gates circuit;
    config;
    sta;
    sigma_c;
    slack;
    truncated = enumeration.Paths.truncated || enumeration.Paths.deadline_hit;
    ranked;
    det_critical;
    prob_critical;
    runtime_s = Unix.gettimeofday () -. started;
    status;
    health }

let run ?(config = Config.default) ?placement ?wire ?wire_caps ?pool ?screen
    circuit =
  run_tracked ~config
    ~tracker:(Rbudget.start Rbudget.unlimited)
    ?placement ?wire ?wire_caps ?pool ?screen circuit

let analyze ?(config = Config.default) ?(budget = Rbudget.unlimited)
    ?cancelled ?placement ?wire ?wire_caps ?pool ?screen ?sta ?warm ?gates
    ?reuse ?record circuit =
  match Rbudget.validate budget with
  | Error e -> Error e
  | Ok () ->
      Err.protect ~context:"Methodology.analyze" (fun () ->
          run_tracked ~config
            ~tracker:(Rbudget.start ?cancelled budget)
            ?placement ?wire ?wire_caps ?pool ?screen ?sta ?warm ?gates
            ?reuse ?record circuit)

let num_critical_paths t = Array.length t.ranked

let overestimation_pct t =
  let worst = t.det_critical.Path_analysis.worst_case in
  let cp =
    t.prob_critical.Ranking.analysis.Path_analysis.confidence_point
  in
  if cp <= 0.0 then 0.0 else (worst -. cp) /. cp *. 100.0

let find_rank t ~prob_rank =
  if prob_rank < 1 || prob_rank > Array.length t.ranked then
    invalid_arg "Methodology.find_rank: rank out of range";
  t.ranked.(prob_rank - 1)
