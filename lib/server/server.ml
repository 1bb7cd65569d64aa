module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Sta = Ssta_timing.Sta
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Path_analysis = Ssta_core.Path_analysis
module Path_cache = Ssta_core.Path_cache
module Ranking = Ssta_core.Ranking
module Report = Ssta_core.Report
module Inter = Ssta_core.Inter
module Gate_table = Ssta_correlation.Gate_table
module Block_engine = Ssta_block.Engine
module Checker = Ssta_check.Checker
module Affine = Ssta_check.Affine
module Impact = Ssta_check.Impact
module Edit = Ssta_circuit.Edit
module D = Ssta_lint.Diagnostic
module Lint = Ssta_lint.Engine
module Err = Ssta_runtime.Ssta_error
module Rbudget = Ssta_runtime.Budget
module Health = Ssta_runtime.Health
module Backoff = Ssta_runtime.Backoff
module Cancel = Ssta_runtime.Cancel
module Pool = Ssta_parallel.Pool
module Pdf = Ssta_prob.Pdf

type t = {
  base_config : Config.t;
  pool : Pool.t option;
  default_deadline_s : float option;
  retry_degraded : bool;
  backoff : Backoff.t;
  cancel : Cancel.t;
  reload : unit -> (Netlist.t * Placement.t, Err.t) result;
  mutable circuit : Netlist.t;
  mutable placement : Placement.t;
  mutable sta : Sta.t;
  mutable warm : Path_analysis.warm option;
  mutable gates : Gate_table.t option;
      (* the served image's gate table, built on first use, taken from
         the impact state on every committed edit, dropped on reload *)
  paths : Path_cache.t;
      (* the last path-engine run's analyses, bound to the gate table
         and analysis configuration they were computed under; dropped
         on every committed edit and reload *)
  mutable impact : Impact.state option;
      (* warm incremental image for edit/what-if, built lazily on first
         use, dropped on reload *)
  lifetime : Health.t;
}

let create ?(config = Config.default) ?pool ?default_deadline_s
    ?(retry_degraded = false) ?(backoff = Backoff.none) ?cancel ~reload
    circuit placement =
  let cancel = match cancel with Some c -> c | None -> Cancel.create () in
  let lifetime = Health.create () in
  { base_config = config;
    pool;
    default_deadline_s;
    retry_degraded;
    backoff;
    cancel;
    reload;
    circuit;
    placement;
    sta = Sta.analyze circuit;
    warm = None;
    gates = None;
    paths = Path_cache.create ~ledger:lifetime ();
    impact = None;
    lifetime }

let lifetime t = t.lifetime
let count t name = Health.counter_add t.lifetime name 1

(* The warm slot holds the table/cache pair of the most recent effective
   configuration; a request with table-compatible settings reuses it
   (the common steady state), anything else rebuilds and replaces. *)
let get_warm t cfg =
  match t.warm with
  | Some w when Path_analysis.warm_compatible w cfg -> w
  | _ ->
      let w = Path_analysis.warm cfg in
      t.warm <- Some w;
      w

(* The served image's gate table for a configuration: kept while it
   fits the image and the configuration's layering and corner, so a
   warm run or query builds none. *)
let get_gates t cfg =
  let layers = Config.layers_for cfg t.placement in
  let corner_k = cfg.Config.corner_k in
  match t.gates with
  | Some tb when Gate_table.fits tb t.sta.Sta.graph t.placement layers ~corner_k
    ->
      tb
  | _ ->
      let tb = Gate_table.build t.sta.Sta.graph t.placement layers ~corner_k in
      t.gates <- Some tb;
      tb

let cancelled_hook t () = Cancel.cancelled t.cancel

(* --- request parameter application ----------------------------------- *)

let effective_config t (p : Protocol.run_params) =
  let c = t.base_config in
  let c =
    match p.Protocol.p_quality_intra, p.Protocol.p_quality_inter with
    | None, None -> c
    | qi, qe ->
        Config.with_quality c
          ~intra:(Option.value ~default:c.Config.quality_intra qi)
          ~inter:(Option.value ~default:c.Config.quality_inter qe)
  in
  let c =
    match p.Protocol.p_confidence with
    | None -> c
    | Some v -> Config.with_confidence c v
  in
  let c =
    match p.Protocol.p_max_paths with
    | None -> c
    | Some mp -> { c with Config.max_paths = mp }
  in
  let c =
    match p.Protocol.p_engine with
    | None -> c
    | Some e -> { c with Config.engine = e }
  in
  match p.Protocol.p_max_policy with
  | None -> c
  | Some mp -> { c with Config.block_max = mp }

let budget_of t (p : Protocol.run_params) =
  let deadline_s =
    match p.Protocol.p_deadline_s with
    | Some d -> Some d
    | None -> t.default_deadline_s
  in
  Rbudget.make ?deadline_s ?max_cells:p.Protocol.p_max_cells ()

(* --- helpers ---------------------------------------------------------- *)

let deadline_degraded m =
  List.exists
    (function Rbudget.Deadline_hit _ -> true | _ -> false)
    (Methodology.degradations m)

let degradation_strings m =
  Json.List
    (List.map
       (fun d ->
         Json.String (Format.asprintf "%a" Rbudget.pp_degradation d))
       (Methodology.degradations m))

let run_status m =
  if Methodology.is_degraded m then Protocol.Degraded else Protocol.Ok_

(* --- operations ------------------------------------------------------- *)

(* A path's analysis depends only on the path, the gate table and the
   analysis fields of the configuration, so a run reuses every path the
   previous run under the same table and fields analyzed; the cache
   then holds this run's analyses.  The budget's cell cap may lower
   both PDF resolutions, so the warm tables and the cache binding follow
   the clamped configuration. *)
let analyze_once t cfg budget =
  let acfg = Methodology.analysis_config cfg budget in
  let gates = get_gates t cfg in
  Path_cache.with_run t.paths ~gates acfg (fun ~reuse ~record ->
      Methodology.analyze ~config:cfg ~budget
        ~cancelled:(cancelled_hook t)
        ~placement:t.placement ?pool:t.pool ~sta:t.sta ~warm:(get_warm t acfg)
        ~gates ~reuse ~record t.circuit)

(* Retry with degradation: a deadline-degraded run is re-run once at
   halved PDF quality with no deadline — a complete low-resolution
   answer instead of a truncated high-resolution one.  The pacing delay
   comes from the deterministic backoff schedule. *)
let maybe_retry t (p : Protocol.run_params) cfg m =
  let wanted =
    Option.value ~default:t.retry_degraded p.Protocol.p_retry
  in
  if not (wanted && deadline_degraded m) then (m, false)
  else begin
    count t "retries";
    (match Backoff.delay_s t.backoff ~attempt:1 with
    | Some d when d > 0.0 -> Unix.sleepf d
    | _ -> ());
    let cfg' =
      Config.with_quality cfg
        ~intra:(Int.max 16 (cfg.Config.quality_intra / 2))
        ~inter:(Int.max 8 (cfg.Config.quality_inter / 2))
    in
    let budget' = Rbudget.make ?max_cells:p.Protocol.p_max_cells () in
    match analyze_once t cfg' budget' with
    | Ok m' -> (m', true)
    | Error _ -> (m, false)
  end

(* Block-mode run: one topological sweep on the warm image, reading the
   design state's STA and gate table.  The sweep walks only the
   arrivals' supports and fuses each gate's last Clark merge with its
   own sensitivities, and the endpoint grids are built without
   closures, so nothing else is cached between requests; deadlines and
   retry do not apply. *)
let do_run_block t id (p : Protocol.run_params) cfg =
  let r =
    Block_engine.analyze ~config:cfg ~placement:t.placement ~sta:t.sta
      ~gates:(get_gates t cfg) t.circuit
  in
  count t "requests-ok";
  let full = Option.value ~default:true p.Protocol.p_full in
  let summary_fields =
    if full then [ ("report", Block_engine.json r) ]
    else
      [ ("critical_delay_s", Json.Number r.Block_engine.sta.Sta.critical_delay);
        ("mean_s", Json.Number r.Block_engine.mean);
        ("std_s", Json.Number r.Block_engine.std);
        ( "confidence_point_s",
          Json.Number r.Block_engine.confidence_point ) ]
  in
  Protocol.render ?id ~status:Protocol.Ok_
    (("circuit", Json.String r.Block_engine.circuit_name)
     :: ("engine", Json.String (Config.engine_name Config.Block))
     :: summary_fields)

let do_run t id (p : Protocol.run_params) =
  count t "requests-run";
  let cfg = effective_config t p in
  if cfg.Config.engine = Config.Block then do_run_block t id p cfg
  else
  match analyze_once t cfg (budget_of t p) with
  | Error e ->
      count t "requests-error";
      Protocol.render_error ?id e
  | Ok m ->
      let m, retried = maybe_retry t p cfg m in
      let status = run_status m in
      count t
        (match status with
        | Protocol.Degraded -> "requests-degraded"
        | _ -> "requests-ok");
      let full = Option.value ~default:true p.Protocol.p_full in
      let summary_fields =
        if full then [ ("report", Report.json m) ]
        else
          [ ("paths", Json.int (Methodology.num_critical_paths m));
            ("critical_delay_s", Json.Number m.Methodology.sta.Sta.critical_delay);
            ("sigma_c_s", Json.Number m.Methodology.sigma_c);
            ( "confidence_point_s",
              Json.Number
                m.Methodology.prob_critical.Ranking.analysis
                  .Path_analysis.confidence_point ) ]
      in
      Protocol.render ?id ~status
        (("circuit", Json.String m.Methodology.circuit_name)
         :: ("degradations", degradation_strings m)
         :: ((if retried then [ ("retried", Json.Bool true) ] else [])
            @ summary_fields))

(* Greedy backward trace on the Bellman-Ford labels: from the endpoint,
   repeatedly step to the fan-in realizing the label (ties towards the
   smaller node id, matching [Longest_path.critical_path]), giving the
   endpoint's critical path. *)
let endpoint_path sta id =
  let g = sta.Sta.graph in
  let labels = sta.Sta.labels in
  let rec back id acc =
    let acc = id :: acc in
    let fam = Graph.fanins g id in
    if Array.length fam = 0 then acc
    else begin
      let best = ref fam.(0) in
      Array.iter
        (fun u ->
          if labels.(u) > labels.(!best) then best := u
          else if labels.(u) = labels.(!best) && u < !best then best := u)
        fam;
      back !best acc
    end
  in
  { Paths.nodes = Array.of_list (back id []); delay = labels.(id) }

let do_query t id endpoint (p : Protocol.run_params) =
  count t "requests-query";
  match Netlist.find_node t.circuit endpoint with
  | None ->
      count t "requests-error";
      Protocol.render_error ?id
        (Err.structural ~subject:"endpoint"
           (Printf.sprintf "unknown node %S" endpoint))
  | Some nid when Netlist.is_input t.circuit nid ->
      count t "requests-error";
      Protocol.render_error ?id
        (Err.structural ~subject:"endpoint"
           (Printf.sprintf "node %S is a primary input" endpoint))
  | Some nid
    when (effective_config t p).Config.engine = Config.Block
         && not (Array.mem nid t.circuit.Netlist.outputs) ->
      (* Block mode propagates whole arrival distributions, so it
         answers from the endpoint table of one sweep — which has
         entries only for primary outputs (interior nodes are folded
         into downstream maxes).  Refuse before sweeping. *)
      count t "requests-error";
      Protocol.render_error ?id
        (Err.structural ~subject:"endpoint"
           (Printf.sprintf
              "node %S is not a primary output (the block engine answers \
               endpoint queries only)"
              endpoint))
  | Some nid when (effective_config t p).Config.engine = Config.Block ->
      let cfg = effective_config t p in
      let r =
        Block_engine.analyze ~config:cfg ~placement:t.placement ~sta:t.sta
          ~gates:(get_gates t cfg) t.circuit
      in
      let ep =
        List.find (fun ep -> ep.Block_engine.node = nid) r.Block_engine.endpoints
      in
      count t "requests-ok";
      Protocol.render ?id ~status:Protocol.Ok_
        [ ("endpoint", Json.String endpoint);
          ("engine", Json.String (Config.engine_name Config.Block));
          ("mean_s", Json.Number ep.Block_engine.mean);
          ("std_s", Json.Number ep.Block_engine.std);
          ("inter_sigma_s", Json.Number ep.Block_engine.inter_sigma);
          ("intra_sigma_s", Json.Number ep.Block_engine.intra_sigma);
          ( "confidence_point_s",
            Json.Number ep.Block_engine.confidence_point );
          ("q001_s", Json.Number (Pdf.quantile ep.Block_engine.pdf 0.001));
          ("median_s", Json.Number (Pdf.quantile ep.Block_engine.pdf 0.5));
          ("q999_s", Json.Number (Pdf.quantile ep.Block_engine.pdf 0.999)) ]
  | Some nid ->
      let cfg = effective_config t p in
      let gates = get_gates t cfg in
      let path = endpoint_path t.sta nid in
      let pa =
        match Path_cache.find t.paths ~gates cfg path with
        | Some (pa, ledger) ->
            Health.merge ~into:t.lifetime ledger;
            pa
        | None ->
            let health = Health.create () in
            let ctx =
              Path_analysis.context ~health ~warm:(get_warm t cfg) ~gates cfg
                t.sta.Sta.graph t.placement
            in
            let pa = Path_analysis.analyze ctx path in
            Health.merge ~into:t.lifetime health;
            pa
      in
      count t "requests-ok";
      let total = pa.Path_analysis.total_pdf in
      Protocol.render ?id ~status:Protocol.Ok_
        [ ("endpoint", Json.String endpoint);
          ("nodes", Json.int (Array.length path.Paths.nodes));
          ("gates", Json.int pa.Path_analysis.gate_count);
          ("det_delay_s", Json.Number pa.Path_analysis.det_delay);
          ("mean_s", Json.Number pa.Path_analysis.mean);
          ("std_s", Json.Number pa.Path_analysis.std);
          ("inter_sigma_s", Json.Number pa.Path_analysis.inter_sigma);
          ("intra_sigma_s", Json.Number pa.Path_analysis.intra_sigma);
          ( "confidence_point_s",
            Json.Number pa.Path_analysis.confidence_point );
          ("worst_case_s", Json.Number pa.Path_analysis.worst_case);
          ("q001_s", Json.Number (Pdf.quantile total 0.001));
          ("median_s", Json.Number (Pdf.quantile total 0.5));
          ("q999_s", Json.Number (Pdf.quantile total 0.999)) ]

let do_check t id only path_limit =
  count t "requests-check";
  (* Same contract as the one-shot CLI: unknown check ids are a usage
     error, not a silently empty selection. *)
  let known = List.map fst Checker.all_checks in
  (match List.find_opt (fun c -> not (List.mem c known)) only with
  | Some bad ->
      raise
        (Err.Error
           (Err.structural ~subject:"check"
              (Printf.sprintf "unknown check id %S" bad)))
  | None -> ());
  let inp =
    Checker.input ~config:t.base_config ~placement:t.placement ?path_limit
      ~only
      ~should_stop:(cancelled_hook t)
      t.circuit
  in
  let r = Checker.run inp in
  Health.merge ~into:t.lifetime r.Checker.health;
  let s = Lint.summarize r.Checker.diagnostics in
  count t (if s.Lint.errors > 0 then "requests-degraded" else "requests-ok");
  let diag d =
    Json.Obj
      [ ("rule", Json.String d.D.rule);
        ("severity", Json.String (D.severity_name d.D.severity));
        ("location", Json.String (Format.asprintf "%a" D.pp_location d.D.location));
        ("message", Json.String d.D.message) ]
  in
  Protocol.render ?id
    ~status:(if s.Lint.errors > 0 then Protocol.Degraded else Protocol.Ok_)
    [ ("errors", Json.int s.Lint.errors);
      ("warnings", Json.int s.Lint.warnings);
      ("infos", Json.int s.Lint.infos);
      ("nodes_certified", Json.int r.Checker.nodes_certified);
      ("paths_certified", Json.int r.Checker.paths_certified);
      ("ops_audited", Json.int r.Checker.ops_audited);
      ("diagnostics", Json.List (List.map diag r.Checker.diagnostics)) ]

let do_criticality t id top =
  count t "requests-criticality";
  match Affine.compute t.base_config t.sta.Sta.graph with
  | Error msg ->
      count t "requests-error";
      Protocol.render_error ?id (Err.structural ~subject:"affine" msg)
  | Ok aff ->
      let crits = Affine.criticality aff t.sta in
      let crits =
        match top with
        | None -> crits
        | Some k -> List.filteri (fun i _ -> i < k) crits
      in
      count t "requests-ok";
      Protocol.render ?id ~status:Protocol.Ok_
        [ ("criticality", Affine.criticality_json t.sta.Sta.graph crits) ]

let do_health t id =
  count t "requests-health";
  count t "requests-ok";
  let cache =
    match t.warm with
    | None -> Json.Null
    | Some w -> (
        match Path_analysis.warm_cache_stats w with
        | None -> Json.Null
        | Some st ->
            (* The warm cache keeps no distinct-direction set (it
               would grow forever), so it reports resident kernels
               instead, and [hits] counts lookups a resident kernel
               answered. *)
            Json.Obj
              [ ("lookups", Json.int st.Inter.cs_lookups);
                ("hits", Json.int st.Inter.cs_hits);
                ("builds", Json.int st.Inter.cs_builds);
                ("entries", Json.int st.Inter.cs_entries) ])
  in
  let path_cache =
    let st = Path_cache.stats t.paths in
    Json.Obj
      [ ("lookups", Json.int st.Path_cache.lookups);
        ("hits", Json.int st.Path_cache.hits);
        ("entries", Json.int st.Path_cache.entries);
        ("drops", Json.int st.Path_cache.drops) ]
  in
  (* Between requests every worker domain parks on the pool's condition
     variable, so an idle server burns no CPU; the health answer exposes
     the park ledger so a smoke test can verify that from outside. *)
  let pool =
    match t.pool with
    | None -> Json.Null
    | Some p ->
        Json.Obj
          [ ("jobs", Json.int (Pool.jobs p));
            ("idle_workers", Json.int (Pool.idle_workers p));
            ("park_count", Json.int (Pool.park_count p)) ]
  in
  Protocol.render ?id ~status:Protocol.Ok_
    [ ("circuit", Json.String t.circuit.Netlist.name);
      ("gates", Json.int (Netlist.num_gates t.circuit));
      ("health_events", Json.int (Health.count t.lifetime));
      ( "counters",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.int v))
             (Health.counters t.lifetime))
      );
      ("pool", pool);
      ("cache", cache);
      ("path_cache", path_cache) ]

(* --- incremental edit / what-if --------------------------------------- *)

(* The impact image is built lazily on the first edit/what-if: one full
   methodology run under the drive-aware load model (impact designs
   always use {!Graph.with_drives} so a resize stays a local
   perturbation), populating the per-path cache.  Note the model
   switch: [run]/[query] use the fanout-count load model, edit answers
   the drive-aware one — absolute delays differ slightly until the
   first committed edit replaces the server's timing image. *)
let impact_state t =
  match t.impact with
  | Some s -> Ok s
  | None -> (
      let d =
        Impact.design ~placement:t.placement ~config:t.base_config t.circuit
      in
      match Impact.init ?pool:t.pool ~ledger:t.lifetime d with
      | Error e -> Error e
      | Ok (s, _baseline) ->
          t.impact <- Some s;
          Ok s)

(* Pre-validation: parse the script, then run the edit lint rules
   against the current image; any lint error refuses the op before a
   single cached path is touched. *)
let parse_edits state script =
  match Edit.parse_string_res script with
  | Error e -> Error e
  | Ok edits -> (
      let d = Impact.design_of state in
      let ds =
        Ssta_lint.Rules_edit.check ~placement:d.Impact.placement
          ~drives:d.Impact.drives ~config:d.Impact.config d.Impact.circuit
          edits
      in
      match List.find_opt (fun dg -> dg.D.severity = D.Error) ds with
      | Some dg -> Error (Err.structural ~subject:"edit" dg.D.message)
      | None -> Ok edits)

let impact_fields (o : Impact.outcome) =
  let m = o.Impact.report in
  [ ("cone_nodes", Json.int o.Impact.cone.Impact.cone_nodes);
    ("dirty_nodes", Json.int o.Impact.cone.Impact.dirty_count);
    ( "affected_endpoints",
      Json.int (List.length o.Impact.cone.Impact.affected_endpoints) );
    ("full_invalidation", Json.Bool o.Impact.cone.Impact.full);
    ("invalidated", Json.int o.Impact.invalidated);
    ("reused", Json.int o.Impact.reused);
    ("reanalyzed", Json.int o.Impact.reanalyzed);
    ("paths", Json.int (Methodology.num_critical_paths m));
    ("critical_delay_s", Json.Number m.Methodology.sta.Sta.critical_delay);
    ("sigma_c_s", Json.Number m.Methodology.sigma_c);
    ( "confidence_point_s",
      Json.Number
        m.Methodology.prob_critical.Ranking.analysis
          .Path_analysis.confidence_point ) ]

let do_edit t id script =
  count t "requests-edit";
  let answer =
    match impact_state t with
    | Error e -> Error e
    | Ok state -> (
        match parse_edits state script with
        | Error e -> Error e
        | Ok edits -> Impact.reanalyze ?pool:t.pool state edits)
  in
  match answer with
  | Error e ->
      count t "requests-error";
      Protocol.render_error ?id e
  | Ok o ->
      (* Commit: the edited design becomes the served image.  The new
         static timing comes from the incremental run itself
         (drive-aware — [Sta.analyze] would forget the drives). *)
      let state = Option.get t.impact in
      let d = Impact.design_of state in
      t.circuit <- d.Impact.circuit;
      t.placement <- d.Impact.placement;
      t.sta <- o.Impact.report.Methodology.sta;
      t.gates <- Some (Impact.gate_table state);
      Path_cache.invalidate t.paths;
      count t "requests-ok";
      Protocol.render ?id ~status:Protocol.Ok_
        (("circuit", Json.String t.circuit.Netlist.name) :: impact_fields o)

let do_what_if t id script =
  count t "requests-whatif";
  let answer =
    match impact_state t with
    | Error e -> Error e
    | Ok state -> (
        match parse_edits state script with
        | Error e -> Error e
        | Ok edits -> Impact.what_if ?pool:t.pool state edits)
  in
  match answer with
  | Error e ->
      count t "requests-error";
      Protocol.render_error ?id e
  | Ok o ->
      count t "requests-ok";
      Protocol.render ?id ~status:Protocol.Ok_
        (("circuit", Json.String t.circuit.Netlist.name)
         :: ("committed", Json.Bool false)
         :: impact_fields o)

let do_reload t id =
  count t "requests-reload";
  match t.reload () with
  | Error e ->
      count t "requests-error";
      Protocol.render_error ?id e
  | Ok (circuit, placement) ->
      t.circuit <- circuit;
      t.placement <- placement;
      t.sta <- Sta.analyze circuit;
      t.warm <- None;
      t.gates <- None;
      Path_cache.invalidate t.paths;
      t.impact <- None;
      count t "reloads";
      count t "requests-ok";
      Protocol.render ?id ~status:Protocol.Ok_
        [ ("circuit", Json.String circuit.Netlist.name);
          ("gates", Json.int (Netlist.num_gates circuit)) ]

let dispatch_inner t ({ Protocol.id; request } : Protocol.envelope) =
  count t "requests-total";
  match request with
  | Protocol.Run p -> do_run t id p
  | Protocol.Query { endpoint; params } -> do_query t id endpoint params
  | Protocol.Check { only; path_limit } -> do_check t id only path_limit
  | Protocol.Criticality { top } -> do_criticality t id top
  | Protocol.Edit { script } -> do_edit t id script
  | Protocol.What_if { script } -> do_what_if t id script
  | Protocol.Health -> do_health t id
  | Protocol.Reload -> do_reload t id
  | Protocol.Shutdown ->
      count t "requests-shutdown";
      count t "requests-ok";
      Protocol.render ?id ~status:Protocol.Ok_ [ ("draining", Json.Bool true) ]

let dispatch t env =
  match Err.protect ~context:"ssta-server" (fun () -> dispatch_inner t env) with
  | Ok resp -> resp
  | Error e ->
      count t "requests-error";
      Protocol.render_error ?id:env.Protocol.id e

(* --- serve loop ------------------------------------------------------- *)

let cancel_poll_s = 0.05

let serve ?(max_queue = 64) ?(max_request_bytes = 1_048_576) t ic oc =
  let sup = Supervisor.create ~max_queue () in
  let out_lock = Mutex.create () in
  let send line =
    Mutex.lock out_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_lock)
      (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
  in
  let malformed = Atomic.make 0 in
  (* Reader: decode and enqueue; answer protocol errors, backpressure
     and shutdown refusals immediately (they never occupy a queue
     slot).  Never touches [t] — the lifetime ledger is single-owner
     (the dispatcher thread). *)
  let reader () =
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Protocol.decode ~max_bytes:max_request_bytes line with
           | Error e ->
               Atomic.incr malformed;
               let id =
                 if String.length line > max_request_bytes then None
                 else Protocol.request_id line
               in
               send (Protocol.render_error ?id e)
           | Ok env -> (
               match Supervisor.submit sup (Unix.gettimeofday (), env) with
               | Supervisor.Accepted -> ()
               | Supervisor.Overloaded ->
                   send
                     (Protocol.render ?id:env.Protocol.id
                        ~status:Protocol.Overloaded
                        [ ("retryable", Json.Bool true) ])
               | Supervisor.Shutting_down ->
                   send
                     (Protocol.render ?id:env.Protocol.id
                        ~status:Protocol.Shutting_down []))
       done
     with End_of_file | Sys_error _ -> ());
    Supervisor.begin_shutdown sup
  in
  let reader_thread = Thread.create reader () in
  (* [take] blocks on the queue's condition variable, which a signal
     cannot reach; a watcher polls the cancellation latch off the
     request path and turns a trip into a shutdown, so SIGTERM ends an
     idle loop within [cancel_poll_s]. *)
  let finished = Atomic.make false and by_cancel = Atomic.make false in
  let rec watcher () =
    if Atomic.get finished || Supervisor.is_shutting_down sup then ()
    else if Cancel.cancelled t.cancel then begin
      Atomic.set by_cancel true;
      Supervisor.begin_shutdown sup
    end
    else begin
      Thread.delay cancel_poll_s;
      watcher ()
    end
  in
  ignore (Thread.create watcher () : Thread.t);
  let reason = ref `Eof in
  let rec loop () =
    match Supervisor.take sup with
    | Some (enqueued, env) ->
        (* Queue wait goes to the lifetime ledger ([health] shows it),
           never into a response. *)
        count t "queue-waits";
        Health.counter_add t.lifetime "queue-wait-us"
          (int_of_float ((Unix.gettimeofday () -. enqueued) *. 1e6));
        send (dispatch t env);
        Supervisor.note_completed sup;
        (match env.Protocol.request with
        | Protocol.Shutdown ->
            reason := `Shutdown;
            Supervisor.begin_shutdown sup
        | _ -> ());
        loop ()
    | None -> ()
  in
  loop ();
  Atomic.set finished true;
  if !reason = `Eof && Atomic.get by_cancel then reason := `Cancelled;
  (match !reason with
  | `Eof ->
      (* The reader hit end of input (it is who initiated the
         shutdown); joining it is immediate. *)
      Thread.join reader_thread
  | `Shutdown | `Cancelled ->
      (* The reader may still be blocked on input; it answers any late
         lines with shutting-down refusals and dies with the process.
         Give it a beat so in-flight refusals finish writing. *)
      Thread.delay 0.02);
  let st = Supervisor.stats sup in
  Health.counter_add t.lifetime "queue-accepted" st.Supervisor.accepted;
  Health.counter_add t.lifetime "queue-overloaded" st.Supervisor.overloaded;
  Health.counter_add t.lifetime "queue-rejected-shutdown"
    st.Supervisor.rejected_shutdown;
  Health.counter_add t.lifetime "requests-malformed" (Atomic.get malformed);
  !reason

let serve_socket ?max_queue ?max_request_bytes t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        if not (Cancel.cancelled t.cancel) then begin
          (* Poll with a timeout so the cancellation latch is honored
             even while no client is connected.  A signal (SIGTERM
             tripping the latch) interrupts select/accept with EINTR:
             re-enter the loop, which rechecks the latch. *)
          match Unix.select [ sock ] [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | [], _, _ -> accept_loop ()
          | _ :: _, _, _ -> (
              match Unix.accept sock with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
              | fd, _ ->
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              let r = serve ?max_queue ?max_request_bytes t ic oc in
              (try close_out oc with Sys_error _ -> ());
              (try close_in ic with Sys_error _ -> ());
              (match r with
              | `Eof -> accept_loop ()
              | `Shutdown | `Cancelled -> ()))
      end
      in
      accept_loop ())

let summary t =
  let c name = Health.counter t.lifetime name in
  Printf.sprintf
    "ssta serve: %d requests (%d ok, %d degraded, %d error, %d malformed); \
     queue %d accepted, %d overloaded, %d rejected; %d retries, %d reloads"
    (c "requests-total") (c "requests-ok") (c "requests-degraded")
    (c "requests-error") (c "requests-malformed") (c "queue-accepted")
    (c "queue-overloaded") (c "queue-rejected-shutdown") (c "retries")
    (c "reloads")
