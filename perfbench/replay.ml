(* The benchmark's in-process side, driven by perfbench/run.py.

     replay.exe edits DIR DESIGN SEED COUNT
       seeded single-op ECO edits (Impact.random_edits) over the
       generated netlist DIR/DESIGN.bench, one per line;
     replay.exe refs DIR REQUESTS
       one reference answer per request line, computed through the
       library's public entry points (Methodology, Report, Block engine,
       Impact.scratch), never through the server or the CLI;
     replay.exe composite DIR REQUESTS SPANS_OUT
       every request through the composite entry point the program
       itself uses (the in-process CLI flow, or Protocol.decode +
       Server.dispatch); each answer is printed for comparison with the
       program's own, then the composite's metrics;
     replay.exe trace DIR REQUESTS SPANS_OUT
       the traced replay: every request through the parts, with one span
       around each public layer call, proven bit-equal to the composite;
       the per-layer metrics are the last line printed.
   Both trace modes keep their spans in memory and write them to
   SPANS_OUT as JSON lines when the replay ends.  They run in separate
   processes so that neither heap slows the other.

   A request line is tab-separated: a phase flag ([W] warm-up or [T]
   timed), then either [cli DESIGN CONFIDENCE] (one [ssta run] process)
   or [serve DESIGN JSON] (one line sent to [ssta serve] on DESIGN).
   Inputs are DIR/DESIGN.{bench,def,spef} as written by [ssta generate]. *)

module Json = Ssta_server.Json
module Protocol = Ssta_server.Protocol
module Server = Ssta_server.Server
module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Bench_format = Ssta_circuit.Bench_format
module Def_format = Ssta_circuit.Def_format
module Spef = Ssta_circuit.Spef
module Edit = Ssta_circuit.Edit
module Graph = Ssta_timing.Graph
module Sta = Ssta_timing.Sta
module Paths = Ssta_timing.Paths
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Path_analysis = Ssta_core.Path_analysis
module Inter = Ssta_core.Inter
module Intra = Ssta_core.Intra
module Ranking = Ssta_core.Ranking
module Report = Ssta_core.Report
module Path_coeffs = Ssta_correlation.Path_coeffs
module Arrival = Ssta_block.Arrival
module Block_engine = Ssta_block.Engine
module Affine = Ssta_check.Affine
module Impact = Ssta_check.Impact
module Lint = Ssta_lint.Engine
module Rules_edit = Ssta_lint.Rules_edit
module Err = Ssta_runtime.Ssta_error
module Guard = Ssta_runtime.Guard
module Health = Ssta_runtime.Health
module Pdf = Ssta_prob.Pdf
module Arena = Ssta_prob.Arena
module Corner = Ssta_tech.Corner

let ok = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "%a" Err.pp e)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* ---- span ledger ------------------------------------------------------ *)

type span = {
  name : string;
  depth : int;
  start_s : float;
  dur_s : float;
  self_s : float;  (* duration minus the time covered by child spans *)
  self_words : float;  (* minor words allocated outside child spans *)
}

type frame = {
  f_t0 : float;
  f_w0 : float;
  mutable f_child_s : float;
  mutable f_child_w : float;
}

let tracing = ref false
let stack : frame list ref = ref []
let spans : span list ref = ref []  (* newest first; written at exit *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !tracing then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

(* With tracing off a span is one ref read and the call itself. *)
let span name f =
  if not !tracing then f ()
  else begin
    let fr =
      { f_t0 = Unix.gettimeofday ();
        f_w0 = Gc.minor_words ();
        f_child_s = 0.0;
        f_child_w = 0.0 }
    in
    stack := fr :: !stack;
    let finish () =
      let dur = Unix.gettimeofday () -. fr.f_t0 in
      let words = Gc.minor_words () -. fr.f_w0 in
      stack := (match !stack with _ :: rest -> rest | [] -> []);
      (match !stack with
      | parent :: _ ->
          parent.f_child_s <- parent.f_child_s +. dur;
          parent.f_child_w <- parent.f_child_w +. words
      | [] -> ());
      spans :=
        { name;
          depth = List.length !stack;
          start_s = fr.f_t0;
          dur_s = dur;
          self_s = dur -. fr.f_child_s;
          self_words = words -. fr.f_child_w }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* ---- inputs ------------------------------------------------------------ *)

type files = { bench : string; def : string; spef : string }

let files dir design =
  let f ext = Filename.concat dir (design ^ ext) in
  { bench = f ".bench"; def = f ".def"; spef = f ".spef" }

let load_placed dir design =
  let fs = files dir design in
  let circuit = ok (Bench_format.parse_file_res fs.bench) in
  let def = ok (Def_format.parse_file_res fs.def) in
  (circuit, ok (Def_format.placement_of_res def circuit))

type request =
  | Cli of { design : string; confidence : float }
  | Serve of { design : string; line : string }

let parse_request line =
  match String.split_on_char '\t' line with
  | [ phase; "cli"; design; c ] ->
      (phase = "T", Cli { design; confidence = float_of_string c })
  | [ phase; "serve"; design; json ] ->
      (phase = "T", Serve { design; line = json })
  | _ -> failwith ("bad request line: " ^ line)

(* ---- the CLI flow ------------------------------------------------------ *)

(* [ssta run x --bench B --def D --spef S --json --jobs 1 --confidence C]:
   every other flag at its default, the affine screen on. *)
let cli_config confidence =
  { (Config.with_confidence Config.default confidence) with
    Config.affine_prune = true }

let cli_composite dir design confidence =
  let fs = files dir design in
  let circuit, placement = load_placed dir design in
  let config = cli_config confidence in
  let spef = ok (Spef.parse_file_res fs.spef) in
  ignore (Lint.run (Lint.input ~placement ~spef ~config ~deep:false circuit));
  let wire_caps = ok (Spef.apply_res spef circuit) in
  ok
    (Methodology.analyze ~config ~placement ~wire_caps
       ~screen:(Affine.methodology_screen config) circuit)

(* ---- the served design -------------------------------------------------- *)

(* What a [serve] process holds for one design: the current netlist,
   placement and static timing (replaced by each committed edit), the
   incremental-analysis design and the warm tables. *)
type mirror = {
  mutable circuit : Netlist.t;
  mutable placement : Placement.t;
  mutable sta : Sta.t;
  mutable design : Impact.design;
  mutable impact : Impact.state option;
  mutable warm : Path_analysis.warm option;
  mutable kernels : kernels option;
}

(* The inter tables and kernel cache the decomposed replay uses in place
   of the (abstract) warm state. *)
and kernels = {
  k_config : Config.t;
  tables : Inter.tables;
  caches : Inter.caches option;
}

let mirror_create dir design =
  let circuit, placement = load_placed dir design in
  { circuit;
    placement;
    sta = Sta.analyze circuit;
    design = Impact.design ~placement ~config:Config.default circuit;
    impact = None;
    warm = None;
    kernels = None }

let mirrors dir =
  let tbl = Hashtbl.create 4 in
  fun design ->
    match Hashtbl.find_opt tbl design with
    | Some m -> m
    | None ->
        let m = mirror_create dir design in
        Hashtbl.add tbl design m;
        m

let get_warm mi cfg =
  match mi.warm with
  | Some w when Path_analysis.warm_compatible w cfg -> w
  | _ ->
      let w = Path_analysis.warm cfg in
      mi.warm <- Some w;
      w

let kernels_create cfg =
  let tables = Inter.tables cfg in
  { k_config = cfg;
    tables;
    caches =
      (if cfg.Config.inter_cache then Some (Inter.caches_create tables)
       else None) }

(* Same compatibility rule as the warm state: the tables read only these
   fields. *)
let get_kernels mi cfg =
  match mi.kernels with
  | Some k
    when k.k_config.Config.quality_inter = cfg.Config.quality_inter
         && k.k_config.Config.inter_shape = cfg.Config.inter_shape
         && k.k_config.Config.truncation = cfg.Config.truncation
         && k.k_config.Config.budget = cfg.Config.budget
         && k.k_config.Config.inter_cache = cfg.Config.inter_cache ->
      k
  | _ ->
      let k = kernels_create cfg in
      mi.kernels <- Some k;
      k

(* The request's effective configuration, as the protocol documents it:
   the server's base configuration with the request's overrides. *)
let effective (p : Protocol.run_params) =
  let c = Config.default in
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

(* The critical path into one endpoint, as the query op defines it: step
   back to the fan-in with the largest arrival label, the smaller node id
   on ties. *)
let endpoint_path (sta : Sta.t) id =
  let g = sta.Sta.graph and labels = sta.Sta.labels in
  let rec back id acc =
    let acc = id :: acc in
    let fam = Graph.fanins g id in
    if Array.length fam = 0 then acc
    else
      back
        (Array.fold_left
           (fun b u ->
             if labels.(u) > labels.(b) || (labels.(u) = labels.(b) && u < b)
             then u
             else b)
           fam.(0) fam)
        acc
  in
  { Paths.nodes = Array.of_list (back id []); delay = labels.(id) }

let num f = Json.Number f
let int i = Json.Number (float_of_int i)

let query_fields endpoint (pa : Path_analysis.t) =
  let total = pa.Path_analysis.total_pdf in
  [ ("endpoint", Json.String endpoint);
    ("nodes", int (Array.length pa.Path_analysis.path.Paths.nodes));
    ("gates", int pa.Path_analysis.gate_count);
    ("det_delay_s", num pa.Path_analysis.det_delay);
    ("mean_s", num pa.Path_analysis.mean);
    ("std_s", num pa.Path_analysis.std);
    ("inter_sigma_s", num pa.Path_analysis.inter_sigma);
    ("intra_sigma_s", num pa.Path_analysis.intra_sigma);
    ("confidence_point_s", num pa.Path_analysis.confidence_point);
    ("worst_case_s", num pa.Path_analysis.worst_case);
    ("q001_s", num (Pdf.quantile total 0.001));
    ("median_s", num (Pdf.quantile total 0.5));
    ("q999_s", num (Pdf.quantile total 0.999)) ]

let endpoint_node mi endpoint =
  match Netlist.find_node mi.circuit endpoint with
  | Some id -> id
  | None -> failwith ("unknown endpoint " ^ endpoint)

(* ---- reference answers ------------------------------------------------ *)

let report_answer doc = Json.Obj [ ("report", Json.String doc) ]

(* Edits and what-ifs are checked against a from-scratch run of the
   edited design; the cone fields against the static cone of the
   resolved changes on the pre-edit design. *)
let impact_ref mi script ~commit =
  let edits = ok (Edit.parse_string_res script) in
  let changes = ok (Impact.resolve mi.design edits) in
  let cone = Impact.cone_of mi.design changes in
  let edited = Impact.apply mi.design changes in
  let m = ok (Impact.scratch edited) in
  if commit then begin
    mi.design <- edited;
    mi.circuit <- edited.Impact.circuit;
    mi.placement <- edited.Impact.placement;
    mi.sta <- m.Methodology.sta
  end;
  Json.Obj
    [ ( "fields",
        Json.Obj
          ((("circuit", Json.String mi.circuit.Netlist.name)
            :: (if commit then [] else [ ("committed", Json.Bool false) ]))
          @ [ ("cone_nodes", int cone.Impact.cone_nodes);
              ("dirty_nodes", int cone.Impact.dirty_count);
              ( "affected_endpoints",
                int (List.length cone.Impact.affected_endpoints) );
              ("full_invalidation", Json.Bool cone.Impact.full);
              ("paths", int (Methodology.num_critical_paths m));
              ("critical_delay_s", num m.Methodology.sta.Sta.critical_delay);
              ("sigma_c_s", num m.Methodology.sigma_c);
              ( "confidence_point_s",
                num
                  m.Methodology.prob_critical.Ranking.analysis
                    .Path_analysis.confidence_point ) ]) ) ]

let serve_ref mi line =
  let env = ok (Protocol.decode ~max_bytes:max_int line) in
  match env.Protocol.request with
  | Protocol.Run p ->
      let cfg = effective p in
      if cfg.Config.engine = Config.Block then
        report_answer
          (Block_engine.json_report
             (Block_engine.analyze ~config:cfg ~placement:mi.placement
                ~sta:mi.sta mi.circuit))
      else
        report_answer
          (Report.json_report
             (ok
                (Methodology.analyze ~config:cfg ~placement:mi.placement
                   ~sta:mi.sta ~warm:(get_warm mi cfg) mi.circuit)))
  | Protocol.Query { endpoint; params } ->
      let cfg = effective params in
      let ctx =
        Path_analysis.context ~warm:(get_warm mi cfg) cfg mi.sta.Sta.graph
          mi.placement
      in
      let pa =
        Path_analysis.analyze ctx
          (endpoint_path mi.sta (endpoint_node mi endpoint))
      in
      Json.Obj [ ("fields", Json.Obj (query_fields endpoint pa)) ]
  | Protocol.Edit { script } -> impact_ref mi script ~commit:true
  | Protocol.What_if { script } -> impact_ref mi script ~commit:false
  | _ -> failwith ("request kind not used by the benchmark: " ^ line)

let refs dir reqfile =
  let mirror = mirrors dir in
  List.iter
    (fun line ->
      let answer =
        match snd (parse_request line) with
        | Cli { design; confidence } ->
            report_answer
              (Report.json_report (cli_composite dir design confidence))
        | Serve { design; line } -> serve_ref (mirror design) line
      in
      print_endline (Json.to_string answer))
    (read_lines reqfile)

(* ---- decomposed replay ------------------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_pdf (a : Pdf.t) (b : Pdf.t) =
  same_bits a.Pdf.lo b.Pdf.lo
  && same_bits a.Pdf.step b.Pdf.step
  && Array.length a.Pdf.density = Array.length b.Pdf.density
  && Array.for_all2 same_bits a.Pdf.density b.Pdf.density

let same_analysis (a : Path_analysis.t) (b : Path_analysis.t) =
  a.Path_analysis.path.Paths.nodes = b.Path_analysis.path.Paths.nodes
  && same_bits a.Path_analysis.mean b.Path_analysis.mean
  && same_bits a.Path_analysis.std b.Path_analysis.std
  && same_bits a.Path_analysis.confidence_point
       b.Path_analysis.confidence_point
  && same_bits a.Path_analysis.worst_case b.Path_analysis.worst_case
  && same_pdf a.Path_analysis.total_pdf b.Path_analysis.total_pdf

let same_ranked (a : Ranking.ranked array) (b : Ranking.ranked array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Ranking.ranked) (y : Ranking.ranked) ->
         x.Ranking.prob_rank = y.Ranking.prob_rank
         && x.Ranking.det_rank = y.Ranking.det_rank
         && same_analysis x.Ranking.analysis y.Ranking.analysis)
       a b

let mismatches = ref 0
let prove what ok_ =
  if not ok_ then begin
    incr mismatches;
    prerr_endline ("replay: decomposed " ^ what ^ " differs from the composite")
  end

(* Per-node gate gradients and the correlation layers: the per-graph
   precomputation of the Eq. 13 coefficient walk. *)
let walk_setup cfg graph placement =
  span "correlation.path_coeffs" (fun () ->
      ( Config.layers_for cfg placement,
        Array.init (Graph.num_nodes graph) (fun id ->
            match graph.Graph.electrical.(id) with
            | Some e ->
                Ssta_tech.Derivatives.gradient e Ssta_tech.Params.nominal
            | None -> Ssta_tech.Params.zero) ))

(* One path through its parts: coefficient walk, intra PDF, inter PDF,
   their convolution, moments and the worst-case corner. *)
let analyze_path cfg k ~arena ~ws ~health ~graph ~placement ~layers ~grads
    (path : Paths.path) =
  let coeffs =
    span "correlation.path_coeffs" (fun () ->
        Path_coeffs.of_path ~grads ~ws graph placement layers path)
  in
  let intra_pdf =
    span "core.intra" (fun () ->
        Guard.check health ~op:"intra pdf" (Intra.pdf cfg coeffs))
  in
  let inter_pdf =
    span "core.inter" (fun () ->
        let cache = Option.map Inter.caches_get k.caches in
        Guard.check health ~op:"inter pdf"
          (Inter.of_coeffs ?cache ~arena k.tables coeffs))
  in
  let total_pdf =
    span "prob.combine" (fun () ->
        Guard.sum ~n:cfg.Config.quality_intra ~arena health inter_pdf
          intra_pdf)
  in
  let m = Pdf.moments total_pdf in
  let mean = m.Pdf.m_mean and std = sqrt m.Pdf.m_var in
  { Path_analysis.path;
    gate_count = Paths.path_gate_count graph path;
    coeffs;
    intra_pdf;
    inter_pdf;
    total_pdf;
    det_delay = path.Paths.delay;
    mean;
    std;
    intra_sigma = Pdf.std intra_pdf;
    inter_sigma = Pdf.std inter_pdf;
    confidence_point = mean +. (cfg.Config.confidence_sigma *. std);
    worst_case =
      Corner.path_delay ~k:cfg.Config.corner_k Corner.Worst
        (Paths.path_gates graph path) }

let count_cache k f =
  let stats () = Option.map Inter.caches_stats k.caches in
  let before = stats () in
  let r = f () in
  (match before, stats () with
  | Some b, Some a ->
      let delta f = float_of_int (f a - f b) in
      count "inter.lookups" (delta (fun s -> s.Inter.cs_lookups));
      count "inter.hits" (delta (fun s -> s.Inter.cs_hits));
      count "core.inter.builds" (delta (fun s -> s.Inter.cs_builds))
  | _ -> ());
  r

(* Steps 3-5 of Fig. 1 through the parts (no budget: every path the
   enumeration returns is analyzed). *)
let methodology cfg k ~screen ~(sta : Sta.t) ~placement =
  let graph = sta.Sta.graph in
  let layers, grads = walk_setup cfg graph placement in
  let health = Health.create () in
  let arena = Arena.create () and ws = Path_coeffs.workspace_create () in
  let analyze =
    analyze_path cfg k ~arena ~ws ~health ~graph ~placement ~layers ~grads
  in
  count_cache k @@ fun () ->
  let det = analyze sta.Sta.critical_path in
  let slack = cfg.Config.confidence *. det.Path_analysis.std in
  let prune =
    match screen with
    | None -> fun _ -> false
    | Some f ->
        let prune, cs = span "check.affine" (fun () -> f ~sta ~slack) in
        let c name =
          float_of_int (Option.value ~default:0 (List.assoc_opt name cs))
        in
        count "affine.visited" (c "affine-screen-nodes-visited");
        count "affine.pruned" (c "affine-screen-nodes-pruned");
        prune
  in
  let e =
    span "timing.paths" (fun () ->
        Sta.near_critical ~max_paths:cfg.Config.max_paths ~prune sta ~slack)
  in
  count "timing.paths.count" (float_of_int (List.length e.Paths.paths));
  let det_nodes = det.Path_analysis.path.Paths.nodes in
  let analyses =
    match
      List.map
        (fun p -> if p.Paths.nodes = det_nodes then det else analyze p)
        e.Paths.paths
    with
    | [] -> [ det ]
    | l -> l
  in
  let ranked = span "core.ranking" (fun () -> Ranking.rank analyses) in
  count "prob.arena.bytes_reused"
    (float_of_int (Arena.bytes_reused (Arena.stats arena)));
  ranked

(* The block engine's topological sweep through Arrival's public
   operators. *)
let block_sweep cfg (mi : mirror) =
  let graph = mi.sta.Sta.graph and placement = mi.placement in
  let layers = Config.layers_for cfg placement in
  let bmax a b =
    count "block.arrival.max_calls" 1.0;
    span "block.arrival.max" (fun () -> Arrival.max cfg a b)
  in
  let fold_max ids arrivals =
    Array.fold_left
      (fun acc f ->
        match acc with
        | None -> Some arrivals.(f)
        | Some m -> Some (bmax m arrivals.(f)))
      None ids
  in
  let n = Graph.num_nodes graph in
  let arrivals = Array.make n (Arrival.zero ()) in
  for id = 0 to n - 1 do
    if not (Graph.is_input graph id) then begin
      let input_arrival =
        match fold_max (Graph.fanins graph id) arrivals with
        | Some m -> m
        | None -> Arrival.zero ()
      in
      let gate =
        span "block.arrival.of_gate" (fun () ->
            Arrival.of_gate cfg layers placement graph id)
      in
      arrivals.(id) <-
        span "block.arrival.sum" (fun () -> Arrival.sum cfg input_arrival gate)
    end
  done;
  let circuit = mi.circuit in
  let arrival =
    match fold_max circuit.Netlist.outputs arrivals with
    | Some m -> m
    | None -> failwith "circuit has no outputs"
  in
  let stats a =
    let mean = Arrival.mean a and std = Arrival.std cfg a in
    ( Arrival.total_pdf cfg a,
      mean,
      std,
      Arrival.inter_sigma cfg a,
      Arrival.intra_sigma cfg a,
      mean +. (cfg.Config.confidence_sigma *. std) )
  in
  let endpoints =
    span "block.engine.endpoint" (fun () ->
        Array.to_list circuit.Netlist.outputs
        |> List.map (fun o ->
               let pdf, mean, std, inter_sigma, intra_sigma, confidence_point
                   =
                 stats arrivals.(o)
               in
               { Block_engine.node = o;
                 name = Netlist.node_name circuit o;
                 arrival = arrivals.(o);
                 pdf;
                 mean;
                 std;
                 inter_sigma;
                 intra_sigma;
                 confidence_point }))
  in
  let pdf, mean, std, inter_sigma, intra_sigma, confidence_point =
    stats arrival
  in
  { Block_engine.config = cfg;
    circuit_name = circuit.Netlist.name;
    num_gates = Netlist.num_gates circuit;
    sta = mi.sta;
    endpoints;
    arrival;
    pdf;
    mean;
    std;
    inter_sigma;
    intra_sigma;
    confidence_point;
    runtime_s = 0.0 }

(* The server's rendering of a report answer: the report document
   compacted to one line and embedded in the response. *)
let render_report doc =
  span "server.json" (fun () ->
      Protocol.render ~status:Protocol.Ok_
        [ ("report", Json.Raw (Json.to_string (ok (Json.parse doc)))) ])

(* Impact.state for the decomposed side, built like the server's: lazily,
   on the first edit or what-if. *)
let impact_state mi =
  match mi.impact with
  | Some s -> s
  | None ->
      let s, _ =
        span "check.impact.init" (fun () -> ok (Impact.init mi.design))
      in
      mi.impact <- Some s;
      s

let impact_traced mi script ~commit =
  let state = impact_state mi in
  let d = Impact.design_of state in
  let edits =
    span "lint.engine" (fun () ->
        let edits = ok (Edit.parse_string_res script) in
        let ds =
          Rules_edit.check ~placement:d.Impact.placement
            ~drives:d.Impact.drives ~config:d.Impact.config d.Impact.circuit
            edits
        in
        count "lint.engine.diagnostics" (float_of_int (List.length ds));
        edits)
  in
  let changes =
    span "check.impact.resolve" (fun () -> ok (Impact.resolve d edits))
  in
  let cone = span "check.impact.cone" (fun () -> Impact.cone_of d changes) in
  let o =
    if commit then
      span "check.impact.reanalyze" (fun () ->
          ok (Impact.reanalyze state edits))
    else
      span "check.impact.what_if" (fun () -> ok (Impact.what_if state edits))
  in
  count "impact.reused" (float_of_int o.Impact.reused);
  count "impact.reanalyzed" (float_of_int o.Impact.reanalyzed);
  count "impact.requests" 1.0;
  count "check.impact.cone_nodes" (float_of_int cone.Impact.cone_nodes);
  if commit then begin
    let d = Impact.design_of state in
    mi.design <- d;
    mi.circuit <- d.Impact.circuit;
    mi.placement <- d.Impact.placement;
    mi.sta <- o.Impact.report.Methodology.sta
  end;
  (cone, o)

(* One served request through the parts.  The composite answer is
   computed first, outside every span, and the parts must reproduce it. *)
let serve_traced mi line =
  let env = ok (Protocol.decode ~max_bytes:max_int line) in
  match env.Protocol.request with
  | Protocol.Run p when (effective p).Config.engine = Config.Block ->
      let cfg = effective p in
      let doc =
        Block_engine.json_report
          (Block_engine.analyze ~config:cfg ~placement:mi.placement
             ~sta:mi.sta mi.circuit)
      in
      let r =
        span "request" (fun () ->
            let r = block_sweep cfg mi in
            let doc =
              span "block.engine.report" (fun () -> Block_engine.json_report r)
            in
            ignore (render_report doc);
            doc)
      in
      prove "block sweep" (r = doc)
  | Protocol.Run p ->
      let cfg = effective p in
      let k = get_kernels mi cfg in
      let m =
        ok
          (Methodology.analyze ~config:cfg ~placement:mi.placement
             ~sta:mi.sta ~warm:(get_warm mi cfg) mi.circuit)
      in
      let ranked =
        span "request" (fun () ->
            let ranked =
              methodology cfg k ~screen:None ~sta:mi.sta
                ~placement:mi.placement
            in
            let doc = span "core.report" (fun () -> Report.json_report m) in
            count "core.report.bytes" (float_of_int (String.length doc));
            ignore (render_report doc);
            ranked)
      in
      prove "path methodology" (same_ranked ranked m.Methodology.ranked)
  | Protocol.Query { endpoint; params } ->
      let cfg = effective params in
      let k = get_kernels mi cfg in
      let graph = mi.sta.Sta.graph and placement = mi.placement in
      let pa =
        span "request" (fun () ->
            let path =
              span "timing.paths" (fun () ->
                  endpoint_path mi.sta (endpoint_node mi endpoint))
            in
            let layers, grads = walk_setup cfg graph placement in
            count_cache k (fun () ->
                analyze_path cfg k ~arena:(Arena.create ())
                  ~ws:(Path_coeffs.workspace_create ())
                  ~health:(Health.create ()) ~graph ~placement ~layers ~grads
                  path))
      in
      let ctx =
        Path_analysis.context ~warm:(get_warm mi cfg) cfg graph placement
      in
      prove "path query"
        (same_analysis pa (Path_analysis.analyze ctx pa.Path_analysis.path))
  | Protocol.Edit { script } ->
      let cone, o =
        span "request" (fun () -> impact_traced mi script ~commit:true)
      in
      prove "edit cone"
        (cone.Impact.cone_nodes = o.Impact.cone.Impact.cone_nodes)
  | Protocol.What_if { script } ->
      let cone, o =
        span "request" (fun () -> impact_traced mi script ~commit:false)
      in
      prove "what-if cone"
        (cone.Impact.cone_nodes = o.Impact.cone.Impact.cone_nodes)
  | _ -> failwith ("request kind not used by the benchmark: " ^ line)

let cli_traced dir design confidence (m : Methodology.t) =
  let fs = files dir design in
  let config = cli_config confidence in
  let ranked =
    span "request" (fun () ->
        let circuit =
          span "circuit.bench_format.parse" (fun () ->
              ok (Bench_format.parse_file_res fs.bench))
        in
        let def =
          span "circuit.def_format.parse" (fun () ->
              ok (Def_format.parse_file_res fs.def))
        in
        let placement =
          span "circuit.placement" (fun () ->
              ok (Def_format.placement_of_res def circuit))
        in
        let spef, caps =
          span "circuit.spef.parse" (fun () ->
              let spef = ok (Spef.parse_file_res fs.spef) in
              (spef, ok (Spef.apply_res spef circuit)))
        in
        let ds =
          span "lint.engine" (fun () ->
              Lint.run
                (Lint.input ~placement ~spef ~config ~deep:false circuit))
        in
        count "lint.engine.diagnostics" (float_of_int (List.length ds));
        let sta =
          span "timing.sta" (fun () ->
              Sta.of_graph (Graph.with_wire_caps circuit caps))
        in
        let k = span "core.inter" (fun () -> kernels_create config) in
        let ranked =
          methodology config k
            ~screen:(Some (Affine.methodology_screen config))
            ~sta ~placement
        in
        let doc = span "core.report" (fun () -> Report.json_report m) in
        count "core.report.bytes" (float_of_int (String.length doc));
        ranked)
  in
  prove "cli methodology" (same_ranked ranked m.Methodology.ranked)

(* Per-layer metrics: span self time (and minor words) summed over the
   timed requests, as a mean per timed request. *)

(* Per-layer metrics: span self time (and minor words) summed over the
   timed requests, as a mean per timed request. *)
let layer_spans =
  [ ("circuit.bench_format.parse", "circuit.bench_format.parse_s");
    ("circuit.def_format.parse", "circuit.def_format.parse_s");
    ("circuit.spef.parse", "circuit.spef.parse_s");
    ("circuit.placement", "circuit.placement.busy_s");
    ("lint.engine", "lint.engine.busy_s");
    ("timing.sta", "timing.sta.busy_s");
    ("check.affine", "check.affine.busy_s");
    ("core.report", "core.report.busy_s");
    ("timing.paths", "timing.paths.busy_s");
    ("correlation.path_coeffs", "correlation.path_coeffs.busy_s");
    ("core.inter", "core.inter.busy_s");
    ("core.intra", "core.intra.busy_s");
    ("prob.combine", "prob.combine.busy_s");
    ("core.ranking", "core.ranking.busy_s");
    ("block.arrival.of_gate", "block.arrival.of_gate_s");
    ("block.arrival.sum", "block.arrival.sum_s");
    ("block.arrival.max", "block.arrival.max_s");
    ("block.engine.endpoint", "block.engine.endpoint_s");
    ("block.engine.report", "block.engine.report_s");
    ("check.impact.init", "check.impact.init_s");
    ("check.impact.resolve", "check.impact.resolve_s");
    ("check.impact.cone", "check.impact.cone_s");
    ("check.impact.reanalyze", "check.impact.reanalyze_s");
    ("check.impact.what_if", "check.impact.what_if_s");
    ("server.json", "server.json.busy_s") ]

let ratio a b = if b > 0.0 then a /. b else 0.0

let sum_spans f name =
  List.fold_left
    (fun acc s -> if name s.name then acc +. f s else acc)
    0.0 !spans

let self_s name = sum_spans (fun s -> s.self_s) (String.equal name)
let words name = sum_spans (fun s -> s.self_words) name

let decomposed_metrics ~timed =
  let n = float_of_int (Int.max 1 timed) in
  let request_s = sum_spans (fun s -> s.dur_s) (String.equal "request") in
  let per_request v = v /. n in
  let is_block name =
    String.length name > 6 && String.sub name 0 6 = "block."
  in
  List.map (fun (sp, metric) -> (metric, per_request (self_s sp))) layer_spans
  @ [ ( "lint.engine.diagnostics",
        per_request (counter "lint.engine.diagnostics") );
      ( "check.affine.prune_ratio",
        ratio (counter "affine.pruned") (counter "affine.visited") );
      ("core.report.bytes", per_request (counter "core.report.bytes"));
      ("timing.paths.count", per_request (counter "timing.paths.count"));
      ( "correlation.path_coeffs.minor_words",
        per_request (words (String.equal "correlation.path_coeffs")) );
      ( "core.inter.hit_ratio",
        ratio (counter "inter.hits") (counter "inter.lookups") );
      ("core.inter.builds", per_request (counter "core.inter.builds"));
      ( "core.inter.minor_words",
        per_request (words (String.equal "core.inter")) );
      ( "prob.arena.bytes_reused",
        per_request (counter "prob.arena.bytes_reused") );
      ( "block.arrival.max_calls",
        per_request (counter "block.arrival.max_calls") );
      ("block.minor_words", per_request (words is_block));
      ( "check.impact.reuse_ratio",
        ratio (counter "impact.reused")
          (counter "impact.reused" +. counter "impact.reanalyzed") );
      ( "check.impact.cone_nodes",
        ratio (counter "check.impact.cone_nodes") (counter "impact.requests") );
      ("trace.spans", float_of_int (List.length !spans));
      ("trace.request_s", per_request request_s);
      ("trace.remainder_s", per_request (self_s "request"));
      ("trace.remainder_ratio", ratio (self_s "request") request_s) ]

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [ ("name", Json.String s.name);
                    ("depth", int s.depth);
                    ("start_s", num s.start_s);
                    ("dur_s", num s.dur_s);
                    ("self_s", num s.self_s);
                    ("self_words", num s.self_words) ]));
          output_char oc '\n')
        (List.rev !spans))

let print_metrics fields =
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("mismatches", int !mismatches);
            ( "metrics",
              Json.Obj (List.map (fun (k, v) -> (k, num v)) fields) ) ]))

(* Each timed request through the composite entry point the program
   uses, untraced but for two spans around the server's decode and
   dispatch; its answers are printed for comparison with the program's. *)
let composite dir reqfile spans_out =
  let servers = Hashtbl.create 4 in
  let server design =
    match Hashtbl.find_opt servers design with
    | Some s -> s
    | None ->
        let circuit, placement = load_placed dir design in
        let s =
          Server.create ~config:Config.default
            ~reload:(fun () -> Ok (circuit, placement))
            circuit placement
        in
        Hashtbl.add servers design s;
        s
  in
  let timed = ref 0 and wall = ref 0.0 in
  let gc_words = ref 0.0 and gc_major = ref 0 in
  List.iter
    (fun line ->
      let is_timed, req = parse_request line in
      tracing := is_timed;
      let w0 = Gc.minor_words () in
      let c0 = (Gc.quick_stat ()).Gc.major_collections in
      let t0 = Unix.gettimeofday () in
      let answer =
        match req with
        | Cli { design; confidence } ->
            Report.json_report (cli_composite dir design confidence)
        | Serve { design; line } ->
            let srv = server design in
            let env =
              span "server.protocol.decode" (fun () ->
                  ok (Protocol.decode ~max_bytes:1_048_576 line))
            in
            span "server.dispatch" (fun () -> Server.dispatch srv env)
      in
      if is_timed then begin
        incr timed;
        wall := !wall +. (Unix.gettimeofday () -. t0);
        gc_words := !gc_words +. (Gc.minor_words () -. w0);
        gc_major :=
          !gc_major + ((Gc.quick_stat ()).Gc.major_collections - c0);
        (match req with
        | Serve _ ->
            count "server.json.bytes" (float_of_int (String.length answer))
        | Cli _ -> ())
      end;
      print_endline
        (Json.to_string (Json.Obj [ ("answer", Json.String answer) ])))
    (read_lines reqfile);
  tracing := false;
  write_spans spans_out;
  let n = float_of_int (Int.max 1 !timed) in
  print_metrics
    [ ("server.protocol.decode_s", self_s "server.protocol.decode" /. n);
      ("server.dispatch_s", self_s "server.dispatch" /. n);
      ("server.json.bytes", counter "server.json.bytes" /. n);
      ("gc.minor_words", !gc_words /. n);
      ("gc.major_collections", float_of_int !gc_major /. n);
      ("trace.composite_s", !wall /. n) ]

(* Each timed request again, through the parts, one span per layer call
   under one "request" span; the parts are proven bit-equal to the
   composite. *)
let trace dir reqfile spans_out =
  let mirror = mirrors dir in
  let timed = ref 0 in
  List.iter
    (fun line ->
      let is_timed, req = parse_request line in
      tracing := is_timed;
      if is_timed then incr timed;
      match req with
      | Cli { design; confidence } ->
          cli_traced dir design confidence
            (cli_composite dir design confidence)
      | Serve { design; line } -> serve_traced (mirror design) line)
    (read_lines reqfile);
  tracing := false;
  write_spans spans_out;
  print_metrics (decomposed_metrics ~timed:!timed)

let edits dir design seed n =
  let circuit, placement = load_placed dir design in
  let rng = Ssta_prob.Rng.create seed in
  List.iter
    (fun e -> print_endline (Format.asprintf "%a" Edit.pp_op e.Edit.op))
    (Impact.random_edits ~rng ~count:n (Impact.design ~placement circuit))

let () =
  match Array.to_list Sys.argv with
  | [ _; "edits"; dir; design; seed; n ] ->
      edits dir design (int_of_string seed) (int_of_string n)
  | [ _; "refs"; dir; reqfile ] -> refs dir reqfile
  | [ _; "composite"; dir; reqfile; spans_out ] ->
      composite dir reqfile spans_out
  | [ _; "trace"; dir; reqfile; spans_out ] -> trace dir reqfile spans_out
  | _ ->
      prerr_endline
        "usage: replay.exe (edits DIR DESIGN SEED COUNT | refs DIR REQUESTS \
         | composite DIR REQUESTS SPANS_OUT | trace DIR REQUESTS SPANS_OUT)";
      exit 2
