module Pdf = Ssta_prob.Pdf
module Elmore = Ssta_tech.Elmore
module Graph = Ssta_timing.Graph
module Sta = Ssta_timing.Sta
module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Config = Ssta_core.Config
module Gate_table = Ssta_correlation.Gate_table

type endpoint = {
  node : int;
  name : string;
  arrival : Arrival.t;
  pdf : Pdf.t;
  mean : float;
  std : float;
  inter_sigma : float;
  intra_sigma : float;
  confidence_point : float;
}

type t = {
  config : Config.t;
  circuit_name : string;
  num_gates : int;
  sta : Sta.t;
  endpoints : endpoint list;
  arrival : Arrival.t;
  pdf : Pdf.t;
  mean : float;
  std : float;
  inter_sigma : float;
  intra_sigma : float;
  confidence_point : float;
  runtime_s : float;
}

let endpoint_of config ~node ~name arrival =
  { node;
    name;
    arrival;
    pdf = Arrival.total_pdf config arrival;
    mean = Arrival.mean arrival;
    std = Arrival.std config arrival;
    inter_sigma = Arrival.inter_sigma config arrival;
    intra_sigma = Arrival.intra_sigma config arrival;
    confidence_point = Arrival.confidence_point config arrival }

(* One topological sweep.  Each interior node's arrival is reset to
   [zero] once its last consumer has run, and its vector goes back to
   [pool] for a later step, so only the sweep frontier stays live.
   Consumers are counted per fan-in edge (a gate that reads a node twice
   holds it twice); every primary output holds one more use, which is
   never released, for the endpoint table. *)
let propagate config gates ~outputs pool =
  let graph = gates.Gate_table.graph in
  let n = Graph.num_nodes graph in
  let zero = Arrival.zero () in
  let arrivals = Array.make n zero in
  let uses = Array.make n 0 in
  for id = 0 to n - 1 do
    Array.iter (fun f -> uses.(f) <- uses.(f) + 1) (Graph.fanins graph id)
  done;
  Array.iter (fun o -> uses.(o) <- uses.(o) + 1) outputs;
  for id = 0 to n - 1 do
    if not (Graph.is_input graph id) then begin
      arrivals.(id) <-
        Arrival.step pool config gates arrivals id;
      let fanins = Graph.fanins graph id in
      for k = 0 to Array.length fanins - 1 do
        let f = fanins.(k) in
        uses.(f) <- uses.(f) - 1;
        if uses.(f) = 0 then begin
          Arrival.recycle pool arrivals.(f);
          arrivals.(f) <- zero
        end
      done
    end
  done;
  arrivals

let analyze ?(config = Config.default) ?placement ?sta ?gates
    ?(pool = Arrival.pool ()) circuit =
  let started = Unix.gettimeofday () in
  let sta = match sta with Some s -> s | None -> Sta.analyze circuit in
  let graph = sta.Sta.graph in
  let placement =
    match placement with Some pl -> pl | None -> Placement.place circuit
  in
  let layers = Config.layers_for config placement in
  let corner_k = config.Config.corner_k in
  let gates =
    match gates with
    | None -> Gate_table.build graph placement layers ~corner_k
    | Some tb when Gate_table.fits tb graph placement layers ~corner_k -> tb
    | Some _ ->
        invalid_arg
          "Engine.analyze: gate table built for another graph, placement, \
           layering or corner"
  in
  let outputs = circuit.Netlist.outputs in
  if Array.length outputs = 0 then
    invalid_arg "Engine.analyze: circuit has no outputs";
  let arrivals = propagate config gates ~outputs pool in
  let arrival = Arrival.max_fold pool config arrivals outputs in
  let endpoints =
    Array.to_list outputs
    |> List.map (fun o ->
           endpoint_of config ~node:o
             ~name:(Netlist.node_name circuit o)
             arrivals.(o))
  in
  { config;
    circuit_name = circuit.Netlist.name;
    num_gates = Netlist.num_gates circuit;
    sta;
    endpoints;
    arrival;
    pdf = Arrival.total_pdf config arrival;
    mean = Arrival.mean arrival;
    std = Arrival.std config arrival;
    inter_sigma = Arrival.inter_sigma config arrival;
    intra_sigma = Arrival.intra_sigma config arrival;
    confidence_point = Arrival.confidence_point config arrival;
    runtime_s = Unix.gettimeofday () -. started }

(* ----- deterministic JSON report -----

   Same contract as Report.json_report: a pure function of the analysis
   results (round-trip floats, no wall-clock), so identical results are
   byte-identical — the block-mode [--jobs] determinism tests diff this
   artifact. *)

module Json = Ssta_runtime.Json

let quantile_fields pdf =
  [ ("q001_s", Json.Number (Pdf.quantile pdf 0.001));
    ("median_s", Json.Number (Pdf.quantile pdf 0.5));
    ("q999_s", Json.Number (Pdf.quantile pdf 0.999)) ]

let endpoint_json ep =
  Json.Obj
    ([ ("node", Json.int ep.node);
       ("name", Json.String ep.name);
       ("mean_s", Json.Number ep.mean);
       ("std_s", Json.Number ep.std);
       ("inter_sigma_s", Json.Number ep.inter_sigma);
       ("intra_sigma_s", Json.Number ep.intra_sigma);
       ("confidence_point_s", Json.Number ep.confidence_point) ]
    @ quantile_fields ep.pdf)

let json t =
  let cfg = t.config in
  Json.Obj
    ([ ("circuit", Json.String t.circuit_name);
       ("engine", Json.String "block");
       ("gates", Json.int t.num_gates);
       ( "config",
         Json.Obj
           [ ("confidence_sigma", Json.Number cfg.Config.confidence_sigma);
             ("quality_intra", Json.int cfg.Config.quality_intra);
             ("truncation", Json.Number cfg.Config.truncation);
             ( "max_policy",
               Json.String (Config.max_policy_name cfg.Config.block_max) ) ] );
       ("critical_delay_s", Json.Number t.sta.Sta.critical_delay);
       ("mean_s", Json.Number t.mean);
       ("std_s", Json.Number t.std);
       ("inter_sigma_s", Json.Number t.inter_sigma);
       ("intra_sigma_s", Json.Number t.intra_sigma);
       ("confidence_point_s", Json.Number t.confidence_point) ]
    @ quantile_fields t.pdf
    @ [ ( "endpoints",
          Json.Seq (Seq.map endpoint_json (List.to_seq t.endpoints)) );
        ("circuit_pdf", Ssta_core.Report.pdf_json t.pdf) ])

let json_report t = Json.to_string (json t)

let pp_summary fmt t =
  Format.fprintf fmt "circuit %s: %d gates, engine block (%s max)@."
    t.circuit_name t.num_gates
    (Config.max_policy_name t.config.Config.block_max);
  Format.fprintf fmt "deterministic critical delay: %.3f ps@."
    (Elmore.ps t.sta.Sta.critical_delay);
  Format.fprintf fmt
    "circuit arrival: mean %.3f ps, sigma %.3f ps (inter %.3f / intra %.3f)@."
    (Elmore.ps t.mean) (Elmore.ps t.std)
    (Elmore.ps t.inter_sigma)
    (Elmore.ps t.intra_sigma);
  Format.fprintf fmt "%g-sigma point: %.3f ps@."
    t.config.Config.confidence_sigma
    (Elmore.ps t.confidence_point);
  Format.fprintf fmt "endpoints: %d@." (List.length t.endpoints)

let pp_endpoints fmt t =
  Format.fprintf fmt "%-16s %10s %10s %10s@." "endpoint" "mean(ps)"
    "sigma(ps)" "conf(ps)";
  List.iter
    (fun ep ->
      Format.fprintf fmt "%-16s %10.3f %10.3f %10.3f@." ep.name
        (Elmore.ps ep.mean) (Elmore.ps ep.std)
        (Elmore.ps ep.confidence_point))
    t.endpoints
