module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Edit = Ssta_circuit.Edit
module Gate = Ssta_tech.Gate
module Layers = Ssta_correlation.Layers
module Gate_table = Ssta_correlation.Gate_table
module Graph = Ssta_timing.Graph
module Sta = Ssta_timing.Sta
module Paths = Ssta_timing.Paths
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Path_analysis = Ssta_core.Path_analysis
module Path_cache = Ssta_core.Path_cache
module Health = Ssta_runtime.Health
module Err = Ssta_runtime.Ssta_error
module Rng = Ssta_prob.Rng

type design = {
  circuit : Netlist.t;
  placement : Placement.t;
  drives : float array;
  config : Config.t;
}

let design ?placement ?drives ?(config = Config.default) circuit =
  let placement =
    match placement with Some pl -> pl | None -> Placement.place circuit
  in
  let n = Netlist.num_nodes circuit in
  let drives =
    match drives with
    | None -> Array.make n 1.0
    | Some d ->
        if Array.length d <> n then
          invalid_arg
            (Printf.sprintf "Impact.design: %d drives for %d nodes"
               (Array.length d) n);
        Array.iter
          (fun x ->
            if not (Float.is_finite x && x > 0.0) then
              invalid_arg "Impact.design: drives must be finite and positive")
          d;
        Array.copy d
  in
  { circuit; placement; drives; config }

let graph_of d = Graph.with_drives d.circuit d.drives
let sta_of d = Sta.of_graph (graph_of d)

(* --- resolution ------------------------------------------------------- *)

type change =
  | Gate_resize of { node : int; drive : float; old_drive : float }
  | Gate_retype of { node : int; kind : Gate.kind; old_kind : Gate.kind }
  | Cell_move of {
      node : int;
      x : float;
      y : float;
      old_x : float;
      old_y : float;
    }
  | Config_set of {
      param : string;
      value : float;
      effect : Config.param_effect;
    }

exception Fail of Err.t

let fail ~line fmt =
  Printf.ksprintf
    (fun m ->
      raise (Fail (Err.structural ~subject:"edit" (Printf.sprintf "line %d: %s" line m))))
    fmt

let apply_one d change =
  match change with
  | Gate_resize { node; drive; _ } ->
      let drives = Array.copy d.drives in
      drives.(node) <- drive;
      { d with drives }
  | Gate_retype { node; kind; _ } ->
      { d with circuit = Netlist.with_gate_kind d.circuit node kind }
  | Cell_move { node; x; y; _ } ->
      let coords = Array.copy d.placement.Placement.coords in
      coords.(node) <- (x, y);
      { d with placement = { d.placement with Placement.coords } }
  | Config_set { param; value; _ } -> (
      match Config.set_param d.config param value with
      | Ok (config, _) -> { d with config }
      | Error _ ->
          (* resolve validated the delta against the same config chain *)
          assert false)

let apply d changes = List.fold_left apply_one d changes

let resolve_gate d ~line name =
  match Netlist.find_node d.circuit name with
  | None -> fail ~line "unknown gate %S" name
  | Some id when Netlist.is_input d.circuit id ->
      fail ~line "%S is a primary input, not a gate" name
  | Some id -> id

let resolve_one d { Edit.op; line } =
  match op with
  | Edit.Resize { gate; drive } ->
      let node = resolve_gate d ~line gate in
      if not (Float.is_finite drive && drive > 0.0) then
        fail ~line "drive must be positive, got %g" drive;
      Gate_resize { node; drive; old_drive = d.drives.(node) }
  | Edit.Retype { gate; kind } ->
      let node = resolve_gate d ~line gate in
      let g = Netlist.gate_of d.circuit node in
      let arity = Array.length g.Netlist.fanins in
      let kind_name = String.uppercase_ascii kind in
      (match Gate.of_name kind_name arity with
      | None ->
          fail ~line "unknown gate kind %S for a %d-input gate" kind arity
      | Some k -> Gate_retype { node; kind = k; old_kind = g.Netlist.kind })
  | Edit.Move { gate; x; y } ->
      let node = resolve_gate d ~line gate in
      let w = d.placement.Placement.die_width
      and h = d.placement.Placement.die_height in
      if
        (not (Float.is_finite x && Float.is_finite y))
        || x < 0.0 || y < 0.0 || x > w || y > h
      then
        fail ~line
          "move (%g, %g) lands outside the die (0, 0)..(%g, %g) — in no \
           quad-tree leaf"
          x y w h;
      let old_x, old_y = d.placement.Placement.coords.(node) in
      Cell_move { node; x; y; old_x; old_y }
  | Edit.Set { param; value } -> (
      match Config.set_param d.config param value with
      | Ok (_, effect) -> Config_set { param; value; effect }
      | Error msg -> fail ~line "%s" msg)

(* Sequential resolution: each edit is bound against the design after
   the previous ones, so scripts compose (a second move of the same
   gate records the intermediate position as its old one). *)
let resolve d edits =
  try
    let changes, _ =
      List.fold_left
        (fun (acc, cur) e ->
          let c = resolve_one cur e in
          (c :: acc, apply_one cur c))
        ([], d) edits
    in
    Ok (List.rev changes)
  with Fail e -> Error e

(* --- the cone --------------------------------------------------------- *)

type cone = {
  dirty : bool array;
  forward : bool array;
  backward : bool array;
  dirty_count : int;
  cone_nodes : int;
  affected_endpoints : int list;
  full : bool;
}

(* A gate's delay depends on its output load, which sums its consumers'
   input capacitances at their kinds and drives — so a resize/retype of
   [g] perturbs [g] and every fan-in of [g].  A move perturbs the intra
   variance split of the moved gate and, conservatively, of every gate
   in the deepest quad-tree leaf it leaves or enters (the Eq. (14)
   soundness case; see the interface preamble). *)
let dirty_of d changes =
  let n = Netlist.num_nodes d.circuit in
  let dirty = Array.make n false in
  let full = ref false in
  let mark_leaf_residents ~p_old ~p_new layers level =
    Array.iter
      (fun (g : Netlist.gate) ->
        let x, y = d.placement.Placement.coords.(g.Netlist.id) in
        if Float.is_finite x && Float.is_finite y then begin
          let p = Layers.partition_of layers ~level ~x ~y in
          if p = p_old || p = p_new then dirty.(g.Netlist.id) <- true
        end)
      d.circuit.Netlist.gates
  in
  List.iter
    (fun change ->
      match change with
      | Gate_resize { node; _ } | Gate_retype { node; _ } ->
          dirty.(node) <- true;
          Array.iter
            (fun f -> dirty.(f) <- true)
            (Netlist.gate_of d.circuit node).Netlist.fanins
      | Cell_move { node; x; y; old_x; old_y } ->
          dirty.(node) <- true;
          let layers =
            Layers.create ~quad_levels:d.config.Config.quad_levels
              ~random_layer:false
              ~die_width:d.placement.Placement.die_width
              ~die_height:d.placement.Placement.die_height ()
          in
          let level = d.config.Config.quad_levels - 1 in
          let p_old = Layers.partition_of layers ~level ~x:old_x ~y:old_y in
          let p_new = Layers.partition_of layers ~level ~x ~y in
          mark_leaf_residents ~p_old ~p_new layers level
      | Config_set { effect = Config.Enumeration_only; _ } -> ()
      | Config_set { effect = Config.Analysis | Config.Tables; _ } ->
          full := true)
    changes;
  (dirty, !full)

let cone_of d changes =
  let dirty, full = dirty_of d changes in
  let forward, backward =
    if full then begin
      let n = Array.length dirty in
      (Array.make n true, Array.make n true)
    end
    else
      (* Node ids are topological: ascending, every fan-in is final
         when a node is visited; descending, every consumer has already
         pushed into its fan-ins. *)
      let n = Array.length dirty in
      let forward = Array.copy dirty and backward = Array.copy dirty in
      let fanins id =
        if Netlist.is_input d.circuit id then [||]
        else (Netlist.gate_of d.circuit id).Netlist.fanins
      in
      for id = 0 to n - 1 do
        if not forward.(id) then
          forward.(id) <- Array.exists (fun f -> forward.(f)) (fanins id)
      done;
      for id = n - 1 downto 0 do
        if backward.(id) then
          Array.iter (fun f -> backward.(f) <- true) (fanins id)
      done;
      (forward, backward)
  in
  let dirty_count =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 dirty
  in
  let cone_nodes = ref 0 in
  Array.iteri
    (fun i f -> if f || backward.(i) then incr cone_nodes)
    forward;
  let affected_endpoints =
    Array.to_list
      (Array.of_seq
         (Seq.filter (fun o -> forward.(o))
            (Array.to_seq d.circuit.Netlist.outputs)))
  in
  { dirty;
    forward;
    backward;
    dirty_count;
    cone_nodes = !cone_nodes;
    affected_endpoints;
    full }

(* --- incremental state ------------------------------------------------ *)

module Path_table = Path_cache.Table

type state = {
  mutable design : design;
  mutable sta : Sta.t;
  mutable gates : Gate_table.t;
  mutable warm : Path_analysis.warm;
  cache : Path_cache.entry Path_table.t;
  lifetime : Health.t;
}

let design_of s = s.design
let gate_table s = s.gates
let cache_size s = Path_table.length s.cache
let ledger s = s.lifetime

let screen_of config =
  if config.Config.affine_prune then Some (Affine.methodology_screen config)
  else None

let run_design ?pool ?gates ?reuse ?record d ~sta ~warm =
  Methodology.analyze ~config:d.config ~placement:d.placement ?pool
    ?screen:(screen_of d.config) ~sta ~warm ?gates ?reuse ?record d.circuit

let gates_of d (sta : Sta.t) =
  Gate_table.build sta.Sta.graph d.placement
    (Config.layers_for d.config d.placement)
    ~corner_k:d.config.Config.corner_k

let record_into cache p pa ledger =
  Path_table.replace cache (Path_cache.Key.of_path p) (pa, ledger)

let init ?pool ?(ledger = Health.create ()) d =
  match
    Err.protect ~context:"Impact.init" (fun () -> Path_analysis.warm d.config)
  with
  | Error e -> Error e
  | Ok warm -> (
      let cache = Path_table.create 1024 in
      let sta = sta_of d in
      let gates = gates_of d sta in
      match
        run_design ?pool ~gates ~record:(record_into cache) d ~sta ~warm
      with
      | Error e -> Error e
      | Ok report ->
          Ok ({ design = d; sta; gates; warm; cache; lifetime = ledger }, report))

type outcome = {
  report : Methodology.t;
  cone : cone;
  invalidated : int;
  reused : int;
  reanalyzed : int;
}

(* The gates whose kind or drive a change list alters; moves and
   parameter deltas never enter [Graph.with_drives]. *)
let resized changes =
  List.filter_map
    (function
      | Gate_resize { node; _ } | Gate_retype { node; _ } -> Some node
      | Cell_move _ | Config_set _ -> None)
    changes

(* The edited design's timing image, derived from the state's (the same
   one when no gate was resized or retyped), and the number of gates
   whose electricals it re-derived. *)
let next_sta s next changed =
  if changed = [] then (s.sta, 0)
  else
    let graph, retimed =
      Graph.redrive s.sta.Sta.graph next.circuit next.drives ~changed
    in
    (Sta.relabel s.sta graph ~changed:retimed, List.length retimed)

(* The edited design's gate table: the state's when neither the graph
   nor the placement changed, a patch of it re-deriving only the moved
   cells, or a fresh build when the layering or the corner changed (a
   [Tables]/[Analysis] delta, which re-analyzes everything anyway). *)
let next_gates s next (sta : Sta.t) changes =
  let layers = Config.layers_for next.config next.placement in
  let corner_k = next.config.Config.corner_k in
  let graph = sta.Sta.graph in
  if Gate_table.fits s.gates graph next.placement layers ~corner_k then s.gates
  else if
    Gate_table.fits s.gates s.gates.Gate_table.graph
      s.gates.Gate_table.placement layers ~corner_k
  then
    let moved =
      List.filter_map
        (function Cell_move { node; _ } -> Some node | _ -> None)
        changes
    in
    Gate_table.patch s.gates graph next.placement moved
  else gates_of next sta

(* The body of [reanalyze] and [what_if]: the state's cache is only read
   during the run, so a failed run or an uncommitted probe leaves it
   untouched; a commit then drops the stale entries and records the
   fresh analyses. *)
let run_edit ~commit ?pool s edits =
  match resolve s.design edits with
  | Error e -> Error e
  | Ok changes -> (
      let cone = cone_of s.design changes in
      let next = apply s.design changes in
      (* Exactly the cached paths the cone touches are stale — or
         everything on an analysis/table-level parameter delta. *)
      let stale nodes =
        cone.full || Array.exists (fun n -> cone.dirty.(n)) nodes
      in
      let invalidated =
        Path_table.fold
          (fun (nodes, _) _ acc -> if stale nodes then acc + 1 else acc)
          s.cache 0
      in
      let warm_result =
        if Path_analysis.warm_compatible s.warm next.config then Ok s.warm
        else
          Err.protect ~context:"Impact.reanalyze" (fun () ->
              Path_analysis.warm next.config)
      in
      match warm_result with
      | Error e -> Error e
      | Ok warm -> (
          let sta, retimed = next_sta s next (resized changes) in
          let gates = next_gates s next sta changes in
          let reused = ref 0 and fresh = ref [] in
          let reuse p =
            if stale p.Paths.nodes then None
            else
              match
                Path_table.find_opt s.cache (Path_cache.Key.of_path p)
              with
              | Some _ as hit ->
                  incr reused;
                  hit
              | None -> None
          in
          let record p pa ledger = fresh := (p, pa, ledger) :: !fresh in
          match run_design ?pool ~gates ~reuse ~record next ~sta ~warm with
          | Error e -> Error e
          | Ok report ->
              let reanalyzed = List.length !fresh in
              if commit then begin
                s.design <- next;
                s.sta <- sta;
                s.gates <- gates;
                s.warm <- warm;
                Path_table.filter_map_inplace
                  (fun (nodes, _) v -> if stale nodes then None else Some v)
                  s.cache;
                List.iter
                  (fun (p, pa, ledger) -> record_into s.cache p pa ledger)
                  (List.rev !fresh)
              end;
              Health.counter_add s.lifetime "impact-edits"
                (List.length changes);
              Health.counter_add s.lifetime "impact-cone-nodes"
                cone.cone_nodes;
              Health.counter_add s.lifetime "impact-cache-invalidated"
                invalidated;
              Health.counter_add s.lifetime "impact-paths-reused" !reused;
              Health.counter_add s.lifetime "impact-paths-reanalyzed"
                reanalyzed;
              Health.counter_add s.lifetime "impact-gates-retimed" retimed;
              Ok
                { report;
                  cone;
                  invalidated;
                  reused = !reused;
                  reanalyzed }))

let reanalyze ?pool s edits = run_edit ~commit:true ?pool s edits
let what_if ?pool s edits = run_edit ~commit:false ?pool s edits

let scratch ?pool d =
  match
    Err.protect ~context:"Impact.scratch" (fun () -> Path_analysis.warm d.config)
  with
  | Error e -> Error e
  | Ok warm -> run_design ?pool d ~sta:(sta_of d) ~warm

(* --- the random-edit corpus ------------------------------------------ *)

let sibling_kind = function
  | Gate.Inv -> Gate.Buf
  | Gate.Buf -> Gate.Inv
  | Gate.Nand n -> Gate.Nor n
  | Gate.Nor n -> Gate.Nand n
  | Gate.And n -> Gate.Or n
  | Gate.Or n -> Gate.And n
  | Gate.Xor2 -> Gate.Xnor2
  | Gate.Xnor2 -> Gate.Xor2

let random_edits ~rng ~count d =
  List.init count (fun i ->
      let node =
        d.circuit.Netlist.num_inputs
        + Rng.int rng (Netlist.num_gates d.circuit)
      in
      let gate = Netlist.node_name d.circuit node in
      let op =
        match Rng.int rng 3 with
        | 0 ->
            Edit.Resize { gate; drive = Rng.uniform rng ~lo:0.6 ~hi:1.6 }
        | 1 ->
            Edit.Retype
              { gate;
                kind =
                  Gate.name
                    (sibling_kind (Netlist.gate_of d.circuit node).Netlist.kind)
              }
        | _ ->
            Edit.Move
              { gate;
                x =
                  Rng.uniform rng ~lo:0.0
                    ~hi:d.placement.Placement.die_width;
                y =
                  Rng.uniform rng ~lo:0.0
                    ~hi:d.placement.Placement.die_height }
      in
      { Edit.op; line = i + 1 })
