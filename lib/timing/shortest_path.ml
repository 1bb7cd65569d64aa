module Netlist = Ssta_circuit.Netlist

let labels g =
  let n = Graph.num_nodes g in
  let labels = Array.make n 0.0 in
  for id = 0 to n - 1 do
    if not (Graph.is_input g id) then begin
      let best = ref infinity in
      Array.iter
        (fun f -> if labels.(f) < !best then best := labels.(f))
        (Graph.fanins g id);
      let best = if !best = infinity then 0.0 else !best in
      labels.(id) <- best +. g.Graph.delay.(id)
    end
  done;
  labels

let min_delay g labels =
  Array.fold_left
    (fun acc o -> Float.min acc labels.(o))
    infinity g.Graph.circuit.Netlist.outputs

let min_output g labels =
  let best = ref (-1) in
  Array.iter
    (fun o ->
      match !best with
      | -1 -> best := o
      | b -> if labels.(o) < labels.(b) then best := o)
    g.Graph.circuit.Netlist.outputs;
  if !best < 0 then invalid_arg "Shortest_path.min_output: no outputs";
  !best

let min_path g labels =
  let rec trace acc id =
    let acc = id :: acc in
    if Graph.is_input g id then acc
    else begin
      let arrival_before = labels.(id) -. g.Graph.delay.(id) in
      let fanins = Graph.fanins g id in
      let best = ref (-1) in
      Array.iter
        (fun f ->
          if !best < 0
             && Float.abs (labels.(f) -. arrival_before)
                <= 1e-18 +. (1e-12 *. Float.abs arrival_before)
          then best := f)
        fanins;
      if !best < 0 then begin
        Array.iter
          (fun f ->
            match !best with
            | -1 -> best := f
            | b -> if labels.(f) < labels.(b) then best := f)
          fanins;
        if !best < 0 then
          invalid_arg "Shortest_path.min_path: dangling gate"
      end;
      trace acc !best
    end
  in
  Array.of_list (trace [] (min_output g labels))

exception Limit

let enumerate_near_min ?(max_paths = 200_000) g ~labels ~slack =
  if slack < 0.0 then
    invalid_arg "Shortest_path.enumerate_near_min: slack must be >= 0";
  if max_paths < 1 then
    invalid_arg "Shortest_path.enumerate_near_min: max_paths must be >= 1";
  let fastest = min_delay g labels in
  let eps = 1e-15 +. (1e-12 *. Float.abs fastest) in
  let collected = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  let rec walk id budget suffix =
    let suffix = id :: suffix in
    if Graph.is_input g id then begin
      if !count >= max_paths then raise Limit;
      incr count;
      let nodes = Array.of_list suffix in
      collected :=
        { Paths.nodes; delay = Paths.recompute_delay g nodes } :: !collected
    end
    else begin
      let arrival_before = labels.(id) -. g.Graph.delay.(id) in
      Array.iter
        (fun u ->
          (* how much slower than the fastest fan-in this choice is *)
          let local_excess = labels.(u) -. arrival_before in
          if local_excess <= budget +. eps then
            walk u (budget -. local_excess) suffix)
        (Graph.fanins g id)
    end
  in
  (try
     Array.iter
       (fun o ->
         let budget = slack -. (labels.(o) -. fastest) in
         if budget >= -.eps then walk o budget [])
       g.Graph.circuit.Netlist.outputs
   with Limit -> truncated := true);
  let paths = List.sort (fun a b -> compare a.Paths.delay b.Paths.delay) !collected in
  { Paths.paths;
    truncated = !truncated;
    critical_delay = fastest;
    slack;
    explored = !count;
    deadline_hit = false;
    pops = 0 }
