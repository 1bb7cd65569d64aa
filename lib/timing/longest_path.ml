(* The best fan-in label plus the gate's own delay: the one per-node
   expression both {!bellman_ford} and {!relabel} evaluate. *)
let arrival g labels id =
  let best = ref neg_infinity in
  Array.iter
    (fun f -> if labels.(f) > !best then best := labels.(f))
    (Graph.fanins g id);
  !best +. g.Graph.delay.(id)

(* The paper's relaxation, one round: fan-ins have smaller ids, so an
   ascending pass relaxes every edge after its tail is final, and a
   second round would change nothing. *)
let bellman_ford g =
  let labels =
    Array.init (Graph.num_nodes g) (fun id ->
        if Graph.is_input g id then 0.0 else neg_infinity)
  in
  for id = 0 to Array.length labels - 1 do
    if not (Graph.is_input g id) then begin
      let candidate = arrival g labels id in
      if candidate > labels.(id) then labels.(id) <- candidate
    end
  done;
  labels

let relabel g labels ~changed =
  let labels = Array.copy labels in
  let moved = Array.make (Array.length labels) false in
  List.iter (fun id -> moved.(id) <- true) changed;
  (* Fan-ins have smaller ids, so one ascending pass from the smallest
     changed id sees every fan-in final.  [moved] marks a node to
     recompute on entry and, after it, whether its label changed. *)
  let lo = List.fold_left min (Array.length labels) changed in
  for id = lo to Array.length labels - 1 do
    if
      (not (Graph.is_input g id))
      && (moved.(id) || Array.exists (fun f -> moved.(f)) (Graph.fanins g id))
    then begin
      let l = arrival g labels id in
      moved.(id) <- l <> labels.(id);
      labels.(id) <- l
    end
  done;
  labels

let suffix g =
  let m = Array.make (Graph.num_nodes g) neg_infinity in
  Array.iter (fun o -> m.(o) <- 0.0) g.Graph.circuit.Ssta_circuit.Netlist.outputs;
  (* Consumers have larger ids, so each is final when its fan-ins are
     visited; a consumer that reaches no output adds [neg_infinity],
     the identity of the max. *)
  for u = Array.length m - 1 downto 0 do
    Array.iter
      (fun c -> m.(u) <- Float.max m.(u) (m.(c) +. g.Graph.delay.(c)))
      g.Graph.fanouts.(u)
  done;
  m

let critical_delay g labels =
  Array.fold_left
    (fun acc o -> Float.max acc labels.(o))
    neg_infinity g.Graph.circuit.Ssta_circuit.Netlist.outputs

let critical_output g labels =
  let best = ref (-1) in
  Array.iter
    (fun o ->
      match !best with
      | -1 -> best := o
      | b -> if labels.(o) > labels.(b) then best := o)
    g.Graph.circuit.Ssta_circuit.Netlist.outputs;
  if !best < 0 then invalid_arg "Longest_path.critical_output: no outputs";
  !best

let critical_path g labels =
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
             && Float.abs (labels.(f) -. arrival_before) <= 1e-18 +. (1e-12 *. Float.abs arrival_before)
          then best := f)
        fanins;
      (* Guard against float drift: fall back to the max-label fan-in. *)
      if !best < 0 then begin
        Array.iter
          (fun f ->
            match !best with
            | -1 -> best := f
            | b -> if labels.(f) > labels.(b) then best := f)
          fanins;
        if !best < 0 then invalid_arg "Longest_path.critical_path: dangling gate"
      end;
      trace acc !best
    end
  in
  Array.of_list (trace [] (critical_output g labels))
