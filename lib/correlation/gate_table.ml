module Params = Ssta_tech.Params
module Graph = Ssta_timing.Graph
module Placement = Ssta_circuit.Placement

type t = {
  graph : Graph.t;
  placement : Placement.t;
  layers : Layers.t;
  corner_k : float;
  grads : Params.t array;
  corner : Ssta_tech.Elmore.factors;
  corner_error : string option;
  bases : Bytes.t array;
}

(* 32 nodes per chunk, so that a patch allocates a spine and the
   chunks it touches, all small enough for the minor heap, instead of
   a whole node array.  The bases are 32-bit: every slot index of a
   vector that can be allocated fits. *)
let chunk_bits = 5
let chunk_mask = (1 lsl chunk_bits) - 1
let chunk_nodes = 1 lsl chunk_bits

let chunk_base b i = Int32.to_int (Bytes.get_int32_ne b (4 * i))

let build_count = Atomic.make 0
let derive_count = Atomic.make 0
let builds () = Atomic.get build_count
let derivations () = Atomic.get derive_count

let worst t id =
  match t.graph.Graph.electrical.(id) with
  | Some e -> Ssta_tech.Elmore.delay_of t.corner e
  | None -> 0.0

let base t id layer =
  chunk_base
    t.bases.(id lsr chunk_bits)
    (((id land chunk_mask) * t.layers.Layers.quad_levels) + layer)

(* The worst corner's delay factors, or zeros and the message of the
   corner's validity failure (raised later, where a path walk would
   have). *)
let corner_of corner_k =
  match Ssta_tech.Corner.point ~k:corner_k Ssta_tech.Corner.Worst with
  | p -> (Ssta_tech.Elmore.factors p, None)
  | exception Invalid_argument msg ->
      ({ Ssta_tech.Elmore.geometry = 0.0; vn = 0.0; vp = 0.0 }, Some msg)

(* Node [id]'s bases from [placement], into its chunk [b]. *)
let derive_bases layers placement b id =
  let q = layers.Layers.quad_levels in
  let x, y = Placement.coord placement id in
  for level = 0 to q - 1 do
    let partition = Layers.partition_of layers ~level ~x ~y in
    Bytes.set_int32_ne b
      (4 * (((id land chunk_mask) * q) + level))
      (Int32.of_int (Slots.num_rvs * (Slots.layer_offset level + partition)))
  done

let build graph placement layers ~corner_k =
  let q = layers.Layers.quad_levels in
  if Slots.num_slots ~quad_levels:q > Int32.to_int Int32.max_int then
    invalid_arg "Gate_table.build: too many quad-tree layers";
  Atomic.incr build_count;
  let n = Graph.num_nodes graph in
  ignore (Atomic.fetch_and_add derive_count n);
  let corner, corner_error = corner_of corner_k in
  let chunks = (n + chunk_nodes - 1) lsr chunk_bits in
  let bases = Array.init chunks (fun _ -> Bytes.make (4 * chunk_nodes * q) '\000') in
  for id = 0 to n - 1 do
    derive_bases layers placement bases.(id lsr chunk_bits) id
  done;
  { graph;
    placement;
    layers;
    corner_k;
    grads = Graph.grads graph;
    corner;
    corner_error;
    bases }

(* A new graph only changes the reference: what the table holds per
   node depends on the placement alone.  A new placement copies the
   spine and re-derives the chunks of the moved nodes, each copied
   once; every other chunk is shared with [prev], which no one
   mutates. *)
let patch prev graph placement moved =
  let n = Graph.num_nodes graph in
  if n <> Graph.num_nodes prev.graph then
    invalid_arg "Gate_table.patch: node count differs from the table's";
  if List.exists (fun id -> id < 0 || id >= n) moved then
    invalid_arg "Gate_table.patch: bad node id";
  let bases =
    if placement == prev.placement then prev.bases
    else begin
      let bases = Array.copy prev.bases in
      List.iter
        (fun id ->
          let c = id lsr chunk_bits in
          if bases.(c) == prev.bases.(c) then bases.(c) <- Bytes.copy bases.(c);
          derive_bases prev.layers placement bases.(c) id)
        moved;
      ignore (Atomic.fetch_and_add derive_count (List.length moved));
      bases
    end
  in
  { prev with graph; placement; grads = Graph.grads graph; bases }

let fits t graph placement layers ~corner_k =
  t.graph == graph && t.placement == placement && t.layers = layers
  && Int64.equal
       (Int64.bits_of_float t.corner_k)
       (Int64.bits_of_float corner_k)

let check_corner t =
  match t.corner_error with Some msg -> invalid_arg msg | None -> ()
