module Params = Ssta_tech.Params

type key = { rv : Params.rv; layer : int; partition : int }

let rv_sigma = Array.of_list (List.map Params.sigma Params.all_rvs)
let num_rvs = Array.length rv_sigma
let () = assert (num_rvs = 5)
let layer_offset layer = ((1 lsl (2 * layer)) - 1) / 3
let num_slots ~quad_levels = num_rvs * layer_offset quad_levels

let slot key =
  let layer = key.layer and partition = key.partition in
  if layer < 0 || partition < 0 || partition >= 1 lsl (2 * layer) then
    invalid_arg "Slots.slot: partition out of range for its layer";
  Params.rv_index key.rv + (num_rvs * (layer_offset layer + partition))

let var budget ~layer r =
  let s = Budget.sigma_of_layer budget ~total_sigma:rv_sigma.(r) layer in
  s *. s

(* Walks the vectors layer by layer, holding the layer's five per-RV
   variances in registers, one partition (5 slots) per step. *)
let dot budget a b =
  let n = Int.min (Array.length a) (Array.length b) in
  let acc = ref 0.0 and layer = ref 0 in
  while num_rvs * layer_offset !layer < n do
    let l = !layer in
    let v0 = var budget ~layer:l 0 and v1 = var budget ~layer:l 1
    and v2 = var budget ~layer:l 2 and v3 = var budget ~layer:l 3
    and v4 = var budget ~layer:l 4 in
    let hi = Int.min n (num_rvs * layer_offset (l + 1)) in
    let j = ref (num_rvs * layer_offset l) in
    while !j < hi do
      let i = !j in
      acc :=
        !acc
        +. (a.(i) *. b.(i) *. v0)
        +. (a.(i + 1) *. b.(i + 1) *. v1)
        +. (a.(i + 2) *. b.(i + 2) *. v2)
        +. (a.(i + 3) *. b.(i + 3) *. v3)
        +. (a.(i + 4) *. b.(i + 4) *. v4);
      j := i + 5
    done;
    incr layer
  done;
  !acc

(* Neumaier's compensated summation: the rounding error of each
   addition is carried in [comp] and added back once at the end. *)
let sq_norm budget ?layer v =
  let n = Array.length v in
  let first, last =
    match layer with Some l -> (l, l) | None -> (0, max_int)
  in
  let sum = ref 0.0 and comp = ref 0.0 and l = ref first in
  while !l <= last && num_rvs * layer_offset !l < n do
    let hi = Int.min n (num_rvs * layer_offset (!l + 1)) in
    for r = 0 to num_rvs - 1 do
      let w = var budget ~layer:!l r in
      let i = ref ((num_rvs * layer_offset !l) + r) in
      while !i < hi do
        let x = v.(!i) *. v.(!i) *. w in
        let s = !sum in
        let t = s +. x in
        comp :=
          !comp
          +. if Float.abs s >= Float.abs x then s -. t +. x else x -. t +. s;
        sum := t;
        i := !i + num_rvs
      done
    done;
    incr l
  done;
  !sum +. !comp
