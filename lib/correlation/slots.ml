module Params = Ssta_tech.Params

type key = { rv : Params.rv; layer : int; partition : int }

let num_rvs = List.length Params.all_rvs
let () = assert (num_rvs = 5)
let layer_offset layer = ((1 lsl (2 * layer)) - 1) / 3
let num_slots ~quad_levels = num_rvs * layer_offset quad_levels

let slot key =
  let layer = key.layer and partition = key.partition in
  if layer < 0 || partition < 0 || partition >= 1 lsl (2 * layer) then
    invalid_arg "Slots.slot: partition out of range for its layer";
  Params.rv_index key.rv + (num_rvs * (layer_offset layer + partition))

let var budget ~layer r =
  if layer < 0 || layer >= Budget.layers budget || r < 0 || r >= num_rvs then
    invalid_arg "Slots.var: bad layer or RV";
  Array.unsafe_get budget.Budget.rv_var ((layer * num_rvs) + r)

let check_span budget n =
  if n mod num_rvs <> 0 then
    invalid_arg "Slots: a vector must hold whole partitions";
  let layers = ref 0 in
  while num_rvs * layer_offset !layers < n do
    incr layers
  done;
  if !layers > Budget.layers budget then
    invalid_arg "Slots: a vector spans a layer the budget lacks"

(* The loops below walk the vectors layer by layer, holding the layer's
   five per-RV variances in registers, one partition (5 slots) per
   step.  After the one [check_span] every read and write is inside the
   vectors and the budget's variance table, so they go unchecked. *)

let dot budget a b =
  let n = Int.min (Array.length a) (Array.length b) in
  check_span budget n;
  let vars = budget.Budget.rv_var in
  let acc = ref 0.0 and layer = ref 0 in
  while num_rvs * layer_offset !layer < n do
    let l = !layer in
    let k = l * num_rvs in
    let v0 = Array.unsafe_get vars k
    and v1 = Array.unsafe_get vars (k + 1)
    and v2 = Array.unsafe_get vars (k + 2)
    and v3 = Array.unsafe_get vars (k + 3)
    and v4 = Array.unsafe_get vars (k + 4) in
    let hi = Int.min n (num_rvs * layer_offset (l + 1)) in
    let j = ref (num_rvs * layer_offset l) in
    while !j < hi do
      let i = !j in
      acc :=
        !acc
        +. (Array.unsafe_get a i *. Array.unsafe_get b i *. v0)
        +. (Array.unsafe_get a (i + 1) *. Array.unsafe_get b (i + 1) *. v1)
        +. (Array.unsafe_get a (i + 2) *. Array.unsafe_get b (i + 2) *. v2)
        +. (Array.unsafe_get a (i + 3) *. Array.unsafe_get b (i + 3) *. v3)
        +. (Array.unsafe_get a (i + 4) *. Array.unsafe_get b (i + 4) *. v4);
      j := i + 5
    done;
    incr layer
  done;
  !acc

(* Slot [i] of [v], read as zero past its end ([len] is its length). *)
let padded (v : float array) len i =
  if i < len then Array.unsafe_get v i else 0.0

let combine_into budget c ~wa a ~wb b =
  let n = Array.length c in
  check_span budget n;
  let vars = budget.Budget.rv_var in
  let la = Array.length a and lb = Array.length b in
  let acc = ref 0.0 and layer = ref 0 in
  while num_rvs * layer_offset !layer < n do
    let l = !layer in
    let k = l * num_rvs in
    let v0 = Array.unsafe_get vars k
    and v1 = Array.unsafe_get vars (k + 1)
    and v2 = Array.unsafe_get vars (k + 2)
    and v3 = Array.unsafe_get vars (k + 3)
    and v4 = Array.unsafe_get vars (k + 4) in
    let hi = Int.min n (num_rvs * layer_offset (l + 1)) in
    let j = ref (num_rvs * layer_offset l) in
    while !j < hi do
      let i = !j in
      let x0 = (wa *. padded a la i) +. (wb *. padded b lb i)
      and x1 = (wa *. padded a la (i + 1)) +. (wb *. padded b lb (i + 1))
      and x2 = (wa *. padded a la (i + 2)) +. (wb *. padded b lb (i + 2))
      and x3 = (wa *. padded a la (i + 3)) +. (wb *. padded b lb (i + 3))
      and x4 = (wa *. padded a la (i + 4)) +. (wb *. padded b lb (i + 4)) in
      Array.unsafe_set c i x0;
      Array.unsafe_set c (i + 1) x1;
      Array.unsafe_set c (i + 2) x2;
      Array.unsafe_set c (i + 3) x3;
      Array.unsafe_set c (i + 4) x4;
      acc :=
        !acc
        +. (x0 *. x0 *. v0)
        +. (x1 *. x1 *. v1)
        +. (x2 *. x2 *. v2)
        +. (x3 *. x3 *. v3)
        +. (x4 *. x4 *. v4);
      j := i + 5
    done;
    incr layer
  done;
  !acc

(* Neumaier's compensated summation: the rounding error of each
   addition is carried in [comp] and added back once at the end.  A
   zero slot (either sign) adds the term +0.0, which leaves both [sum]
   and [comp] as they were — neither is ever -0.0, as every term is
   non-negative (a budget's variances are finite and non-negative) —
   so it is skipped, and so are the partitions missing from [parts]:
   the sum is the dense chain's, layer by layer, RV by RV, partitions
   in increasing order. *)
let sq_norm budget ?layer ~parts coeffs =
  let n = Array.length parts in
  let sum = ref 0.0 and comp = ref 0.0 in
  let first = ref 0 and l = ref 0 in
  while !first < n do
    while layer_offset (!l + 1) <= parts.(!first) do
      incr l
    done;
    let last = ref !first in
    while !last < n && parts.(!last) < layer_offset (!l + 1) do
      incr last
    done;
    if match layer with Some u -> u = !l | None -> true then
      for r = 0 to num_rvs - 1 do
        let w = var budget ~layer:!l r in
        for i = !first to !last - 1 do
          let c = coeffs.((num_rvs * i) + r) in
          if c <> 0.0 then begin
            let x = c *. c *. w in
            let s = !sum in
            let t = s +. x in
            comp :=
              !comp
              +. if Float.abs s >= Float.abs x then s -. t +. x else x -. t +. s;
            sum := t
          end
        done
      done;
    first := !last
  done;
  !sum +. !comp
