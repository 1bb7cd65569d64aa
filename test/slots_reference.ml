(* The slot kernels written plainly: one checked read per slot, in slot
   order, each RV's variance squared from [Budget.sigma_of_layer] on the
   spot.  [Slots.dot] and the span kernels read their variances from the
   budget's table without bounds checks, five slots per step; they are
   checked against these bit for bit. *)

module Params = Ssta_tech.Params
module Budget = Ssta_correlation.Budget
module Slots = Ssta_correlation.Slots

let rvs = Array.of_list Params.all_rvs

(* The layer slot [i] lies on. *)
let layer_of i =
  let l = ref 0 in
  while Slots.num_rvs * Slots.layer_offset (!l + 1) <= i do
    incr l
  done;
  !l

let var budget i =
  let s =
    Budget.sigma_of_layer budget
      ~total_sigma:(Params.sigma rvs.(i mod Slots.num_rvs))
      (layer_of i)
  in
  s *. s

let dot budget a b =
  let acc = ref 0.0 in
  for i = 0 to Int.min (Array.length a) (Array.length b) - 1 do
    acc := !acc +. (a.(i) *. b.(i) *. var budget i)
  done;
  !acc

let combine_into budget c ~wa a ~wb b =
  let slot v i = if i < Array.length v then v.(i) else 0.0 in
  let acc = ref 0.0 in
  for i = 0 to Array.length c - 1 do
    let x = (wa *. slot a i) +. (wb *. slot b i) in
    c.(i) <- x;
    acc := !acc +. (x *. x *. var budget i)
  done;
  !acc

(* Eq. (14)'s compensated sum with no zero skip: Neumaier's chain over
   every slot of each layer, RV-major, as [Slots.sq_norm] ran before it
   learned to skip zero slots. *)
let sq_norm budget ?layer v =
  let n = Array.length v in
  let first, last =
    match layer with Some l -> (l, l) | None -> (0, max_int)
  in
  let sum = ref 0.0 and comp = ref 0.0 and l = ref first in
  while !l <= last && Slots.num_rvs * Slots.layer_offset !l < n do
    let hi = Int.min n (Slots.num_rvs * Slots.layer_offset (!l + 1)) in
    for r = 0 to Slots.num_rvs - 1 do
      let w = Slots.var budget ~layer:!l r in
      let i = ref ((Slots.num_rvs * Slots.layer_offset !l) + r) in
      while !i < hi do
        let x = v.(!i) *. v.(!i) *. w in
        let s = !sum in
        let t = s +. x in
        comp :=
          !comp
          +. if Float.abs s >= Float.abs x then s -. t +. x else x -. t +. s;
        sum := t;
        i := !i + Slots.num_rvs
      done
    done;
    incr l
  done;
  !sum +. !comp
