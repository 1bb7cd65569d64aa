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

(* ----- supports: one span of live partitions per layer ----- *)

type spans = int array

let span_lo (s : spans) l = Array.unsafe_get s (2 * l)
let span_hi (s : spans) l = Array.unsafe_get s ((2 * l) + 1)

let empty_spans ~layers =
  if layers < 0 then invalid_arg "Slots.empty_spans: negative layers";
  Array.init (2 * layers) (fun i -> layer_offset (i / 2))

(* Span [j / 2] of [dst] := [lo, hi), or empty at its layer's start. *)
let set_span (dst : spans) j lo hi =
  if hi > lo then begin
    dst.(j) <- lo;
    dst.(j + 1) <- hi
  end
  else begin
    let o = layer_offset (j / 2) in
    dst.(j) <- o;
    dst.(j + 1) <- o
  end

let union_spans (dst : spans) (a : spans) (b : spans) =
  let la = Array.length a and lb = Array.length b in
  for i = 0 to (Array.length dst / 2) - 1 do
    let j = 2 * i in
    let alo = if j < la then a.(j) else 0
    and ahi = if j < la then a.(j + 1) else 0
    and blo = if j < lb then b.(j) else 0
    and bhi = if j < lb then b.(j + 1) else 0 in
    if ahi <= alo then set_span dst j blo bhi
    else if bhi <= blo then set_span dst j alo ahi
    else set_span dst j (Int.min alo blo) (Int.max ahi bhi)
  done

let inter_spans (dst : spans) (a : spans) (b : spans) =
  let la = Array.length a and lb = Array.length b in
  for i = 0 to (Array.length dst / 2) - 1 do
    let j = 2 * i in
    set_span dst j
      (Int.max (if j < la then a.(j) else 0) (if j < lb then b.(j) else 0))
      (Int.min (if j < la then a.(j + 1) else 0) (if j < lb then b.(j + 1) else 0))
  done

let widen_spans (s : spans) (parts : int array) =
  for l = 0 to Array.length parts - 1 do
    let p = parts.(l) and j = 2 * l in
    if p < layer_offset l || p >= layer_offset (l + 1) then
      invalid_arg "Slots.widen_spans: a partition outside its layer";
    if s.(j + 1) <= s.(j) then set_span s j p (p + 1)
    else set_span s j (Int.min s.(j) p) (Int.max s.(j + 1) (p + 1))
  done

let clear_outside c (old : spans) (nw : spans) =
  let ln = Array.length nw in
  let fill lo hi = Array.fill c (num_rvs * lo) (num_rvs * (hi - lo)) 0.0 in
  for i = 0 to (Array.length old / 2) - 1 do
    let j = 2 * i in
    let olo = old.(j) and ohi = old.(j + 1) in
    if ohi > olo then begin
      let nlo = if j < ln then nw.(j) else ohi
      and nhi = if j < ln then nw.(j + 1) else ohi in
      if nhi <= nlo || nhi <= olo || nlo >= ohi then fill olo ohi
      else begin
        if nlo > olo then fill olo nlo;
        if ohi > nhi then fill nhi ohi
      end
    end
  done

let spans_of_parts ~layers parts =
  let s = empty_spans ~layers in
  List.iter
    (fun p ->
      let l = ref 0 in
      while p >= layer_offset (!l + 1) do
        incr l
      done;
      if p < 0 || !l >= layers then
        invalid_arg "Slots.spans_of_parts: partition outside the layers";
      let j = 2 * !l in
      if s.(j + 1) <= s.(j) then set_span s j p (p + 1)
      else set_span s j (Int.min s.(j) p) (Int.max s.(j + 1) (p + 1)))
    parts;
  s

(* The walk must give each of its layers a span inside that layer,
   within the first [len] slots, on layers the budget has variances
   for; after this check the kernels read and write without bounds
   checks. *)
let check_walk budget (walk : spans) len =
  let layers = Array.length walk / 2 in
  if Array.length walk <> 2 * layers || layers > Budget.layers budget then
    invalid_arg "Slots: malformed spans";
  for l = 0 to layers - 1 do
    let lo = walk.(2 * l) and hi = walk.((2 * l) + 1) in
    if lo < layer_offset l || hi > layer_offset (l + 1) || hi < lo then
      invalid_arg "Slots: malformed spans";
    if hi > lo && num_rvs * hi > len then
      invalid_arg "Slots: spans reach past the vector"
  done

(* The walk loops below are the dense loops with each layer's bounds
   narrowed to its span; the arithmetic inside a partition is the same,
   term for term.  Each adds the partitions it walked to [work.(0)]. *)

let dot_spans budget (walk : spans) a b (work : int array) =
  check_walk budget walk (Int.min (Array.length a) (Array.length b));
  let vars = budget.Budget.rv_var in
  let acc = ref 0.0 and walked = ref 0 in
  for l = 0 to (Array.length walk / 2) - 1 do
    let lo = span_lo walk l and hi = span_hi walk l in
    if hi > lo then begin
      let k = l * num_rvs in
      let v0 = Array.unsafe_get vars k
      and v1 = Array.unsafe_get vars (k + 1)
      and v2 = Array.unsafe_get vars (k + 2)
      and v3 = Array.unsafe_get vars (k + 3)
      and v4 = Array.unsafe_get vars (k + 4) in
      walked := !walked + (hi - lo);
      for q = lo to hi - 1 do
        let i = num_rvs * q in
        acc :=
          !acc
          +. (Array.unsafe_get a i *. Array.unsafe_get b i *. v0)
          +. (Array.unsafe_get a (i + 1) *. Array.unsafe_get b (i + 1) *. v1)
          +. (Array.unsafe_get a (i + 2) *. Array.unsafe_get b (i + 2) *. v2)
          +. (Array.unsafe_get a (i + 3) *. Array.unsafe_get b (i + 3) *. v3)
          +. (Array.unsafe_get a (i + 4) *. Array.unsafe_get b (i + 4) *. v4)
      done
    end
  done;
  work.(0) <- work.(0) + !walked;
  !acc

(* [v] zero-padded to [n] slots: [v] itself when it is long enough. *)
let pad_to n (v : float array) =
  if Array.length v >= n then v
  else begin
    let p = Array.make n 0.0 in
    Array.blit v 0 p 0 (Array.length v);
    p
  end

let blend_gate_spans budget (walk : spans) c ~wa a ~wb b ~(gate : int array)
    (d : Params.t) (work : int array) out =
  check_walk budget walk (Array.length c);
  if Array.length out < 2 then invalid_arg "Slots.blend_gate_spans: short out";
  let vars = budget.Budget.rv_var in
  (* A shorter operand is copied out zero-padded, so the loop reads
     every operand slot unchecked. *)
  let a = pad_to (Array.length c) a and b = pad_to (Array.length c) b in
  let ng = Array.length gate in
  let pre = ref 0.0 and post = ref 0.0 and walked = ref 0 in
  for l = 0 to (Array.length walk / 2) - 1 do
    let lo = span_lo walk l and hi = span_hi walk l in
    if hi > lo then begin
      let k = l * num_rvs in
      let v0 = Array.unsafe_get vars k
      and v1 = Array.unsafe_get vars (k + 1)
      and v2 = Array.unsafe_get vars (k + 2)
      and v3 = Array.unsafe_get vars (k + 3)
      and v4 = Array.unsafe_get vars (k + 4) in
      let gq = if l < ng then Array.unsafe_get gate l else -1 in
      walked := !walked + (hi - lo);
      for q = lo to hi - 1 do
        let i = num_rvs * q in
        let x0 = (wa *. Array.unsafe_get a i) +. (wb *. Array.unsafe_get b i)
        and x1 =
          (wa *. Array.unsafe_get a (i + 1)) +. (wb *. Array.unsafe_get b (i + 1))
        and x2 =
          (wa *. Array.unsafe_get a (i + 2)) +. (wb *. Array.unsafe_get b (i + 2))
        and x3 =
          (wa *. Array.unsafe_get a (i + 3)) +. (wb *. Array.unsafe_get b (i + 3))
        and x4 =
          (wa *. Array.unsafe_get a (i + 4)) +. (wb *. Array.unsafe_get b (i + 4))
        in
        let t0 = x0 *. x0 *. v0
        and t1 = x1 *. x1 *. v1
        and t2 = x2 *. x2 *. v2
        and t3 = x3 *. x3 *. v3
        and t4 = x4 *. x4 *. v4 in
        pre := !pre +. t0 +. t1 +. t2 +. t3 +. t4;
        if q = gq then begin
          let y0 = x0 +. d.Params.tox
          and y1 = x1 +. d.Params.leff
          and y2 = x2 +. d.Params.vdd
          and y3 = x3 +. d.Params.vtn
          and y4 = x4 +. d.Params.vtp in
          Array.unsafe_set c i y0;
          Array.unsafe_set c (i + 1) y1;
          Array.unsafe_set c (i + 2) y2;
          Array.unsafe_set c (i + 3) y3;
          Array.unsafe_set c (i + 4) y4;
          post :=
            !post
            +. (y0 *. y0 *. v0)
            +. (y1 *. y1 *. v1)
            +. (y2 *. y2 *. v2)
            +. (y3 *. y3 *. v3)
            +. (y4 *. y4 *. v4)
        end
        else begin
          Array.unsafe_set c i x0;
          Array.unsafe_set c (i + 1) x1;
          Array.unsafe_set c (i + 2) x2;
          Array.unsafe_set c (i + 3) x3;
          Array.unsafe_set c (i + 4) x4;
          post := !post +. t0 +. t1 +. t2 +. t3 +. t4
        end
      done
    end
  done;
  work.(0) <- work.(0) + !walked;
  Array.unsafe_set out 0 !pre;
  Array.unsafe_set out 1 !post
