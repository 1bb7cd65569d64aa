(* [int_of_float (Float.floor u)] without the libm call: truncate, then
   step down for a negative non-integer.  Bit-identical for every finite
   |u| < 2^62 and for NaN (both give [min_int]); the call it replaces
   spilled every live float of the deposit loops around it.  [deposit]
   keeps the libm floor: it is the reference the fast kernels are
   checked against. *)
let[@inline] floor_int u =
  let i = int_of_float u in
  if float_of_int i > u then i - 1 else i

type accumulator = {
  acc_lo : float;
  acc_step : float;
  cells : float array;
  mutable deposited : float;
  mutable clamped : float;
}

let accumulator ~lo ~hi ~n =
  if n <= 0 then invalid_arg "Combine.accumulator: n must be positive";
  if not (hi > lo) then invalid_arg "Combine.accumulator: hi must exceed lo";
  { acc_lo = lo;
    acc_step = (hi -. lo) /. float_of_int n;
    cells = Array.make n 0.0;
    deposited = 0.0;
    clamped = 0.0 }

(* Linear mass splitting between the two nearest cell centers keeps the
   mean of each deposit exact, which matters for the paper's claim that
   the probabilistic mean differs from the nominal delay. *)
let deposit a ~x ~mass =
  if mass > 0.0 then begin
    let n = Array.length a.cells in
    (* Deposits strictly outside the grid get clamped to a boundary cell
       below; count that mass so the sanitizer can flag range-scan
       failures.  A position exactly on the right edge is in range. *)
    if x < a.acc_lo || x > a.acc_lo +. (a.acc_step *. float_of_int n) then
      a.clamped <- a.clamped +. mass;
    let u = ((x -. a.acc_lo) /. a.acc_step) -. 0.5 in
    let i = int_of_float (Float.floor u) in
    let frac = u -. float_of_int i in
    let put j m =
      if m > 0.0 then begin
        let j = if j < 0 then 0 else if j >= n then n - 1 else j in
        a.cells.(j) <- a.cells.(j) +. m
      end
    in
    put i (mass *. (1.0 -. frac));
    put (i + 1) (mass *. frac);
    a.deposited <- a.deposited +. mass
  end

(* Same semantics as [deposit] (identical arithmetic, same clamping and
   accounting), but the destination indices are clamped up front so the
   two cell updates can use unchecked array access.  This is the inner
   statement of the O(Q^3) inter-kernel loop, where the bounds checks are
   measurable. *)
let unsafe_deposit a ~x ~mass =
  if mass > 0.0 then begin
    let n = Array.length a.cells in
    if x < a.acc_lo || x > a.acc_lo +. (a.acc_step *. float_of_int n) then
      a.clamped <- a.clamped +. mass;
    let u = ((x -. a.acc_lo) /. a.acc_step) -. 0.5 in
    let i = int_of_float (Float.floor u) in
    let frac = u -. float_of_int i in
    let m0 = mass *. (1.0 -. frac) and m1 = mass *. frac in
    if m0 > 0.0 then begin
      let j = if i < 0 then 0 else if i >= n then n - 1 else i in
      Array.unsafe_set a.cells j (Array.unsafe_get a.cells j +. m0)
    end;
    if m1 > 0.0 then begin
      let i1 = i + 1 in
      let j = if i1 < 0 then 0 else if i1 >= n then n - 1 else i1 in
      Array.unsafe_set a.cells j (Array.unsafe_get a.cells j +. m1)
    end;
    a.deposited <- a.deposited +. mass
  end

let clamped_mass a = a.clamped

let to_pdf a =
  if not (a.deposited > 0.0) then
    invalid_arg "Combine.to_pdf: no mass deposited";
  (* The mapped array is fresh, so the owning constructor normalizes it
     in place instead of copying a second time — same bits. *)
  Pdf.make_owned ~lo:a.acc_lo ~step:a.acc_step
    (Array.map (fun m -> m /. a.acc_step) a.cells)

(* Normalize an accumulator into a PDF and report the operation to the
   sanitizer hook.  [mass_in] defaults to the total deposited mass, which
   for mass-conserving combinators should be 1 within rounding. *)
let finish ~op ?expected ?mass_in a =
  let mass_in = match mass_in with Some m -> m | None -> a.deposited in
  Pdf.traced ~op ?expected ~mass_in ~clamped:a.clamped (to_pdf a)

(* Scan the corners and edges of the product grid to find the output
   range; for monotone-ish smooth functions (everything the delay model
   uses) extrema lie on the boundary of the box.  A sparse interior sweep
   guards against non-monotone combinations. *)
let range2 f px py =
  let lo = ref infinity and hi = ref neg_infinity in
  let consider v =
    if v < !lo then lo := v;
    if v > !hi then hi := v
  in
  let nx = Pdf.size px and ny = Pdf.size py in
  let stride n = Int.max 1 (n / 16) in
  let sx = stride nx and sy = stride ny in
  for i = 0 to nx - 1 do
    if i = 0 || i = nx - 1 || i mod sx = 0 then
      for j = 0 to ny - 1 do
        if j = 0 || j = ny - 1 || j mod sy = 0 then
          consider (f (Pdf.x_at px i) (Pdf.x_at py j))
      done
  done;
  (!lo, !hi)

let widen (lo, hi) =
  if hi > lo then (lo, hi)
  else
    let eps = 1e-12 *. (1.0 +. Float.abs lo) in
    (lo -. eps, hi +. eps)

let binop_into ?n f px py =
  let n = match n with Some n -> n | None -> Int.max (Pdf.size px) (Pdf.size py) in
  let lo, hi = widen (range2 f px py) in
  let a = accumulator ~lo ~hi ~n in
  for i = 0 to Pdf.size px - 1 do
    let x = Pdf.x_at px i and mx = Pdf.mass_at px i in
    if mx > 0.0 then
      for j = 0 to Pdf.size py - 1 do
        let my = Pdf.mass_at py j in
        if my > 0.0 then deposit a ~x:(f x (Pdf.x_at py j)) ~mass:(mx *. my)
      done
  done;
  a

(* {2 Zero-allocation fast paths}

   The binary combinators below are the hot path of the methodology (one
   [sum] per path stage, one [binop] per inter-kernel build).  They are
   re-implementations of [finish (binop_into f px py)] with three
   changes, none of which alters a single output bit:

   - the [deposit] arithmetic is inlined on raw arrays with every
     intermediate kept in registers or an unboxed scratch slot — the
     historical [x_at]/[mass_at]/[deposit] call chain boxes several
     floats per cell pair and updates two boxed record fields, which
     dominated the per-path minor-heap traffic;
   - the accumulation grid can come from a caller-provided {!Arena.t}
     instead of a fresh allocation;
   - normalization is fused: the output density is written once and
     normalized in place by [Pdf.make_owned] instead of the two extra
     arrays that [to_pdf] + [Pdf.make] allocate.

   [test_combine] qcheck-certifies bit-identity against the
   [accumulator]/[deposit]/[to_pdf] reference on random grids. *)

let scratch_cells arena n =
  match arena with Some a -> Arena.borrow a n | None -> Array.make n 0.0

let scratch_release arena cells =
  match arena with Some a -> Arena.release a cells | None -> ()

(* Fused equivalent of [finish]: normalize accumulated cell masses into
   a fresh density array, return the borrowed grid, and emit the trace
   event.  Division order matches [to_pdf] (cells /. step, then the mass
   fold inside [make_owned], then /. mass) expression for expression. *)
let finish_cells ~op ?expected arena ~lo ~step ~deposited ~clamped cells =
  if not (deposited > 0.0) then begin
    scratch_release arena cells;
    invalid_arg "Combine.to_pdf: no mass deposited"
  end;
  let n = Array.length cells in
  let density = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set density i (Array.unsafe_get cells i /. step)
  done;
  scratch_release arena cells;
  Pdf.traced ~op ?expected ~mass_in:deposited ~clamped
    (Pdf.make_owned ~lo ~step density)

let binop_core ~op ?expected ?n ?arena f px py =
  let xd = px.Pdf.density and yd = py.Pdf.density in
  let nx = Array.length xd and ny = Array.length yd in
  let n = match n with Some n -> n | None -> Int.max nx ny in
  let lo, hi = widen (range2 f px py) in
  if n <= 0 then invalid_arg "Combine.accumulator: n must be positive";
  if not (hi > lo) then invalid_arg "Combine.accumulator: hi must exceed lo";
  let xlo = px.Pdf.lo and xstep = px.Pdf.step in
  let ylo = py.Pdf.lo and ystep = py.Pdf.step in
  let step = (hi -. lo) /. float_of_int n in
  let grid_hi = lo +. (step *. float_of_int n) in
  let cells = scratch_cells arena n in
  (* acc.(0) = deposited mass, acc.(1) = clamped mass; a local float
     array keeps both unboxed across iterations. *)
  let acc = [| 0.0; 0.0 |] in
  (try
     for i = 0 to nx - 1 do
       let mx = Array.unsafe_get xd i *. xstep in
       if mx > 0.0 then begin
         let x = xlo +. ((float_of_int i +. 0.5) *. xstep) in
         for j = 0 to ny - 1 do
           let my = Array.unsafe_get yd j *. ystep in
           if my > 0.0 then begin
             let v = f x (ylo +. ((float_of_int j +. 0.5) *. ystep)) in
             let mass = mx *. my in
             if mass > 0.0 then begin
               if v < lo || v > grid_hi then
                 Array.unsafe_set acc 1 (Array.unsafe_get acc 1 +. mass);
               let u = ((v -. lo) /. step) -. 0.5 in
               let iu = floor_int u in
               let frac = u -. float_of_int iu in
               let m0 = mass *. (1.0 -. frac) in
               if m0 > 0.0 then begin
                 let k = if iu < 0 then 0 else if iu >= n then n - 1 else iu in
                 Array.unsafe_set cells k (Array.unsafe_get cells k +. m0)
               end;
               let m1 = mass *. frac in
               if m1 > 0.0 then begin
                 let i1 = iu + 1 in
                 let k = if i1 < 0 then 0 else if i1 >= n then n - 1 else i1 in
                 Array.unsafe_set cells k (Array.unsafe_get cells k +. m1)
               end;
               Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. mass)
             end
           end
         done
       end
     done
   with e ->
     scratch_release arena cells;
     raise e);
  finish_cells ~op ?expected arena ~lo ~step
    ~deposited:(Array.unsafe_get acc 0)
    ~clamped:(Array.unsafe_get acc 1)
    cells

let binop ?n ?arena f px py = binop_core ~op:"combine.binop" ?n ?arena f px py

(* Monomorphic specialization of [binop_core] at [( +. )]: the range
   scan and the convolution both inline the addition, so the whole inner
   loop compiles to straight float code with no closure call. *)
let sum ?n ?arena px py =
  let xd = px.Pdf.density and yd = py.Pdf.density in
  let nx = Array.length xd and ny = Array.length yd in
  let n = match n with Some n -> n | None -> Int.max nx ny in
  let xlo = px.Pdf.lo and xstep = px.Pdf.step in
  let ylo = py.Pdf.lo and ystep = py.Pdf.step in
  (* [range2 ( +. )], inlined; [x] is hoisted out of the inner loop —
     the same value the reference recomputes per pair. *)
  let rlo = ref infinity and rhi = ref neg_infinity in
  let sx = Int.max 1 (nx / 16) and sy = Int.max 1 (ny / 16) in
  for i = 0 to nx - 1 do
    if i = 0 || i = nx - 1 || i mod sx = 0 then begin
      let x = xlo +. ((float_of_int i +. 0.5) *. xstep) in
      for j = 0 to ny - 1 do
        if j = 0 || j = ny - 1 || j mod sy = 0 then begin
          let v = x +. (ylo +. ((float_of_int j +. 0.5) *. ystep)) in
          if v < !rlo then rlo := v;
          if v > !rhi then rhi := v
        end
      done
    end
  done;
  let lo, hi = widen (!rlo, !rhi) in
  if n <= 0 then invalid_arg "Combine.accumulator: n must be positive";
  if not (hi > lo) then invalid_arg "Combine.accumulator: hi must exceed lo";
  let step = (hi -. lo) /. float_of_int n in
  let grid_hi = lo +. (step *. float_of_int n) in
  let cells = scratch_cells arena n in
  let acc = [| 0.0; 0.0 |] in
  for i = 0 to nx - 1 do
    let mx = Array.unsafe_get xd i *. xstep in
    if mx > 0.0 then begin
      let x = xlo +. ((float_of_int i +. 0.5) *. xstep) in
      for j = 0 to ny - 1 do
        let my = Array.unsafe_get yd j *. ystep in
        if my > 0.0 then begin
          let v = x +. (ylo +. ((float_of_int j +. 0.5) *. ystep)) in
          let mass = mx *. my in
          if mass > 0.0 then begin
            if v < lo || v > grid_hi then
              Array.unsafe_set acc 1 (Array.unsafe_get acc 1 +. mass);
            let u = ((v -. lo) /. step) -. 0.5 in
            let iu = floor_int u in
            let frac = u -. float_of_int iu in
            let m0 = mass *. (1.0 -. frac) in
            if m0 > 0.0 then begin
              let k = if iu < 0 then 0 else if iu >= n then n - 1 else iu in
              Array.unsafe_set cells k (Array.unsafe_get cells k +. m0)
            end;
            let m1 = mass *. frac in
            if m1 > 0.0 then begin
              let i1 = iu + 1 in
              let k = if i1 < 0 then 0 else if i1 >= n then n - 1 else i1 in
              Array.unsafe_set cells k (Array.unsafe_get cells k +. m1)
            end;
            Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. mass)
          end
        end
      done
    end
  done;
  (* Shadow support by interval arithmetic on the operand supports. *)
  let expected = (px.Pdf.lo +. py.Pdf.lo, Pdf.hi px +. Pdf.hi py) in
  finish_cells ~op:"combine.sum" ~expected arena ~lo ~step
    ~deposited:(Array.unsafe_get acc 0)
    ~clamped:(Array.unsafe_get acc 1)
    cells

let sum_list ?n ?arena = function
  | [] -> invalid_arg "Combine.sum_list: empty list"
  | [ p ] -> p
  | p :: rest -> List.fold_left (fun acc q -> sum ?n ?arena acc q) p rest

let product ?n ?arena px py =
  let xl = px.Pdf.lo and xh = Pdf.hi px in
  let yl = py.Pdf.lo and yh = Pdf.hi py in
  let corners = [| xl *. yl; xl *. yh; xh *. yl; xh *. yh |] in
  let expected =
    ( Array.fold_left Float.min corners.(0) corners,
      Array.fold_left Float.max corners.(0) corners )
  in
  binop_core ~op:"combine.product" ~expected ?n ?arena ( *. ) px py

let map ?n f p =
  let n = match n with Some n -> n | None -> Pdf.size p in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to Pdf.size p - 1 do
    let v = f (Pdf.x_at p i) in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  let lo, hi = widen (!lo, !hi) in
  let a = accumulator ~lo ~hi ~n in
  for i = 0 to Pdf.size p - 1 do
    deposit a ~x:(f (Pdf.x_at p i)) ~mass:(Pdf.mass_at p i)
  done;
  finish ~op:"combine.map" a

let push2 = binop

let push3 ?n f px py pz =
  let n =
    match n with
    | Some n -> n
    | None -> Int.max (Pdf.size px) (Int.max (Pdf.size py) (Pdf.size pz))
  in
  (* Range scan over a coarse sub-grid of the 3-D box. *)
  let lo = ref infinity and hi = ref neg_infinity in
  let consider v =
    if v < !lo then lo := v;
    if v > !hi then hi := v
  in
  let scan p = Int.max 1 (Pdf.size p / 8) in
  let sweep p k =
    let n = Pdf.size p in
    k 0;
    k (n - 1);
    let s = scan p in
    let i = ref s in
    while !i < n - 1 do
      k !i;
      i := !i + s
    done
  in
  sweep px (fun i ->
      sweep py (fun j ->
          sweep pz (fun k ->
              consider (f (Pdf.x_at px i) (Pdf.x_at py j) (Pdf.x_at pz k)))));
  let lo, hi = widen (!lo, !hi) in
  let a = accumulator ~lo ~hi ~n in
  for i = 0 to Pdf.size px - 1 do
    let x = Pdf.x_at px i and mx = Pdf.mass_at px i in
    if mx > 0.0 then
      for j = 0 to Pdf.size py - 1 do
        let y = Pdf.x_at py j and mxy = mx *. Pdf.mass_at py j in
        if mxy > 0.0 then
          for k = 0 to Pdf.size pz - 1 do
            let mz = Pdf.mass_at pz k in
            if mz > 0.0 then
              deposit a ~x:(f x y (Pdf.x_at pz k)) ~mass:(mxy *. mz)
          done
      done
  done;
  finish ~op:"combine.push3" a

let mixture weighted =
  if weighted = [] then invalid_arg "Combine.mixture: empty mixture";
  List.iter
    (fun (w, _) ->
      if not (w > 0.0) then
        invalid_arg "Combine.mixture: weights must be positive")
    weighted;
  let lo =
    List.fold_left (fun acc (_, p) -> Float.min acc (Pdf.x_at p 0 -. p.Pdf.step))
      infinity weighted
  in
  let hi =
    List.fold_left (fun acc (_, p) -> Float.max acc (Pdf.hi p)) neg_infinity
      weighted
  in
  let n = List.fold_left (fun acc (_, p) -> Int.max acc (Pdf.size p)) 1 weighted in
  let a = accumulator ~lo ~hi ~n in
  let wtotal = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
  List.iter
    (fun (w, p) ->
      for i = 0 to Pdf.size p - 1 do
        deposit a ~x:(Pdf.x_at p i) ~mass:(w /. wtotal *. Pdf.mass_at p i)
      done)
    weighted;
  (* Hull of the component supports, widened by the coarsest component
     step because the mixture grid extends half a cell below the hull. *)
  let hull_lo =
    List.fold_left (fun acc (_, p) -> Float.min acc p.Pdf.lo) infinity weighted
  in
  let hull_hi =
    List.fold_left (fun acc (_, p) -> Float.max acc (Pdf.hi p)) neg_infinity
      weighted
  in
  let max_step =
    List.fold_left (fun acc (_, p) -> Float.max acc p.Pdf.step) 0.0 weighted
  in
  finish ~op:"combine.mixture"
    ~expected:(hull_lo -. max_step, hull_hi +. max_step)
    a
