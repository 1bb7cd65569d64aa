type t = { lo : float; step : float; density : float array }

type trace_event = {
  trace_op : string;
  trace_expected : (float * float) option;
  trace_mass_in : float option;
  trace_clamped : float;
  trace_output : t;
}

(* The sanitizer hook lives here (rather than in a separate module)
   because the grid operations that emit events are defined in this file
   and in Combine, which already depends on Pdf. *)
let trace_hook : (trace_event -> unit) option ref = ref None

let trace_install f = trace_hook := Some f
let trace_uninstall () = trace_hook := None
let trace_active () = Option.is_some !trace_hook

let trace_emit ev = match !trace_hook with None -> () | Some f -> f ev

let traced ~op ?expected ?mass_in ?(clamped = 0.0) p =
  (match !trace_hook with
  | None -> ()
  | Some f ->
      f
        { trace_op = op;
          trace_expected = expected;
          trace_mass_in = mass_in;
          trace_clamped = clamped;
          trace_output = p });
  p

(* Plain loops with the sum in an unboxed scratch slot, in cell order:
   without flambda, [Array.fold_left]/[Array.iter] box every element
   and the accumulator. *)
let total_unnormalized step density =
  let acc = [| 0.0 |] in
  for i = 0 to Array.length density - 1 do
    Array.unsafe_set acc 0
      (Array.unsafe_get acc 0 +. (Array.unsafe_get density i *. step))
  done;
  Array.unsafe_get acc 0

let validate_density ~step density =
  let n = Array.length density in
  if n = 0 then invalid_arg "Pdf.make: empty density";
  if not (step > 0.0) then invalid_arg "Pdf.make: step must be positive";
  for i = 0 to n - 1 do
    let d = Array.unsafe_get density i in
    if d < 0.0 || Float.is_nan d then
      invalid_arg "Pdf.make: density entries must be non-negative"
  done;
  let mass = total_unnormalized step density in
  if not (mass > 0.0) then invalid_arg "Pdf.make: zero total mass";
  mass

let make ~lo ~step density =
  let mass = validate_density ~step density in
  { lo; step; density = Array.map (fun d -> d /. mass) density }

(* Same contract and bit-identical result as [make], but takes ownership
   of [density] and normalizes it in place instead of copying — the
   constructor the zero-allocation combinators use. *)
let make_owned ~lo ~step density =
  let mass = validate_density ~step density in
  for i = 0 to Array.length density - 1 do
    Array.unsafe_set density i (Array.unsafe_get density i /. mass)
  done;
  { lo; step; density }

let of_fun ~lo ~hi ~n f =
  if n <= 0 then invalid_arg "Pdf.of_fun: n must be positive";
  if not (hi > lo) then invalid_arg "Pdf.of_fun: hi must exceed lo";
  let step = (hi -. lo) /. float_of_int n in
  let density =
    Array.init n (fun i -> f (lo +. ((float_of_int i +. 0.5) *. step)))
  in
  make_owned ~lo ~step density

let point_mass ?(n = 3) x =
  let eps = 1e-12 *. (1.0 +. Float.abs x) in
  let density = Array.make n 0.0 in
  density.(n / 2) <- 1.0;
  make ~lo:(x -. (float_of_int n /. 2.0 *. eps)) ~step:eps density

let size p = Array.length p.density
let hi p = p.lo +. (p.step *. float_of_int (size p))
let x_at p i = p.lo +. ((float_of_int i +. 0.5) *. p.step)
let mass_at p i = p.density.(i) *. p.step
let total_mass p = total_unnormalized p.step p.density

(* The accumulation loops keep every float local (scratch slot in an
   unboxed float array, inlined cell arithmetic): without flambda, the
   historical [x_at]/[mass_at]/[ref] formulation boxed three floats per
   cell.  The expressions are the same, so the sums are bit-identical. *)
let mean p =
  let lo = p.lo and step = p.step and d = p.density in
  let acc = [| 0.0 |] in
  for i = 0 to Array.length d - 1 do
    let x = lo +. ((float_of_int i +. 0.5) *. step) in
    Array.unsafe_set acc 0
      (Array.unsafe_get acc 0 +. (x *. (Array.unsafe_get d i *. step)))
  done;
  Array.unsafe_get acc 0

let moment_central_about p ~mu k =
  let lo = p.lo and step = p.step and d = p.density in
  let fk = float_of_int k in
  let acc = [| 0.0 |] in
  for i = 0 to Array.length d - 1 do
    let x = lo +. ((float_of_int i +. 0.5) *. step) in
    Array.unsafe_set acc 0
      (Array.unsafe_get acc 0
      +. (((x -. mu) ** fk) *. (Array.unsafe_get d i *. step)))
  done;
  Array.unsafe_get acc 0

let moment_central p k = moment_central_about p ~mu:(mean p) k

type moments = { m_mean : float; m_var : float }

let moments p =
  let mu = mean p in
  { m_mean = mu; m_var = Float.max 0.0 (moment_central_about p ~mu 2) }

let variance p = (moments p).m_var

let std p = sqrt (variance p)

let skewness p =
  let mu = mean p in
  let s = sqrt (Float.max 0.0 (moment_central_about p ~mu 2)) in
  if s = 0.0 then 0.0 else moment_central_about p ~mu 3 /. (s *. s *. s)

let cdf p x =
  if x <= p.lo then 0.0
  else if x >= hi p then 1.0
  else begin
    let fi = (x -. p.lo) /. p.step in
    let i = int_of_float (Float.floor fi) in
    let i = if i >= size p then size p - 1 else i in
    let acc = ref 0.0 in
    for j = 0 to i - 1 do
      acc := !acc +. mass_at p j
    done;
    !acc +. (mass_at p i *. (fi -. float_of_int i))
  end

let quantile p q =
  if q < 0.0 || q > 1.0 then invalid_arg "Pdf.quantile: q must be in [0, 1]";
  if q <= 0.0 then p.lo
  else begin
    let acc = ref 0.0 in
    let result = ref (hi p) in
    (try
       for i = 0 to size p - 1 do
         let m = mass_at p i in
         if !acc +. m >= q then begin
           let frac = if m > 0.0 then (q -. !acc) /. m else 0.0 in
           result := p.lo +. ((float_of_int i +. frac) *. p.step);
           raise Exit
         end;
         acc := !acc +. m
       done
     with Exit -> ());
    !result
  end

let sigma_point p k =
  let m = moments p in
  m.m_mean +. (k *. sqrt m.m_var)

let mode p =
  let best = ref 0 in
  for i = 1 to size p - 1 do
    if p.density.(i) > p.density.(!best) then best := i
  done;
  x_at p !best

let density_at p x =
  if x < p.lo || x >= hi p then 0.0
  else p.density.(int_of_float ((x -. p.lo) /. p.step))

(* The sanitizer event of [affine p ~mul ~add] for its result [q].  The
   input mass is summed only when a hook will read it. *)
let traced_affine p ~mul ~add q =
  if not (trace_active ()) then q
  else begin
    let expected =
      if mul > 0.0 then ((p.lo *. mul) +. add, (hi p *. mul) +. add)
      else ((hi p *. mul) +. add, (p.lo *. mul) +. add)
    in
    traced ~op:"pdf.affine" ~expected ~mass_in:(total_mass p) q
  end

let affine p ~mul ~add =
  if mul = 0.0 then invalid_arg "Pdf.affine: mul must be non-zero";
  let q =
    (* Explicit loops rather than Array.map/init: the closures box every
       element without flambda, and [scale] sits on the inter-cache hit
       path (one call per cached kernel lookup). *)
    if mul > 0.0 then begin
      let n = size p in
      let src = p.density in
      let density = Array.make n 0.0 in
      for i = 0 to n - 1 do
        Array.unsafe_set density i (Array.unsafe_get src i /. mul)
      done;
      { lo = (p.lo *. mul) +. add; step = p.step *. mul; density }
    end
    else begin
      let n = size p in
      let src = p.density in
      let density = Array.make n 0.0 in
      for i = 0 to n - 1 do
        Array.unsafe_set density i (Array.unsafe_get src (n - 1 - i) /. -.mul)
      done;
      { lo = (hi p *. mul) +. add; step = p.step *. -.mul; density }
    end
  in
  traced_affine p ~mul ~add q

let shift p c = affine p ~mul:1.0 ~add:c

(* [affine p ~mul:1.0 ~add:c] keeps every bit of the grid ([x *. 1.0]
   and [x /. 1.0] are [x] for finite [x]), so an owned grid is moved
   instead of copied. *)
let shift_owned p c =
  traced_affine p ~mul:1.0 ~add:c
    { lo = (p.lo *. 1.0) +. c; step = p.step; density = p.density }

let scale p a = affine p ~mul:a ~add:0.0

let resample p ~n =
  if n <= 0 then invalid_arg "Pdf.resample: n must be positive";
  let lo = p.lo and h = hi p in
  let step' = (h -. lo) /. float_of_int n in
  let density = Array.make n 0.0 in
  (* Deposit each source cell's mass into destination cells by overlap. *)
  for i = 0 to size p - 1 do
    let a = p.lo +. (float_of_int i *. p.step) in
    let b = a +. p.step in
    let m = mass_at p i in
    let ja = int_of_float ((a -. lo) /. step') in
    let jb = int_of_float (Float.min (float_of_int (n - 1))
                             ((b -. lo -. 1e-15) /. step')) in
    if ja = jb then density.(ja) <- density.(ja) +. m
    else
      for j = Int.max 0 ja to Int.min (n - 1) jb do
        let cell_a = lo +. (float_of_int j *. step') in
        let cell_b = cell_a +. step' in
        let overlap = Float.min b cell_b -. Float.max a cell_a in
        if overlap > 0.0 then
          density.(j) <- density.(j) +. (m *. overlap /. p.step)
      done
  done;
  let mass_in = total_unnormalized 1.0 density in
  traced ~op:"pdf.resample" ~expected:(p.lo, h) ~mass_in
    (make ~lo ~step:step' (Array.map (fun m -> m /. step') density))

let restrict p ~lo ~hi:hiv =
  if not (hiv > lo) then invalid_arg "Pdf.restrict: empty window";
  let masked =
    Array.mapi
      (fun i d ->
        let x = x_at p i in
        if x >= lo && x <= hiv then d else 0.0)
      p.density
  in
  try traced ~op:"pdf.restrict" ~expected:(p.lo, hi p)
        (make ~lo:p.lo ~step:p.step masked)
  with Invalid_argument _ ->
    invalid_arg "Pdf.restrict: window carries no probability mass"

let of_samples ?(n = 100) samples =
  let m = Array.length samples in
  if m < 2 then invalid_arg "Pdf.of_samples: need at least 2 samples";
  let lo = Array.fold_left Float.min samples.(0) samples in
  let hi = Array.fold_left Float.max samples.(0) samples in
  let span = if hi > lo then hi -. lo else 1e-9 *. (1.0 +. Float.abs lo) in
  (* Widen slightly so the max sample falls inside the last cell. *)
  let span = span *. (1.0 +. 1e-9) in
  let step = span /. float_of_int n in
  let counts = Array.make n 0.0 in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. step) in
      let i = if i >= n then n - 1 else if i < 0 then 0 else i in
      counts.(i) <- counts.(i) +. 1.0)
    samples;
  make ~lo ~step counts

let sample p rng = quantile p (Rng.float rng)

let ks_distance p q =
  let points =
    Array.append
      (Array.init (size p + 1) (fun i -> p.lo +. (float_of_int i *. p.step)))
      (Array.init (size q + 1) (fun i -> q.lo +. (float_of_int i *. q.step)))
  in
  Array.fold_left
    (fun acc x -> Float.max acc (Float.abs (cdf p x -. cdf q x)))
    0.0 points

let pp fmt p =
  Format.fprintf fmt "pdf[%g..%g] n=%d mean=%g std=%g" p.lo (hi p) (size p)
    (mean p) (std p)
