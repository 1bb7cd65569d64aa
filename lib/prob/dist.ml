let gaussian ?(n = 200) ~mu ~sigma () =
  if sigma <= 0.0 then invalid_arg "Dist.gaussian: sigma must be positive";
  let span = 8.0 *. sigma in
  Pdf.of_fun ~lo:(mu -. span) ~hi:(mu +. span) ~n (fun x ->
      Erf.normal_pdf ~mu ~sigma x)

let truncated_gaussian ?(n = 200) ?(bound = 6.0) ~mu ~sigma () =
  if sigma <= 0.0 then
    invalid_arg "Dist.truncated_gaussian: sigma must be positive";
  if bound <= 0.0 then
    invalid_arg "Dist.truncated_gaussian: bound must be positive";
  if n <= 0 then invalid_arg "Pdf.of_fun: n must be positive";
  let span = bound *. sigma in
  let lo = mu -. span and hi = mu +. span in
  if not (hi > lo) then invalid_arg "Pdf.of_fun: hi must exceed lo";
  (* [Pdf.of_fun lo hi n (Erf.normal_pdf ~mu ~sigma)] written out: the
     same cell centres and the same density expression, in one loop
     that boxes nothing (the closure version boxes every cell's float
     twice).  The denominator is loop-invariant, so hoisting it changes
     no bit. *)
  let step = (hi -. lo) /. float_of_int n in
  let denom = sigma *. Erf.sqrt_2pi in
  let density = Array.create_float n in
  for i = 0 to n - 1 do
    let x = lo +. ((float_of_int i +. 0.5) *. step) in
    let z = (x -. mu) /. sigma in
    Array.unsafe_set density i (exp (-0.5 *. z *. z) /. denom)
  done;
  Pdf.make_owned ~lo ~step density

let uniform ?(n = 100) ~lo ~hi () =
  if not (hi > lo) then invalid_arg "Dist.uniform: hi must exceed lo";
  Pdf.of_fun ~lo ~hi ~n (fun _ -> 1.0)

let triangular ?(n = 200) ~lo ~mode ~hi () =
  if not (lo <= mode && mode <= hi && hi > lo) then
    invalid_arg "Dist.triangular: require lo <= mode <= hi, lo < hi";
  Pdf.of_fun ~lo ~hi ~n (fun x ->
      if x < mode then
        if mode > lo then (x -. lo) /. (mode -. lo) else 0.0
      else if hi > mode then (hi -. x) /. (hi -. mode)
      else 0.0)

let exponential ?(n = 200) ?(tail = 1e-6) ~rate () =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  if not (tail > 0.0 && tail < 1.0) then
    invalid_arg "Dist.exponential: tail must be in (0, 1)";
  let hi = -.log tail /. rate in
  Pdf.of_fun ~lo:0.0 ~hi ~n (fun x -> rate *. exp (-.rate *. x))
