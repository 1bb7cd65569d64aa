module D = Ssta_lint.Diagnostic
module Params = Ssta_tech.Params
module Budget = Ssta_correlation.Budget
module Path_coeffs = Ssta_correlation.Path_coeffs
module Slots = Ssta_correlation.Slots
module Pdf = Ssta_prob.Pdf
module Config = Ssta_core.Config
module Path_analysis = Ssta_core.Path_analysis

let checks =
  [ ("check-var-budget",
     "variance budget is a probability split matching the layer structure");
    ("check-var-conservation",
     "per-layer variance shares sum to the path's intra variance");
    ("check-var-key",
     "the coefficient vector fits the layering: length, zero layer 0, \
      finite, non-negative random-layer sums");
    ("check-var-intra-pdf",
     "discretized intra PDF variance matches Eq. 14 within grid error");
    ("check-var-additivity",
     "total PDF variance equals inter + intra variance within grid error") ]

let err ?hint ~rule ~location msg = D.make ?hint ~rule ~severity:D.Error ~location msg

(* |a - b| <= tol * scale, with a floor so identical zeros pass. *)
let close ~tol a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  scale = 0.0 || Float.abs (a -. b) <= tol *. scale

let check_config (config : Config.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let b = config.Config.budget in
  let layers = Budget.layers b in
  let expected = Config.num_layers config in
  if layers <> expected then
    add
      (err ~rule:"check-var-budget" ~location:D.Config
         ~hint:"the budget must assign one weight per correlation layer"
         (Printf.sprintf
            "budget has %d layer weights but the layer structure has %d \
             layers (%d quad-tree%s)"
            layers expected config.Config.quad_levels
            (if config.Config.random_layer then " + random" else "")));
  let sum = ref 0.0 and well_formed = ref true in
  for u = 0 to layers - 1 do
    let w = Budget.weight b u in
    if Float.is_nan w || w < 0.0 || w > 1.0 then begin
      well_formed := false;
      add
        (err ~rule:"check-var-budget" ~location:D.Config
           (Printf.sprintf "layer %d weight %g is not in [0, 1]" u w))
    end;
    sum := !sum +. w
  done;
  if !well_formed && not (close ~tol:1e-9 !sum 1.0) then
    add
      (err ~rule:"check-var-budget" ~location:D.Config
         (Printf.sprintf "layer weights sum to %.12g, expected 1" !sum));
  if !well_formed then
    List.iter
      (fun rv ->
        let sigma = Params.sigma rv in
        let recomposed = Budget.variance_check b ~total_sigma:sigma in
        if not (close ~tol:1e-9 recomposed (sigma *. sigma)) then
          add
            (err ~rule:"check-var-budget" ~location:D.Config
               (Printf.sprintf
                  "%s: per-layer variances recompose to %.6g, expected \
                   sigma^2 = %.6g"
                  (Params.rv_name rv) recomposed (sigma *. sigma))))
      Params.all_rvs;
  List.rev !ds

let check_path ?(tol_exact = 1e-9) ?(tol_grid = 0.05) (config : Config.t)
    ~label (pa : Path_analysis.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let loc = D.Pdf label in
  let b = config.Config.budget in
  let layers = Budget.layers b in
  let quad_levels = config.Config.quad_levels in
  let pc = pa.Path_analysis.coeffs in
  let v = Path_coeffs.to_dense pc and random_sq = pc.Path_coeffs.random_sq in
  (* Vector validity: one slot per quad-tree RV of the configured
     layering, nothing on the inter-die layer 0 (inter stays nonlinear),
     finite coefficients, and five non-negative random-layer sums of
     squares exactly when the layering has a random layer. *)
  let expected_slots = Slots.num_slots ~quad_levels in
  let expected_random =
    if config.Config.random_layer then Slots.num_rvs else 0
  in
  let key_problems =
    List.filter_map
      (fun (bad, what) -> if bad then Some what else None)
      [ ( pc.Path_coeffs.quad_levels <> quad_levels
          || Array.length v <> expected_slots,
          Printf.sprintf
            "%d slots over %d quad-tree layers (expected %d over %d)"
            (Array.length v) pc.Path_coeffs.quad_levels expected_slots
            quad_levels );
        ( Array.exists (fun c -> c <> 0.0)
            (Array.sub v 0 (Int.min Slots.num_rvs (Array.length v))),
          "a non-zero coefficient on the inter-die layer 0" );
        ( Array.exists (fun c -> not (Float.is_finite c)) v,
          "a non-finite coefficient" );
        ( Array.length random_sq <> expected_random,
          Printf.sprintf "%d random-layer sums (expected %d)"
            (Array.length random_sq) expected_random );
        ( Array.exists
            (fun s -> not (s >= 0.0 && Float.is_finite s))
            random_sq,
          "a negative or non-finite random-layer sum of squares" ) ]
  in
  if key_problems <> [] then
    add
      (err ~rule:"check-var-key" ~location:loc
         ("malformed coefficient vector: "
         ^ String.concat "; " key_problems));
  (* Independent recomputation of the per-layer shares from the raw
     intra-layer slots and random-layer sums. *)
  let shares = Array.make (Int.max layers 1) 0.0 in
  let share layer r x =
    let sigma = Params.sigma (List.nth Params.all_rvs r) in
    shares.(layer) <-
      shares.(layer) +. (x *. sigma *. sigma *. Budget.weight b layer)
  in
  for layer = 1 to Int.min quad_levels layers - 1 do
    let first = Slots.num_rvs * Slots.layer_offset layer in
    let last = Slots.num_rvs * Slots.layer_offset (layer + 1) in
    for i = first to Int.min (Array.length v) last - 1 do
      share layer (i mod Slots.num_rvs) (v.(i) *. v.(i))
    done
  done;
  if quad_levels < layers then
    Array.iteri
      (fun r s -> if r < Slots.num_rvs then share quad_levels r s)
      random_sq;
  let share_sum = Array.fold_left ( +. ) 0.0 shares in
  let reported = Path_coeffs.intra_variance pa.Path_analysis.coeffs b in
  if not (close ~tol:tol_exact share_sum reported) then
    add
      (err ~rule:"check-var-conservation" ~location:loc
         (Printf.sprintf
            "per-layer shares sum to %.9g s^2 but the reported intra \
             variance is %.9g s^2"
            share_sum reported));
  let decomposed = Path_coeffs.layer_variances pa.Path_analysis.coeffs b in
  let decomposed_sum = Array.fold_left ( +. ) 0.0 decomposed in
  if not (close ~tol:tol_exact decomposed_sum reported) then
    add
      (err ~rule:"check-var-conservation" ~location:loc
         (Printf.sprintf
            "layer_variances decomposition sums to %.9g s^2, reported \
             intra variance is %.9g s^2"
            decomposed_sum reported));
  (* Discretized intra PDF against the analytic variance.  A degenerate
     analytic variance (single-layer budgets) yields a point-mass PDF
     whose base width is ~1e-12 relative — bound it absolutely instead
     of comparing relatively against 0. *)
  let v_pdf = Pdf.variance pa.Path_analysis.intra_pdf in
  if reported <= 1e-30 then begin
    if v_pdf > 1e-22 then
      add
        (err ~rule:"check-var-intra-pdf" ~location:loc
           (Printf.sprintf
              "analytic intra variance is 0 but the discretized PDF \
               carries variance %.3g s^2"
              v_pdf))
  end
  else if not (close ~tol:tol_grid v_pdf reported) then
    add
      (err ~rule:"check-var-intra-pdf" ~location:loc
         (Printf.sprintf
            "discretized intra variance %.6g s^2 deviates from the \
             analytic Eq. 14 value %.6g s^2 by more than %g%%"
            v_pdf reported (tol_grid *. 100.0)));
  (* Additivity: inter and intra are independent, so the convolution's
     variance is their sum.  The deposit step of the convolution smears
     by O(step^2). *)
  let v_inter = Pdf.variance pa.Path_analysis.inter_pdf in
  let v_total = Pdf.variance pa.Path_analysis.total_pdf in
  let step = pa.Path_analysis.total_pdf.Pdf.step in
  let expected = v_inter +. v_pdf in
  let slack = (tol_grid *. Float.max expected v_total) +. (step *. step) in
  if Float.abs (v_total -. expected) > slack then
    add
      (err ~rule:"check-var-additivity" ~location:loc
         (Printf.sprintf
            "total variance %.6g s^2 is not inter + intra = %.6g s^2 \
             within tolerance"
            v_total expected));
  List.rev !ds
