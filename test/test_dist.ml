open Ssta_prob
open Helpers

let test_gaussian () =
  let p = Dist.gaussian ~n:300 ~mu:2.0 ~sigma:0.5 () in
  check_close ~tol:1e-6 "mean" 2.0 (Pdf.mean p);
  check_close ~tol:1e-3 "std" 0.5 (Pdf.std p);
  check_raises_invalid "sigma<=0" (fun () ->
      ignore (Dist.gaussian ~mu:0.0 ~sigma:0.0 ()))

let test_truncated_gaussian_support () =
  let p = Dist.truncated_gaussian ~bound:3.0 ~mu:1.0 ~sigma:2.0 () in
  check_close ~tol:1e-9 "lo at mu - 3 sigma" (-5.0) p.Pdf.lo;
  check_close ~tol:1e-9 "hi at mu + 3 sigma" 7.0 (Pdf.hi p);
  (* Tight truncation shrinks the variance below sigma^2. *)
  check_true "variance reduced by truncation" (Pdf.std p < 2.0)

let test_truncated_gaussian_6sigma_is_nearly_exact () =
  let p = Dist.truncated_gaussian ~n:400 ~bound:6.0 ~mu:0.0 ~sigma:1.0 () in
  (* At the paper's 6-sigma truncation the clipped mass is ~2e-9, so the
     moments are essentially the untruncated ones. *)
  check_close_abs ~tol:1e-6 "mean" 0.0 (Pdf.mean p);
  check_close_abs ~tol:1e-3 "std" 1.0 (Pdf.std p)

let test_truncated_invalid () =
  check_raises_invalid "bound<=0" (fun () ->
      ignore (Dist.truncated_gaussian ~bound:0.0 ~mu:0.0 ~sigma:1.0 ()));
  check_raises_invalid "sigma<=0" (fun () ->
      ignore (Dist.truncated_gaussian ~mu:0.0 ~sigma:(-2.0) ()))

let test_uniform () =
  let p = Dist.uniform ~lo:(-1.0) ~hi:3.0 () in
  check_close ~tol:1e-9 "mean" 1.0 (Pdf.mean p);
  check_close ~tol:1e-9 "flat density" 0.25 (Pdf.density_at p 0.0);
  check_raises_invalid "hi<=lo" (fun () ->
      ignore (Dist.uniform ~lo:1.0 ~hi:1.0 ()))

let test_triangular () =
  let p = Dist.triangular ~n:500 ~lo:0.0 ~mode:1.0 ~hi:4.0 () in
  (* mean of a triangular = (lo + mode + hi)/3 *)
  check_close ~tol:2e-3 "mean" (5.0 /. 3.0) (Pdf.mean p);
  check_raises_invalid "bad ordering" (fun () ->
      ignore (Dist.triangular ~lo:0.0 ~mode:5.0 ~hi:4.0 ()))

let test_triangular_degenerate_edges () =
  let left = Dist.triangular ~lo:0.0 ~mode:0.0 ~hi:2.0 () in
  check_close ~tol:5e-3 "left-mode mean" (2.0 /. 3.0) (Pdf.mean left);
  let right = Dist.triangular ~lo:0.0 ~mode:2.0 ~hi:2.0 () in
  check_close ~tol:5e-3 "right-mode mean" (4.0 /. 3.0) (Pdf.mean right)

let test_exponential () =
  let p = Dist.exponential ~n:2000 ~rate:2.0 () in
  check_close ~tol:2e-3 "mean 1/rate" 0.5 (Pdf.mean p);
  check_close ~tol:2e-2 "std 1/rate" 0.5 (Pdf.std p);
  check_raises_invalid "rate<=0" (fun () ->
      ignore (Dist.exponential ~rate:0.0 ()));
  check_raises_invalid "bad tail" (fun () ->
      ignore (Dist.exponential ~tail:2.0 ~rate:1.0 ()))

let prop_gaussian_mean_matches =
  qcheck "gaussian grid mean equals mu"
    QCheck.(pair (float_range (-10.0) 10.0) (float_range 0.1 5.0))
    (fun (mu, sigma) ->
      let p = Dist.truncated_gaussian ~mu ~sigma () in
      Float.abs (Pdf.mean p -. mu) < 1e-6 *. (1.0 +. Float.abs mu))

(* The loop in [truncated_gaussian] is [Pdf.of_fun] with
   [Erf.normal_pdf] written out: the same grid, bit for bit. *)
let prop_truncated_gaussian_is_of_fun =
  qcheck ~count:300 "truncated gaussian = of_fun normal_pdf, bitwise"
    QCheck.(
      quad (int_range 1 400) (float_range 0.5 8.0) (float_range (-1e3) 1e3)
        (float_range 1e-12 10.0))
    (fun (n, bound, mu, sigma) ->
      let span = bound *. sigma in
      pdf_bits_equal
        (Dist.truncated_gaussian ~n ~bound ~mu ~sigma ())
        (Pdf.of_fun ~lo:(mu -. span) ~hi:(mu +. span) ~n (fun x ->
             Erf.normal_pdf ~mu ~sigma x)))

let suite =
  ( "dist",
    [ case "gaussian constructor" test_gaussian;
      case "truncated gaussian support" test_truncated_gaussian_support;
      case "6-sigma truncation nearly exact"
        test_truncated_gaussian_6sigma_is_nearly_exact;
      case "truncated gaussian invalid args" test_truncated_invalid;
      case "uniform" test_uniform;
      case "triangular" test_triangular;
      case "triangular edge modes" test_triangular_degenerate_edges;
      case "exponential" test_exponential;
      prop_gaussian_mean_matches;
      prop_truncated_gaussian_is_of_fun ] )
