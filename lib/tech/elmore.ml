let eps_ox = 3.9 *. 8.854e-12
let elmore_constant = 0.345

let voltage_factor ~vdd ~vt =
  let headroom = vdd -. vt in
  let linear = (1.5 *. vdd) -. (2.0 *. vt) in
  if headroom <= 0.0 || linear <= 0.0 then
    invalid_arg "Elmore.voltage_factor: outside model validity domain";
  (vdd /. (headroom ** 1.3)) +. (1.0 /. linear)

(* The geometry prefactor and both voltage factors depend on the
   parameter point only, so a caller timing many gates at one point
   computes them once. *)
type factors = { geometry : float; vn : float; vp : float }

let factors (p : Params.t) =
  { geometry = elmore_constant *. p.Params.tox *. p.Params.leff /. eps_ox;
    vn = voltage_factor ~vdd:p.Params.vdd ~vt:p.Params.vtn;
    vp = voltage_factor ~vdd:p.Params.vdd ~vt:p.Params.vtp }

let delay_of f (e : Gate.electrical) =
  f.geometry *. ((e.Gate.alpha *. f.vn) +. (e.Gate.beta *. f.vp))

let delay_at p =
  let f = factors p in
  fun e -> delay_of f e

let gate_delay e p = delay_at p e

let nominal_delay e = gate_delay e Params.nominal

(* F(vdd, vt) is strictly decreasing in vdd and strictly increasing in vt
   on the validity domain: dF/dvdd = (v - vt)^-1.3 - 1.3 v (v - vt)^-2.3
   - 1.5 (1.5 v - 2 vt)^-2 = (v - vt)^-2.3 (v - vt - 1.3 v) - ... < 0
   because v - vt - 1.3 v = -(0.3 v + vt) < 0, and dF/dvt has the
   opposite signs on both terms.  The geometry prefactor is increasing in
   tox and leff, so the exact extrema of gate_delay over an axis-aligned
   parameter box lie at two known corners. *)
let delay_bounds ?(sigmas = Params.sigmas) ~bound (e : Gate.electrical) =
  if not (bound >= 0.0) then
    invalid_arg "Elmore.delay_bounds: bound must be non-negative";
  let dev rv = bound *. Params.get sigmas rv in
  let corner ~sign_geom ~sign_vdd ~sign_vt =
    { Params.tox = Params.nominal.Params.tox +. (sign_geom *. dev Params.Tox);
      leff = Params.nominal.Params.leff +. (sign_geom *. dev Params.Leff);
      vdd = Params.nominal.Params.vdd +. (sign_vdd *. dev Params.Vdd);
      vtn = Params.nominal.Params.vtn +. (sign_vt *. dev Params.Vtn);
      vtp = Params.nominal.Params.vtp +. (sign_vt *. dev Params.Vtp) }
  in
  (* Fast corner: thin/short device, high supply, low thresholds.
     Slow corner: the opposite. *)
  let fast = corner ~sign_geom:(-1.0) ~sign_vdd:1.0 ~sign_vt:(-1.0) in
  let fast =
    { fast with
      Params.vtn = Float.max 0.0 fast.Params.vtn;
      vtp = Float.max 0.0 fast.Params.vtp }
  in
  let slow = corner ~sign_geom:1.0 ~sign_vdd:(-1.0) ~sign_vt:1.0 in
  if not (Params.is_physical slow) then
    invalid_arg
      "Elmore.delay_bounds: slow corner outside model validity domain";
  (* Wide boxes (large [bound]) can push the fast corner's geometry
     through zero.  The delay is linear in tox*leff with a positive
     voltage factor, so its infimum over the physical part of the box is
     0 — a sound (if loose) lower bound; no scope caveat needed. *)
  let lo =
    if fast.Params.tox <= 0.0 || fast.Params.leff <= 0.0 then 0.0
    else if not (Params.is_physical fast) then
      invalid_arg
        "Elmore.delay_bounds: fast corner outside model validity domain"
    else gate_delay e fast
  in
  (lo, gate_delay e slow)

let path_delay gates p =
  match gates with
  | [] -> 0.0
  | _ ->
      let delay = delay_at p in
      List.fold_left (fun acc e -> acc +. delay e) 0.0 gates

let ps t = t *. 1e12
