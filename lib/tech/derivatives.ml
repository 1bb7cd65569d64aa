(* Closed-form partials of
     t_p = K * tox * leff * (alpha * F(vdd, vtn) + beta * F(vdd, vtp))
   with F(v, vt) = v (v - vt)^-1.3 + (1.5 v - 2 vt)^-1 and
   K = 0.345 / eps_ox. *)

let f_dv ~vdd ~vt =
  (* dF/dvdd *)
  let h = vdd -. vt in
  let l = (1.5 *. vdd) -. (2.0 *. vt) in
  (h ** -1.3) -. (1.3 *. vdd *. (h ** -2.3)) -. (1.5 /. (l *. l))

let f_dvt ~vdd ~vt =
  (* dF/dvt *)
  let h = vdd -. vt in
  let l = (1.5 *. vdd) -. (2.0 *. vt) in
  (1.3 *. vdd *. (h ** -2.3)) +. (2.0 /. (l *. l))

let f_dv2 ~vdd ~vt =
  (* d2F/dvdd2 *)
  let h = vdd -. vt in
  let l = (1.5 *. vdd) -. (2.0 *. vt) in
  (-2.6 *. (h ** -2.3))
  +. (1.3 *. 2.3 *. vdd *. (h ** -3.3))
  +. (2.0 *. 1.5 *. 1.5 /. (l *. l *. l))

let f_dvt2 ~vdd ~vt =
  (* d2F/dvt2 *)
  let h = vdd -. vt in
  let l = (1.5 *. vdd) -. (2.0 *. vt) in
  (1.3 *. 2.3 *. vdd *. (h ** -3.3)) +. (8.0 /. (l *. l *. l))

let geometry p =
  Elmore.elmore_constant *. p.Params.tox *. p.Params.leff /. Elmore.eps_ox

let voltage_sum (e : Gate.electrical) (p : Params.t) =
  (e.Gate.alpha *. Elmore.voltage_factor ~vdd:p.Params.vdd ~vt:p.Params.vtn)
  +. (e.Gate.beta *. Elmore.voltage_factor ~vdd:p.Params.vdd ~vt:p.Params.vtp)

let first e p rv =
  let open Params in
  match rv with
  | Tox ->
      Elmore.elmore_constant *. p.leff /. Elmore.eps_ox *. voltage_sum e p
  | Leff ->
      Elmore.elmore_constant *. p.tox /. Elmore.eps_ox *. voltage_sum e p
  | Vdd ->
      geometry p
      *. ((e.Gate.alpha *. f_dv ~vdd:p.vdd ~vt:p.vtn)
         +. (e.Gate.beta *. f_dv ~vdd:p.vdd ~vt:p.vtp))
  | Vtn -> geometry p *. e.Gate.alpha *. f_dvt ~vdd:p.vdd ~vt:p.vtn
  | Vtp -> geometry p *. e.Gate.beta *. f_dvt ~vdd:p.vdd ~vt:p.vtp

(* The factors of {!first} that depend on the operating point only,
   evaluated once: each component below is the same expression tree as
   its [first] arm with those factors read from the closure. *)
let gradient_at (p : Params.t) =
  let open Params in
  let tox_k = Elmore.elmore_constant *. p.leff /. Elmore.eps_ox in
  let leff_k = Elmore.elmore_constant *. p.tox /. Elmore.eps_ox in
  let fn = Elmore.voltage_factor ~vdd:p.vdd ~vt:p.vtn in
  let fp = Elmore.voltage_factor ~vdd:p.vdd ~vt:p.vtp in
  let geom = geometry p in
  let dv_n = f_dv ~vdd:p.vdd ~vt:p.vtn and dv_p = f_dv ~vdd:p.vdd ~vt:p.vtp in
  let dvt_n = f_dvt ~vdd:p.vdd ~vt:p.vtn
  and dvt_p = f_dvt ~vdd:p.vdd ~vt:p.vtp in
  fun (e : Gate.electrical) ->
    let a = e.Gate.alpha and b = e.Gate.beta in
    let vsum = (a *. fn) +. (b *. fp) in
    { tox = tox_k *. vsum;
      leff = leff_k *. vsum;
      vdd = geom *. ((a *. dv_n) +. (b *. dv_p));
      vtn = geom *. a *. dvt_n;
      vtp = geom *. b *. dvt_p }

let gradient e p =
  { Params.tox = first e p Params.Tox;
    leff = first e p Params.Leff;
    vdd = first e p Params.Vdd;
    vtn = first e p Params.Vtn;
    vtp = first e p Params.Vtp }

let second e p rv =
  let open Params in
  match rv with
  | Tox | Leff -> 0.0
  | Vdd ->
      geometry p
      *. ((e.Gate.alpha *. f_dv2 ~vdd:p.vdd ~vt:p.vtn)
         +. (e.Gate.beta *. f_dv2 ~vdd:p.vdd ~vt:p.vtp))
  | Vtn -> geometry p *. e.Gate.alpha *. f_dvt2 ~vdd:p.vdd ~vt:p.vtn
  | Vtp -> geometry p *. e.Gate.beta *. f_dvt2 ~vdd:p.vdd ~vt:p.vtp

let step_of ?(relative_step = 1e-5) p rv =
  let x = Params.get p rv in
  relative_step *. (Float.abs x +. 1e-12)

let first_numeric ?relative_step e p rv =
  let h = step_of ?relative_step p rv in
  let x = Params.get p rv in
  let fp = Elmore.gate_delay e (Params.set p rv (x +. h)) in
  let fm = Elmore.gate_delay e (Params.set p rv (x -. h)) in
  (fp -. fm) /. (2.0 *. h)

let second_numeric ?relative_step e p rv =
  let h = step_of ?relative_step p rv in
  let x = Params.get p rv in
  let fp = Elmore.gate_delay e (Params.set p rv (x +. h)) in
  let f0 = Elmore.gate_delay e p in
  let fm = Elmore.gate_delay e (Params.set p rv (x -. h)) in
  (fp -. (2.0 *. f0) +. fm) /. (h *. h)
