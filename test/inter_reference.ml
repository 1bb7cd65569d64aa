(* A frozen copy of the inter kernel as it stood before its deposit loop
   lost the libm floor and the summed-mass test: the grids, the
   voltage-factor tables, the O(Q^3) accumulation with
   [int_of_float (Float.floor u)] and the deposited-mass chain, and the
   U product through the [binop_into] reference.  [Inter.pdf_dual] is
   checked against it bit for bit, cached and uncached. *)

module Pdf = Ssta_prob.Pdf
module Combine = Ssta_prob.Combine
module Params = Ssta_tech.Params
module Elmore = Ssta_tech.Elmore
module Budget = Ssta_correlation.Budget
module Config = Ssta_core.Config

type table = { values : float array array; t_min : float; t_max : float }

type tables = {
  quality : int;
  u_pdf : Pdf.t;
  vdd : Pdf.t;
  vtn : Pdf.t;
  vtp : Pdf.t;
  fn : table;
  fp : table;
  fn_high : table;
  fp_high : table;
}

let product ~n px py = Combine.to_pdf (Combine.binop_into ~n ( *. ) px py)

let rv_pdf (config : Config.t) rv =
  let sigma =
    Budget.sigma_of_layer config.Config.budget ~total_sigma:(Params.sigma rv) 0
  in
  let mu = Params.get Params.nominal rv in
  if sigma > 0.0 then
    Ssta_prob.Shape.pdf config.Config.inter_shape
      ~n:config.Config.quality_inter ~bound:config.Config.truncation ~mu
      ~sigma
  else Pdf.point_mass mu

let tables ?(vt_shift = Ssta_tech.Vt_class.default_shift) config =
  let quality = config.Config.quality_inter in
  let tox = rv_pdf config Params.Tox and leff = rv_pdf config Params.Leff in
  let vdd = rv_pdf config Params.Vdd in
  let vtn = rv_pdf config Params.Vtn and vtp = rv_pdf config Params.Vtp in
  let k = Elmore.elmore_constant /. Elmore.eps_ox in
  let u_pdf =
    Combine.to_pdf
      (Combine.binop_into ~n:quality (fun t l -> k *. t *. l) tox leff)
  in
  let table ~shift vt_pdf =
    let values =
      Array.init (Pdf.size vdd) (fun i ->
          let v = Pdf.x_at vdd i in
          Array.init (Pdf.size vt_pdf) (fun j ->
              Elmore.voltage_factor ~vdd:v ~vt:(Pdf.x_at vt_pdf j +. shift)))
    in
    let t_min, t_max =
      Array.fold_left
        (fun (lo, hi) row ->
          Array.fold_left
            (fun (lo, hi) v -> (Float.min lo v, Float.max hi v))
            (lo, hi) row)
        (infinity, neg_infinity) values
    in
    { values; t_min; t_max }
  in
  { quality;
    u_pdf;
    vdd;
    vtn;
    vtp;
    fn = table ~shift:0.0 vtn;
    fp = table ~shift:0.0 vtp;
    fn_high = table ~shift:vt_shift vtn;
    fp_high = table ~shift:vt_shift vtp }

let compute t ~alpha_low ~alpha_high ~beta_low ~beta_high =
  let lo =
    (alpha_low *. t.fn.t_min) +. (alpha_high *. t.fn_high.t_min)
    +. (beta_low *. t.fp.t_min) +. (beta_high *. t.fp_high.t_min)
  in
  let hi =
    (alpha_low *. t.fn.t_max) +. (alpha_high *. t.fn_high.t_max)
    +. (beta_low *. t.fp.t_max) +. (beta_high *. t.fp_high.t_max)
  in
  let hi = if hi > lo then hi else lo +. (1e-12 *. (1.0 +. Float.abs lo)) in
  let n = t.quality in
  let step = (hi -. lo) /. float_of_int n in
  let cells = Array.make n 0.0 in
  let dep = [| 0.0 |] in
  let nv = Pdf.size t.vdd and nn = Pdf.size t.vtn and np = Pdf.size t.vtp in
  let mass p = Array.init (Pdf.size p) (fun i -> Pdf.mass_at p i) in
  let mass_vdd = mass t.vdd and mass_vtn = mass t.vtn and mass_vtp = mass t.vtp in
  let acol = Array.make nn 0.0 and bcol = Array.make np 0.0 in
  for i = 0 to nv - 1 do
    let mv = mass_vdd.(i) in
    if mv > 0.0 then begin
      let fn_i = t.fn.values.(i) and fnh_i = t.fn_high.values.(i) in
      let fp_i = t.fp.values.(i) and fph_i = t.fp_high.values.(i) in
      for j = 0 to nn - 1 do
        acol.(j) <- (alpha_low *. fn_i.(j)) +. (alpha_high *. fnh_i.(j))
      done;
      for k = 0 to np - 1 do
        bcol.(k) <- (beta_low *. fp_i.(k)) +. (beta_high *. fph_i.(k))
      done;
      for j = 0 to nn - 1 do
        let mvn = mv *. mass_vtn.(j) in
        if mvn > 0.0 then
          for k = 0 to np - 1 do
            let m = mvn *. mass_vtp.(k) in
            if m > 0.0 then begin
              let x = acol.(j) +. bcol.(k) in
              let u = ((x -. lo) /. step) -. 0.5 in
              let iu = int_of_float (Float.floor u) in
              let frac = u -. float_of_int iu in
              let m0 = m *. (1.0 -. frac) in
              if m0 > 0.0 then begin
                let c = if iu < 0 then 0 else if iu >= n then n - 1 else iu in
                cells.(c) <- cells.(c) +. m0
              end;
              let m1 = m *. frac in
              if m1 > 0.0 then begin
                let i1 = iu + 1 in
                let c = if i1 < 0 then 0 else if i1 >= n then n - 1 else i1 in
                cells.(c) <- cells.(c) +. m1
              end;
              dep.(0) <- dep.(0) +. m
            end
          done
      done
    end
  done;
  if not (dep.(0) > 0.0) then invalid_arg "Combine.to_pdf: no mass deposited";
  let density = Array.map (fun c -> c /. step) cells in
  product ~n:t.quality t.u_pdf (Pdf.make_owned ~lo ~step density)

let quantize40 x =
  if x = 0.0 then 0.0
  else
    let m, e = Float.frexp x in
    Float.ldexp (Float.round (Float.ldexp m 40)) (e - 40)

(* The kernel cache's answer: the kernel at the quantized direction,
   rescaled by the coefficient sum. *)
let pdf_dual_cached t ~alpha_low ~alpha_high ~beta_low ~beta_high =
  let s = alpha_low +. alpha_high +. beta_low +. beta_high in
  Pdf.scale
    (compute t
       ~alpha_low:(quantize40 (alpha_low /. s))
       ~alpha_high:(quantize40 (alpha_high /. s))
       ~beta_low:(quantize40 (beta_low /. s))
       ~beta_high:(quantize40 (beta_high /. s)))
    s
