module Pdf = Ssta_prob.Pdf
module Combine = Ssta_prob.Combine
module Params = Ssta_tech.Params
module Elmore = Ssta_tech.Elmore
module Budget = Ssta_correlation.Budget
module Path_coeffs = Ssta_correlation.Path_coeffs

type table = {
  values : float array array;
  t_min : float;
  t_max : float;
}

type tables = {
  quality : int;
  u_pdf : Pdf.t;  (* K * t_ox * L_eff *)
  vdd : Pdf.t;
  vtn : Pdf.t;
  vtp : Pdf.t;
  fn : table;  (* F(vdd_i, vtn_j), low-Vt class *)
  fp : table;  (* F(vdd_i, vtp_k), low-Vt class *)
  fn_high : table;  (* same with the high-Vt threshold shift *)
  fp_high : table;
  vt_shift : float;
  (* Cell masses of the three voltage grids, hoisted out of the O(Q^3)
     kernel loop (mass_at is a multiply per call otherwise). *)
  mass_vdd : float array;
  mass_vtn : float array;
  mass_vtp : float array;
}

let inter_sigma (config : Config.t) rv =
  Budget.sigma_of_layer config.Config.budget ~total_sigma:(Params.sigma rv) 0

let rv_pdf config rv =
  let sigma = inter_sigma config rv in
  let mu = Params.get Params.nominal rv in
  if sigma > 0.0 then
    Ssta_prob.Shape.pdf config.Config.inter_shape
      ~n:config.Config.quality_inter ~bound:config.Config.truncation ~mu
      ~sigma
  else Pdf.point_mass mu

let tables ?(vt_shift = Ssta_tech.Vt_class.default_shift) config =
  let quality = config.Config.quality_inter in
  let tox = rv_pdf config Params.Tox in
  let leff = rv_pdf config Params.Leff in
  let vdd = rv_pdf config Params.Vdd in
  let vtn = rv_pdf config Params.Vtn in
  let vtp = rv_pdf config Params.Vtp in
  let k = Elmore.elmore_constant /. Elmore.eps_ox in
  let u_pdf =
    Combine.binop ~n:quality (fun t l -> k *. t *. l) tox leff
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
  let masses p = Array.init (Pdf.size p) (fun i -> Pdf.mass_at p i) in
  { quality;
    u_pdf;
    vdd;
    vtn;
    vtp;
    fn = table ~shift:0.0 vtn;
    fp = table ~shift:0.0 vtp;
    fn_high = table ~shift:vt_shift vtn;
    fp_high = table ~shift:vt_shift vtp;
    vt_shift;
    mass_vdd = masses vdd;
    mass_vtn = masses vtn;
    mass_vtp = masses vtp }

let vt_shift t = t.vt_shift

(* The restructured kernel.  For each V_dd slice the j/k column
   combinations [alpha_low*fn + alpha_high*fn_high] and
   [beta_low*fp + beta_high*fp_high] are hoisted into the scratch arrays
   [acol]/[bcol] (O(Q) multiply-adds per slice instead of O(Q^2) in the
   inner loop), the grid masses come from the precomputed arrays in
   [tables], and the deposit arithmetic is inlined on a raw cell array —
   the [unsafe_deposit] accumulator updated two boxed float fields per
   deposit, which was the kernel's only remaining allocation source.
   The cell grid itself can come from a caller arena.  Bit-identical to
   the historical [accumulator]/[unsafe_deposit]/[to_pdf] formulation. *)
let compute ?arena t ~acol ~bcol ~alpha_low ~alpha_high ~beta_low ~beta_high =
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
  if n <= 0 then invalid_arg "Combine.accumulator: n must be positive";
  if not (hi > lo) then invalid_arg "Combine.accumulator: hi must exceed lo";
  let step = (hi -. lo) /. float_of_int n in
  let cells =
    match arena with
    | Some a -> Ssta_prob.Arena.borrow a n
    | None -> Array.make n 0.0
  in
  (* Only whether any mass was deposited matters, so a flag stands in
     for the sum of deposits. *)
  let deposited = ref false in
  let nv = Pdf.size t.vdd and nn = Pdf.size t.vtn and np = Pdf.size t.vtp in
  let mass_vtn = t.mass_vtn and mass_vtp = t.mass_vtp in
  for i = 0 to nv - 1 do
    let mv = Array.unsafe_get t.mass_vdd i in
    if mv > 0.0 then begin
      let fn_i = t.fn.values.(i) and fnh_i = t.fn_high.values.(i) in
      let fp_i = t.fp.values.(i) and fph_i = t.fp_high.values.(i) in
      for j = 0 to nn - 1 do
        Array.unsafe_set acol j
          ((alpha_low *. Array.unsafe_get fn_i j)
          +. (alpha_high *. Array.unsafe_get fnh_i j))
      done;
      for k = 0 to np - 1 do
        Array.unsafe_set bcol k
          ((beta_low *. Array.unsafe_get fp_i k)
          +. (beta_high *. Array.unsafe_get fph_i k))
      done;
      for j = 0 to nn - 1 do
        let mvn = mv *. Array.unsafe_get mass_vtn j in
        if mvn > 0.0 then begin
          let base = Array.unsafe_get acol j in
          for k = 0 to np - 1 do
            let m = mvn *. Array.unsafe_get mass_vtp k in
            if m > 0.0 then begin
              let x = base +. Array.unsafe_get bcol k in
              let u = ((x -. lo) /. step) -. 0.5 in
              (* [Combine.floor_int u], written out: a call across the
                 module boundary would box [u]. *)
              let iu =
                let i = int_of_float u in
                if float_of_int i > u then i - 1 else i
              in
              let frac = u -. float_of_int iu in
              let m0 = m *. (1.0 -. frac) in
              if m0 > 0.0 then begin
                let c = if iu < 0 then 0 else if iu >= n then n - 1 else iu in
                Array.unsafe_set cells c (Array.unsafe_get cells c +. m0)
              end;
              let m1 = m *. frac in
              if m1 > 0.0 then begin
                let i1 = iu + 1 in
                let c = if i1 < 0 then 0 else if i1 >= n then n - 1 else i1 in
                Array.unsafe_set cells c (Array.unsafe_get cells c +. m1)
              end;
              deposited := true
            end
          done
        end
      done
    end
  done;
  if not !deposited then begin
    (match arena with Some a -> Ssta_prob.Arena.release a cells | None -> ());
    invalid_arg "Combine.to_pdf: no mass deposited"
  end;
  let density = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set density i (Array.unsafe_get cells i /. step)
  done;
  (match arena with Some a -> Ssta_prob.Arena.release a cells | None -> ());
  let voltage_pdf = Pdf.make_owned ~lo ~step density in
  Combine.binop ~n:t.quality ?arena ( *. ) t.u_pdf voltage_pdf

(* {2 Scale-covariant kernel cache}

   [pdf_dual] is homogeneous of degree 1 in its four coefficients: on our
   grid, computing at [c*alpha, c*beta] is the affine rescale [x -> c*x]
   of the result at [alpha, beta] (same cell fractions, lo/hi/step scaled
   by [c]).  The cache exploits this by canonicalizing every call to the
   normalized direction [coeffs / sum], computing (or fetching) the
   kernel PDF there, and rescaling by the sum with the exact
   [Pdf.scale].

   Determinism: the returned PDF is a pure function of the call's
   coefficients — the canonical direction is quantized to 40 mantissa
   bits (a deterministic function of the inputs), the kernel at the
   quantized direction is deterministically computed by [compute], and a
   cache hit returns a structurally identical PDF to a rebuild.  Whether
   a given call hits or misses (which depends on scheduling when each
   domain owns a shard) therefore cannot change any numeric output, so
   parallel runs stay byte-identical to sequential ones.  For the same
   reason the only counters allowed into reports are the
   scheduling-independent ones: lookups (one per call) and the number of
   distinct directions (a set union over shards). *)

(* Bitwise image of the quantized direction (alpha_low, alpha_high,
   beta_low, beta_high) / sum — an exact, hashable cache key. *)
type key = int64 * int64 * int64 * int64

(* Round to 40 mantissa bits so directions differing only by float noise
   from coefficient summation in different orders collapse to one key.
   The relative perturbation is < 2^-40 ~ 9e-13, far inside the 1e-9
   acceptance tolerance on cached-vs-uncached statistics. *)
let quantize40 x =
  if x = 0.0 then 0.0
  else
    let m, e = Float.frexp x in
    Float.ldexp (Float.round (Float.ldexp m 40)) (e - 40)

type cache = {
  c_tables : tables;  (* kernels are only valid for the tables they were built from *)
  kernels : (key, Pdf.t) Hashtbl.t;
  seen : (key, unit) Hashtbl.t option;
      (* never cleared: distinct-direction set, kept only by caches
         that live for one run *)
  mutable lookups : int;
  mutable builds : int;
  max_entries : int;
  mutable acol : float array;  (* scratch reused across calls *)
  mutable bcol : float array;
}

let default_max_entries = 512

let cache_create ?(max_entries = default_max_entries) ?(distinct = true) t =
  { c_tables = t;
    kernels = Hashtbl.create 64;
    seen = (if distinct then Some (Hashtbl.create 64) else None);
    lookups = 0;
    builds = 0;
    max_entries = Int.max 1 max_entries;
    acol = [||];
    bcol = [||] }

let scratch c ~nn ~np =
  if Array.length c.acol < nn then c.acol <- Array.make nn 0.0;
  if Array.length c.bcol < np then c.bcol <- Array.make np 0.0;
  (c.acol, c.bcol)

type cache_stats = {
  cs_lookups : int;  (* cached calls; deterministic *)
  cs_distinct : int;  (* distinct normalized directions; deterministic *)
  cs_hits : int;  (* lookups - distinct: shared-cache-equivalent hits *)
  cs_builds : int;  (* kernels actually built (scheduling-dependent) *)
  cs_entries : int;  (* currently resident kernels *)
  cs_shards : int;
}

(* Without a direction set, every build stands for one distinct
   direction (a direction rebuilt after an eviction counts again). *)
let distinct_of c =
  match c.seen with Some seen -> Hashtbl.length seen | None -> c.builds

let cache_stats c =
  let distinct = distinct_of c in
  { cs_lookups = c.lookups;
    cs_distinct = distinct;
    cs_hits = c.lookups - distinct;
    cs_builds = c.builds;
    cs_entries = Hashtbl.length c.kernels;
    cs_shards = 1 }

let validate_dual ~alpha_low ~alpha_high ~beta_low ~beta_high =
  if alpha_low < 0.0 || alpha_high < 0.0 || beta_low < 0.0 || beta_high < 0.0
  then invalid_arg "Inter.pdf_dual: coefficient sums must be non-negative";
  if alpha_low +. alpha_high <= 0.0 || beta_low +. beta_high <= 0.0 then
    invalid_arg "Inter.pdf_dual: need positive NMOS and PMOS coefficients"

(* NOTE: kernel builds (cache misses) deliberately do NOT use the
   caller's arena: which calls miss depends on shard layout, so arena
   borrow accounting would become scheduling-dependent and the derived
   health counters would break --jobs byte-determinism.  Builds are rare
   (one per distinct direction); their allocations are irrelevant. *)
let pdf_dual_cached c ~alpha_low ~alpha_high ~beta_low ~beta_high =
  let t = c.c_tables in
  let s = alpha_low +. alpha_high +. beta_low +. beta_high in
  let qa_low = quantize40 (alpha_low /. s)
  and qa_high = quantize40 (alpha_high /. s)
  and qb_low = quantize40 (beta_low /. s)
  and qb_high = quantize40 (beta_high /. s) in
  let key =
    ( Int64.bits_of_float qa_low,
      Int64.bits_of_float qa_high,
      Int64.bits_of_float qb_low,
      Int64.bits_of_float qb_high )
  in
  c.lookups <- c.lookups + 1;
  (match c.seen with
  | Some seen when not (Hashtbl.mem seen key) -> Hashtbl.add seen key ()
  | _ -> ());
  let kernel =
    match Hashtbl.find_opt c.kernels key with
    | Some k -> k
    | None ->
        c.builds <- c.builds + 1;
        if Hashtbl.length c.kernels >= c.max_entries then
          Hashtbl.reset c.kernels;
        let nn = Pdf.size t.vtn and np = Pdf.size t.vtp in
        let acol, bcol = scratch c ~nn ~np in
        let k =
          compute t ~acol ~bcol ~alpha_low:qa_low ~alpha_high:qa_high
            ~beta_low:qb_low ~beta_high:qb_high
        in
        Hashtbl.add c.kernels key k;
        k
  in
  Pdf.scale kernel s

let pdf_dual ?cache ?arena t ~alpha_low ~alpha_high ~beta_low ~beta_high =
  validate_dual ~alpha_low ~alpha_high ~beta_low ~beta_high;
  match cache with
  | Some c ->
      if not (c.c_tables == t) then
        invalid_arg "Inter.pdf_dual: cache was built for different tables";
      ignore arena;
      pdf_dual_cached c ~alpha_low ~alpha_high ~beta_low ~beta_high
  | None -> (
      let nn = Pdf.size t.vtn and np = Pdf.size t.vtp in
      match arena with
      | None ->
          let acol = Array.make nn 0.0 and bcol = Array.make np 0.0 in
          compute t ~acol ~bcol ~alpha_low ~alpha_high ~beta_low ~beta_high
      | Some a ->
          let acol = Ssta_prob.Arena.borrow a nn in
          let bcol = Ssta_prob.Arena.borrow a np in
          Fun.protect
            ~finally:(fun () ->
              Ssta_prob.Arena.release a bcol;
              Ssta_prob.Arena.release a acol)
            (fun () ->
              compute ~arena:a t ~acol ~bcol ~alpha_low ~alpha_high ~beta_low
                ~beta_high))

let pdf ?cache ?arena t ~alpha_sum ~beta_sum =
  if alpha_sum <= 0.0 || beta_sum <= 0.0 then
    invalid_arg "Inter.pdf: coefficient sums must be positive";
  pdf_dual ?cache ?arena t ~alpha_low:alpha_sum ~alpha_high:0.0
    ~beta_low:beta_sum ~beta_high:0.0

let of_coeffs ?cache ?arena t (c : Path_coeffs.t) =
  pdf ?cache ?arena t ~alpha_sum:c.Path_coeffs.alpha_sum
    ~beta_sum:c.Path_coeffs.beta_sum

(* {2 Per-domain cache shards}

   The methodology fan-out analyzes paths from several domains.  Sharing
   one mutable cache would need a lock around the whole kernel; instead
   each domain lazily gets its own shard, keyed by its domain id.  The
   purity argument above makes the shard layout invisible in results. *)

type caches = {
  cc_tables : tables;
  mutable shards : (int * cache) list;
  lock : Mutex.t;
  cc_max_entries : int;
  cc_distinct : bool;
}

let caches_create ?(max_entries = default_max_entries) ?(distinct = true) t =
  { cc_tables = t;
    shards = [];
    lock = Mutex.create ();
    cc_max_entries = max_entries;
    cc_distinct = distinct }

let caches_get cc =
  let id = (Domain.self () :> int) in
  Mutex.protect cc.lock (fun () ->
      match List.assoc_opt id cc.shards with
      | Some c -> c
      | None ->
          let c =
            cache_create ~max_entries:cc.cc_max_entries
              ~distinct:cc.cc_distinct cc.cc_tables
          in
          cc.shards <- (id, c) :: cc.shards;
          c)

let caches_stats cc =
  Mutex.protect cc.lock (fun () ->
      let union = Hashtbl.create 64 in
      let lookups = ref 0 and builds = ref 0 and entries = ref 0 in
      List.iter
        (fun (_, c) ->
          lookups := !lookups + c.lookups;
          builds := !builds + c.builds;
          entries := !entries + Hashtbl.length c.kernels;
          Option.iter
            (Hashtbl.iter (fun k () -> Hashtbl.replace union k ()))
            c.seen)
        cc.shards;
      let distinct = if cc.cc_distinct then Hashtbl.length union else !builds in
      { cs_lookups = !lookups;
        cs_distinct = distinct;
        cs_hits = !lookups - distinct;
        cs_builds = !builds;
        cs_entries = !entries;
        cs_shards = List.length cc.shards })

let mean_is_shifted p ~nominal = Pdf.mean p -. nominal
