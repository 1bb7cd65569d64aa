type t = Bottom | Range of { lo : float; hi : float }

let bottom = Bottom
let top = Range { lo = neg_infinity; hi = infinity }

let make ~lo ~hi =
  if Float.is_nan lo || Float.is_nan hi || hi < lo then
    invalid_arg "Interval.make: ill-formed interval";
  Range { lo; hi }

let of_pair (lo, hi) = make ~lo ~hi
let singleton x = make ~lo:x ~hi:x
let zero = singleton 0.0
let is_bottom = function Bottom -> true | Range _ -> false

let equal a b =
  match a, b with
  | Bottom, Bottom -> true
  | Range a, Range b -> a.lo = b.lo && a.hi = b.hi
  | _ -> false

let range = function Bottom -> None | Range { lo; hi } -> Some (lo, hi)

let hull a b =
  match a, b with
  | Bottom, x | x, Bottom -> x
  | Range a, Range b ->
      Range { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let sup a b =
  match a, b with
  | Bottom, x | x, Bottom -> x
  | Range a, Range b ->
      Range { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }

let add a b =
  match a, b with
  | Bottom, _ | _, Bottom -> Bottom
  | Range a, Range b -> Range { lo = a.lo +. b.lo; hi = a.hi +. b.hi }

let contains ?(slack = 0.0) i x =
  match i with
  | Bottom -> false
  | Range { lo; hi } -> x >= lo -. slack && x <= hi +. slack

let subset ?(slack = 0.0) a ~of_ =
  match a, of_ with
  | Bottom, _ -> true
  | Range _, Bottom -> false
  | Range a, Range b -> a.lo >= b.lo -. slack && a.hi <= b.hi +. slack

let width = function Bottom -> 0.0 | Range { lo; hi } -> hi -. lo

let magnitude = function
  | Bottom -> 0.0
  | Range { lo; hi } -> Float.max (Float.abs lo) (Float.abs hi)

let pp fmt = function
  | Bottom -> Format.fprintf fmt "_|_"
  | Range { lo; hi } -> Format.fprintf fmt "[%g, %g]" lo hi
