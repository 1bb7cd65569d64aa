module Paths = Ssta_timing.Paths
module Gate_table = Ssta_correlation.Gate_table
module Health = Ssta_runtime.Health

module Key = struct
  type t = int array * float

  let of_path p = (p.Paths.nodes, p.Paths.delay)

  let equal (a, da) (b, db) =
    Int64.equal (Int64.bits_of_float da) (Int64.bits_of_float db)
    && Array.length a = Array.length b
    && Array.for_all2 Int.equal a b

  (* Every node id, not the prefix [Hashtbl.hash] stops at, folded
     FNV-style, then mixed so the low bits the table indexes by depend
     on all of them. *)
  let hash (nodes, delay) =
    Hashtbl.hash
      (Array.fold_left
         (fun h id -> (h lxor id) * 0x100000001b3)
         (Int64.to_int (Int64.bits_of_float delay))
         nodes)
end

module Table = Hashtbl.Make (Key)

type entry = Path_analysis.t * Health.t

(* Each entry remembers the last run that used it, so a run marks what
   it reuses in place and the end of the run drops the rest without
   rebuilding the table. *)
type slot = { entry : entry; mutable used_by : int }

type t = {
  mutable binding : (Gate_table.t * Config.t) option;
  entries : slot Table.t;
  mutable runs : int;
  ledger : Health.t;
}

let create ?(ledger = Health.create ()) () =
  { binding = None; entries = Table.create 64; runs = 0; ledger }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The configuration fields a path's analysis reads besides its gate
   table: PDF resolutions, the layering and variance split, the inter
   RV shape and truncation, the corner and ranking sigmas, and whether
   the inter kernel goes through the scale-covariant cache (its 40-bit
   direction quantization moves result bits).  [confidence],
   [max_paths], [affine_prune], [engine] and [block_max] only choose
   which paths a run analyzes. *)
let analysis_equal (a : Config.t) (b : Config.t) =
  let floats_equal u v =
    Array.length u = Array.length v && Array.for_all2 same_bits u v
  in
  a.quality_intra = b.quality_intra
  && a.quality_inter = b.quality_inter
  && a.quad_levels = b.quad_levels
  && a.random_layer = b.random_layer
  && floats_equal a.budget.weights b.budget.weights
  && floats_equal a.budget.rv_var b.budget.rv_var
  && same_bits a.truncation b.truncation
  && same_bits a.corner_k b.corner_k
  && same_bits a.confidence_sigma b.confidence_sigma
  && a.inter_shape = b.inter_shape
  && a.inter_cache = b.inter_cache

let bound_to t ~gates config =
  match t.binding with
  | Some (g, c) -> g == gates && analysis_equal c config
  | None -> false

let count t ~lookups ~hits ~drops =
  Health.counter_add t.ledger "path-cache-lookups" lookups;
  Health.counter_add t.ledger "path-cache-hits" hits;
  Health.counter_add t.ledger "path-cache-drops" drops

let invalidate t =
  count t ~lookups:0 ~hits:0 ~drops:(Table.length t.entries);
  t.binding <- None;
  Table.reset t.entries

let find t ~gates config path =
  let hit =
    if bound_to t ~gates config then
      Option.map
        (fun s -> s.entry)
        (Table.find_opt t.entries (Key.of_path path))
    else None
  in
  count t ~lookups:1 ~hits:(if Option.is_some hit then 1 else 0) ~drops:0;
  hit

(* The run reads the entries through [reuse], marking each one it uses,
   and collects its fresh analyses.  On success the entries it did not
   use are dropped and the fresh ones added, so the cache holds exactly
   this run's analyses; a failed run leaves the entries as they were
   (its marks only name a run that never finished). *)
let with_run t ~gates config f =
  t.runs <- t.runs + 1;
  let run = t.runs in
  let bound = bound_to t ~gates config in
  let lookups = ref 0 and hits = ref 0 and fresh = ref [] in
  let reuse p =
    incr lookups;
    if not bound then None
    else
      match Table.find_opt t.entries (Key.of_path p) with
      | Some s ->
          incr hits;
          s.used_by <- run;
          Some s.entry
      | None -> None
  in
  let record p pa ledger = fresh := (p, (pa, ledger)) :: !fresh in
  let r = f ~reuse ~record in
  let drops =
    match r with
    | Error _ -> 0
    | Ok _ ->
        let before = Table.length t.entries in
        if bound then
          Table.filter_map_inplace
            (fun _ s -> if s.used_by = run then Some s else None)
            t.entries
        else Table.reset t.entries;
        let drops = before - Table.length t.entries in
        List.iter
          (fun (p, entry) ->
            Table.replace t.entries (Key.of_path p) { entry; used_by = run })
          (List.rev !fresh);
        t.binding <- Some (gates, config);
        drops
  in
  count t ~lookups:!lookups ~hits:!hits ~drops;
  r

type stats = { lookups : int; hits : int; entries : int; drops : int }

let stats t =
  let counter name = Health.counter t.ledger name in
  { lookups = counter "path-cache-lookups";
    hits = counter "path-cache-hits";
    entries = Table.length t.entries;
    drops = counter "path-cache-drops" }
