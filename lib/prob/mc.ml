module Pool = Ssta_parallel.Pool

type result = {
  samples : float array;
  summary : Stats.summary;
  empirical : Pdf.t;
  stopped : bool;
}

let of_samples ?(stopped = false) ~bins samples =
  { samples;
    summary = Stats.summarize samples;
    empirical = Pdf.of_samples ~n:bins samples;
    stopped }

let run ?(bins = 100) ~n rng draw =
  if n < 2 then invalid_arg "Mc.run: need at least 2 samples";
  of_samples ~bins (Array.init n (fun _ -> draw rng))

let shard_size = 4096

let run_sharded ?(bins = 100) ?pool ?should_stop ~n ~seed draw =
  if n < 2 then invalid_arg "Mc.run_sharded: need at least 2 samples";
  (* The shard layout is a function of [n] alone: [shard_size] samples
     per shard, each shard drawing from its own stream split off the
     master seed.  The pool only decides which domain evaluates which
     shard, so the sample array is bit-identical at any worker count. *)
  let shards = (n + shard_size - 1) / shard_size in
  let streams = Rng.split (Rng.create seed) shards in
  let samples = Array.make n 0.0 in
  let fill si =
    let rng = streams.(si) in
    let lo = si * shard_size in
    let hi = Int.min n (lo + shard_size) - 1 in
    for i = lo to hi do
      samples.(i) <- draw rng
    done
  in
  (* Cancellation stops between shards, keeping a contiguous prefix;
     shard 0 always completes so the summary has samples to stand on.
     Without a pool the shards run inline on a jobs=1 pool, which polls
     [should_stop] before each shard exactly like the parallel path. *)
  let pool = match pool with Some p -> p | None -> Pool.create ~jobs:1 () in
  let should_stop = Option.value should_stop ~default:(fun () -> false) in
  fill 0;
  let prefix, stopped =
    Pool.map_prefix pool ~chunk:1 ~should_stop fill
      (Array.init (shards - 1) (fun i -> i + 1))
  in
  let completed = 1 + Array.length prefix in
  if completed = shards then of_samples ~bins samples
  else
    of_samples ~stopped ~bins
      (Array.sub samples 0 (Int.min n (completed * shard_size)))

let compare_to_pdf r pdf =
  let mean_err = Float.abs (r.summary.Stats.mean -. Pdf.mean pdf) in
  let std_err = Float.abs (r.summary.Stats.std -. Pdf.std pdf) in
  let ks = Stats.ks_against_pdf r.samples pdf in
  (mean_err, std_err, ks)
