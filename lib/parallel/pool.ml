(* A fixed pool of worker domains fed by chunked work regions.

   Determinism contract: workers only ever write results into
   caller-provided slots indexed by input position; every reduction over
   those slots happens on the caller in index order.  Scheduling (which
   worker runs which chunk, and in what interleaving) is thus invisible
   in the results.  See pool.mli. *)

type job = {
  chunks : int;
  run_chunk : int -> unit;
  next : int Atomic.t;  (* next chunk index to claim *)
  pending : int Atomic.t;  (* chunks not yet finished *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_cv : Condition.t;  (* a new work region was posted, or shutdown *)
  done_cv : Condition.t;  (* the last chunk of a region finished *)
  mutable current : job option;
  mutable generation : int;  (* bumped when a region is posted *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  (* First failure by chunk index, re-raised deterministically. *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
  (* Idle accounting (under [mutex]): how many workers are currently
     parked on [work_cv], and how many park sessions ever happened.
     Observability only — never consulted by the scheduler. *)
  mutable idle : int;
  mutable parks : int;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Claim and execute chunks until the region's counter is exhausted.
   Called by workers and by the posting caller alike.  Each
   fetch-and-add claims one chunk index, so chunk execution starts in
   increasing index order. *)
let execute t job =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.chunks then continue_ := false
    else begin
      (try job.run_chunk i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         (match t.failure with
         | Some (j, _, _) when j <= i -> ()
         | Some _ | None -> t.failure <- Some (i, e, bt));
         Mutex.unlock t.mutex);
      if Atomic.fetch_and_add job.pending (-1) = 1 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.mutex
      end
    end
  done

let rec worker_loop t last_gen =
  Mutex.lock t.mutex;
  let parked = ref false in
  while
    (not t.stopping) && (t.generation = last_gen || t.current = None)
  do
    if not !parked then begin
      (* One park session per wait loop, however many spurious wakeups
         the condition variable delivers. *)
      parked := true;
      t.idle <- t.idle + 1;
      t.parks <- t.parks + 1
    end;
    Condition.wait t.work_cv t.mutex
  done;
  if !parked then t.idle <- t.idle - 1;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let job = match t.current with Some j -> j | None -> assert false in
    Mutex.unlock t.mutex;
    execute t job;
    worker_loop t gen
  end

let create ?jobs () =
  let jobs = match jobs with None -> default_jobs () | Some j -> j in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let jobs = Int.min jobs 128 in
  let t =
    { jobs;
      mutex = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      current = None;
      generation = 0;
      stopping = false;
      workers = [||];
      failure = None;
      idle = 0;
      parks = 0 }
  in
  if jobs > 1 then
    t.workers <-
      Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let jobs t = t.jobs

let idle_workers t = Mutex.protect t.mutex (fun () -> t.idle)
let park_count t = Mutex.protect t.mutex (fun () -> t.parks)

let shutdown t =
  if Array.length t.workers > 0 || not t.stopping then begin
    Mutex.lock t.mutex;
    let need_join = not t.stopping in
    t.stopping <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mutex;
    if need_join then begin
      Array.iter Domain.join t.workers;
      t.workers <- [||]
    end
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run t ~chunks f =
  if chunks < 0 then invalid_arg "Pool.run: chunks must be >= 0";
  if chunks = 0 then ()
  else if t.jobs = 1 || chunks = 1 then
    for i = 0 to chunks - 1 do
      f i
    done
  else begin
    let job =
      { chunks; run_chunk = f; next = Atomic.make 0;
        pending = Atomic.make chunks }
    in
    Mutex.lock t.mutex;
    t.failure <- None;
    t.current <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mutex;
    execute t job;
    Mutex.lock t.mutex;
    while Atomic.get job.pending > 0 do
      Condition.wait t.done_cv t.mutex
    done;
    t.current <- None;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.mutex;
    match failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map_prefix t ?chunk ~should_stop f a =
  let n = Array.length a in
  let chunk =
    match chunk with
    | Some c -> Int.max 1 c
    | None -> Int.max 1 (n / (t.jobs * 8))
  in
  let out = Array.make n None in
  let stop_flag = Atomic.make false in
  run t ~chunks:((n + chunk - 1) / chunk) (fun ci ->
      if Atomic.get stop_flag || should_stop () then Atomic.set stop_flag true
      else
        for i = ci * chunk to Int.min n ((ci + 1) * chunk) - 1 do
          out.(i) <- Some (f a.(i))
        done);
  (* Chunks are claimed in index order, so the completed slots form a
     prefix up to the first chunk skipped after the stop; without a
     stop every slot is filled. *)
  let k = ref 0 in
  while !k < n && Option.is_some out.(!k) do
    incr k
  done;
  (Array.init !k (fun i -> Option.get out.(i)), Atomic.get stop_flag)
