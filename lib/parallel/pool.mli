(** Fixed-size [Domain]-backed worker pool with one order-preserving
    fan-out.

    The pool executes chunked work queues on OCaml 5 domains.  Its design
    contract is {e scheduling independence}: {!map_prefix} commits its
    results by {e input index}, so the value it returns is a pure
    function of its inputs — never of the worker count, chunk
    interleaving or relative domain speed.  A run with [--jobs 1] and a
    run with [--jobs 8] therefore produce bit-identical results, which is
    what lets the {!Ssta_check} verifier certify parallel runs against
    sequential ones.

    Work is distributed through a single atomic chunk counter (workers
    claim the next chunk index with a fetch-and-add), so chunks are
    claimed in increasing index order; this makes cooperative
    cancellation ({!map_prefix}) naturally return a {e prefix} of the
    input.

    A pool with [jobs = 1] spawns no domains at all and runs every
    combinator inline on the caller, making the sequential path the same
    code as the parallel one. *)

type t
(** A pool of [jobs - 1] worker domains plus the calling domain, which
    always participates in the work. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults
    to {!default_jobs}; it must be at least 1 and is clamped to 128).
    The workers idle on a condition variable between work regions.
    Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int
(** The worker count the pool was created with (including the caller). *)

val idle_workers : t -> int
(** Number of worker domains currently parked on the work condition
    variable (0 for a [jobs = 1] pool, which has no workers).  Between
    work regions every worker parks, so an idle pool burns no CPU.
    Observability only; never consulted by the scheduler. *)

val park_count : t -> int
(** Total park sessions since pool creation (a worker entering the
    condition-variable wait counts once, however many spurious wakeups
    it sees before new work arrives). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent; the pool must not be used
    afterwards (except for further {!shutdown} calls).  Pools with
    [jobs = 1] need no shutdown (it is a no-op). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and guarantees
    {!shutdown} afterwards, whether [f] returns or raises. *)

val run : t -> chunks:int -> (int -> unit) -> unit
(** [run t ~chunks f] executes [f 0 .. f (chunks - 1)], each exactly
    once, distributed over the pool through the shared chunk counter:
    each fetch-and-add claims one chunk index.  The caller participates
    and returns only once every chunk finished.  If any [f i] raises,
    the exception of the {e lowest} chunk index is re-raised in the
    caller (after all chunks completed or were abandoned), keeping
    failure reporting deterministic. *)

val map_prefix :
  t ->
  ?chunk:int ->
  should_stop:(unit -> bool) ->
  ('a -> 'b) ->
  'a array ->
  'b array * bool
(** [map_prefix t ~should_stop f a] maps [a] in parallel, polling
    [should_stop] once per claimed chunk, and returns
    [(prefix, stopped)]: the longest contiguous prefix of completed
    results, and whether the stop predicate fired.  [chunk] (default: a
    size that yields roughly 8 chunks per worker) sets how many
    consecutive elements one claimed chunk processes.  Results are
    committed by input index, so the output is identical for any worker
    count.  Because chunks are claimed in increasing index order, nearly
    all completed work lands in the prefix; with [jobs = 1] the prefix
    is exactly the items processed before the predicate fired.  When
    [stopped] is [false] the prefix is the full map. *)
