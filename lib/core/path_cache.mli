(** Path analyses kept across the runs of one design state.

    A path's {!Path_analysis.t} and the Guard events it produced are a
    pure function of the path (its node ids and nominal delay), the
    design state's gate table and the analysis fields of the
    configuration.  {!Key}/{!Table} index analyses by path; the
    incremental engine ([Ssta_check.Impact]) keeps one table across
    edits and invalidates it by its dirty set, and a long-lived server
    keeps one {!t} across requests.

    A {!t} is bound to one gate table, compared by physical identity
    (which pins the graph, placement, layering and corner), and to the
    configuration fields a path's analysis reads: [quality_intra],
    [quality_inter], [quad_levels], [random_layer], [budget],
    [truncation], [corner_k], [confidence_sigma], [inter_shape] and
    [inter_cache] (floats compared by their bits; [inter_cache] because
    the kernel cache's direction quantization moves result bits).
    [confidence], [max_paths], [affine_prune], [engine] and [block_max]
    only choose which paths a run analyzes, so they do not matter.  A
    lookup under any other table or configuration misses, and the next
    run under it starts a fresh generation.  After each successful run
    the cache holds exactly that run's analyses, reused and fresh, so
    what it retains never exceeds one run's own analyses.  Its counters
    go to the ledger it was created with, never into a report. *)

module Key : sig
  include Hashtbl.HashedType with type t = int array * float

  val of_path : Ssta_timing.Paths.path -> t
  (** The path's node ids and nominal delay.  Keys are equal when the
      ids are equal and the delays have the same bits; the hash folds
      every node id and the delay's bits (the polymorphic
      [Hashtbl.hash] reads only a prefix of the ids, which gave 24
      distinct hashes for c6288's 20,000 paths). *)
end

module Table : Hashtbl.S with type key = Key.t

type entry = Path_analysis.t * Ssta_runtime.Health.t
(** An analysis and the private ledger of the Guard events it produced;
    replaying the ledger makes a reuse indistinguishable from a fresh
    {!Path_analysis.analyze}. *)

type t

val create : ?ledger:Ssta_runtime.Health.t -> unit -> t
(** An empty, unbound cache.  Its counters ([path-cache-lookups],
    [path-cache-hits], [path-cache-drops]) are added to [ledger]
    (default: a private one). *)

val find :
  t ->
  gates:Ssta_correlation.Gate_table.t ->
  Config.t ->
  Ssta_timing.Paths.path ->
  entry option
(** The cached analysis of a path, if the cache is bound to [gates] and
    to a configuration that agrees with [config] on the fields above.
    Read-only: a miss stores nothing. *)

val with_run :
  t ->
  gates:Ssta_correlation.Gate_table.t ->
  Config.t ->
  (reuse:(Ssta_timing.Paths.path -> entry option) ->
   record:
     (Ssta_timing.Paths.path ->
      Path_analysis.t ->
      Ssta_runtime.Health.t ->
      unit) ->
   ('a, 'e) result) ->
  ('a, 'e) result
(** [with_run t ~gates config f] runs [f] with the [reuse]/[record]
    hooks of {!Methodology.analyze}: [reuse] answers from the cache
    under the binding ([gates], [config]), [record] takes the fresh
    analyses.  [config] must be the configuration the analyses are
    computed under ({!Methodology.analysis_config}).  When [f] returns
    [Ok], the cache is rebound to ([gates], [config]) and holds exactly
    the analyses the run reused or recorded; entries it did not use
    count as drops.  On [Error] the cache is left as it was. *)

val invalidate : t -> unit
(** Drop every entry and the binding (an edit commit, a reload). *)

type stats = {
  lookups : int;  (** {!find}s and run reuse queries, lifetime *)
  hits : int;  (** lookups answered from the cache, lifetime *)
  entries : int;  (** analyses held now *)
  drops : int;  (** entries discarded by a run or {!invalidate}, lifetime *)
}

val stats : t -> stats
