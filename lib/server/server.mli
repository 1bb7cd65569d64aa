(** The resilient persistent analysis server.

    A server owns one loaded circuit (netlist, placement, static timing)
    plus a warm analysis state — the inter-PDF tables and the
    scale-covariant kernel cache — and answers line-delimited JSON
    requests ({!Protocol}) from an input channel or a Unix socket.
    Loading happens once; every request after the first reuses the warm
    state, which changes no analysis byte (cached kernels are pure
    functions of their coefficients) but skips the dominant
    table-construction cost.

    Supervision policy, in one place:

    - {e crash isolation}: every request runs under
      {!Ssta_runtime.Ssta_error.protect}; any failure — malformed
      request, impossible configuration, numerical damage, a bug —
      becomes a typed ["error"] response carrying the error taxonomy
      kind and the matching CLI exit code.  The server process never
      dies on a request.
    - {e deadlines}: a per-request wall-clock budget (request
      ["deadline"] field, falling back to the server default) is
      enforced cooperatively by the methodology's stop predicate; a
      breach returns the truthful analyzed prefix marked ["degraded"],
      never a dead request.
    - {e retry with degradation}: when a deadline was hit and retry is
      enabled, the request is re-run once at halved PDF quality with no
      deadline (paced by the deterministic {!Ssta_runtime.Backoff}
      schedule) — a complete low-resolution answer instead of a
      truncated high-resolution one.  Retries are counted in the
      lifetime ledger.
    - {e backpressure}: the request queue is bounded
      ({!Supervisor}); overflow answers ["overloaded"] immediately.
    - {e graceful shutdown}: a ["shutdown"] request, end of input, or a
      cancellation latch (SIGTERM) stops admissions, drains accepted
      requests, and flushes a statistics summary.
    - {e path-analysis cache}: a path's analysis is a pure function of
      the path, the served design's gate table and the analysis fields
      of the configuration ({!Ssta_core.Path_cache}), so a [run]
      reuses every path the previous run under the same table and
      fields analyzed, replaying each one's Guard events, and a
      [query] reads its endpoint path from the same cache.  After each
      path-engine run the cache holds exactly that run's analyses;
      every committed edit and reload drops it.  Its counters
      (lookups, hits, entries, drops) appear only in [health].
    - {e incremental edits}: the [edit] op applies an
      {!Ssta_circuit.Edit} script to a warm incremental image
      ({!Ssta_check.Impact}) — lint pre-validation refuses bad scripts
      with typed errors, cached per-path analyses outside the change's
      dependence cone are reused, and the edited design is committed as
      the served image; [what-if] answers the same question without
      committing.  The image is built lazily on first use and
      dropped on [reload].

    Determinism: responses for [run]/[query]/[check]/[criticality] are
    byte-identical for identical requests whatever the arrival order,
    the queue state or the worker count — per-request reports exclude
    every history-dependent statistic (warm-cache and path-cache
    counters are surfaced only by the [health] request, whose answer is
    explicitly lifetime-dependent).  The [health] answer's ["cache"]
    object reports the warm kernel cache's [lookups], [hits] (lookups
    a resident kernel answered), [builds] and resident [entries]; its
    ["path_cache"] object the path cache's [lookups], [hits],
    [entries] and [drops]. *)

type t

val create :
  ?config:Ssta_core.Config.t ->
  ?pool:Ssta_parallel.Pool.t ->
  ?default_deadline_s:float ->
  ?retry_degraded:bool ->
  ?backoff:Ssta_runtime.Backoff.t ->
  ?cancel:Ssta_runtime.Cancel.t ->
  reload:
    (unit ->
     (Ssta_circuit.Netlist.t * Ssta_circuit.Placement.t,
      Ssta_runtime.Ssta_error.t)
     result) ->
  Ssta_circuit.Netlist.t ->
  Ssta_circuit.Placement.t ->
  t
(** [reload] re-reads the circuit sources (used by the [reload]
    request); [cancel] is the external shutdown latch (hook it to
    SIGTERM with {!Ssta_runtime.Cancel.on_signals}); [pool] parallelizes
    each request's path analysis without changing any response byte.
    Defaults: {!Ssta_core.Config.default}, no pool, no default deadline,
    retry off, {!Ssta_runtime.Backoff.none}, a fresh latch. *)

val dispatch : t -> Protocol.envelope -> string
(** Answer one decoded request (total: typed error responses, never an
    exception).  Exposed for tests; {!serve} drives it. *)

val serve :
  ?max_queue:int ->
  ?max_request_bytes:int ->
  t ->
  in_channel ->
  out_channel ->
  [ `Eof | `Shutdown | `Cancelled ]
(** Serve line-delimited requests until end of input, a [shutdown]
    request, or the cancellation latch trips.  A reader thread decodes
    and enqueues (bounded by [max_queue], default 64; lines over
    [max_request_bytes], default 1 MiB, are refused); the calling
    thread dispatches strictly in arrival order.  Returns after the
    accepted queue has drained.  Blank lines are ignored. *)

val serve_socket :
  ?max_queue:int ->
  ?max_request_bytes:int ->
  t ->
  path:string ->
  unit
(** Listen on a Unix-domain socket, serving one connection at a time
    (each connection is a {!serve} session; its end-of-stream ends only
    that connection).  Returns on a [shutdown] request or when the
    cancellation latch trips; the socket file is removed on exit. *)

val lifetime : t -> Ssta_runtime.Health.t
(** The server-lifetime ledger: request/queue/retry counters and every
    numerical-health event merged from per-request private ledgers. *)

val summary : t -> string
(** One-line statistics summary (flushed to stderr on shutdown by the
    CLI). *)
