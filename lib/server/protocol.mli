(** Wire protocol of the persistent analysis server.

    One request per line, one response per line, both JSON objects.
    Every request carries an ["op"] field naming the operation and an
    optional ["id"] (string or number) echoed verbatim in the response,
    so clients can match answers to pipelined questions.

    Decoding is total: any malformed line — bad JSON, unknown op,
    unknown or ill-typed field, out-of-range parameter, oversized line —
    comes back as a typed {!Ssta_runtime.Ssta_error.t}, never an
    exception.  This is the surface the protocol fault corpus
    ([ssta fault --protocol]) attacks. *)

type run_params = {
  p_quality_intra : int option;  (** override the base configuration *)
  p_quality_inter : int option;
  p_confidence : float option;
  p_max_paths : int option;
  p_deadline_s : float option;  (** per-request wall-clock budget *)
  p_max_cells : int option;
  p_retry : bool option;  (** override the server retry policy *)
  p_full : bool option;  (** include the full JSON report (default) *)
  p_engine : Ssta_core.Config.engine option;
      (** ["path"] (default) or ["block"]: which analysis engine answers
          the request *)
  p_max_policy : Ssta_core.Config.max_policy option;
      (** ["clark"] or ["grid"]: statistical-max policy of the block
          engine (ignored by the path engine) *)
}

val no_params : run_params

type request =
  | Run of run_params
  | Query of { endpoint : string; params : run_params }
      (** critical path to one named output *)
  | Check of { only : string list; path_limit : int option }
  | Criticality of { top : int option }
  | Edit of { script : string }
      (** apply an edit script (the {!Ssta_circuit.Edit} text format,
          newline-separated ops in one JSON string) to the warm image
          and re-analyze incrementally *)
  | What_if of { script : string }
      (** same analysis as [Edit] on a forked image: the answer is
          computed, the server state is left untouched *)
  | Health
  | Reload
  | Shutdown

type envelope = { id : Json.t option; request : request }

val ops : (string * string list) list
(** Every op name with the fields it accepts besides ["op"] and
    ["id"]; {!decode} refuses any other op or field. *)

val decode :
  max_bytes:int -> string -> (envelope, Ssta_runtime.Ssta_error.t) result
(** Decode one request line.  Lines longer than [max_bytes] are
    rejected without being parsed ([Budget_exceeded]). *)

val request_id : string -> Json.t option
(** The ["id"] of a request line, when the line parses as a JSON object
    whose ["id"] is a string or a number — also for lines {!decode}
    rejects, so error replies can echo it.  It parses the whole line:
    callers apply the size limit first (as the server does), so an
    oversized line is never parsed and its reply carries no id. *)

type status = Ok_ | Degraded | Failed | Overloaded | Shutting_down

val status_name : status -> string
(** ["ok"], ["degraded"], ["error"], ["overloaded"],
    ["shutting-down"]. *)

val render :
  ?id:Json.t -> status:status -> (string * Json.t) list -> string
(** One response line (no trailing newline): [{"id":..,"status":..,
    ...fields}]; the id field is omitted when the request carried
    none. *)

val render_error : ?id:Json.t -> Ssta_runtime.Ssta_error.t -> string
(** An error response: status ["error"] plus ["kind"] (the error
    taxonomy name), ["code"] (the CLI exit code for the same error) and
    ["message"]. *)
