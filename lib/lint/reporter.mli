(** Rendering of lint results.

    Two formats: a human-readable text listing and a machine-readable
    JSON document with the schema

    {v
      { "circuit": string,
        "summary": { "errors": int, "warnings": int,
                     "infos": int, "total": int },
        "diagnostics": [
          { "rule": string,
            "severity": "error" | "warning" | "info",
            "location": { "kind": "circuit" | "node" | "place" | "net"
                                | "config" | "pdf" | "file", ... },
            "message": string,
            "hint": string | null } ] }
    v}

    Node locations carry ["id"] and ["name"]; place locations ["id"],
    ["x"], ["y"]; net/pdf locations ["name"]; file locations ["path"],
    ["line"] and ["col"].  The JSON and SARIF reporters return
    {!Ssta_runtime.Json.t} values; callers print them with
    [Json.to_string]. *)

(** A third format, SARIF 2.1.0, serves CI upload (GitHub code
    scanning); it is shared by the lint and check subcommands, which
    pass their own tool name and rule catalogue.

    Every reporter renders diagnostics in the deterministic presentation
    order of {!Diagnostic.presentation_compare} — by location (file
    locations by path, then line), then rule id — regardless of input
    order. *)

val text :
  circuit_name:string -> Format.formatter -> Diagnostic.t list -> unit

val json : circuit_name:string -> Diagnostic.t list -> Ssta_runtime.Json.t

val sarif :
  tool:string ->
  rules:(string * string) list ->
  circuit_name:string ->
  Diagnostic.t list ->
  Ssta_runtime.Json.t
(** SARIF 2.1.0 document: one run with driver [tool], the given rule
    catalogue (ids + short descriptions; results reference it by
    index), and one result per diagnostic.  Severities map
    error/warning/info to error/warning/note.  File locations become
    physical locations; all others become logical locations. *)

val rule_table : Format.formatter -> (string * string) list -> unit
(** Render the rule catalogue (for [--list-rules]). *)
