module Err = Ssta_runtime.Ssta_error
module Rbudget = Ssta_runtime.Budget
module Config = Ssta_core.Config

type run_params = {
  p_quality_intra : int option;
  p_quality_inter : int option;
  p_confidence : float option;
  p_max_paths : int option;
  p_deadline_s : float option;
  p_max_cells : int option;
  p_retry : bool option;
  p_full : bool option;
  p_engine : Config.engine option;
  p_max_policy : Config.max_policy option;
}

let no_params =
  { p_quality_intra = None;
    p_quality_inter = None;
    p_confidence = None;
    p_max_paths = None;
    p_deadline_s = None;
    p_max_cells = None;
    p_retry = None;
    p_full = None;
    p_engine = None;
    p_max_policy = None }

type request =
  | Run of run_params
  | Query of { endpoint : string; params : run_params }
  | Check of { only : string list; path_limit : int option }
  | Criticality of { top : int option }
  | Edit of { script : string }
  | What_if of { script : string }
  | Health
  | Reload
  | Shutdown

type envelope = { id : Json.t option; request : request }

(* --- decoding --------------------------------------------------------- *)

exception Bad of Err.t

let bad fmt = Printf.ksprintf (fun m -> raise (Bad (Err.structural ~subject:"request" m))) fmt

let param_fields =
  [ "quality_intra"; "quality_inter"; "confidence"; "max_paths"; "deadline";
    "max_cells"; "retry"; "full"; "engine"; "max_policy" ]

let ops =
  [ ("run", param_fields);
    ("query", "endpoint" :: param_fields);
    ("check", [ "only"; "path_limit" ]);
    ("criticality", [ "top" ]);
    ("edit", [ "edits" ]);
    ("what-if", [ "edits" ]);
    ("health", []);
    ("reload", []);
    ("shutdown", []) ]

let fields_of_op op =
  match List.assoc_opt op ops with
  | Some fields -> fields
  | None -> bad "unknown op %S" op

let get_int ~lo ~hi name j =
  match Json.member name j with
  | None -> None
  | Some v -> (
      match Json.to_int v with
      | Some i when i >= lo && i <= hi -> Some i
      | Some i -> bad "field %S out of range: %d (expected %d..%d)" name i lo hi
      | None -> bad "field %S must be an integer" name)

let get_float ~lo ~hi name j =
  match Json.member name j with
  | None -> None
  | Some v -> (
      match Json.to_float v with
      | Some x when Float.is_finite x && x >= lo && x <= hi -> Some x
      | Some x -> bad "field %S out of range: %g (expected %g..%g)" name x lo hi
      | None -> bad "field %S must be a number" name)

let get_bool name j =
  match Json.member name j with
  | None -> None
  | Some v -> (
      match Json.to_bool v with
      | Some b -> Some b
      | None -> bad "field %S must be a boolean" name)

let get_string name j =
  match Json.member name j with
  | None -> None
  | Some v -> (
      match Json.to_str v with
      | Some s -> Some s
      | None -> bad "field %S must be a string" name)

(* A small closed string enumeration ("engine", "max_policy"): any value
   outside the table is a typed decode error naming the alternatives. *)
let get_enum name table j =
  match get_string name j with
  | None -> None
  | Some s -> (
      match List.assoc_opt s table with
      | Some v -> Some v
      | None ->
          bad "field %S must be one of %s" name
            (String.concat ", "
               (List.map (fun (k, _) -> Printf.sprintf "%S" k) table)))

(* A deadline is either a duration string ("500ms", "2s") or a bare
   number of seconds; either way it must be positive and finite. *)
let get_deadline j =
  let check x =
    if Float.is_finite x && x > 0.0 && x <= 86_400.0 then x
    else bad "field \"deadline\" out of range: %g s (expected 0 < d <= 86400)" x
  in
  match Json.member "deadline" j with
  | None -> None
  | Some (Json.String s) -> (
      match Rbudget.parse_duration s with
      | Ok x -> Some (check x)
      | Error _ ->
          bad "field \"deadline\" must be a positive duration, got %S \
               (expected e.g. 10s, 500ms, 2m, 1.5)"
            s)
  | Some v -> (
      match Json.to_float v with
      | Some x -> Some (check x)
      | None -> bad "field \"deadline\" must be a duration string or number")

let get_string_list name j =
  match Json.member name j with
  | None -> None
  | Some (Json.List items) ->
      Some
        (List.map
           (fun v ->
             match Json.to_str v with
             | Some s -> s
             | None -> bad "field %S must be a list of strings" name)
           items)
  | Some _ -> bad "field %S must be a list of strings" name

let params_of j =
  { p_quality_intra = get_int ~lo:4 ~hi:4096 "quality_intra" j;
    p_quality_inter = get_int ~lo:4 ~hi:4096 "quality_inter" j;
    p_confidence = get_float ~lo:0.0 ~hi:10.0 "confidence" j;
    p_max_paths = get_int ~lo:1 ~hi:10_000_000 "max_paths" j;
    p_deadline_s = get_deadline j;
    p_max_cells = get_int ~lo:16 ~hi:100_000_000 "max_cells" j;
    p_retry = get_bool "retry" j;
    p_full = get_bool "full" j;
    p_engine =
      get_enum "engine"
        (List.map (fun e -> (Config.engine_name e, e)) Config.engines)
        j;
    p_max_policy =
      get_enum "max_policy"
        (List.map (fun p -> (Config.max_policy_name p, p)) Config.max_policies)
        j }

let decode_obj j =
  let id =
    match Json.member "id" j with
    | None -> None
    | Some (Json.String _ | Json.Number _) as v -> v
    | Some _ -> bad "field \"id\" must be a string or a number"
  in
  let op =
    match get_string "op" j with
    | Some op -> op
    | None -> bad "missing required field \"op\""
  in
  let allowed = "op" :: "id" :: fields_of_op op in
  List.iter
    (fun k ->
      if not (List.mem k allowed) then bad "unknown field %S for op %S" k op)
    (Json.keys j);
  let request =
    match op with
    | "run" -> Run (params_of j)
    | "query" -> (
        match get_string "endpoint" j with
        | Some e when e <> "" -> Query { endpoint = e; params = params_of j }
        | Some _ -> bad "field \"endpoint\" must be a non-empty string"
        | None -> bad "op \"query\" requires field \"endpoint\"")
    | "check" ->
        Check
          { only = Option.value ~default:[] (get_string_list "only" j);
            path_limit = get_int ~lo:0 ~hi:1_000_000 "path_limit" j }
    | "criticality" -> Criticality { top = get_int ~lo:1 ~hi:1_000_000 "top" j }
    | "edit" | "what-if" -> (
        match get_string "edits" j with
        | Some s when s <> "" ->
            if op = "edit" then Edit { script = s }
            else What_if { script = s }
        | Some _ -> bad "field \"edits\" must be a non-empty string"
        | None -> bad "op %S requires field \"edits\"" op)
    | "health" -> Health
    | "reload" -> Reload
    | "shutdown" -> Shutdown
    | _ -> assert false (* fields_of_op already rejected unknown ops *)
  in
  { id; request }

let decode ~max_bytes line =
  if String.length line > max_bytes then
    Error
      (Err.budget ~resource:"request-bytes"
         (Printf.sprintf "request line is %d bytes (limit %d)"
            (String.length line) max_bytes))
  else
    match Json.parse line with
    | Error e -> Error e
    | Ok (Json.Obj _ as j) -> ( try Ok (decode_obj j) with Bad e -> Error e)
    | Ok _ ->
        Error (Err.structural ~subject:"request" "request must be a JSON object")

(* The id of a line [decode] rejected, so the error reply can still be
   matched to its request.  Only a well-formed id is echoed. *)
let request_id line =
  match Json.parse line with
  | Ok (Json.Obj _ as j) -> (
      match Json.member "id" j with
      | Some (Json.String _ | Json.Number _) as v -> v
      | _ -> None)
  | Ok _ | Error _ -> None

(* --- responses -------------------------------------------------------- *)

type status = Ok_ | Degraded | Failed | Overloaded | Shutting_down

let status_name = function
  | Ok_ -> "ok"
  | Degraded -> "degraded"
  | Failed -> "error"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting-down"

let render ?id ~status fields =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  Json.to_string
    (Json.Obj
       (id_field
       @ (("status", Json.String (status_name status)) :: fields)))

let render_error ?id e =
  render ?id ~status:Failed
    [ ("kind", Json.String (Err.kind_name e));
      ("code", Json.int (Err.exit_code e));
      ("message", Json.String (Err.to_string e)) ]
