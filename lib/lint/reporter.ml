module D = Diagnostic

(* All reporters render in the deterministic presentation order:
   (file/location, line, rule id). *)
let order ds = List.stable_sort D.presentation_compare ds

let text ~circuit_name fmt ds =
  let s = Engine.summarize ds in
  Format.fprintf fmt "%s: %d diagnostic(s) (%d error(s), %d warning(s), %d info(s))@."
    circuit_name
    (List.length ds) s.Engine.errors s.Engine.warnings s.Engine.infos;
  List.iter
    (fun (d : D.t) ->
      Format.fprintf fmt "  %a@." D.pp d;
      match d.D.hint with
      | Some h -> Format.fprintf fmt "    hint: %s@." h
      | None -> ())
    (order ds)

module Json = Ssta_runtime.Json

let location_json loc =
  let kind k fields = Json.Obj (("kind", Json.String k) :: fields) in
  match loc with
  | D.Circuit -> kind "circuit" []
  | D.Node { id; name } ->
      kind "node" [ ("id", Json.int id); ("name", Json.String name) ]
  | D.Place { id; x; y } ->
      kind "place"
        [ ("id", Json.int id); ("x", Json.Number x); ("y", Json.Number y) ]
  | D.Net n -> kind "net" [ ("name", Json.String n) ]
  | D.Config -> kind "config" []
  | D.Pdf n -> kind "pdf" [ ("name", Json.String n) ]
  | D.File { path; line; col } ->
      kind "file"
        [ ("path", Json.String path);
          ("line", Json.int line);
          ("col", Json.int col) ]

let diagnostic_json (d : D.t) =
  Json.Obj
    [ ("rule", Json.String d.D.rule);
      ("severity", Json.String (D.severity_name d.D.severity));
      ("location", location_json d.D.location);
      ("message", Json.String d.D.message);
      ( "hint",
        match d.D.hint with Some h -> Json.String h | None -> Json.Null ) ]

let json ~circuit_name ds =
  let s = Engine.summarize ds in
  Json.Obj
    [ ("circuit", Json.String circuit_name);
      ( "summary",
        Json.Obj
          [ ("errors", Json.int s.Engine.errors);
            ("warnings", Json.int s.Engine.warnings);
            ("infos", Json.int s.Engine.infos);
            ("total", Json.int (List.length ds)) ] );
      ("diagnostics", Json.List (List.map diagnostic_json (order ds))) ]

(* SARIF 2.1.0 (the subset GitHub code scanning ingests): one run, one
   driver, the rule catalogue, one result per diagnostic. *)
let sarif_level = function
  | D.Error -> "error"
  | D.Warning -> "warning"
  | D.Info -> "note"

let sarif_location (loc : D.location) =
  match loc with
  | D.File { path; line; col } ->
      Json.Obj
        [ ( "physicalLocation",
            Json.Obj
              [ ("artifactLocation", Json.Obj [ ("uri", Json.String path) ]);
                ( "region",
                  Json.Obj
                    (("startLine", Json.int (Int.max 1 line))
                    :: (if col > 0 then [ ("startColumn", Json.int col) ]
                        else [])) ) ] ) ]
  | _ ->
      Json.Obj
        [ ( "logicalLocations",
            Json.List
              [ Json.Obj
                  [ ( "name",
                      Json.String (Format.asprintf "%a" D.pp_location loc) );
                    ("kind", Json.String "object") ] ] ) ]

let sarif_result rule_index (d : D.t) =
  let message =
    match d.D.hint with
    | Some h -> d.D.message ^ " (hint: " ^ h ^ ")"
    | None -> d.D.message
  in
  Json.Obj
    ((("ruleId", Json.String d.D.rule)
     :: (match rule_index d.D.rule with
        | Some i -> [ ("ruleIndex", Json.int i) ]
        | None -> []))
    @ [ ("level", Json.String (sarif_level d.D.severity));
        ("message", Json.Obj [ ("text", Json.String message) ]);
        ("locations", Json.List [ sarif_location d.D.location ]) ])

let sarif ~tool ~rules ~circuit_name ds =
  let rule_index =
    let tbl = Hashtbl.create (List.length rules) in
    List.iteri (fun i (id, _) -> Hashtbl.replace tbl id i) rules;
    fun id -> Hashtbl.find_opt tbl id
  in
  let rule_json (id, doc) =
    Json.Obj
      [ ("id", Json.String id);
        ("shortDescription", Json.Obj [ ("text", Json.String doc) ]) ]
  in
  Json.Obj
    [ ("$schema", Json.String "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.String "2.1.0");
      ( "runs",
        Json.List
          [ Json.Obj
              [ ( "tool",
                  Json.Obj
                    [ ( "driver",
                        Json.Obj
                          [ ("name", Json.String tool);
                            ("rules", Json.List (List.map rule_json rules)) ] )
                    ] );
                ( "properties",
                  Json.Obj [ ("circuit", Json.String circuit_name) ] );
                ( "results",
                  Json.List (List.map (sarif_result rule_index) (order ds)) ) ]
          ] ) ]

let rule_table fmt rules =
  let width =
    List.fold_left (fun acc (id, _) -> Int.max acc (String.length id)) 0 rules
  in
  List.iter
    (fun (id, doc) -> Format.fprintf fmt "%-*s  %s@." width id doc)
    rules
