(* Command-line driver for the statistical timing analyzer.

   Mirrors the paper's program: read a circuit (a built-in ISCAS85
   substitute, or a .bench file with an optional DEF placement), run the
   statistical methodology, and report delay PDFs, rankings and tables. *)

open Cmdliner
module Iscas85 = Ssta_circuit.Iscas85
module Bench_format = Ssta_circuit.Bench_format
module Def_format = Ssta_circuit.Def_format
module Placement = Ssta_circuit.Placement
module Netlist = Ssta_circuit.Netlist
module Verilog = Ssta_circuit.Verilog
module Spef = Ssta_circuit.Spef
module Sensitivity = Ssta_tech.Sensitivity
module Convexity = Ssta_tech.Convexity
module Elmore = Ssta_tech.Elmore
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Report = Ssta_core.Report
module Ranking = Ssta_core.Ranking
module Path_analysis = Ssta_core.Path_analysis
module Monte_carlo = Ssta_core.Monte_carlo
module Block_based = Ssta_core.Block_based
module Block_engine = Ssta_block.Engine
module Quality_sweep = Ssta_core.Quality_sweep
module Yield = Ssta_core.Yield
module Lint = Ssta_lint.Engine
module Lint_reporter = Ssta_lint.Reporter
module Diagnostic = Ssta_lint.Diagnostic
module Checker = Ssta_check.Checker
module Affine = Ssta_check.Affine
module Impact = Ssta_check.Impact
module Edit = Ssta_circuit.Edit
module Rules_edit = Ssta_lint.Rules_edit
module Json = Ssta_runtime.Json
module Err = Ssta_runtime.Ssta_error
module Rbudget = Ssta_runtime.Budget
module Fault = Ssta_runtime.Fault
module Health = Ssta_runtime.Health
module Cancel = Ssta_runtime.Cancel
module Backoff = Ssta_runtime.Backoff
module Pool = Ssta_parallel.Pool
module Server = Ssta_server.Server
module Sproto = Ssta_server.Protocol

(* Exit-code convention (documented in the README):
     0  success
     1  analysis or lint errors (parse, structural, numeric, budget)
     2  command-line usage errors
     3  budget degradation under --strict-budget
     4  internal errors (bugs)                                        *)

let ok_or_raise = function Ok v -> v | Error e -> Err.raise_error e

(* Every JSON document goes through the one printer, one line each,
   written to stdout as it is produced (after whatever the formatter
   still holds). *)
let print_json v =
  Format.pp_print_flush Format.std_formatter ();
  Json.to_channel stdout v;
  print_newline ()

(* Every command body runs under this wrapper: typed errors (and stray
   exceptions, classified by [Err.of_exn]) are printed to stderr and
   mapped to the convention above instead of escaping. *)
let guarded f =
  try f () with
  | exn ->
      let e = Err.of_exn ~context:"ssta-cli" exn in
      Fmt.epr "ssta: error: %a@." Err.pp e;
      Err.exit_code e

let load_circuit ?verilog ~bench ~def name =
  let from_file c =
    let pl =
      match def with
      | Some def_path ->
          let d = ok_or_raise (Def_format.parse_file_res def_path) in
          ok_or_raise (Def_format.placement_of_res d c)
      | None -> Placement.place c
    in
    (c, pl)
  in
  match bench, verilog with
  | Some path, _ -> from_file (ok_or_raise (Bench_format.parse_file_res path))
  | None, Some path -> from_file (ok_or_raise (Verilog.parse_file_res path))
  | None, None -> (
      match Iscas85.by_name name with
      | Some spec -> Iscas85.build_placed spec
      | None ->
          Err.raise_error
            (Err.structural ~subject:"circuit"
               (Printf.sprintf
                  "unknown circuit %S (expected one of %s, or use \
                   --bench/--verilog FILE)"
                  name
                  (String.concat ", " Iscas85.names))))

let config_of ~quality_intra ~quality_inter ~confidence ~corner_k ~max_paths
    ~inter_fraction ~shape ~inter_cache =
  let c = Config.default in
  let c = Config.with_quality c ~intra:quality_intra ~inter:quality_inter in
  let c = Config.with_confidence c confidence in
  let c = Config.with_inter_shape c shape in
  let c = { c with Config.corner_k; max_paths; inter_cache } in
  match inter_fraction with
  | None -> c
  | Some f -> Config.with_budget_split c ~inter_fraction:f

(* Shared options *)
let circuit_arg =
  Arg.(value & pos 0 string "c432" & info [] ~docv:"CIRCUIT"
         ~doc:"Built-in benchmark name (c432 .. c7552).")

let bench_opt =
  Arg.(value & opt (some file) None & info [ "bench" ] ~docv:"FILE"
         ~doc:"Read the circuit from an ISCAS85 .bench file instead.")

let verilog_opt =
  Arg.(value & opt (some file) None & info [ "verilog" ] ~docv:"FILE"
         ~doc:"Read the circuit from a structural Verilog file instead.")

let def_opt =
  Arg.(value & opt (some file) None & info [ "def" ] ~docv:"FILE"
         ~doc:"Read gate (x,y) coordinates from a DEF file.")

(* An integer flag with a lower bound, checked while parsing so an
   out-of-range count is a usage error (exit 2), not an analysis
   failure. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok v when v < lo ->
        Error (`Msg (Printf.sprintf "must be at least %d, got %d" lo v))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

(* A float flag confined to [lo, hi] (use [~hi:Float.infinity] for a
   lower bound only); nan and infinities are rejected too. *)
let float_in ~lo ~hi =
  let range =
    if hi = Float.infinity then Printf.sprintf "a finite number >= %g" lo
    else Printf.sprintf "a number in [%g, %g]" lo hi
  in
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when not (Float.is_finite v && lo <= v && v <= hi) ->
        Error (`Msg (Printf.sprintf "must be %s, got %s" range s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let non_negative = float_in ~lo:0.0 ~hi:Float.infinity
let fraction = float_in ~lo:0.0 ~hi:1.0

let quality_intra_opt =
  Arg.(value & opt (int_at_least 2) 100 & info [ "quality-intra" ] ~docv:"N"
         ~doc:"Intra-PDF discretization (paper: 100).")

let quality_inter_opt =
  Arg.(value & opt (int_at_least 2) 50 & info [ "quality-inter" ] ~docv:"N"
         ~doc:"Inter-PDF discretization (paper: 50).")

let confidence_opt =
  Arg.(value & opt non_negative 0.05 & info [ "c"; "confidence" ] ~docv:"C"
         ~doc:"Confidence constant: analyze paths within C*sigma_C.")

let corner_k_opt =
  Arg.(value & opt non_negative Ssta_tech.Corner.default_k
       & info [ "corner-sigma" ] ~docv:"K"
           ~doc:"Worst-case corner multiplier (sigmas).")

let max_paths_opt =
  Arg.(value & opt (int_at_least 1) 20_000 & info [ "max-paths" ] ~docv:"N"
         ~doc:"Safety cap on near-critical path enumeration.")

let inter_fraction_opt =
  Arg.(value & opt (some fraction) None & info [ "inter-fraction" ] ~docv:"F"
         ~doc:"Give layer 0 (inter-die) this fraction of the variance; \
               the rest splits equally over the intra layers.")

let no_inter_cache_opt =
  Arg.(value & flag
       & info [ "no-inter-cache" ]
           ~doc:"Disable the scale-covariant inter-kernel cache and \
                 recompute every path's inter PDF from scratch (A/B \
                 escape hatch; statistics agree with the cached run \
                 within 1e-9 relative).")

let shape_opt =
  let shape_conv =
    Arg.enum
      (List.map
         (fun sh -> (Ssta_prob.Shape.name sh, sh))
         Ssta_prob.Shape.all)
  in
  Arg.(value & opt shape_conv Ssta_prob.Shape.Gaussian
       & info [ "shape" ] ~docv:"SHAPE"
           ~doc:"Distribution shape of the inter-die RVs (gaussian, \
                 uniform, triangular).")

let engine_opt =
  let engine_conv =
    Arg.enum (List.map (fun e -> (Config.engine_name e, e)) Config.engines)
  in
  Arg.(value & opt engine_conv Config.Path
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Analysis engine: 'path' (the paper's path-based flow) \
                 or 'block' (one-pass topological propagation with \
                 statistical sum/max; faster on large circuits, \
                 approximate at reconvergent fan-out).")

let max_policy_opt =
  let policy_conv =
    Arg.enum
      (List.map (fun p -> (Config.max_policy_name p, p)) Config.max_policies)
  in
  Arg.(value & opt policy_conv Config.Clark_max
       & info [ "max-policy" ] ~docv:"POLICY"
           ~doc:"Statistical max policy of the block engine: 'clark' \
                 (moment-matched max of correlated Gaussians, sound \
                 under correlation) or 'grid' (grid-exact max assuming \
                 independent operands).")

let wire_opt =
  Arg.(value & flag & info [ "wires" ]
         ~doc:"Use the placement-aware interconnect loading model.")

let spef_opt =
  Arg.(value & opt (some file) None & info [ "spef" ] ~docv:"FILE"
         ~doc:"Annotate net capacitances from a SPEF file.")

let seed_opt =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Random seed, threaded into circuit generators, \
               Monte-Carlo sampling and fault injection.")

let jobs_opt =
  Arg.(value & opt (int_at_least 0) 0 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the parallel phases (0 = all \
               available cores).  Results are bit-identical at any \
               value; only wall-clock time changes.")

(* [--jobs 0] means "all cores"; a pool is created either way so the
   parallel code path is always the one exercised.  An explicit worker
   count beyond the host's cores is honored (results are jobs-
   independent) but flagged: the extra domains only time-share. *)
let with_jobs jobs f =
  let cores = Pool.default_jobs () in
  if jobs > cores then
    Fmt.epr
      "warning: --jobs %d on a host with %d core%s; extra domains only \
       time-share the cores (results are unchanged)@."
      jobs cores (if cores = 1 then "" else "s");
  let jobs = if jobs <= 0 then cores else jobs in
  Pool.with_pool ~jobs f

(* Budget options (run command): wall-clock deadline, enumeration cap
   (shared with --max-paths) and PDF cell cap. *)
let deadline_conv =
  let parse s =
    match Rbudget.parse_duration s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg (Err.to_string e))
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%gs" v)

let deadline_opt =
  Arg.(value & opt (some deadline_conv) None
       & info [ "deadline" ] ~docv:"DURATION"
           ~doc:"Wall-clock budget for the whole run (e.g. 10s, 500ms, \
                 2m).  On breach the run stops early and returns the \
                 already-analyzed subset, marked degraded.")

let max_cells_opt =
  Arg.(value & opt (some (int_at_least 2)) None & info [ "max-cells" ] ~docv:"N"
         ~doc:"Cap on PDF discretization cells; tighter QUALITY settings \
               are used (and reported) when the configured ones exceed \
               it.")

let strict_budget_opt =
  Arg.(value & flag & info [ "strict-budget" ]
         ~doc:"Exit with code 3 when the run had to degrade to fit its \
               budget (default: degraded runs exit 0).")

(* lint *)
let lint_cmd =
  let action name bench verilog def spef edits format min_severity budget
      deadline jobs list_rules no_deep =
    guarded @@ fun () ->
    if list_rules then begin
      Lint_reporter.rule_table Fmt.stdout Lint.all_rules;
      0
    end
    else begin
      let parse_diags = ref [] in
      let parse_diag path (pos, msg) =
        parse_diags :=
          Diagnostic.make ~rule:"parse-error" ~severity:Diagnostic.Error
            ~location:
              (Diagnostic.File
                 { path; line = pos.Err.line; col = pos.Err.col })
            msg
          :: !parse_diags
      in
      let circuit =
        try
          Some
            (match (bench, verilog) with
            | Some path, _ -> Bench_format.parse_file path
            | None, Some path -> Verilog.parse_file path
            | None, None -> (
                match Iscas85.by_name name with
                | Some spec -> Iscas85.build spec
                | None ->
                    Fmt.failwith
                      "unknown circuit %S (expected one of %s, or use \
                       --bench/--verilog FILE)"
                      name
                      (String.concat ", " Iscas85.names)))
        with
        | Bench_format.Parse_error (pos, msg) ->
            parse_diag (Option.get bench) (pos, msg);
            None
        | Verilog.Parse_error (pos, msg) ->
            parse_diag (Option.get verilog) (pos, msg);
            None
      in
      let def_t =
        match def with
        | None -> None
        | Some path -> (
            try Some (Def_format.parse_file path)
            with Def_format.Parse_error (pos, msg) ->
              parse_diag path (pos, msg);
              None)
      in
      let spef_t =
        match spef with
        | None -> None
        | Some path -> (
            try Some (Spef.parse_file path)
            with Spef.Parse_error (pos, msg) ->
              parse_diag path (pos, msg);
              None)
      in
      let edits_t =
        match edits with
        | None -> None
        | Some path -> (
            match Ssta_circuit.Edit.parse_file_res path with
            | Ok es -> Some es
            | Error (Err.Parse { pos; message; _ }) ->
                parse_diag path (pos, message);
                None
            | Error e ->
                parse_diag path (Err.no_position, Err.to_string e);
                None)
      in
      let circuit_name =
        match circuit with
        | Some c -> c.Ssta_circuit.Netlist.name
        | None -> name
      in
      let diags =
        match circuit with
        | None -> !parse_diags
        | Some c ->
            let placement =
              match def_t with
              | Some d -> (
                  (* A DEF that fails to convert still gets its own
                     cross-check diagnostics; fall back to no placement. *)
                  try Some (Def_format.placement_of d c)
                  with Invalid_argument _ -> None)
              | None -> Some (Placement.place c)
            in
            let input =
              Lint.input ?placement ?spef:spef_t ?def:def_t ?edits:edits_t
                ?budget_weights:(Option.map Array.of_list budget)
                ?deadline_s:deadline
                ?jobs:(if jobs > 0 then Some jobs else None)
                ~deep:(not no_deep) c
            in
            !parse_diags @ Lint.run input
      in
      let shown = Lint.filter ~min_severity diags in
      (match format with
      | `Text -> Lint_reporter.text ~circuit_name Fmt.stdout shown
      | `Json -> print_json (Lint_reporter.json ~circuit_name shown)
      | `Sarif ->
          print_json
            (Lint_reporter.sarif ~tool:"ssta-lint" ~rules:Lint.all_rules
               ~circuit_name shown));
      if Lint.exit_code diags <> 0 then 1 else 0
    end
  in
  let format =
    Arg.(value
         & opt
             (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
             `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: text, json or sarif.")
  in
  let min_severity =
    Arg.(value
         & opt
             (enum
                [ ("error", Diagnostic.Error);
                  ("warning", Diagnostic.Warning);
                  ("info", Diagnostic.Info) ])
             Diagnostic.Info
         & info [ "severity" ] ~docv:"SEV"
             ~doc:"Only report diagnostics at least this severe (the exit \
                   code still reflects all errors).")
  in
  let budget =
    Arg.(value
         & opt (some (list float)) None
         & info [ "budget" ] ~docv:"W0,W1,..."
             ~doc:"Validate raw per-layer variance shares (layer 0 is \
                   inter-die); they must be non-negative and sum to 1.")
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list-rules" ] ~doc:"Print the rule catalogue and exit.")
  in
  let no_deep =
    Arg.(value & flag
         & info [ "no-deep" ]
             ~doc:"Skip the timing-graph / PDF sanity checks.")
  in
  let edits =
    Arg.(value & opt (some file) None
         & info [ "edits" ] ~docv:"FILE"
             ~doc:"Validate an edit script against the circuit and \
                   placement (unknown gates, off-die moves, bad drives, \
                   unknown parameters, no-ops).")
  in
  let lint_jobs =
    Arg.(value & opt (int_at_least 0) 0
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Validate a planned worker count against the host's \
                   cores (config-jobs warns on oversubscription, e.g. \
                   --jobs 4 on a single-core machine).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis of circuit, placement, SPEF/DEF, edit-script \
             and config inputs; exits 1 when any error-severity \
             diagnostic fires.")
    Term.(const action $ circuit_arg $ bench_opt $ verilog_opt $ def_opt
          $ spef_opt $ edits $ format $ min_severity $ budget $ deadline_opt
          $ lint_jobs $ list_rules $ no_deep)

(* check *)
let check_cmd =
  let action name bench verilog def qi qj c k mp inter_fraction shape
      no_inter_cache format min_severity no_pdfsan path_limit jobs inject
      only impact_edits impact_seed list_checks =
    guarded @@ fun () ->
    if list_checks then begin
      Lint_reporter.rule_table Fmt.stdout Checker.all_checks;
      0
    end
    else begin
      let circuit, placement = load_circuit ?verilog ~bench ~def name in
      let config =
        config_of ~quality_intra:qi ~quality_inter:qj ~confidence:c
          ~corner_k:k ~max_paths:mp ~inter_fraction ~shape
          ~inter_cache:(not no_inter_cache)
      in
      let par_jobs =
        if jobs = 0 then Some (Pool.default_jobs ())
        else if jobs > 1 then Some jobs
        else None
      in
      (* SIGINT/SIGTERM stop the verifier between checks: the completed
         certifications are reported plus a check-interrupted warning. *)
      let signal_latch = Cancel.create () in
      Cancel.on_signals signal_latch;
      let input =
        Checker.input ~config ~placement ~pdfsan:(not no_pdfsan) ~path_limit
          ?par_jobs ?inject ~only ~impact_edits ~impact_seed
          ~should_stop:(fun () -> Cancel.cancelled signal_latch)
          circuit
      in
      let report =
        Fun.protect
          ~finally:(fun () -> Cancel.restore_default_signals ())
          (fun () -> Checker.run input)
      in
      let circuit_name = circuit.Ssta_circuit.Netlist.name in
      let shown = Lint.filter ~min_severity report.Checker.diagnostics in
      (match format with
      | `Text ->
          Lint_reporter.text ~circuit_name Fmt.stdout shown;
          Fmt.pr
            "certified: %d node label(s), %d path(s); %d PDF op(s) audited@."
            report.Checker.nodes_certified report.Checker.paths_certified
            report.Checker.ops_audited
      | `Json -> print_json (Lint_reporter.json ~circuit_name shown)
      | `Sarif ->
          print_json
            (Lint_reporter.sarif ~tool:"ssta-check" ~rules:Checker.all_checks
               ~circuit_name shown));
      if Lint.exit_code report.Checker.diagnostics <> 0 then 1 else 0
    end
  in
  let format =
    Arg.(value
         & opt
             (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
             `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: text, json or sarif.")
  in
  let min_severity =
    Arg.(value
         & opt
             (enum
                [ ("error", Diagnostic.Error);
                  ("warning", Diagnostic.Warning);
                  ("info", Diagnostic.Info) ])
             Diagnostic.Info
         & info [ "severity" ] ~docv:"SEV"
             ~doc:"Only report diagnostics at least this severe (the exit \
                   code still reflects all errors).")
  in
  let no_pdfsan =
    Arg.(value & flag
         & info [ "no-pdfsan" ]
             ~doc:"Skip the PDF sanitizer (per-operation shadow-interval \
                   audits of the probabilistic kernel).")
  in
  let path_limit =
    Arg.(value & opt (int_at_least 0) 64
         & info [ "path-limit" ] ~docv:"N"
             ~doc:"Certify at most N ranked paths against the static \
                   bounds (0 = all); capping is reported as an info \
                   diagnostic.")
  in
  let inject =
    Arg.(value
         & opt
             (some
                (enum
                   [ ("budget", Checker.Bad_budget);
                     ("placement", Checker.Bad_placement);
                     ("pdf", Checker.Corrupt_pdf) ]))
             None
         & info [ "inject" ] ~docv:"FAULT"
             ~doc:"Seed a violation (budget, placement or pdf) before \
                   checking; the verifier must catch it (for tests and \
                   CI).")
  in
  let only =
    let ids_conv =
      let parse s =
        let ids =
          String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun id -> id <> "")
        in
        let known = List.map fst Checker.all_checks in
        match List.find_opt (fun id -> not (List.mem id known)) ids with
        | Some bad ->
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown check id %S (see ssta check --list-checks)" bad))
        | None -> Ok ids
      in
      let print fmt ids = Format.pp_print_string fmt (String.concat "," ids) in
      Arg.conv (parse, print)
    in
    Arg.(value & opt ids_conv []
         & info [ "only" ] ~docv:"ID,..."
             ~doc:"Run only the named checks (comma-separated ids from \
                   --list-checks).  Phases no selected check needs are \
                   skipped, but error-severity diagnostics from the phases \
                   that do run are always reported.")
  in
  let list_checks =
    Arg.(value & flag
         & info [ "list-checks" ]
             ~doc:"Print the check catalogue and exit.")
  in
  let impact_edits =
    Arg.(value & opt (int_at_least 0) 1
         & info [ "impact-edits" ] ~docv:"N"
             ~doc:"Seeded random edits for the incremental-equivalence \
                   phase (check-impact-equivalence): each is applied to \
                   a warm incremental image and the spliced report is \
                   byte-compared against a from-scratch run.  0 skips \
                   the phase.")
  in
  let impact_seed =
    Arg.(value & opt int 7
         & info [ "impact-seed" ] ~docv:"SEED"
             ~doc:"Seed of the random-edit corpus.")
  in
  let check_jobs =
    Arg.(value & opt (int_at_least 0) 0
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Also certify parallel determinism: rerun the flow on \
                   an N-worker pool (0 = all cores) and require a \
                   byte-identical report.  --jobs 1 skips the rerun.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Whole-program dataflow verification: interval arrival-time \
             bounds, per-path variance accounting, placement/quad-tree \
             consistency and a PDF sanitizer; exits 1 when any \
             error-severity diagnostic fires.")
    Term.(const action $ circuit_arg $ bench_opt $ verilog_opt $ def_opt
          $ quality_intra_opt $ quality_inter_opt $ confidence_opt
          $ corner_k_opt $ max_paths_opt $ inter_fraction_opt $ shape_opt
          $ no_inter_cache_opt $ format $ min_severity $ no_pdfsan
          $ path_limit $ check_jobs $ inject $ only $ impact_edits
          $ impact_seed $ list_checks)

(* diff *)
let diff_cmd =
  let action name bench verilog def qi qj c k mp inter_fraction shape
      no_inter_cache engine max_policy edits_file edit_ops jobs json verify =
    guarded @@ fun () ->
    let circuit, placement = load_circuit ?verilog ~bench ~def name in
    let config =
      config_of ~quality_intra:qi ~quality_inter:qj ~confidence:c ~corner_k:k
        ~max_paths:mp ~inter_fraction ~shape
        ~inter_cache:(not no_inter_cache)
    in
    let config = { config with Config.engine; block_max = max_policy } in
    let edits =
      match (edits_file, edit_ops) with
      | Some path, [] -> ok_or_raise (Edit.parse_file_res path)
      | None, (_ :: _ as ops) ->
          ok_or_raise (Edit.parse_string_res (String.concat "\n" ops))
      | Some _, _ :: _ ->
          Err.raise_error
            (Err.structural ~subject:"edit"
               "use either --edits FILE or repeated --edit OP, not both")
      | None, [] ->
          Err.raise_error
            (Err.structural ~subject:"edit"
               "no edits given (use --edits FILE or --edit 'resize G1 1.2')")
    in
    (* Lint pre-validation: errors refuse the run before any analysis;
       warnings (no-op edits) are reported and the run proceeds. *)
    let ds = Rules_edit.check ~placement ~config circuit edits in
    if ds <> [] then
      Lint_reporter.text ~circuit_name:circuit.Ssta_circuit.Netlist.name
        Fmt.stderr ds;
    if Lint.has_errors ds then 1
    else if config.Config.engine = Config.Block then begin
      (* Block mode has no per-path cache to splice: every analysis is a
         single topological sweep, so the edited design is simply
         re-analyzed from scratch.  [--verify] is vacuously satisfied
         (the answer *is* the from-scratch run). *)
      ignore jobs;
      let d = Impact.design ~placement ~config circuit in
      let changes = ok_or_raise (Impact.resolve d edits) in
      let d2 = Impact.apply d changes in
      let analyze (d : Impact.design) =
        Block_engine.analyze ~config:d.Impact.config
          ~placement:d.Impact.placement
          ~sta:
            (Ssta_timing.Sta.of_graph
               (Ssta_timing.Graph.with_drives d.Impact.circuit
                  d.Impact.drives))
          d.Impact.circuit
      in
      let t0 = Unix.gettimeofday () in
      let base = analyze d in
      let edited = analyze d2 in
      let wall = Unix.gettimeofday () -. t0 in
      if json then begin
        print_string
          (Json.to_string
             (Json.Obj
                ([ ("circuit", Json.String circuit.Netlist.name);
                   ("edits", Json.String (Edit.describe edits));
                   ("engine", Json.String (Config.engine_name Config.Block));
                   ( "max_policy",
                     Json.String
                       (Config.max_policy_name config.Config.block_max) );
                   ( "base_critical_delay_s",
                     Json.Number
                       base.Block_engine.sta.Ssta_timing.Sta.critical_delay
                   );
                   ("base_mean_s", Json.Number base.Block_engine.mean);
                   ("base_std_s", Json.Number base.Block_engine.std);
                   ( "base_confidence_point_s",
                     Json.Number base.Block_engine.confidence_point );
                   ( "edited_critical_delay_s",
                     Json.Number
                       edited.Block_engine.sta.Ssta_timing.Sta.critical_delay
                   );
                   ("edited_mean_s", Json.Number edited.Block_engine.mean);
                   ("edited_std_s", Json.Number edited.Block_engine.std);
                   ( "edited_confidence_point_s",
                     Json.Number edited.Block_engine.confidence_point );
                   ( "delta_mean_s",
                     Json.Number
                       (edited.Block_engine.mean -. base.Block_engine.mean)
                   );
                   ( "delta_confidence_point_s",
                     Json.Number
                       (edited.Block_engine.confidence_point
                       -. base.Block_engine.confidence_point) );
                   ("reanalysis_s", Json.Number wall) ]
                @ if verify then [ ("verified", Json.Bool true) ] else [])));
        print_newline ()
      end
      else begin
        Fmt.pr "edit impact on %s (block engine): %s@." circuit.Netlist.name
          (Edit.describe edits);
        Fmt.pr "  base:   mean %.3f ps, sigma %.3f ps, confidence %.3f ps@."
          (Elmore.ps base.Block_engine.mean)
          (Elmore.ps base.Block_engine.std)
          (Elmore.ps base.Block_engine.confidence_point);
        Fmt.pr "  edited: mean %.3f ps, sigma %.3f ps, confidence %.3f ps@."
          (Elmore.ps edited.Block_engine.mean)
          (Elmore.ps edited.Block_engine.std)
          (Elmore.ps edited.Block_engine.confidence_point);
        Fmt.pr "  delta:  mean %+.3f ps, confidence %+.3f ps@."
          (Elmore.ps
             (edited.Block_engine.mean -. base.Block_engine.mean))
          (Elmore.ps
             (edited.Block_engine.confidence_point
             -. base.Block_engine.confidence_point));
        Fmt.pr "  edit-to-answer %.3f s (two full sweeps)@." wall;
        if verify then
          Fmt.pr "  verified: block analyses are from-scratch by design@."
      end;
      0
    end
    else
      with_jobs jobs @@ fun pool ->
      let d = Impact.design ~placement ~config circuit in
      let t0 = Unix.gettimeofday () in
      let state, _baseline = ok_or_raise (Impact.init ~pool d) in
      let full_s = Unix.gettimeofday () -. t0 in
      let t1 = Unix.gettimeofday () in
      let o = ok_or_raise (Impact.reanalyze ~pool state edits) in
      let incr_s = Unix.gettimeofday () -. t1 in
      let verified =
        if not verify then None
        else begin
          let m2 =
            ok_or_raise (Impact.scratch ~pool (Impact.design_of state))
          in
          Some (Report.json_report o.Impact.report = Report.json_report m2)
        end
      in
      let m = o.Impact.report in
      let cone = o.Impact.cone in
      let endpoints =
        List.map
          (Netlist.node_name circuit)
          cone.Impact.affected_endpoints
      in
      let critical_delay = m.Methodology.sta.Ssta_timing.Sta.critical_delay in
      let confidence_point =
        m.Methodology.prob_critical.Ranking.analysis
          .Path_analysis.confidence_point
      in
      if json then begin
        print_string
          (Json.to_string
             (Json.Obj
                ([ ("circuit", Json.String circuit.Netlist.name);
                   ("edits", Json.String (Edit.describe edits));
                   ("dirty_nodes", Json.int cone.Impact.dirty_count);
                   ("cone_nodes", Json.int cone.Impact.cone_nodes);
                   ( "affected_endpoints",
                     Json.List (List.map (fun e -> Json.String e) endpoints)
                   );
                   ("full_invalidation", Json.Bool cone.Impact.full);
                   ("invalidated", Json.int o.Impact.invalidated);
                   ("reused", Json.int o.Impact.reused);
                   ("reanalyzed", Json.int o.Impact.reanalyzed);
                   ("paths", Json.int (Methodology.num_critical_paths m));
                   ("critical_delay_s", Json.Number critical_delay);
                   ("sigma_c_s", Json.Number m.Methodology.sigma_c);
                   ("confidence_point_s", Json.Number confidence_point);
                   ("init_s", Json.Number full_s);
                   ("incremental_s", Json.Number incr_s) ]
                @
                match verified with
                | None -> []
                | Some v -> [ ("verified", Json.Bool v) ])));
        print_newline ()
      end
      else begin
        Fmt.pr "edit impact on %s: %s@." circuit.Netlist.name
          (Edit.describe edits);
        Fmt.pr "  dirty nodes %d; dependence cone %d of %d nodes%s@."
          cone.Impact.dirty_count cone.Impact.cone_nodes
          (Netlist.num_nodes circuit)
          (if cone.Impact.full then
             " (parameter delta: full cache invalidation)"
           else "");
        let shown = List.filteri (fun i _ -> i < 8) endpoints in
        Fmt.pr "  affected endpoints (%d): %s%s@." (List.length endpoints)
          (String.concat ", " shown)
          (if List.length endpoints > 8 then ", ..." else "");
        Fmt.pr "  path cache: %d invalidated, %d reused, %d reanalyzed@."
          o.Impact.invalidated o.Impact.reused o.Impact.reanalyzed;
        Fmt.pr
          "  %d paths; critical delay %.3f ps, sigma_C %.3f ps, \
           confidence point %.3f ps@."
          (Methodology.num_critical_paths m)
          (Elmore.ps critical_delay)
          (Elmore.ps m.Methodology.sigma_c)
          (Elmore.ps confidence_point);
        Fmt.pr "  edit-to-answer %.3f s vs %.3f s full baseline (%.1fx)@."
          incr_s full_s
          (if incr_s > 0.0 then full_s /. incr_s else Float.infinity)
      end;
      match verified with
      | Some false ->
          Fmt.epr
            "ssta: error: incremental report diverges from the \
             from-scratch run@.";
          1
      | Some true ->
          if not json then
            Fmt.pr "  verified: byte-identical to a from-scratch run@.";
          0
      | None -> 0
  in
  let edits_file =
    Arg.(value & opt (some file) None
         & info [ "edits" ] ~docv:"FILE"
             ~doc:"Read the edit script from a file (one op per line: \
                   resize GATE DRIVE, retype GATE KIND, move GATE X Y, \
                   set PARAM VALUE; '#' comments).")
  in
  let edit_ops =
    Arg.(value & opt_all string []
         & info [ "e"; "edit" ] ~docv:"OP"
             ~doc:"Give one edit op inline (repeatable; ops apply in \
                   order).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the impact report as JSON.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Also run the edited design from scratch and require \
                   the incremental report to be byte-identical (exit 1 \
                   on divergence).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Change-impact analysis: apply an edit script (gate \
             resize/retype, cell move, parameter delta), compute the \
             static dependence cone of the change, and re-analyze \
             incrementally — cached per-path results outside the cone \
             are reused and the spliced report is byte-identical to a \
             from-scratch run.")
    Term.(const action $ circuit_arg $ bench_opt $ verilog_opt $ def_opt
          $ quality_intra_opt $ quality_inter_opt $ confidence_opt
          $ corner_k_opt $ max_paths_opt $ inter_fraction_opt $ shape_opt
          $ no_inter_cache_opt $ engine_opt $ max_policy_opt $ edits_file
          $ edit_ops $ jobs_opt $ json $ verify)

(* run *)
let run_cmd =
  let action name bench verilog def spef qi qj c k mp inter_fraction shape
      no_inter_cache engine max_policy wires deadline max_cells strict_budget
      jobs no_affine_prune criticality json verbose =
    guarded @@ fun () ->
    let circuit, placement = load_circuit ?verilog ~bench ~def name in
    let config =
      config_of ~quality_intra:qi ~quality_inter:qj ~confidence:c ~corner_k:k
        ~max_paths:mp ~inter_fraction ~shape
        ~inter_cache:(not no_inter_cache)
    in
    let config = { config with Config.affine_prune = not no_affine_prune } in
    let config = { config with Config.engine; block_max = max_policy } in
    if config.Config.engine = Config.Block then begin
      (* Block mode: one topological sweep, no enumeration — the budget,
         screening and wire options of the path flow do not apply. *)
      let r = Block_engine.analyze ~config ~placement circuit in
      if json then print_json (Block_engine.json r)
      else begin
        Fmt.pr "%a" Block_engine.pp_summary r;
        if verbose then Fmt.pr "%a" Block_engine.pp_endpoints r
      end;
      0
    end
    else
    let budget =
      Rbudget.make ?deadline_s:deadline ?max_cells ~max_paths:mp ()
    in
    let wire = if wires then Some Ssta_tech.Wire.default else None in
    let spef_t =
      Option.map (fun p -> ok_or_raise (Spef.parse_file_res p)) spef
    in
    (* Automatic pre-analysis lint (never fatal): errors always reach
       stderr so malformed inputs are called out before they skew the
       PDFs; warnings only under --verbose ([ssta lint] shows them
       all). *)
    let lint_ds =
      Lint.run
        (Lint.input ~placement ?spef:spef_t ~config ?deadline_s:deadline
           ~deep:false circuit)
    in
    let visible =
      Lint.filter
        ~min_severity:(if verbose then Diagnostic.Warning else Diagnostic.Error)
        lint_ds
    in
    if visible <> [] then
      Lint_reporter.text ~circuit_name:circuit.Ssta_circuit.Netlist.name
        Fmt.stderr visible;
    let wire_caps =
      Option.map (fun s -> ok_or_raise (Spef.apply_res s circuit)) spef_t
    in
    let screen =
      if config.Config.affine_prune then
        Some (Affine.methodology_screen config)
      else None
    in
    (* SIGINT/SIGTERM land in a cooperative latch: the run finishes the
       path in flight, keeps the analyzed prefix, and the report below
       is emitted in full (marked degraded) instead of dying mid-write. *)
    let signal_latch = Cancel.create () in
    Cancel.on_signals signal_latch;
    let m =
      Fun.protect
        ~finally:(fun () -> Cancel.restore_default_signals ())
        (fun () ->
          with_jobs jobs (fun pool ->
              ok_or_raise
                (Methodology.analyze ~config ~budget
                   ~cancelled:(fun () -> Cancel.cancelled signal_latch)
                   ~placement ?wire ?wire_caps ?screen ~pool circuit)))
    in
    (match Cancel.reason signal_latch with
    | None -> ()
    | Some r ->
        Health.counter_set m.Methodology.health ("signal-" ^ r) 1;
        Fmt.epr
          "ssta: interrupted by %s; the report covers the analyzed prefix@."
          r);
    if criticality then begin
      let sta = m.Methodology.sta in
      let graph = sta.Ssta_timing.Sta.graph in
      match Affine.compute m.Methodology.config graph with
      | Error msg ->
          Err.raise_error
            (Err.structural ~subject:"affine"
               ("criticality report unavailable: " ^ msg))
      | Ok aff ->
          let crits = Affine.criticality aff sta in
          if json then print_json (Affine.criticality_json graph crits)
          else begin
            Fmt.pr "%a" (Affine.pp_criticality ~top:20 graph) crits;
            if verbose then
              match crits with
              | c :: _ ->
                  Fmt.pr "most critical node %s: through-form %a@."
                    (Ssta_circuit.Netlist.node_name circuit c.Affine.node)
                    Affine.pp
                    (Affine.through aff c.Affine.node)
              | [] -> ()
          end
    end
    else if json then print_json (Report.json m)
    else begin
      Report.pp_table2_header Fmt.stdout ();
      Report.pp_table2_row Fmt.stdout (Report.table2_row m);
      if
        Methodology.is_degraded m
        || not (Health.is_clean m.Methodology.health)
      then Report.pp_run_status Fmt.stdout m
    end;
    if verbose && not json then begin
      let d = m.Methodology.det_critical in
      Fmt.pr "deterministic critical path: delay %.3f ps, %d gates@."
        (Elmore.ps d.Path_analysis.det_delay)
        d.Path_analysis.gate_count;
      Fmt.pr "  intra sigma %.3f ps, inter sigma %.3f ps, total %.3f ps@."
        (Elmore.ps d.Path_analysis.intra_sigma)
        (Elmore.ps d.Path_analysis.inter_sigma)
        (Elmore.ps d.Path_analysis.std);
      Fmt.pr "  probabilistic mean shift %+.4f ps (nonlinearity)@."
        (Elmore.ps (d.Path_analysis.mean -. d.Path_analysis.det_delay));
      Fmt.pr "rank correlation (det vs prob): %.4f; max rank change: %d@."
        (Ranking.rank_correlation m.Methodology.ranked)
        (Ranking.max_rank_change m.Methodology.ranked);
      (match Health.counter m.Methodology.health "inter-cache-lookups" with
      | 0 -> Fmt.pr "inter-kernel cache: disabled@."
      | lookups ->
          Fmt.pr
            "inter-kernel cache: %d lookups, %d distinct directions, %d \
             hits@."
            lookups
            (Health.counter m.Methodology.health "inter-cache-distinct")
            (Health.counter m.Methodology.health "inter-cache-hits"));
      Fmt.pr "path memo: %d lookups, %d distinct@."
        (Health.counter m.Methodology.health "path-memo-lookups")
        (Health.counter m.Methodology.health "path-memo-distinct");
      let top = Int.min 10 (Array.length m.Methodology.ranked) in
      Fmt.pr "top %d paths by 3-sigma point:@." top;
      for i = 0 to top - 1 do
        let r = m.Methodology.ranked.(i) in
        Fmt.pr "  prob#%-4d det#%-4d 3sig %.3f ps mean %.3f ps gates %d@."
          r.Ranking.prob_rank r.Ranking.det_rank
          (Elmore.ps r.Ranking.analysis.Path_analysis.confidence_point)
          (Elmore.ps r.Ranking.analysis.Path_analysis.mean)
          r.Ranking.analysis.Path_analysis.gate_count
      done
    end;
    if strict_budget && Methodology.is_degraded m then 3 else 0
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Print path details, and the pre-analysis lint's warnings \
                   on stderr (its errors are always printed).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the deterministic JSON report instead of the \
                   table: byte-identical across --jobs values for the \
                   same inputs.")
  in
  let no_affine_prune =
    Arg.(value & flag
         & info [ "no-affine-prune" ]
             ~doc:"Disable the affine path screener during near-critical \
                   enumeration (A/B escape hatch; the report is \
                   byte-identical either way, pruning only saves work).")
  in
  let criticality =
    Arg.(value & flag
         & info [ "criticality" ]
             ~doc:"Report per-node statistical criticality from the affine \
                   forward/backward pass (slack, sensitivity-bounded sigma \
                   and a criticality-probability upper bound) instead of \
                   the Table-2 row.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the full statistical methodology.")
    Term.(const action $ circuit_arg $ bench_opt $ verilog_opt $ def_opt
          $ spef_opt $ quality_intra_opt $ quality_inter_opt $ confidence_opt
          $ corner_k_opt $ max_paths_opt $ inter_fraction_opt $ shape_opt
          $ no_inter_cache_opt $ engine_opt $ max_policy_opt $ wire_opt
          $ deadline_opt $ max_cells_opt $ strict_budget_opt $ jobs_opt
          $ no_affine_prune $ criticality $ json $ verbose)

(* table2 *)
let table2_cmd =
  let action only mp =
    guarded @@ fun () ->
    let specs =
      match only with
      | [] -> Iscas85.all
      | names ->
          List.filter_map Iscas85.by_name names
    in
    Report.pp_table2_header Fmt.stdout ();
    List.iter
      (fun (spec : Iscas85.spec) ->
        let circuit, placement = Iscas85.build_placed spec in
        let config =
          Config.with_confidence Config.default
            spec.Iscas85.paper.Iscas85.confidence
        in
        let config = { config with Config.max_paths = mp } in
        let m = Methodology.run ~config ~placement circuit in
        Report.pp_table2_row Fmt.stdout (Report.table2_row m))
      specs;
    0
  in
  let only =
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"NAME"
           ~doc:"Restrict to the given benchmarks (repeatable).")
  in
  Cmd.v (Cmd.info "table2" ~doc:"Regenerate Table 2 over the benchmark suite.")
    Term.(const action $ only $ max_paths_opt)

(* table3 *)
let table3_cmd =
  let action name mp c =
    guarded @@ fun () ->
    let circuit, placement = load_circuit ~bench:None ~def:None name in
    Report.pp_table3_header Fmt.stdout ();
    List.iter
      (fun (scenario, inter_fraction) ->
        let config =
          Config.with_budget_split (Config.with_confidence Config.default c)
            ~inter_fraction
        in
        let config = { config with Config.max_paths = mp } in
        let m = Methodology.run ~config ~placement circuit in
        Report.pp_table3_row Fmt.stdout
          (Report.table3_row ~scenario ~inter_fraction m))
      [ ("only intra-die", 0.0); ("50% inter, 50% intra", 0.5);
        ("75% inter, 25% intra", 0.75) ];
    0
  in
  let c =
    Arg.(value & opt non_negative 0.2 & info [ "c"; "confidence" ] ~docv:"C"
           ~doc:"Confidence constant for the path counts.")
  in
  Cmd.v (Cmd.info "table3" ~doc:"Regenerate the inter/intra split study.")
    Term.(const action $ circuit_arg $ max_paths_opt $ c)

(* sensitivity *)
let sensitivity_cmd =
  let action () =
    guarded @@ fun () ->
    Sensitivity.pp_table Fmt.stdout (Sensitivity.table1 ());
    0
  in
  Cmd.v (Cmd.info "sensitivity" ~doc:"Regenerate Table 1 (delay sensitivities).")
    Term.(const action $ const ())

(* convexity *)
let convexity_cmd =
  let action () =
    guarded @@ fun () ->
    Convexity.pp_table Fmt.stdout
      (List.map (fun g -> Convexity.analyze g) Sensitivity.table1_gates);
    0
  in
  Cmd.v (Cmd.info "convexity" ~doc:"Check the Section 2.5 convexity claim.")
    Term.(const action $ const ())

(* sweep *)
let sweep_cmd =
  let action name bench def =
    guarded @@ fun () ->
    let circuit, _ = load_circuit ~bench ~def name in
    let sweep = Quality_sweep.run circuit in
    Quality_sweep.pp Fmt.stdout sweep;
    let k = Quality_sweep.knee sweep in
    Fmt.pr "knee: Qintra=%d Qinter=%d (err %.4f%%, %.4f s)@."
      k.Quality_sweep.quality_intra k.Quality_sweep.quality_inter
      k.Quality_sweep.error_pct k.Quality_sweep.runtime_s;
    0
  in
  Cmd.v (Cmd.info "sweep" ~doc:"QUALITY accuracy/run-time trade-off study.")
    Term.(const action $ circuit_arg $ bench_opt $ def_opt)

(* mc *)
let mc_cmd =
  let action name samples seed jobs =
    guarded @@ fun () ->
    let circuit, placement = load_circuit ~bench:None ~def:None name in
    let sta = Ssta_timing.Sta.analyze circuit in
    let ctx =
      Path_analysis.context Config.default sta.Ssta_timing.Sta.graph placement
    in
    let a = Path_analysis.analyze ctx sta.Ssta_timing.Sta.critical_path in
    let sampler =
      Monte_carlo.sampler Config.default sta.Ssta_timing.Sta.graph placement
    in
    (* SIGINT/SIGTERM finish the shard in flight and summarize the
       completed prefix instead of dying mid-run. *)
    let signal_latch = Cancel.create () in
    Cancel.on_signals signal_latch;
    let v =
      Fun.protect
        ~finally:(fun () -> Cancel.restore_default_signals ())
        (fun () ->
          with_jobs jobs (fun pool ->
              Monte_carlo.validate_path_sharded ~n:samples ~pool
                ~should_stop:(fun () -> Cancel.cancelled signal_latch)
                ~seed sampler a))
    in
    let drawn = v.Monte_carlo.sampled.Ssta_prob.Stats.count in
    (match Cancel.reason signal_latch with
    | Some r when drawn < samples ->
        Fmt.epr
          "ssta: interrupted by %s after %d of %d samples; summarizing \
           the completed shards@."
          r drawn samples
    | _ -> ());
    Fmt.pr "critical path of %s, %d exact Monte-Carlo samples:@." name drawn;
    Fmt.pr "  analytic: mean %.3f ps, std %.3f ps@."
      (Elmore.ps a.Path_analysis.mean)
      (Elmore.ps a.Path_analysis.std);
    Fmt.pr "  sampled : mean %.3f ps, std %.3f ps@."
      (Elmore.ps v.Monte_carlo.sampled.Ssta_prob.Stats.mean)
      (Elmore.ps v.Monte_carlo.sampled.Ssta_prob.Stats.std);
    Fmt.pr "  |mean err| %.4f ps, |std err| %.4f ps, KS %.4f@."
      (Elmore.ps v.Monte_carlo.mean_err)
      (Elmore.ps v.Monte_carlo.std_err)
      v.Monte_carlo.ks;
    0
  in
  let samples =
    Arg.(value & opt (int_at_least 2) 20_000 & info [ "n" ] ~docv:"N"
           ~doc:"Number of Monte-Carlo samples.")
  in
  Cmd.v (Cmd.info "mc" ~doc:"Validate the analytic path PDF against exact \
                             Monte-Carlo sampling.")
    Term.(const action $ circuit_arg $ samples $ seed_opt $ jobs_opt)

(* block *)
let block_cmd =
  let action name samples seed =
    guarded @@ fun () ->
    let circuit, placement = load_circuit ~bench:None ~def:None name in
    let bb = Block_based.analyze ~placement circuit in
    Fmt.pr "block-based (Clark) circuit arrival: mean %.3f ps, std %.3f ps, \
            3-sigma %.3f ps (%.3f s)@."
      (Elmore.ps bb.Block_based.mean)
      (Elmore.ps bb.Block_based.std)
      (Elmore.ps bb.Block_based.confidence_point)
      bb.Block_based.runtime_s;
    let sta = Ssta_timing.Sta.analyze circuit in
    let sampler =
      Monte_carlo.sampler Config.default sta.Ssta_timing.Sta.graph placement
    in
    let rng = Ssta_prob.Rng.create seed in
    let mc = Monte_carlo.circuit_delay_samples sampler ~n:samples rng in
    let s = Ssta_prob.Stats.summarize mc in
    Fmt.pr "Monte-Carlo reference (%d dies): mean %.3f ps, std %.3f ps, \
            3-sigma %.3f ps@."
      samples
      (Elmore.ps s.Ssta_prob.Stats.mean)
      (Elmore.ps s.Ssta_prob.Stats.std)
      (Elmore.ps (Ssta_prob.Stats.sigma_point mc 3.0));
    0
  in
  let samples =
    Arg.(value & opt (int_at_least 2) 2_000 & info [ "n" ] ~docv:"N"
           ~doc:"Number of Monte-Carlo dies.")
  in
  Cmd.v (Cmd.info "block" ~doc:"Block-based SSTA baseline vs Monte-Carlo.")
    Term.(const action $ circuit_arg $ samples $ seed_opt)

(* report *)
let report_cmd =
  let action name bench verilog def top =
    guarded @@ fun () ->
    let circuit, placement = load_circuit ?verilog ~bench ~def name in
    let m = Methodology.run ~placement circuit in
    let shown = Int.min top (Array.length m.Methodology.ranked) in
    for i = 0 to shown - 1 do
      let r = m.Methodology.ranked.(i) in
      Fmt.pr "@.path %d of %d (prob rank %d, det rank %d):@." (i + 1) shown
        r.Ranking.prob_rank r.Ranking.det_rank;
      Report.pp_path_report Fmt.stdout
        m.Methodology.sta.Ssta_timing.Sta.graph r.Ranking.analysis
    done;
    0
  in
  let top =
    Arg.(value & opt (int_at_least 1) 3 & info [ "top" ] ~docv:"K"
           ~doc:"How many paths to report (probabilistic rank order).")
  in
  Cmd.v (Cmd.info "report" ~doc:"Per-gate timing report of the top paths.")
    Term.(const action $ circuit_arg $ bench_opt $ verilog_opt $ def_opt $ top)

(* yield *)
let yield_cmd =
  let action name samples seed target_yield =
    guarded @@ fun () ->
    let circuit, placement = load_circuit ~bench:None ~def:None name in
    let m = Methodology.run ~placement circuit in
    let d = m.Methodology.det_critical in
    let pdf =
      m.Methodology.prob_critical.Ranking.analysis.Path_analysis.total_pdf
    in
    let clock = Yield.clock_for_yield pdf ~yield:target_yield in
    Fmt.pr "clock for %.2f%% yield: %.3f ps@." (target_yield *. 100.0)
      (Elmore.ps clock);
    Fmt.pr "worst-case corner clock: %.3f ps (overdesign +%.1f%%)@."
      (Elmore.ps d.Path_analysis.worst_case)
      ((d.Path_analysis.worst_case -. clock) /. clock *. 100.0);
    let sampler =
      Monte_carlo.sampler Config.default m.Methodology.sta.Ssta_timing.Sta.graph
        placement
    in
    let mc =
      Monte_carlo.circuit_delay_samples sampler ~n:samples
        (Ssta_prob.Rng.create seed)
    in
    Fmt.pr "Monte-Carlo circuit yield at that clock: %.4f (%d dies)@."
      (Ssta_core.Yield.of_samples mc ~clock)
      samples;
    0
  in
  let samples =
    Arg.(value & opt (int_at_least 1) 2_000 & info [ "n" ] ~docv:"N"
           ~doc:"Monte-Carlo dies for the exact check.")
  in
  let target =
    Arg.(value & opt fraction 0.99 & info [ "yield" ] ~docv:"Y"
           ~doc:"Target timing yield in [0, 1].")
  in
  Cmd.v (Cmd.info "yield" ~doc:"Clock targets for a timing yield, vs the \
                                worst-case corner.")
    Term.(const action $ circuit_arg $ samples $ seed_opt $ target)

(* dualvt *)
let dualvt_cmd =
  let action name headroom =
    guarded @@ fun () ->
    let circuit, placement = load_circuit ~bench:None ~def:None name in
    let m = Methodology.run ~placement circuit in
    let base3 =
      m.Methodology.prob_critical.Ssta_core.Ranking.analysis
        .Path_analysis.confidence_point
    in
    let target = (1.0 +. headroom) *. base3 in
    Fmt.pr "all-low 3-sigma %.3f ps; target %.3f ps (+%.0f%%)@."
      (Elmore.ps base3) (Elmore.ps target) (headroom *. 100.0);
    let r = Ssta_core.Dual_vt.optimize ~placement ~target circuit in
    Fmt.pr "high-Vt gates %d/%d; 3-sigma %.3f ps; leakage -%.1f%%; %s@."
      r.Ssta_core.Dual_vt.high_count r.Ssta_core.Dual_vt.gate_count
      (Elmore.ps r.Ssta_core.Dual_vt.sigma3_final)
      ((r.Ssta_core.Dual_vt.leakage_all_low
       -. r.Ssta_core.Dual_vt.leakage_final)
      /. r.Ssta_core.Dual_vt.leakage_all_low *. 100.0)
      (if r.Ssta_core.Dual_vt.met then "target met" else "target NOT met");
    0
  in
  let headroom =
    Arg.(value & opt non_negative 0.05 & info [ "headroom" ] ~docv:"H"
           ~doc:"Allowed 3-sigma degradation fraction (default 0.05).")
  in
  Cmd.v (Cmd.info "dualvt" ~doc:"Dual-Vt leakage optimization under a \
                                 statistical timing target.")
    Term.(const action $ circuit_arg $ headroom)

(* generate *)
let generate_cmd =
  let generate name out random gates depth seed =
    guarded @@ fun () ->
    let circuit =
      if random then
        Ssta_circuit.Generators.random_layered ~name
          ~inputs:(Int.max 2 (gates / 20))
          ~outputs:(Int.max 1 (gates / 40))
          ~gates ~depth ~seed ()
      else
        match Iscas85.by_name name with
        | None -> Fmt.failwith "unknown benchmark %S" name
        | Some spec -> Iscas85.build spec
    in
    let placement = Placement.place circuit in
    let bench_path = Filename.concat out (name ^ ".bench") in
    let verilog_path = Filename.concat out (name ^ ".v") in
    let def_path = Filename.concat out (name ^ ".def") in
    let spef_path = Filename.concat out (name ^ ".spef") in
    Bench_format.write_file bench_path circuit;
    Verilog.write_file verilog_path circuit;
    Def_format.write_file def_path
      (Def_format.of_placement ~design:name circuit placement);
    Spef.write_file spef_path
      (Spef.of_placement ~design:name circuit placement);
    Fmt.pr "wrote %s, %s, %s and %s (%a)@." bench_path verilog_path
      def_path spef_path Netlist.pp_stats circuit;
    0
  in
  (* The generator needs a gate per level; say so as a usage error. *)
  let action name out random gates depth seed =
    if random && gates < depth then
      `Error
        ( true,
          Printf.sprintf "--gates (%d) must be at least --depth (%d)" gates
            depth )
    else `Ok (generate name out random gates depth seed)
  in
  let out =
    Arg.(value & opt dir "." & info [ "o"; "out" ] ~docv:"DIR"
           ~doc:"Output directory.")
  in
  let random =
    Arg.(value & flag & info [ "random" ]
           ~doc:"Generate a random layered circuit named CIRCUIT instead \
                 of a built-in benchmark (size set by --gates/--depth, \
                 deterministic in --seed).")
  in
  let gates =
    Arg.(value & opt (int_at_least 1) 500 & info [ "gates" ] ~docv:"N"
           ~doc:"Gate count for --random (at least --depth).")
  in
  let depth =
    Arg.(value & opt (int_at_least 1) 12 & info [ "depth" ] ~docv:"D"
           ~doc:"Logic depth for --random.")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Write a benchmark as .bench + DEF files.")
    Term.(ret (const action $ circuit_arg $ out $ random $ gates $ depth
               $ seed_opt))

(* figures *)
let figures_cmd =
  let action out mp =
    guarded @@ fun () ->
    let save path contents =
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Fmt.pr "wrote %s@." path
    in
    (* Fig. 3: PDFs of selected ranked paths of c1355. *)
    (match Iscas85.by_name "c1355" with
    | None -> ()
    | Some spec ->
        let circuit, placement = Iscas85.build_placed spec in
        let config = { Config.default with Config.max_paths = mp } in
        let m = Methodology.run ~config ~placement circuit in
        let n = Methodology.num_critical_paths m in
        let pick rank = Methodology.find_rank m ~prob_rank:(Int.min rank n) in
        let curves =
          [ ("p1", (pick 1).Ranking.analysis.Path_analysis.total_pdf);
            ( Printf.sprintf "p%d" ((n + 1) / 2),
              (pick ((n + 1) / 2)).Ranking.analysis.Path_analysis.total_pdf );
            ( Printf.sprintf "p%d" n,
              (pick n).Ranking.analysis.Path_analysis.total_pdf ) ]
        in
        save (Filename.concat out "fig3_c1355_pdfs.csv")
          (Report.pdfs_csv curves);
        save (Filename.concat out "fig5_c1355_ranks.csv")
          (Report.rank_scatter_csv
             (Ranking.rank_pairs ~first:100 m.Methodology.ranked)));
    (* Fig. 4: intra/inter/total of c432's critical path. *)
    (match Iscas85.by_name "c432" with
    | None -> ()
    | Some spec ->
        let circuit, placement = Iscas85.build_placed spec in
        let m = Methodology.run ~placement circuit in
        let d = m.Methodology.det_critical in
        save (Filename.concat out "fig4_c432_pdfs.csv")
          (Report.pdfs_csv
             [ ("intra",
                Ssta_prob.Pdf.shift d.Path_analysis.intra_pdf
                  d.Path_analysis.det_delay);
               ("inter", d.Path_analysis.inter_pdf);
               ("total", d.Path_analysis.total_pdf) ]));
    (* Fig. 6: rank scatter of c7552. *)
    (match Iscas85.by_name "c7552" with
    | None -> ()
    | Some spec ->
        let circuit, placement = Iscas85.build_placed spec in
        let config =
          Config.with_confidence Config.default 0.05
        in
        let config = { config with Config.max_paths = mp } in
        let m = Methodology.run ~config ~placement circuit in
        save (Filename.concat out "fig6_c7552_ranks.csv")
          (Report.rank_scatter_csv
             (Ranking.rank_pairs ~first:100 m.Methodology.ranked)));
    0
  in
  let out =
    Arg.(value & opt dir "." & info [ "o"; "out" ] ~docv:"DIR"
           ~doc:"Output directory.")
  in
  let mp =
    Arg.(value & opt (int_at_least 1) 2_000 & info [ "max-paths" ] ~docv:"N"
           ~doc:"Near-critical enumeration cap.")
  in
  Cmd.v (Cmd.info "figures" ~doc:"Emit CSV data behind Figs. 3-6.")
    Term.(const action $ out $ mp)

(* fault *)
(* serve *)
let serve_cmd =
  let action name bench verilog def qi qj c k mp inter_fraction shape
      no_inter_cache jobs max_queue max_request_bytes default_deadline
      retry_degraded socket =
    guarded @@ fun () ->
    let load () = load_circuit ?verilog ~bench ~def name in
    let circuit, placement = load () in
    let config =
      config_of ~quality_intra:qi ~quality_inter:qj ~confidence:c ~corner_k:k
        ~max_paths:mp ~inter_fraction ~shape ~inter_cache:(not no_inter_cache)
    in
    (* SIGINT/SIGTERM trip the server's cancellation latch: the request
       in flight degrades cooperatively, accepted requests drain, new
       ones are refused, then the loop exits and the summary flushes. *)
    let cancel = Cancel.create () in
    Cancel.on_signals cancel;
    let reload () = Err.protect ~context:"ssta-serve.reload" load in
    let backoff = Backoff.make ~base_s:0.05 ~max_retries:1 () in
    let summary =
      Fun.protect
        ~finally:(fun () -> Cancel.restore_default_signals ())
        (fun () ->
          with_jobs jobs (fun pool ->
              let server =
                Server.create ~config ~pool
                  ?default_deadline_s:default_deadline ~retry_degraded
                  ~backoff ~cancel ~reload circuit placement
              in
              (match socket with
              | Some path ->
                  Server.serve_socket ~max_queue ~max_request_bytes server
                    ~path
              | None ->
                  ignore
                    (Server.serve ~max_queue ~max_request_bytes server stdin
                       stdout));
              Server.summary server))
    in
    Fmt.epr "%s@." summary;
    0
  in
  let max_queue =
    Arg.(value & opt (int_at_least 1) 64
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Bound on queued requests; submissions beyond it are \
                   answered immediately with a retryable overloaded \
                   status instead of buffering without limit.")
  in
  let max_request_bytes =
    Arg.(value & opt (int_at_least 1) 1_048_576
         & info [ "max-request-bytes" ] ~docv:"N"
             ~doc:"Reject request lines longer than this many bytes with \
                   a typed protocol error.")
  in
  let default_deadline =
    Arg.(value & opt (some deadline_conv) None
         & info [ "default-deadline" ] ~docv:"DURATION"
             ~doc:"Wall-clock budget applied to requests that carry no \
                   deadline field of their own.")
  in
  let retry_degraded =
    Arg.(value & flag
         & info [ "retry-degraded" ]
             ~doc:"When a request hits its deadline, re-run it once at \
                   halved PDF quality with no deadline — a complete \
                   low-resolution answer instead of a truncated \
                   high-resolution one.  Requests can override this \
                   per-call with the retry field.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket instead of \
                   stdin/stdout (one connection served at a time).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Persistent analysis server: load the circuit once, keep the \
             inter-PDF tables and kernel cache warm, and answer \
             line-delimited JSON requests (run, query, check, \
             criticality, health, reload, shutdown) from stdin or a \
             Unix socket.  Supervised: per-request deadlines degrade \
             instead of killing the server, malformed requests get \
             typed error responses, the queue is bounded with \
             backpressure, and SIGTERM drains before exiting.")
    Term.(const action $ circuit_arg $ bench_opt $ verilog_opt $ def_opt
          $ quality_intra_opt $ quality_inter_opt $ confidence_opt
          $ corner_k_opt $ max_paths_opt $ inter_fraction_opt $ shape_opt
          $ no_inter_cache_opt $ jobs_opt $ max_queue $ max_request_bytes
          $ default_deadline $ retry_degraded $ socket)

let fault_cmd =
  let action name seed verbose =
    guarded @@ fun () ->
    let circuit =
      match Iscas85.by_name name with
      | Some spec -> Iscas85.build spec
      | None ->
          Err.raise_error
            (Err.structural ~subject:"circuit"
               (Printf.sprintf "unknown benchmark %S" name))
    in
    let placement = Placement.place circuit in
    let bench_text = Bench_format.to_string circuit in
    let verilog_text = Verilog.to_string circuit in
    let def_text =
      Def_format.to_string (Def_format.of_placement ~design:name circuit placement)
    in
    let spef_text =
      Spef.to_string (Spef.of_placement ~design:name circuit placement)
    in
    let crashes = ref 0 in
    let total = ref 0 in
    let record fmt_name (c : Fault.corruption) outcome =
      incr total;
      match outcome with
      | Fault.Crash msg ->
          incr crashes;
          Fmt.pr "CRASH  %-8s %-22s %s@." fmt_name c.Fault.label msg
      | Fault.Typed e ->
          if verbose then
            Fmt.pr "typed  %-8s %-22s %s@." fmt_name c.Fault.label
              (Err.kind_name e)
      | Fault.Value () ->
          if verbose then
            Fmt.pr "accept %-8s %-22s corrupted input still analyzable@."
              fmt_name c.Fault.label
    in
    let check fmt_name text extra parse =
      List.iter
        (fun c ->
          let corrupted = Fault.apply c text in
          record fmt_name c (Fault.run (fun () -> parse corrupted)))
        (Fault.standard ~seed () @ extra)
    in
    (* A corrupted netlist that still parses must also survive a budgeted
       end-to-end analysis — parse acceptance alone is not the contract. *)
    let analyze_netlist c =
      Result.map ignore
        (Methodology.analyze
           ~budget:(Rbudget.make ~deadline_s:10.0 ~max_paths:200 ())
           c)
    in
    check "bench" bench_text
      [ Fault.substitute ~pattern:"NAND" ~by:"FROB";
        Fault.substitute ~pattern:"INPUT" ~by:"OUTPUT" ]
      (fun t ->
        Result.bind (Bench_format.parse_string_res t) analyze_netlist);
    check "verilog" verilog_text
      [ Fault.substitute ~pattern:"endmodule" ~by:"";
        Fault.substitute ~pattern:";" ~by:"" ]
      (fun t -> Result.bind (Verilog.parse_string_res t) analyze_netlist);
    check "def" def_text
      [ Fault.substitute ~pattern:"PLACED" ~by:"FLOATING";
        Fault.substitute ~pattern:"0" ~by:"nan" ]
      (fun t ->
        Result.bind (Def_format.parse_string_res t) (fun d ->
            Result.map ignore (Def_format.placement_of_res d circuit)));
    check "spef" spef_text
      [ Fault.substitute ~pattern:"0.0" ~by:"-1.0";
        Fault.substitute ~pattern:"*D_NET" ~by:"*D_NAT" ]
      (fun t ->
        Result.bind (Spef.parse_string_res t) (fun s ->
            Result.map ignore (Spef.apply_res s circuit)));
    (* The server's request protocol is an input format like any other:
       every corruption of a request line must come back as a typed
       protocol error, never a crash.  [fixed] corruptions replace the
       line wholesale with a specific attack; the standard corpus
       (truncation, garbling, junk) applies on top. *)
    let proto_base =
      {|{"op": "run", "id": "fault-probe", "quality_intra": 24, "max_paths": 8}|}
    in
    let fixed label text =
      Fault.make_corruption ~label ~describe:label (fun _ -> text)
    in
    check "protocol" proto_base
      [ fixed "proto-unknown-op" {|{"op": "frobnicate"}|};
        fixed "proto-missing-op" {|{"id": "x", "quality_intra": 24}|};
        fixed "proto-extra-field" {|{"op": "health", "bogus": 1}|};
        fixed "proto-quality-negative" {|{"op": "run", "quality_intra": -5}|};
        fixed "proto-quality-absurd"
          {|{"op": "run", "quality_inter": 1000000}|};
        fixed "proto-deadline-negative" {|{"op": "run", "deadline": "-3s"}|};
        fixed "proto-deadline-zero" {|{"op": "run", "deadline": 0}|};
        fixed "proto-wrong-type" {|{"op": "run", "max_paths": "lots"}|};
        fixed "proto-bad-id" {|{"op": "health", "id": [1, 2]}|};
        fixed "proto-non-object" {|[1, 2, 3]|};
        fixed "proto-duplicate-key" {|{"op": "run", "op": "run"}|};
        fixed "proto-truncated-json" {|{"op": "run", "quality_int|};
        fixed "proto-lone-surrogate" {|{"op": "\ud800"}|};
        fixed "proto-control-char" "{\"op\": \"run\x01\"}";
        fixed "proto-invalid-utf8" "{\"op\": \"\xff\xfe run\"}";
        Fault.make_corruption ~label:"proto-oversized"
          ~describe:"line beyond --max-request-bytes"
          (fun s -> s ^ String.make 4096 ' ') ]
      (fun t -> Result.map ignore (Sproto.decode ~max_bytes:512 t));
    (* Edit scripts are an input format like the others: every
       corruption must come back as a typed error through
       parse -> resolve -> apply, never a crash. *)
    let gate_name = Netlist.node_name circuit circuit.Netlist.num_inputs in
    let input_name = Netlist.node_name circuit 0 in
    let multi_input_name =
      let n = Netlist.num_nodes circuit in
      let rec find i =
        if i >= n then gate_name
        else if
          (not (Netlist.is_input circuit i))
          && Array.length (Netlist.gate_of circuit i).Netlist.fanins >= 2
        then Netlist.node_name circuit i
        else find (i + 1)
      in
      find 0
    in
    let edit_base =
      Printf.sprintf "resize %s 1.2\nmove %s 10.0 10.0" gate_name gate_name
    in
    let design = Impact.design ~placement circuit in
    check "edits" edit_base
      [ fixed "edit-unknown-op"
          (Printf.sprintf "frobnicate %s 1.2" gate_name);
        fixed "edit-missing-field" (Printf.sprintf "resize %s" gate_name);
        fixed "edit-extra-field"
          (Printf.sprintf "resize %s 1.2 3.4" gate_name);
        fixed "edit-nonnumeric-drive"
          (Printf.sprintf "resize %s huge" gate_name);
        fixed "edit-negative-drive"
          (Printf.sprintf "resize %s -1.0" gate_name);
        fixed "edit-nan-coord" (Printf.sprintf "move %s nan 5.0" gate_name);
        fixed "edit-offdie-move"
          (Printf.sprintf "move %s 1e9 1e9" gate_name);
        fixed "edit-dangling-gate" "resize NO_SUCH_GATE 1.2";
        fixed "edit-input-node" (Printf.sprintf "resize %s 1.2" input_name);
        fixed "edit-unknown-kind"
          (Printf.sprintf "retype %s FROB" gate_name);
        fixed "edit-arity-mismatch"
          (Printf.sprintf "retype %s INV" multi_input_name);
        fixed "edit-unknown-param" "set frobnication 3.0" ]
      (fun t ->
        Result.bind (Edit.parse_string_res t) (fun es ->
            Result.map
              (fun ch -> ignore (Impact.apply design ch))
              (Impact.resolve design es)));
    Fmt.pr "fault injection: %d corruptions, %d crash%s@." !total !crashes
      (if !crashes = 1 then "" else "es");
    if !crashes > 0 then 1 else 0
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"Print the outcome of every corruption, not only crashes.")
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:"Fault-injection self-test: corrupt generated .bench, \
             Verilog, DEF and SPEF inputs plus server protocol request \
             lines and edit scripts, and verify every corruption yields \
             a typed error or a successful (possibly degraded) analysis \
             — never a crash.  Exits 1 on any crash.")
    Term.(const action $ circuit_arg $ seed_opt $ verbose)

let () =
  let doc = "Path-based statistical static timing analysis (DATE'05)" in
  let info = Cmd.info "ssta" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ run_cmd; lint_cmd; check_cmd; diff_cmd; report_cmd; table2_cmd;
        table3_cmd; sensitivity_cmd; convexity_cmd; sweep_cmd; mc_cmd;
        block_cmd; yield_cmd; dualvt_cmd; generate_cmd; figures_cmd;
        serve_cmd; fault_cmd ]
  in
  (* Exit-code convention: cmdline usage problems are 2, uncaught
     exceptions (cmdliner already printed a backtrace) are internal
     errors, and command bodies return their own code via [guarded]. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 4)
