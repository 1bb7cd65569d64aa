(* Dependence-cone change-impact analysis: the edit-script parser,
   netlist-edit memo freshness, dirty sets (including the quad-tree
   co-resident widening), forward/backward cones on shared-cone
   circuits, cache-compatibility of parameter deltas, and the certified
   incremental-equals-scratch contract. *)

module Netlist = Ssta_circuit.Netlist
module Placement = Ssta_circuit.Placement
module Generators = Ssta_circuit.Generators
module Iscas85 = Ssta_circuit.Iscas85
module Edit = Ssta_circuit.Edit
module Gate = Ssta_tech.Gate
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Graph = Ssta_timing.Graph
module Sta = Ssta_timing.Sta
module Params = Ssta_tech.Params
module Path_analysis = Ssta_core.Path_analysis
module Report = Ssta_core.Report
module Rng = Ssta_prob.Rng
module Err = Ssta_runtime.Ssta_error
module D = Ssta_lint.Diagnostic
module Rules_edit = Ssta_lint.Rules_edit
module Impact = Ssta_check.Impact
module Checker = Ssta_check.Checker
open Helpers

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Err.to_string e)

let err_exn label = function
  | Ok _ -> Alcotest.failf "%s: expected a typed error" label
  | Error e -> e

(* A small methodology configuration that still enumerates several
   paths, so reuse/reanalysis splits are non-trivial. *)
let impact_config =
  let c = Config.with_quality Config.default ~intra:24 ~inter:12 in
  { c with Config.max_paths = 40 }

(* inputs a, b; g1 = NAND(a, b); g2 = NAND(g1, a); g3 = NAND(g1, b);
   outputs g2, g3 — two outputs sharing the cone of g1. *)
let shared_cone () =
  let b = Netlist.Builder.create "shared" in
  let a = Netlist.Builder.add_input b "a" in
  let bb = Netlist.Builder.add_input b "b" in
  let g1 = Netlist.Builder.add_gate ~name:"g1" b (Gate.Nand 2) [ a; bb ] in
  let g2 = Netlist.Builder.add_gate ~name:"g2" b (Gate.Nand 2) [ g1; a ] in
  let g3 = Netlist.Builder.add_gate ~name:"g3" b (Gate.Nand 2) [ g1; bb ] in
  Netlist.Builder.mark_output b g2;
  Netlist.Builder.mark_output b g3;
  (Netlist.Builder.finish b, a, bb, g1, g2, g3)

(* --- edit-script parser ----------------------------------------------- *)

let test_edit_parse_roundtrip () =
  let src =
    "# a comment\nresize g1 1.5\n\nmove g2 3 4.5\nretype g3 nor\nset \
     confidence 0.1\n"
  in
  let edits = ok_exn (Edit.parse_string_res src) in
  check_int "ops parsed" 4 (List.length edits);
  (match edits with
  | [ e1; e2; e3; e4 ] ->
      check_int "line of op 1" 2 e1.Edit.line;
      check_int "line of op 3" 5 e3.Edit.line;
      (match (e1.Edit.op, e2.Edit.op, e3.Edit.op, e4.Edit.op) with
      | ( Edit.Resize { gate = "g1"; drive = 1.5 },
          Edit.Move { gate = "g2"; x = 3.0; y = 4.5 },
          Edit.Retype { gate = "g3"; kind = "nor" },
          Edit.Set { param = "confidence"; value = 0.1 } ) -> ()
      | _ -> Alcotest.fail "parsed ops do not match the source")
  | _ -> Alcotest.fail "expected 4 ops");
  (* Round-trip: printing and re-parsing yields the same script. *)
  let printed = Edit.to_string edits in
  let again = ok_exn (Edit.parse_string_res printed) in
  Alcotest.(check string) "round-trip" printed (Edit.to_string again)

let test_edit_parse_errors () =
  let expect_parse_line label line src =
    match err_exn label (Edit.parse_string_res src) with
    | Err.Parse { pos; _ } -> check_int (label ^ ": line") line pos.Err.line
    | e ->
        Alcotest.failf "%s: expected a parse error, got %s" label
          (Err.kind_name e)
  in
  expect_parse_line "unknown op" 1 "frobnicate g1 1.2";
  expect_parse_line "missing field" 1 "resize g1";
  expect_parse_line "extra field" 1 "resize g1 1.2 9";
  expect_parse_line "non-numeric" 1 "resize g1 huge";
  expect_parse_line "nan is rejected" 1 "move g1 nan 2";
  expect_parse_line "inf is rejected" 1 "move g1 1 inf";
  expect_parse_line "error names its line" 3 "resize g1 1.2\n# ok\nmove g1"

(* --- netlist edit API (memo freshness) -------------------------------- *)

let test_with_gate_kind_fresh_memo () =
  let c, _, _, g1, g2, _ = shared_cone () in
  (* Populate the original's fan-out memo, then edit: the edited copy
     must not inherit (or corrupt) the memoized arrays. *)
  let fo_before = Netlist.fanouts c in
  let c' = Netlist.with_gate_kind c g1 (Gate.Nor 2) in
  check_true "original kind unchanged"
    ((Netlist.gate_of c g1).Netlist.kind = Gate.Nand 2);
  check_true "edited kind applied"
    ((Netlist.gate_of c' g1).Netlist.kind = Gate.Nor 2);
  let fo_after = Netlist.fanouts c' in
  check_true "memo not shared" (not (fo_before == fo_after));
  (* Connectivity is preserved, so the contents agree. *)
  Array.iteri
    (fun id fos ->
      Alcotest.(check (array int))
        (Printf.sprintf "fanouts of node %d" id)
        fos fo_after.(id))
    fo_before;
  Alcotest.(check (array int))
    "fanout counts agree" (Netlist.fanout_counts c)
    (Netlist.fanout_counts c');
  check_raises_invalid "input node refused" (fun () ->
      Netlist.with_gate_kind c 0 (Gate.Nor 2));
  check_raises_invalid "arity change refused" (fun () ->
      Netlist.with_gate_kind c g2 Gate.Inv)

(* --- backward dataflow on a shared cone -------------------------------- *)

module Reach = Cone_reference.Reach

let test_dataflow_backward_shared_cone () =
  let c, a, b, g1, g2, g3 = shared_cone () in
  let reach_from seed =
    Reach.fixpoint ~direction:Worklist.Backward c
      ~init:(fun id -> id = seed)
      ~transfer:(fun ~node:_ v -> v)
  in
  (* Seeding one output slices out exactly its transitive support —
     the shared gate g1 and both inputs, but not the sibling output. *)
  let r = reach_from g2 in
  List.iter
    (fun (label, id, expected) ->
      Alcotest.(check bool) label expected r.(id))
    [ ("a reaches g2", a, true); ("b reaches g2", b, true);
      ("g1 reaches g2", g1, true); ("g2 is its own seed", g2, true);
      ("g3 cannot reach g2", g3, false) ];
  let r3 = reach_from g3 in
  Alcotest.(check bool) "g2 cannot reach g3" false r3.(g2);
  Alcotest.(check bool) "shared gate in both cones" true r3.(g1)

(* --- dirty sets and cones ---------------------------------------------- *)

let test_resize_dirties_fanins () =
  let c, a, b, g1, g2, g3 = shared_cone () in
  let d = Impact.design ~config:impact_config c in
  let edits = ok_exn (Edit.parse_string_res "resize g2 1.4") in
  let changes = ok_exn (Impact.resolve d edits) in
  let cone = Impact.cone_of d changes in
  (* Resize of g2 perturbs g2 and its fan-ins (their output load
     changes): {g2, g1, a}. *)
  List.iter
    (fun (label, id, expected) ->
      Alcotest.(check bool) label expected cone.Impact.dirty.(id))
    [ ("g2 dirty", g2, true); ("g1 (fanin) dirty", g1, true);
      ("a (fanin) dirty", a, true); ("b clean", b, false);
      ("g3 clean", g3, false) ];
  check_int "dirty count" 3 cone.Impact.dirty_count;
  (* Forward: everything reachable from the dirty set; g3 is reachable
     from g1, so both endpoints are affected. *)
  Alcotest.(check (list int))
    "affected endpoints" [ g2; g3 ] cone.Impact.affected_endpoints;
  check_true "not a full invalidation" (not cone.Impact.full);
  (* Backward slice contains the dirty nodes' support. *)
  Alcotest.(check bool) "b in backward slice" true cone.Impact.backward.(b)

let test_move_widens_to_quad_co_residents () =
  let c, _, _, g1, g2, g3 = shared_cone () in
  (* die 100x100, quad_levels 4 -> deepest leaves are 12.5 x 12.5.
     g1 and g2 share the first leaf; g3 sits in the far corner. *)
  let coords = Array.make (Netlist.num_nodes c) (0.0, 0.0) in
  coords.(g1) <- (1.0, 1.0);
  coords.(g2) <- (2.0, 2.0);
  coords.(g3) <- (99.0, 99.0);
  let placement =
    { Placement.die_width = 100.0; die_height = 100.0; coords }
  in
  let d = Impact.design ~placement ~config:impact_config c in
  let edits = ok_exn (Edit.parse_string_res "move g1 40 40") in
  let changes = ok_exn (Impact.resolve d edits) in
  let cone = Impact.cone_of d changes in
  (* The Eq. (14) soundness widening: the moved gate's old leaf
     co-resident g2 is dirty; the far-corner g3 is not. *)
  Alcotest.(check bool) "moved gate dirty" true cone.Impact.dirty.(g1);
  Alcotest.(check bool) "old-leaf co-resident dirty" true
    cone.Impact.dirty.(g2);
  Alcotest.(check bool) "far leaf clean" false cone.Impact.dirty.(g3);
  check_int "dirty count" 2 cone.Impact.dirty_count

let test_param_deltas () =
  let d = Impact.design ~config:impact_config (small_adder ()) in
  let effect_of script =
    match ok_exn (Impact.resolve d (ok_exn (Edit.parse_string_res script))) with
    | [ Impact.Config_set { effect; _ } ] -> effect
    | _ -> Alcotest.fail "expected one parameter delta"
  in
  check_true "confidence is enumeration-only"
    (effect_of "set confidence 0.1" = Config.Enumeration_only);
  check_true "max-paths is enumeration-only"
    (effect_of "set max-paths 30" = Config.Enumeration_only);
  check_true "corner-k is analysis"
    (effect_of "set corner-k 2.5" = Config.Analysis);
  check_true "quality-inter is tables"
    (effect_of "set quality-inter 16" = Config.Tables);
  (* Enumeration-only deltas do not invalidate the cone... *)
  let cone =
    Impact.cone_of d
      (ok_exn (Impact.resolve d (ok_exn (Edit.parse_string_res "set confidence 0.1"))))
  in
  check_true "enumeration delta keeps the cache" (not cone.Impact.full);
  check_int "no dirty nodes" 0 cone.Impact.dirty_count;
  (* ...analysis/table deltas invalidate everything. *)
  let cone =
    Impact.cone_of d
      (ok_exn (Impact.resolve d (ok_exn (Edit.parse_string_res "set corner-k 2.5"))))
  in
  check_true "analysis delta is a full invalidation" cone.Impact.full

let test_warm_compatibility_matrix () =
  let w = Path_analysis.warm impact_config in
  let after script expect_compatible =
    match Config.set_param impact_config (fst script) (snd script) with
    | Error msg -> Alcotest.failf "set_param failed: %s" msg
    | Ok (cfg, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "warm after set %s %g" (fst script) (snd script))
          expect_compatible
          (Path_analysis.warm_compatible w cfg)
  in
  (* Enumeration-only and analysis deltas keep the warm tables... *)
  after ("confidence", 0.1) true;
  after ("max-paths", 30.0) true;
  after ("affine-prune", 0.0) true;
  after ("corner-k", 2.5) true;
  after ("confidence-sigma", 2.0) true;
  after ("quality-intra", 32.0) true;
  (* ...table deltas rebuild them. *)
  after ("quality-inter", 16.0) false;
  after ("truncation", 4.0) false

let test_resolve_errors () =
  let d = Impact.design ~config:impact_config (small_adder ()) in
  let expect label script =
    let e =
      err_exn label
        (Result.bind (Edit.parse_string_res script) (Impact.resolve d))
    in
    check_true (label ^ ": structural")
      (match e with Err.Structural _ -> true | _ -> false)
  in
  let g =
    Netlist.node_name d.Impact.circuit d.Impact.circuit.Netlist.num_inputs
  in
  expect "unknown gate" "resize nope 1.2";
  expect "primary input" "resize a0 1.2";
  expect "off-die move" (Printf.sprintf "move %s 1e9 1e9" g);
  expect "unknown kind" (Printf.sprintf "retype %s frob" g);
  expect "unknown param" "set frobnication 1.0";
  expect "bad param value" "set quality-inter 1.5"

(* --- incremental re-analysis ------------------------------------------- *)

let reanalyze_equals_scratch state script =
  let edits = ok_exn (Edit.parse_string_res script) in
  let o = ok_exn (Impact.reanalyze state edits) in
  let scratch = ok_exn (Impact.scratch (Impact.design_of state)) in
  Alcotest.(check string)
    (Printf.sprintf "byte-identity after %S" script)
    (Report.json_report scratch)
    (Report.json_report o.Impact.report);
  o

let test_incremental_equals_scratch () =
  let circuit = small_adder () in
  let d = Impact.design ~config:impact_config circuit in
  let state, baseline = ok_exn (Impact.init d) in
  check_true "baseline populated the cache" (Impact.cache_size state > 0);
  check_true "baseline analyzed paths"
    (Ssta_core.Methodology.num_critical_paths baseline > 0);
  (* One edit of every kind, applied in sequence to the same image. *)
  let two_input =
    let rec find id =
      if Netlist.is_input circuit id
         || Array.length (Netlist.gate_of circuit id).Netlist.fanins <> 2
      then find (id + 1)
      else Netlist.node_name circuit id
    in
    find 0
  in
  ignore (reanalyze_equals_scratch state (Printf.sprintf "resize %s 1.3" two_input));
  ignore
    (reanalyze_equals_scratch state (Printf.sprintf "retype %s nand" two_input));
  ignore (reanalyze_equals_scratch state (Printf.sprintf "move %s 5 5" two_input));
  let o = reanalyze_equals_scratch state "set confidence 0.08" in
  check_true "enumeration-only delta reuses the cache"
    (o.Impact.reused > 0 || o.Impact.reanalyzed = 0);
  let o = reanalyze_equals_scratch state "set quality-inter 16" in
  check_true "table delta reanalyzes everything" (o.Impact.reused = 0)

let test_what_if_does_not_commit () =
  let circuit = small_adder () in
  let d = Impact.design ~config:impact_config circuit in
  let state, _ = ok_exn (Impact.init d) in
  let before_design = Impact.design_of state in
  let before_cache = Impact.cache_size state in
  let g = Netlist.node_name circuit circuit.Netlist.num_inputs in
  let edits =
    ok_exn (Edit.parse_string_res (Printf.sprintf "resize %s 1.5" g))
  in
  let o = ok_exn (Impact.what_if state edits) in
  check_true "what-if produced a report"
    (Ssta_core.Methodology.num_critical_paths o.Impact.report > 0);
  check_true "design untouched" (Impact.design_of state == before_design);
  check_int "cache untouched" before_cache (Impact.cache_size state);
  (* A failed reanalyze also leaves the state untouched. *)
  let bad = ok_exn (Edit.parse_string_res "resize nope 1.5") in
  (match Impact.reanalyze state bad with
  | Ok _ -> Alcotest.fail "expected reanalyze to fail"
  | Error _ -> ());
  check_true "design untouched after error"
    (Impact.design_of state == before_design);
  check_int "cache untouched after error" before_cache
    (Impact.cache_size state)

let test_random_edits_deterministic () =
  let d = Impact.design ~config:impact_config (small_adder ()) in
  let script seed =
    Edit.to_string (Impact.random_edits ~rng:(Rng.create seed) ~count:5 d)
  in
  Alcotest.(check string) "same seed, same corpus" (script 7) (script 7);
  check_true "different seeds differ" (script 7 <> script 8);
  (* Every generated edit resolves against the design. *)
  let edits = Impact.random_edits ~rng:(Rng.create 3) ~count:8 d in
  check_int "count respected" 8 (List.length edits);
  ignore (ok_exn (Impact.resolve d edits))

(* --- the carried timing image -------------------------------------- *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_grad a b =
  List.for_all (fun rv -> same_bits (Params.get a rv) (Params.get b rv))
    Params.all_rvs

let same_electrical (a : Gate.electrical option) b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Gate.kind = b.Gate.kind
      && same_floats
           [| a.Gate.wn; a.Gate.wp; a.Gate.cd_n; a.Gate.cd_p; a.Gate.c_out;
              a.Gate.alpha; a.Gate.beta |]
           [| b.Gate.wn; b.Gate.wp; b.Gate.cd_n; b.Gate.cd_p; b.Gate.c_out;
              b.Gate.alpha; b.Gate.beta |]
  | _ -> false

(* The first difference between the timing image an edit carried and a
   fresh [Graph.with_drives] + [Sta.of_graph] + [Graph.grads] of the
   same design, or [None] when they agree bit for bit.  The carried
   gradient table must already be evaluated: it is copied across edits,
   never derived afresh. *)
let carried_mismatch (d : Impact.design) (sta : Sta.t) =
  let fresh =
    Sta.of_graph (Graph.with_drives d.Impact.circuit d.Impact.drives)
  in
  let g = sta.Sta.graph and f = fresh.Sta.graph in
  let first name ok = if ok then None else Some name in
  List.find_map Fun.id
    [ first "gate kinds"
        (Array.for_all2
           (fun (a : Netlist.gate) (b : Netlist.gate) ->
             a.Netlist.kind = b.Netlist.kind)
           g.Graph.circuit.Netlist.gates d.Impact.circuit.Netlist.gates);
      first "electricals"
        (Array.for_all2 same_electrical g.Graph.electrical f.Graph.electrical);
      first "delays" (same_floats g.Graph.delay f.Graph.delay);
      first "fanouts" (g.Graph.fanouts = f.Graph.fanouts);
      (match Atomic.get g.Graph.grads_slot with
      | None -> Some "gradient table not carried"
      | Some t ->
          first "gradient table" (Array.for_all2 same_grad t (Graph.grads f)));
      first "labels" (same_floats sta.Sta.labels fresh.Sta.labels);
      first "critical delay"
        (same_bits sta.Sta.critical_delay fresh.Sta.critical_delay);
      first "critical path"
        (sta.Sta.critical_path.Ssta_timing.Paths.nodes
         = fresh.Sta.critical_path.Ssta_timing.Paths.nodes
        && same_bits sta.Sta.critical_path.Ssta_timing.Paths.delay
             fresh.Sta.critical_path.Ssta_timing.Paths.delay) ]

let check_carried label d (o : Impact.outcome) =
  match carried_mismatch d o.Impact.report.Methodology.sta with
  | None -> ()
  | Some what ->
      Alcotest.failf "%s: carried %s differs from a fresh build" label what

module Gate_table = Ssta_correlation.Gate_table

(* The state's gate table against a fresh build for its committed design
   and timing image, bit for bit, and the table walk against the
   reference walks on the report's paths. *)
let check_gates label state (o : Impact.outcome) =
  let d = Impact.design_of state in
  let tb = Impact.gate_table state in
  let graph = o.Impact.report.Methodology.sta.Sta.graph in
  check_true (label ^ ": the table describes the committed image")
    (tb.Gate_table.graph == graph
    && tb.Gate_table.placement == d.Impact.placement);
  (match
     Coeffs_reference.table_mismatch tb
       (Gate_table.build graph d.Impact.placement
          (Config.layers_for d.Impact.config d.Impact.placement)
          ~corner_k:d.Impact.config.Config.corner_k)
   with
  | None -> ()
  | Some what -> Alcotest.failf "%s: carried gate table: %s differs" label what);
  Array.iteri
    (fun i (r : Ssta_core.Ranking.ranked) ->
      match
        Coeffs_reference.table_walk_mismatch tb
          r.Ssta_core.Ranking.analysis.Path_analysis.path
      with
      | None -> ()
      | Some what -> Alcotest.failf "%s: path %d: table walk %s differs" label i what)
    o.Impact.report.Methodology.ranked

(* [reanalyze], then the carried image and gate table against the
   committed design.  Without a layering or corner delta the edit
   builds no table and derives exactly the entries of the cells it
   moved. *)
let check_edit label state edits =
  let builds = Gate_table.builds () and derived = Gate_table.derivations () in
  let o = ok_exn (Impact.reanalyze state edits) in
  let moves =
    List.length
      (List.filter
         (fun (e : Edit.edit) ->
           match e.Edit.op with Edit.Move _ -> true | _ -> false)
         edits)
  in
  check_int (label ^ ": an edit builds no gate table") builds
    (Gate_table.builds ());
  check_int (label ^ ": entries derived = moved cells") moves
    (Gate_table.derivations () - derived);
  check_carried label (Impact.design_of state) o;
  check_gates label state o

let parse script = ok_exn (Edit.parse_string_res script)

let test_carried_graph_iscas () =
  List.iter
    (fun name ->
      let circuit, placement =
        Iscas85.build_placed (Option.get (Iscas85.by_name name))
      in
      let d = Impact.design ~placement ~config:impact_config circuit in
      let state, _ = ok_exn (Impact.init d) in
      let rng = Rng.create 5 in
      (* Every op of the corpus on its own, a what-if among them... *)
      List.iteri
        (fun i e ->
          let label =
            Printf.sprintf "%s op %d (%s)" name i (Edit.to_string [ e ])
          in
          if i = 3 then begin
            let before = Impact.design_of state in
            let o = ok_exn (Impact.what_if state [ e ]) in
            check_true (label ^ ": what-if commits nothing")
              (Impact.design_of state == before);
            check_carried (label ^ ": what-if")
              (Impact.apply before (ok_exn (Impact.resolve before [ e ])))
              o
          end;
          check_edit label state [ e ])
        (Impact.random_edits ~rng ~count:8 d);
      (* ...then a multi-op script in one edit. *)
      check_edit (name ^ " multi-op") state
        (Impact.random_edits ~rng ~count:4 (Impact.design_of state)))
    [ "c432"; "c1908"; "c7552" ]

let test_carried_graph_scripts () =
  let circuit = small_random () in
  let d = Impact.design ~config:impact_config circuit in
  let state, baseline = ok_exn (Impact.init d) in
  (* A multi-input gate with a gate fan-in, so an edit retimes more
     than itself. *)
  let gate =
    let rec find id =
      let g = Netlist.gate_of circuit id in
      if Array.length g.Netlist.fanins >= 2
         && Array.exists
              (fun f -> not (Netlist.is_input circuit f))
              g.Netlist.fanins
      then g
      else find (id + 1)
    in
    find circuit.Netlist.num_inputs
  in
  let name = Netlist.node_name circuit gate.Netlist.id in
  let other = match gate.Netlist.kind with Gate.Nand _ -> "nor" | _ -> "nand" in
  let script fmt = Printf.ksprintf parse fmt in
  (* Moves and parameter deltas never enter the graph: the same image. *)
  let same_image label edits =
    let o = ok_exn (Impact.reanalyze state edits) in
    check_true label
      (o.Impact.report.Methodology.sta == baseline.Methodology.sta)
  in
  same_image "a move keeps the physically same timing image"
    (script "move %s 3 4" name);
  same_image "a parameter delta keeps it too" (parse "set confidence 0.1");
  (* A retype then a resize of the same gate: in one script... *)
  check_edit "retype + resize in one script" state
    (script "retype %s %s\nresize %s 1.4" name other name);
  (* ...and as two edits. *)
  check_edit "retype back" state
    (script "retype %s %s" name (Gate.name gate.Netlist.kind));
  check_edit "then resize" state (script "resize %s 0.7" name);
  (* [redrive] closes the changed set over gate fan-ins itself. *)
  let graph = baseline.Methodology.sta.Sta.graph in
  let drives = Array.make (Netlist.num_nodes circuit) 1.0 in
  let _, retimed =
    Graph.redrive graph circuit drives
      ~changed:[ gate.Netlist.id; gate.Netlist.id ]
  in
  check_true "redrive retimes the changed gate and its gate fan-ins"
    (retimed
    = List.sort_uniq Int.compare
        (gate.Netlist.id
        :: List.filter
             (fun f -> not (Netlist.is_input circuit f))
             (Array.to_list gate.Netlist.fanins)));
  check_true "redrive refuses a primary input"
    (match Graph.redrive graph circuit drives ~changed:[ 0 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* A what-if patches a table it drops; a corner delta builds one. *)
  let table = Impact.gate_table state in
  ignore (ok_exn (Impact.what_if state (script "resize %s 1.9" name)));
  check_true "a what-if leaves the state's table" (Impact.gate_table state == table);
  let builds = Gate_table.builds () in
  let o = ok_exn (Impact.reanalyze state (parse "set corner-k 2.5")) in
  check_int "a corner delta builds one table" (builds + 1) (Gate_table.builds ());
  check_gates "corner delta" state o

let qcheck_carried_graph =
  qcheck ~count:25 "carried graph equals a fresh build on random circuits"
    QCheck.(pair (int_range 1 10_000) (int_range 1 6))
    (fun (seed, count) ->
      let circuit =
        Generators.random_layered ~name:"eco" ~inputs:6 ~outputs:3 ~gates:40
          ~depth:6 ~seed ()
      in
      let d = Impact.design ~config:impact_config circuit in
      let state, _ = ok_exn (Impact.init d) in
      let rng = Rng.create seed in
      List.for_all
        (fun e ->
          let o = ok_exn (Impact.reanalyze state [ e ]) in
          check_gates "random edit" state o;
          carried_mismatch (Impact.design_of state)
            o.Impact.report.Methodology.sta
          = None)
        (Impact.random_edits ~rng ~count d))

(* --- the cone against the worklist reference ------------------------ *)

let qcheck_cone_reference =
  qcheck ~count:60 "cone equals the worklist reachability reference"
    QCheck.(triple (int_range 1 10_000) (int_range 1 5) (int_range 0 2))
    (fun (seed, count, set) ->
      let circuit =
        Generators.random_layered ~name:"cone" ~inputs:6 ~outputs:3 ~gates:50
          ~depth:7 ~seed ()
      in
      let d = Impact.design ~config:impact_config circuit in
      let edits = Impact.random_edits ~rng:(Rng.create seed) ~count d in
      (* 0: gate edits only; 1: plus an enumeration-only delta; 2: plus a
         full-invalidation delta. *)
      let edits =
        match set with
        | 0 -> edits
        | 1 -> edits @ parse "set confidence 0.1"
        | _ -> edits @ parse "set corner-k 2.5"
      in
      let changes = ok_exn (Impact.resolve d edits) in
      Impact.cone_of d changes = Cone_reference.cone_of d changes)

let test_cone_reference_moves () =
  (* A move-only script on a placed ISCAS85 circuit: the leaf
     co-resident widening feeds both passes. *)
  let circuit, placement =
    Iscas85.build_placed (Option.get (Iscas85.by_name "c880"))
  in
  let d = Impact.design ~placement ~config:impact_config circuit in
  let rng = Rng.create 17 in
  let moves =
    List.filter
      (fun (e : Edit.edit) ->
        match e.Edit.op with Edit.Move _ -> true | _ -> false)
      (Impact.random_edits ~rng ~count:30 d)
  in
  check_true "the corpus has moves" (moves <> []);
  let changes = ok_exn (Impact.resolve d moves) in
  check_true "cone of moves equals the reference"
    (Impact.cone_of d changes = Cone_reference.cone_of d changes)

(* --- lint rules -------------------------------------------------------- *)

let fires rule ds =
  List.exists (fun (d : D.t) -> String.equal d.D.rule rule) ds

let test_edit_lint_rules () =
  let circuit = small_adder () in
  let config = impact_config in
  let g = Netlist.node_name circuit circuit.Netlist.num_inputs in
  let check_script script = Rules_edit.check ~config circuit script in
  let parse fmt = Printf.ksprintf (fun s -> ok_exn (Edit.parse_string_res s)) fmt in
  check_true "unknown gate fires"
    (fires "edit-unknown-gate" (check_script (parse "resize nope 1.2")));
  check_true "input fires"
    (fires "edit-unknown-gate" (check_script (parse "resize a0 1.2")));
  check_true "off-die fires"
    (fires "edit-outside-die" (check_script (parse "move %s 1e9 1e9" g)));
  check_true "unknown kind fires"
    (fires "edit-unknown-kind" (check_script (parse "retype %s frob" g)));
  check_true "unknown param fires"
    (fires "edit-unknown-param" (check_script (parse "set frob 1.0")));
  check_true "no-op fires"
    (fires "edit-noop" (check_script (parse "resize %s 1.0" g)));
  (* Sequential semantics: a second identical resize is the no-op. *)
  let ds = check_script (parse "resize %s 1.2\nresize %s 1.2" g g) in
  check_int "exactly one diagnostic" 1 (List.length ds);
  check_true "second op is the no-op" (fires "edit-noop" ds);
  (* A clean script yields no diagnostics; the engine registers the
     rules. *)
  check_int "clean script" 0
    (List.length (check_script (parse "resize %s 1.2" g)));
  check_true "rules registered"
    (List.mem_assoc "edit-noop" Ssta_lint.Engine.all_rules)

(* --- the checker phase ------------------------------------------------- *)

let test_check_impact_equivalence () =
  let circuit = small_adder () in
  let input =
    Checker.input ~config:impact_config ~pdfsan:false
      ~only:[ "check-impact-equivalence" ] ~impact_edits:2 ~impact_seed:11
      circuit
  in
  let r = Checker.run input in
  let errors =
    List.filter (fun (d : D.t) -> d.D.severity = D.Error) r.Checker.diagnostics
  in
  (match errors with
  | [] -> ()
  | d :: _ -> Alcotest.failf "unexpected error: %s" d.D.message);
  check_true "equivalence diagnostic reported"
    (fires "check-impact-equivalence" r.Checker.diagnostics);
  check_true "check id registered"
    (List.mem_assoc "check-impact-equivalence" Checker.all_checks)

(* The path cache's key hashes every node id: paths that share a long
   prefix (c6288's 20,000 paths gave 24 distinct polymorphic hashes)
   still spread over the table. *)
let test_path_key_hash () =
  let key = Ssta_core.Path_cache.Key.hash in
  let nodes = Array.init 24 (fun i -> 3 * i) in
  for k = 10 to 23 do
    let other = Array.copy nodes in
    other.(k) <- other.(k) + 1;
    check_true
      (Printf.sprintf "paths differing only at node %d hash differently" k)
      (key (nodes, 1e-9) <> key (other, 1e-9))
  done;
  check_true "delays hash differently"
    (key (nodes, 1e-9) <> key (nodes, Float.succ 1e-9));
  check_true "equal keys are equal"
    (Ssta_core.Path_cache.Key.equal (nodes, 1e-9) (Array.copy nodes, 1e-9));
  let circuit, _ =
    Iscas85.build_placed (Option.get (Iscas85.by_name "c6288"))
  in
  let sta = Sta.analyze circuit in
  let paths =
    (Ssta_timing.Paths.enumerate ~max_paths:2000 sta.Sta.graph
       ~labels:sta.Sta.labels ~slack:1.0)
      .Ssta_timing.Paths.paths
  in
  let hashes =
    List.sort_uniq compare
      (List.map
         (fun p ->
           key (p.Ssta_timing.Paths.nodes, p.Ssta_timing.Paths.delay))
         paths)
  in
  check_int "c6288: 2000 paths" 2000 (List.length paths);
  check_true "c6288: at most one collision per thousand paths"
    (List.length hashes >= 1998)

let suite =
  ( "impact",
    [ case "edit parser round-trip" test_edit_parse_roundtrip;
      case "edit parser errors" test_edit_parse_errors;
      case "with_gate_kind memo freshness" test_with_gate_kind_fresh_memo;
      case "backward dataflow shared cone" test_dataflow_backward_shared_cone;
      case "resize dirties fanins" test_resize_dirties_fanins;
      case "move widens to quad co-residents"
        test_move_widens_to_quad_co_residents;
      case "parameter delta effects" test_param_deltas;
      case "warm compatibility matrix" test_warm_compatibility_matrix;
      case "resolve errors are typed" test_resolve_errors;
      slow_case "incremental equals scratch" test_incremental_equals_scratch;
      case "what-if does not commit" test_what_if_does_not_commit;
      case "random edit corpus deterministic" test_random_edits_deterministic;
      slow_case "carried graph on ISCAS85 edits" test_carried_graph_iscas;
      case "carried graph across scripts" test_carried_graph_scripts;
      qcheck_carried_graph;
      qcheck_cone_reference;
      case "cone of moves equals the reference" test_cone_reference_moves;
      case "edit lint rules" test_edit_lint_rules;
      case "path key hashes every node" test_path_key_hash;
      slow_case "check-impact-equivalence clean" test_check_impact_equivalence
    ] )
