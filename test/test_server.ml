(* Tests for the persistent analysis server: the strict JSON layer, the
   wire protocol, the bounded request queue, the serve loop, and the
   chaos acceptance run (>= 100 interleaved requests, two arrival
   orders, byte-identical deterministic responses, zero crashes). *)

open Helpers
module Err = Ssta_runtime.Ssta_error
module Json = Ssta_runtime.Json
module Protocol = Ssta_server.Protocol
module Supervisor = Ssta_server.Supervisor
module Server = Ssta_server.Server
module Iscas85 = Ssta_circuit.Iscas85
module Netlist = Ssta_circuit.Netlist
module Config = Ssta_core.Config

(* ----- strict JSON ----- *)

let test_json_print_deterministic () =
  let v =
    Json.(
      Obj
        [ ("a", Number 1.5);
          ("b", List [ Null; Bool true; String "x" ]);
          ("n", Number 3.0) ])
  in
  let s = Json.to_string v in
  Alcotest.(check string) "print" {|{"a":1.5,"b":[null,true,"x"],"n":3}|} s;
  (match Json.parse s with
  | Ok v2 -> Alcotest.(check string) "roundtrip" s (Json.to_string v2)
  | Error e -> Alcotest.failf "roundtrip: %s" (Err.to_string e));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Number Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Number Float.infinity))

let test_json_accessors () =
  let v = Json.(Obj [ ("i", Number 3.0); ("f", Number 1.5); ("s", String "x") ]) in
  check_true "exact int" (Json.member "i" v |> Option.get |> Json.to_int = Some 3);
  check_true "not int" (Json.member "f" v |> Option.get |> Json.to_int = None);
  check_true "float" (Json.member "f" v |> Option.get |> Json.to_float = Some 1.5);
  check_true "str" (Json.member "s" v |> Option.get |> Json.to_str = Some "x");
  check_true "missing" (Json.member "z" v = None);
  check_true "keys" (Json.keys v = [ "i"; "f"; "s" ])

let parse_err s =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "%S: expected parse error" (String.escaped s)
  | Error e ->
      Alcotest.(check string)
        (Printf.sprintf "%s: kind" (String.escaped s))
        "parse" (Err.kind_name e)

let test_json_rejections () =
  List.iter parse_err
    [ "";
      "{";
      "[1] x";                         (* trailing garbage *)
      {|{"a":1,"a":2}|};               (* duplicate key *)
      {|{"a"}|};
      {|"\ud800"|};                    (* lone surrogate *)
      "\"a\x01b\"";                    (* raw control character *)
      "\"\xff\"";                      (* invalid UTF-8 *)
      "+1";
      ".5";
      "\"unterminated";
      String.make 70 '[' ^ "0" ^ String.make 70 ']' (* depth cap *) ]

let test_json_surrogate_pair () =
  match Json.parse {|"😀"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "decoded UTF-8" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "surrogate pair: %s" (Err.to_string e)

(* ----- wire protocol ----- *)

let decode = Protocol.decode ~max_bytes:4096

let decode_ok line =
  match decode line with
  | Ok env -> env
  | Error e -> Alcotest.failf "%s: %s" line (Err.to_string e)

let decode_err ~kind line =
  match decode line with
  | Ok _ -> Alcotest.failf "%s: expected a decode error" line
  | Error e ->
      Alcotest.(check string) (line ^ ": kind") kind (Err.kind_name e)

let test_protocol_decode_ok () =
  (match decode_ok {|{"op":"run","id":"r1","quality_intra":8,"deadline":"500ms"}|} with
  | { id = Some (Json.String "r1"); request = Protocol.Run p } ->
      check_true "quality" (p.Protocol.p_quality_intra = Some 8);
      (match p.Protocol.p_deadline_s with
      | Some d -> check_close "deadline" 0.5 d
      | None -> Alcotest.fail "expected a deadline")
  | _ -> Alcotest.fail "run decode");
  (match decode_ok {|{"op":"query","id":7,"endpoint":"n62"}|} with
  | { id = Some (Json.Number 7.0); request = Protocol.Query { endpoint; _ } } ->
      Alcotest.(check string) "endpoint" "n62" endpoint
  | _ -> Alcotest.fail "query decode");
  (match decode_ok {|{"op":"check","only":["check-health"],"path_limit":3}|} with
  | { id = None; request = Protocol.Check { only; path_limit } } ->
      check_true "only" (only = [ "check-health" ]);
      check_true "limit" (path_limit = Some 3)
  | _ -> Alcotest.fail "check decode");
  (match decode_ok {|{"op":"criticality","top":5}|} with
  | { request = Protocol.Criticality { top = Some 5 }; _ } -> ()
  | _ -> Alcotest.fail "criticality decode");
  (match decode_ok {|{"op":"health"}|} with
  | { request = Protocol.Health; _ } -> ()
  | _ -> Alcotest.fail "health decode");
  (match decode_ok {|{"op":"shutdown"}|} with
  | { request = Protocol.Shutdown; _ } -> ()
  | _ -> Alcotest.fail "shutdown decode")

let test_protocol_decode_errors () =
  decode_err ~kind:"structural" {|{"op":"nope"}|};
  decode_err ~kind:"structural" {|{"quality_intra":8}|};
  decode_err ~kind:"structural" {|{"op":"run","bogus":1}|};
  decode_err ~kind:"structural" {|{"op":"run","quality_intra":-3}|};
  decode_err ~kind:"structural" {|{"op":"run","quality_intra":1000000}|};
  decode_err ~kind:"structural" {|{"op":"run","deadline":0}|};
  decode_err ~kind:"structural" {|{"op":"run","deadline":-2}|};
  decode_err ~kind:"structural" {|{"op":"run","id":true}|};
  decode_err ~kind:"structural" {|{"op":"query"}|};
  decode_err ~kind:"structural" {|{"op":"criticality","top":0}|};
  decode_err ~kind:"structural" {|[1,2]|};
  decode_err ~kind:"parse" {|{"op":"run"|};
  decode_err ~kind:"parse" {|{"op":"run","id":"x","id":"y"}|};
  decode_err ~kind:"budget-exceeded"
    ({|{"op":"run","id":"big"|} ^ String.make 8192 ' ' ^ "}")

(* Every field of every op, tried absent, with the wrong JSON type,
   below/at/above each range bound, as a huge integer and as a
   non-integer where an integer is expected.  Each case decodes, or
   fails with a structural error naming the field — never anything
   else.  The kinds below are this test's own statement of the
   protocol; every field [Protocol.ops] lists must have one. *)
type field_kind =
  | Int of int * int
  | Float of float * float
  | Deadline
  | Bool
  | Enum of string list
  | Text  (* a non-empty string *)
  | Texts  (* a list of strings *)

let field_kinds =
  [ ("quality_intra", Int (4, 4096)); ("quality_inter", Int (4, 4096));
    ("confidence", Float (0.0, 10.0)); ("max_paths", Int (1, 10_000_000));
    ("deadline", Deadline); ("max_cells", Int (16, 100_000_000));
    ("retry", Bool); ("full", Bool); ("engine", Enum [ "path"; "block" ]);
    ("max_policy", Enum [ "clark" ]); ("endpoint", Text); ("only", Texts);
    ("path_limit", Int (0, 1_000_000)); ("top", Int (1, 1_000_000));
    ("edits", Text) ]

let required = function
  | "query" -> [ ("endpoint", {|"n1"|}) ]
  | "edit" | "what-if" -> [ ("edits", {|"resize n1 1.5"|}) ]
  | _ -> []

(* (value, decodes) pairs for one field; [None] is the absent field. *)
let field_cases kind =
  let num x = Printf.sprintf "%.17g" x in
  let huge = [ (Some "1e300", false); (Some "9007199254740993", false) ] in
  match kind with
  | Int (lo, hi) ->
      [ (Some {|"7"|}, false); (Some "true", false); (Some "[1]", false);
        (Some (string_of_int (lo - 1)), false); (Some (string_of_int lo), true);
        (Some (string_of_int hi), true); (Some (string_of_int (hi + 1)), false);
        (Some (num (float_of_int lo +. 0.5)), false) ]
      @ huge
  | Float (lo, hi) ->
      [ (Some {|"1"|}, false); (Some "null", false);
        (Some (num (lo -. 1e-9)), false); (Some (num lo), true);
        (Some (num hi), true); (Some (num (hi +. 1e-6)), false) ]
      @ huge
  | Deadline ->
      [ (Some "true", false); (Some "[1]", false); (Some "0", false);
        (Some "1e-9", true); (Some "86400", true); (Some "86400.5", false);
        (Some {|"500ms"|}, true); (Some {|"86401s"|}, false);
        (Some {|"abc"|}, false); (Some {|"-1s"|}, false); (Some {|""|}, false) ]
      @ huge
  | Bool -> [ (Some "1", false); (Some {|"true"|}, false); (Some "false", true) ]
  | Enum values ->
      (Some "1", false) :: (Some {|"nope"|}, false)
      :: List.map (fun v -> (Some (Printf.sprintf "%S" v), true)) values
  | Text -> [ (Some "5", false); (Some "null", false); (Some {|""|}, false) ]
  | Texts ->
      [ (Some {|"x"|}, false); (Some "[1]", false); (Some "[]", true);
        (Some {|["a","b"]|}, true) ]

let test_protocol_decode_boundaries () =
  let cases = ref 0 in
  List.iter
    (fun (op, fields) ->
      List.iter
        (fun field ->
          let kind =
            match List.assoc_opt field field_kinds with
            | Some k -> k
            | None -> Alcotest.failf "field %S of op %S has no kind" field op
          in
          let req = required op in
          List.iter
            (fun (value, decodes) ->
              let others = List.remove_assoc field req in
              let members =
                (("op", Printf.sprintf "%S" op) :: others)
                @ match value with Some v -> [ (field, v) ] | None -> []
              in
              let line =
                "{"
                ^ String.concat ","
                    (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) members)
                ^ "}"
              in
              incr cases;
              match decode line, decodes with
              | Ok _, true -> ()
              | Ok _, false -> Alcotest.failf "%s: decoded, expected an error" line
              | Error e, false ->
                  Alcotest.(check string) (line ^ ": kind") "structural"
                    (Err.kind_name e);
                  let quoted = Printf.sprintf "%S" field in
                  let msg = Err.to_string e in
                  let rec names i =
                    i + String.length quoted <= String.length msg
                    && (String.sub msg i (String.length quoted) = quoted
                       || names (i + 1))
                  in
                  check_true (Printf.sprintf "%s: the error names %s (%s)" line
                                quoted msg)
                    (names 0)
              | Error e, true ->
                  Alcotest.failf "%s: %s" line (Err.to_string e))
            ((None, not (List.mem_assoc field req)) :: field_cases kind))
        fields)
    Protocol.ops;
  check_true (Printf.sprintf "%d boundary cases" !cases) (!cases >= 200)

let test_protocol_render () =
  Alcotest.(check string) "render"
    {|{"id":"x","status":"ok","k":true}|}
    (Protocol.render ~id:(Json.String "x") ~status:Protocol.Ok_
       [ ("k", Json.Bool true) ]);
  Alcotest.(check string) "no id"
    {|{"status":"degraded"}|}
    (Protocol.render ~status:Protocol.Degraded []);
  let err = Protocol.render_error (Err.parse ~format:"json" "boom") in
  match Json.parse err with
  | Ok v ->
      check_true "status error"
        (Json.member "status" v |> Option.get |> Json.to_str = Some "error");
      check_true "kind"
        (Json.member "kind" v |> Option.get |> Json.to_str = Some "parse");
      check_true "code"
        (Json.member "code" v |> Option.get |> Json.to_int = Some 1)
  | Error e -> Alcotest.failf "error response unparsable: %s" (Err.to_string e)

(* ----- bounded request queue ----- *)

let test_supervisor () =
  let q = Supervisor.create ~max_queue:2 () in
  check_true "accept 1" (Supervisor.submit q 1 = Supervisor.Accepted);
  check_true "accept 2" (Supervisor.submit q 2 = Supervisor.Accepted);
  check_true "overflow" (Supervisor.submit q 3 = Supervisor.Overloaded);
  check_true "fifo 1" (Supervisor.take q = Some 1);
  check_true "accept 4" (Supervisor.submit q 4 = Supervisor.Accepted);
  Supervisor.begin_shutdown q;
  check_true "rejected after shutdown"
    (Supervisor.submit q 5 = Supervisor.Shutting_down);
  check_true "not yet drained" (not (Supervisor.drained q));
  check_true "fifo 2" (Supervisor.take q = Some 2);
  check_true "fifo 4" (Supervisor.take q = Some 4);
  check_true "empty" (Supervisor.take q = None);
  check_true "drained" (Supervisor.drained q);
  let s = Supervisor.stats q in
  check_int "accepted" 3 s.Supervisor.accepted;
  check_int "overloaded" 1 s.Supervisor.overloaded;
  check_int "rejected" 1 s.Supervisor.rejected_shutdown

(* Poll [flag] for up to [s] seconds. *)
let await ?(s = 2.0) flag =
  let deadline = Unix.gettimeofday () +. s in
  while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  Atomic.get flag

let test_supervisor_take_wakes () =
  let q = Supervisor.create ~max_queue:4 () in
  let blocked_take () =
    let got = ref None and returned = Atomic.make false in
    let th =
      Thread.create
        (fun () ->
          got := Supervisor.take q;
          Atomic.set returned true)
        ()
    in
    Thread.delay 0.05;
    check_true "take blocks on an empty queue" (not (Atomic.get returned));
    (th, got, returned)
  in
  let th, got, returned = blocked_take () in
  check_true "submit accepted" (Supervisor.submit q 7 = Supervisor.Accepted);
  check_true "submit wakes the taker" (await returned);
  Thread.join th;
  check_true "the taker got the item" (!got = Some 7);
  let _th, got, returned = blocked_take () in
  Supervisor.begin_shutdown q;
  check_true "begin_shutdown wakes the taker" (await returned);
  check_true "a drained queue answers None" (!got = None)

(* ----- the server itself ----- *)

let make_server () =
  let spec =
    match Iscas85.by_name "c432" with Some s -> s | None -> assert false
  in
  let circuit, placement = Iscas85.build_placed spec in
  let config =
    { (Config.with_quality Config.default ~intra:16 ~inter:8) with
      Config.max_paths = 8 }
  in
  let reload () = Ok (Iscas85.build_placed spec) in
  (Server.create ~config ~reload circuit placement, circuit)

let ask t line =
  match Protocol.decode ~max_bytes:1_048_576 line with
  | Ok env -> Server.dispatch t env
  | Error e -> Protocol.render_error e

let status_of resp =
  match Json.parse resp with
  | Ok v -> (
      match Json.member "status" v with
      | Some s -> Option.value ~default:"?" (Json.to_str s)
      | None -> "?")
  | Error e ->
      Alcotest.failf "response is not valid JSON (%s): %s" (Err.to_string e)
        resp

let test_server_basic_requests () =
  let t, circuit = make_server () in
  let run = {|{"op":"run","id":"r","max_paths":4,"full":false}|} in
  let a = ask t run and b = ask t run in
  Alcotest.(check string) "identical requests, identical bytes" a b;
  Alcotest.(check string) "run ok" "ok" (status_of a);
  let endpoint = Netlist.node_name circuit circuit.Netlist.outputs.(0) in
  let q =
    ask t (Printf.sprintf {|{"op":"query","id":"q","endpoint":"%s"}|} endpoint)
  in
  Alcotest.(check string) "query ok" "ok" (status_of q);
  (match Json.parse q with
  | Ok v ->
      check_true "query echoes endpoint"
        (Json.member "endpoint" v |> Option.get |> Json.to_str = Some endpoint);
      check_true "mean present" (Json.member "mean_s" v <> None)
  | Error _ -> Alcotest.fail "query response unparsable");
  let bad = ask t {|{"op":"query","id":"qb","endpoint":"no_such_node"}|} in
  Alcotest.(check string) "unknown endpoint" "error" (status_of bad);
  let badck = ask t {|{"op":"check","id":"cb","only":["no-such-check"]}|} in
  Alcotest.(check string) "unknown check id" "error" (status_of badck);
  let crit = ask t {|{"op":"criticality","id":"c","top":3}|} in
  Alcotest.(check string) "criticality ok" "ok" (status_of crit);
  check_true "criticality single line" (not (String.contains crit '\n'));
  let rel = ask t {|{"op":"reload","id":"rl"}|} in
  Alcotest.(check string) "reload ok" "ok" (status_of rel);
  let h = ask t {|{"op":"health","id":"h"}|} in
  Alcotest.(check string) "health ok" "ok" (status_of h);
  match Json.parse h with
  | Ok v ->
      let counters = Json.member "counters" v |> Option.get in
      let c name = Json.member name counters |> Option.get |> Json.to_int in
      check_true "total counted" (c "requests-total" = Some 8);
      check_true "errors counted" (c "requests-error" = Some 2)
  | Error _ -> Alcotest.fail "health response unparsable"

let test_block_query_interior_node () =
  let t, circuit = make_server () in
  let interior =
    let outs = circuit.Netlist.outputs in
    let rec find id =
      if Netlist.is_input circuit id || Array.mem id outs then find (id + 1)
      else Netlist.node_name circuit id
    in
    find 0
  in
  Alcotest.(check string) "interior node refused with the same bytes"
    (Printf.sprintf
       {|{"id":"qi","status":"error","kind":"structural","code":1,"message":"structural error in endpoint: node \"%s\" is not a primary output (the block engine answers endpoint queries only)"}|}
       interior)
    (ask t
       (Printf.sprintf {|{"op":"query","id":"qi","endpoint":"%s","engine":"block"}|}
          interior));
  let out = Netlist.node_name circuit circuit.Netlist.outputs.(0) in
  Alcotest.(check string) "primary output answered" "ok"
    (status_of
       (ask t
          (Printf.sprintf {|{"op":"query","id":"qo","endpoint":"%s","engine":"block"}|}
             out)))

(* The block engine has one max policy.  ["grid"] is a bad request that
   names the one value accepted, and the server goes on serving; the
   request the block benchmark sends, with ["max_policy":"clark"],
   answers byte for byte as the same request without the field. *)
let test_block_max_policy_field () =
  let t, _ = make_server () in
  Alcotest.(check string) "grid refused, naming clark"
    {|{"status":"error","kind":"structural","code":1,"message":"structural error in request: field \"max_policy\" must be one of \"clark\""}|}
    (ask t {|{"op":"run","id":"g","engine":"block","max_policy":"grid"}|});
  let clark =
    ask t {|{"op":"run","id":"b","engine":"block","max_policy":"clark"}|}
  in
  Alcotest.(check string) "clark run ok after the refusal" "ok"
    (status_of clark);
  Alcotest.(check string) "max_policy clark = no max_policy field" clark
    (ask t {|{"op":"run","id":"b","engine":"block"}|})

let test_server_health_reports_pool_parking () =
  (* An idle server's worker domains sit parked on the pool's condition
     variable; the health answer exposes the park ledger. *)
  let spec =
    match Iscas85.by_name "c432" with Some s -> s | None -> assert false
  in
  let circuit, placement = Iscas85.build_placed spec in
  let config =
    { (Config.with_quality Config.default ~intra:16 ~inter:8) with
      Config.max_paths = 8 }
  in
  let pool_member h name =
    match Json.parse h with
    | Error _ -> Alcotest.fail "health response unparsable"
    | Ok v ->
        let pool = Json.member "pool" v |> Option.get in
        Json.member name pool |> Option.get |> Json.to_int |> Option.get
  in
  Ssta_parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let t =
        Server.create ~config ~pool
          ~reload:(fun () -> Ok (Iscas85.build_placed spec))
          circuit placement
      in
      ignore (ask t {|{"op":"run","id":"r","max_paths":4,"full":false}|});
      (* The worker parks on creation and re-parks whenever a work
         region actually woke it (a tiny region can finish on the caller
         alone, which by design leaves the original session open) — so
         between requests the worker is always parked. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let parked () =
        let h = ask t {|{"op":"health","id":"h"}|} in
        pool_member h "idle_workers" = 1 && pool_member h "park_count" >= 1
      in
      while (not (parked ())) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let h = ask t {|{"op":"health","id":"h"}|} in
      check_int "jobs" 2 (pool_member h "jobs");
      check_int "idle server has its worker parked" 1
        (pool_member h "idle_workers");
      check_true "park ledger visible" (pool_member h "park_count" >= 1));
  (* without a pool the field stays null *)
  let t, _ = make_server () in
  let h = ask t {|{"op":"health","id":"h"}|} in
  match Json.parse h with
  | Error _ -> Alcotest.fail "health response unparsable"
  | Ok v ->
      check_true "pool null without a pool"
        (Json.member "pool" v = Some Json.Null)

let test_server_deadline_degrades_then_recovers () =
  let t, _ = make_server () in
  let slow =
    ask t
      {|{"op":"run","id":"dl","deadline":1e-6,"quality_intra":64,"quality_inter":32,"max_paths":200,"full":false}|}
  in
  Alcotest.(check string) "deadline degrades" "degraded" (status_of slow);
  (* The server survives the breach: the next request is untouched. *)
  let ok = ask t {|{"op":"run","id":"after","max_paths":4,"full":false}|} in
  Alcotest.(check string) "server alive" "ok" (status_of ok)

(* ----- the serve loop over real channels ----- *)

let with_serve_session ?max_request_bytes lines f =
  let req_path = Filename.temp_file "ssta_serve" ".req" in
  let resp_path = Filename.temp_file "ssta_serve" ".resp" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req_path;
      Sys.remove resp_path)
    (fun () ->
      let oc = open_out req_path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let t, circuit = make_server () in
      let ic = open_in req_path in
      let out = open_out resp_path in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            close_out out)
          (fun () -> Server.serve ?max_request_bytes t ic out)
      in
      let ic = open_in resp_path in
      let rec read acc =
        match input_line ic with
        | l -> read (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let responses = read [] in
      close_in ic;
      f ~outcome ~responses ~circuit t)

let test_serve_loop () =
  let lines =
    [ {|{"op":"health","id":"h1"}|};
      {|{"op":"run","id":"r1","max_paths":4,"full":false}|};
      "this is not json";
      "";
      {|{"op":"run","id":"r2","max_paths":4,"full":false}|};
      {|{"op":"shutdown","id":"bye"}|};
      {|{"op":"run","id":"late","max_paths":4}|} ]
  in
  with_serve_session lines
    (fun ~outcome ~responses ~circuit:_ _t ->
      check_true "shutdown outcome" (outcome = `Shutdown);
      (* The first health answer already counts its own queue wait. *)
      let h1 =
        List.find
          (fun r ->
            match Json.parse r with
            | Ok v -> Json.member "id" v = Some (Json.String "h1")
            | Error _ -> false)
          responses
      in
      (match Json.parse h1 with
      | Ok v ->
          let counters = Json.member "counters" v |> Option.get in
          let c name = Json.member name counters |> Option.get |> Json.to_int in
          check_true "queue wait counted" (c "queue-waits" = Some 1);
          check_true "queue wait summed"
            (match c "queue-wait-us" with Some us -> us >= 0 | None -> false)
      | Error _ -> Alcotest.fail "health response unparsable");
      (* 6 non-blank lines, each answered exactly once. *)
      check_int "one response per request" 6 (List.length responses);
      List.iter
        (fun r -> check_true "parses" (Result.is_ok (Json.parse r)))
        responses;
      let statuses = List.map status_of responses in
      check_int "malformed line answered" 1
        (List.length (List.filter (( = ) "error") statuses));
      (* The line after "shutdown" is answered exactly once, either in
         the drain (the reader enqueued it before the dispatcher began
         shutting down — the usual case with a pre-written file) or as
         a "shutting-down" refusal; deterministic rejection is covered
         by the Supervisor unit test. *)
      check_true "late request answered"
        (List.for_all
           (fun s ->
             List.mem s [ "ok"; "degraded"; "error"; "shutting-down" ])
           statuses))

let test_serve_cancel_while_idle () =
  (* No input pending and none closed: the reader blocks on the pipe
     and the dispatcher on the empty queue; tripping the latch must
     still end the loop. *)
  let spec = Option.get (Iscas85.by_name "c432") in
  let circuit, placement = Iscas85.build_placed spec in
  let cancel = Ssta_runtime.Cancel.create () in
  let t =
    Server.create ~cancel
      ~reload:(fun () -> Ok (Iscas85.build_placed spec))
      circuit placement
  in
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r in
  let resp_path = Filename.temp_file "ssta_serve" ".resp" in
  let out = open_out resp_path in
  let tripper =
    Thread.create
      (fun () ->
        Thread.delay 0.1;
        Ssta_runtime.Cancel.cancel ~reason:"test" cancel)
      ()
  in
  let outcome = ref None and returned = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        outcome := Some (Server.serve t ic out);
        Atomic.set returned true)
      ()
  in
  let in_time = await ~s:1.1 returned in
  Thread.join tripper;
  (* End the reader's input, which also ends a loop that missed the
     trip. *)
  Unix.close w;
  Thread.join server;
  close_out out;
  Sys.remove resp_path;
  check_true "serve returned within 1 s of the trip" in_time;
  check_true "cancelled outcome" (!outcome = Some `Cancelled)

(* A rejected line still echoes its id when the line is a JSON object
   with a well-formed one; a bad id, bad JSON or an oversized line (never
   parsed) gets an error without one. *)
let test_error_replies_echo_id () =
  let oversized =
    Printf.sprintf {|{"id":"big","op":"run","pad":"%s"}|} (String.make 300 'x')
  in
  let lines =
    [ {|{"id":"u","op":"run","bogus":1}|};
      {|{"id":2,"op":"run","max_paths":-5}|};
      {|{"id":9,"op":"run","max_paths":1.5}|};
      {|{"id":"m"}|};
      {|{"id":[1],"op":"run"}|};
      {|{"id":"j","op":|};
      oversized;
      {|{"op":"shutdown"}|} ]
  in
  with_serve_session ~max_request_bytes:200 lines
    (fun ~outcome:_ ~responses ~circuit:_ _t ->
      let errors =
        List.filter_map
          (fun r ->
            let v = Result.get_ok (Json.parse r) in
            if Json.member "status" v = Some (Json.String "error") then
              Some (Option.map Json.to_string (Json.member "id" v))
            else None)
          responses
      in
      Alcotest.(check (list (option string)))
        "echoed ids"
        [ Some {|"u"|}; Some "2"; Some "9"; Some {|"m"|}; None; None; None ]
        errors);
  check_true "request_id reads a well-formed id"
    (Protocol.request_id {|{"op":"nope","id":"x"}|} = Some (Json.String "x"));
  check_true "request_id ignores non-objects"
    (Protocol.request_id {|["id"]|} = None)

(* ----- chaos acceptance ----- *)

(* >= 100 interleaved requests — valid, malformed, and over-budget —
   fed to one server in two arrival orders.  Every request must be
   answered with typed JSON (zero crashes), and every response whose
   content is deterministic (everything except health, whose answer is
   lifetime-dependent by design, and tiny-deadline runs, which truncate
   at a wall-clock boundary) must be byte-identical across the two
   orders. *)

(* ----- the served image's gate table ----- *)

module Gate_table = Ssta_correlation.Gate_table
module Impact = Ssta_check.Impact

(* A warm repeat run or query builds no gate table, in either engine;
   an edit builds none once the incremental image exists, and derives
   exactly the entries of the cells it moved. *)
let test_gate_table_lifetime () =
  let t, circuit = make_server () in
  let out = Netlist.node_name circuit circuit.Netlist.outputs.(0) in
  let run = {|{"op":"run","id":"r","max_paths":4}|} in
  let query = Printf.sprintf {|{"op":"query","id":"q","endpoint":"%s"}|} out in
  let block = {|{"op":"run","id":"b","engine":"block"}|} in
  let warm_repeats label =
    let builds = Gate_table.builds () in
    List.iter
      (fun line ->
        Alcotest.(check string) (label ^ ": ok") "ok" (status_of (ask t line)))
      [ run; query; block; run; query ];
    check_int (label ^ ": warm repeats build no table") builds
      (Gate_table.builds ())
  in
  ignore (ask t run);
  warm_repeats "fresh image";
  let gate =
    Netlist.node_name circuit
      (circuit.Netlist.gates.(Array.length circuit.Netlist.gates / 2)).Netlist.id
  in
  let edit script =
    ask t (Printf.sprintf {|{"op":"edit","id":"e","edits":"%s"}|} script)
  in
  Alcotest.(check string) "first edit" "ok" (status_of (edit ("resize " ^ gate ^ " 1.3")));
  warm_repeats "edited image";
  List.iter
    (fun (script, moves) ->
      let builds = Gate_table.builds () and derived = Gate_table.derivations () in
      Alcotest.(check string) script "ok" (status_of (edit script));
      check_int (script ^ ": no table built") builds (Gate_table.builds ());
      check_int (script ^ ": entries derived = moved cells") moves
        (Gate_table.derivations () - derived);
      warm_repeats script)
    [ ("resize " ^ gate ^ " 0.8", 0); ("move " ^ gate ^ " 1 1", 1);
      ("set confidence 0.1", 0) ]

(* A long-lived served c7552 session that interleaves edits (resize,
   retype, move), what-ifs, queries and runs answers every query, run
   and what-if exactly as a fresh server started on the edited netlist
   and placement does.  The fresh server reaches the same drive-aware
   image through one edit that sets every resized gate's drive (a
   no-op resize when there is none); what-if answers are compared
   without their cache-traffic counts, which depend on history. *)
let test_served_session_matches_fresh_server () =
  let spec = Option.get (Iscas85.by_name "c7552") in
  let circuit, placement = Iscas85.build_placed spec in
  let config =
    { (Config.with_quality Config.default ~intra:16 ~inter:8) with
      Config.max_paths = 8 }
  in
  let serve circuit placement =
    Server.create ~config
      ~reload:(fun () -> Ok (circuit, placement))
      circuit placement
  in
  let long_lived = serve circuit placement in
  let design = ref (Impact.design ~placement ~config circuit) in
  let pick kind =
    List.find
      (fun (e : Ssta_circuit.Edit.edit) ->
        match e.Ssta_circuit.Edit.op, kind with
        | Ssta_circuit.Edit.Resize _, `Resize
        | Ssta_circuit.Edit.Retype _, `Retype
        | Ssta_circuit.Edit.Move _, `Move -> true
        | _ -> false)
      (Impact.random_edits ~rng:(Ssta_prob.Rng.create 11) ~count:40 !design)
  in
  let script e = Ssta_circuit.Edit.to_string [ e ] in
  let request op fields =
    Json.to_string
      (Json.Obj (("op", Json.String op) :: ("id", Json.String op) :: fields))
  in
  let edits_req op e = request op [ ("edits", Json.String (script e)) ] in
  let outs = circuit.Netlist.outputs in
  let query i =
    request "query"
      [ ("endpoint", Json.String (Netlist.node_name circuit outs.(i))) ]
  in
  let masked line =
    match Json.parse line with
    | Ok (Json.Obj fields) ->
        Json.to_string
          (Json.Obj
             (List.filter
                (fun (k, _) ->
                  not (List.mem k [ "invalidated"; "reused"; "reanalyzed" ]))
                fields))
    | _ -> line
  in
  let fresh_answer line =
    let d = !design in
    let fresh = serve d.Impact.circuit d.Impact.placement in
    let resizes =
      List.filter_map
        (fun (g : Netlist.gate) ->
          let id = g.Netlist.id in
          if d.Impact.drives.(id) <> 1.0 then
            Some
              (Printf.sprintf "resize %s %.17g"
                 (Netlist.node_name d.Impact.circuit id)
                 d.Impact.drives.(id))
          else None)
        (Array.to_list d.Impact.circuit.Netlist.gates)
    in
    let resizes =
      if resizes = [] then
        [ Printf.sprintf "resize %s 1"
            (Netlist.node_name d.Impact.circuit
               d.Impact.circuit.Netlist.gates.(0).Netlist.id) ]
      else resizes
    in
    Alcotest.(check string) "fresh server reaches the drives" "ok"
      (status_of
         (ask fresh
            (request "edit" [ ("edits", Json.String (String.concat "\n" resizes)) ])));
    ask fresh line
  in
  let commit e =
    Alcotest.(check string) ("edit " ^ script e) "ok"
      (status_of (ask long_lived (edits_req "edit" e)));
    (* The design the server holds: the edit as its script reads. *)
    design :=
      Impact.apply !design
        (match
           Result.bind
             (Ssta_circuit.Edit.parse_string_res (script e))
             (Impact.resolve !design)
         with
        | Ok changes -> changes
        | Error err -> Alcotest.failf "resolve: %s" (Err.to_string err))
  in
  let compare ?(mask = Fun.id) line =
    let a = ask long_lived line in
    Alcotest.(check string) (line ^ ": ok") "ok" (status_of a);
    Alcotest.(check string) (line ^ ": same as a fresh server") (mask a)
      (mask (fresh_answer line))
  in
  let run = request "run" [] in
  let block = request "run" [ ("engine", Json.String "block") ] in
  commit (pick `Resize);
  compare (query 0);
  compare ~mask:masked (edits_req "what-if" (pick `Move));
  compare run;
  commit (pick `Retype);
  compare (query 1);
  compare block;
  commit (pick `Move);
  compare block;
  compare (query 2);
  compare ~mask:masked (edits_req "what-if" (pick `Resize));
  commit (pick `Resize);
  compare run;
  compare (query 0)

(* ----- the path-analysis cache ----- *)

let path_cache_member t name =
  match Json.parse (ask t {|{"op":"health","id":"h"}|}) with
  | Ok v ->
      Json.member "path_cache" v |> Option.get |> Json.member name
      |> Option.get |> Json.to_int |> Option.get
  | Error _ -> Alcotest.fail "health response unparsable"

(* A served c880 session mixes runs at three confidences and two caps, a
   quality override, a budget-clamped run, queries, a what-if, an edit,
   a reload and the same runs again.  Every answer equals a fresh
   server's on that design state; after each run the cache holds one
   analysis per distinct reported path; repeated runs and queries
   hit. *)
let test_path_cache_session () =
  let spec = Option.get (Iscas85.by_name "c880") in
  let circuit, placement = Iscas85.build_placed spec in
  let config =
    { (Config.with_quality Config.default ~intra:24 ~inter:12) with
      Config.max_paths = 40 }
  in
  let serve () =
    Server.create ~config
      ~reload:(fun () -> Ok (circuit, placement))
      circuit placement
  in
  let long_lived = serve () in
  let committed = ref [] in
  let fresh_answer line =
    let fresh = serve () in
    List.iter
      (fun edit ->
        Alcotest.(check string) "fresh server replays the edit" "ok"
          (status_of (ask fresh edit)))
      (List.rev !committed);
    ask fresh line
  in
  let masked line =
    match Json.parse line with
    | Ok (Json.Obj fields) ->
        Json.to_string
          (Json.Obj
             (List.filter
                (fun (k, _) ->
                  not (List.mem k [ "invalidated"; "reused"; "reanalyzed" ]))
                fields))
    | _ -> line
  in
  let compare ?(mask = Fun.id) line =
    let a = ask long_lived line in
    Alcotest.(check string) (line ^ ": same as a fresh server") (mask a)
      (mask (fresh_answer line));
    a
  in
  (* Reconvergent fan-ins repeat node sequences in the enumeration; the
     cache holds one analysis per distinct path. *)
  let distinct_paths resp =
    let member k v = Option.get (Json.member k v) in
    match Json.parse resp with
    | Ok v -> (
        match member "paths" (member "report" v) with
        | Json.List ps ->
            List.length
              (List.sort_uniq String.compare
                 (List.map
                    (fun p -> Json.to_string (member "nodes" (member "analysis" p)))
                    ps))
        | _ -> Alcotest.fail "report has no path list")
    | Error _ -> Alcotest.fail "run response unparsable"
  in
  let run ?(extra = "") conf cap =
    Printf.sprintf {|{"op":"run","id":"r","confidence":%g,"max_paths":%d%s}|}
      conf cap extra
  in
  let full_run = {|{"op":"run","id":"full","max_paths":40}|} in
  let runs =
    List.concat_map
      (fun cap -> List.map (fun conf -> run conf cap) [ 0.05; 0.1; 0.02 ])
      [ 40; 8 ]
  in
  let check_runs label =
    List.iter
      (fun line ->
        let resp = compare line in
        check_int (label ^ ": entries = the run's distinct paths")
          (distinct_paths resp)
          (path_cache_member long_lived "entries"))
      runs;
    ignore (compare full_run)
  in
  let sta = Ssta_timing.Sta.analyze circuit in
  let critical_out =
    let p = sta.Ssta_timing.Sta.critical_path.Ssta_timing.Paths.nodes in
    p.(Array.length p - 1)
  in
  let queries =
    List.map
      (fun id ->
        Printf.sprintf {|{"op":"query","id":"q","endpoint":"%s"}|}
          (Netlist.node_name circuit id))
      [ critical_out; circuit.Netlist.outputs.(0); circuit.Netlist.outputs.(3) ]
  in
  let gate =
    Netlist.node_name circuit
      circuit.Netlist.gates.(Array.length circuit.Netlist.gates / 2).Netlist.id
  in
  check_runs "cold";
  let hits = path_cache_member long_lived "hits" in
  check_true "repeated confidences hit" (hits > 0);
  List.iter (fun q -> ignore (compare q)) queries;
  check_true "the critical endpoint's query hits"
    (path_cache_member long_lived "hits" > hits);
  ignore (compare (run ~extra:{|,"quality_intra":16|} 0.05 40));
  ignore (compare (run ~extra:{|,"max_cells":10|} 0.05 40));
  check_runs "after overrides";
  ignore
    (compare ~mask:masked
       (Printf.sprintf {|{"op":"what-if","id":"w","edits":"resize %s 1.4"}|}
          gate));
  check_runs "after a what-if";
  let edit =
    Printf.sprintf {|{"op":"edit","id":"e","edits":"resize %s 1.3"}|} gate
  in
  ignore (compare ~mask:masked edit);
  committed := [ edit ];
  check_int "an edit drops the cache" 0 (path_cache_member long_lived "entries");
  check_runs "edited";
  List.iter (fun q -> ignore (compare q)) queries;
  Alcotest.(check string) "reload" "ok"
    (status_of (ask long_lived {|{"op":"reload","id":"rl"}|}));
  committed := [];
  check_int "a reload drops the cache" 0
    (path_cache_member long_lived "entries");
  check_runs "reloaded";
  List.iter (fun q -> ignore (compare q)) queries

(* Cached reuse is bit for bit a fresh [Path_analysis.analyze] of the
   path in a fresh context, ledger included, under random analysis
   configurations on random circuits. *)
let qcheck_cached_reuse_is_fresh =
  let module Path_cache = Ssta_core.Path_cache in
  let module Path_analysis = Ssta_core.Path_analysis in
  let module Methodology = Ssta_core.Methodology in
  let module Ranking = Ssta_core.Ranking in
  let module Health = Ssta_runtime.Health in
  let module Sta = Ssta_timing.Sta in
  qcheck ~count:8 "cached reuse = fresh Path_analysis.analyze, bit for bit"
    QCheck.(
      quad (int_range 1 1_000_000) (int_range 12 40) (int_range 8 16) bool)
    (fun (seed, qi, qe, inter_cache) ->
      let circuit =
        Ssta_circuit.Generators.random_layered ~name:"pc" ~inputs:10
          ~outputs:6 ~gates:120 ~depth:10 ~seed ()
      in
      let placement = Ssta_circuit.Placement.place circuit in
      let config =
        { (Config.with_quality Config.default ~intra:qi ~inter:qe) with
          Config.inter_cache;
          max_paths = 60 }
      in
      let sta = Sta.analyze circuit in
      let gates =
        Ssta_correlation.Gate_table.build sta.Sta.graph placement
          (Config.layers_for config placement)
          ~corner_k:config.Config.corner_k
      in
      let warm = Path_analysis.warm config in
      let cache = Path_cache.create () in
      let run confidence =
        let config = Config.with_confidence config confidence in
        match
          Path_cache.with_run cache ~gates config (fun ~reuse ~record ->
              Methodology.analyze ~config ~placement ~sta ~warm ~gates ~reuse
                ~record circuit)
        with
        | Ok m -> m
        | Error e -> Alcotest.failf "run: %s" (Err.to_string e)
      in
      ignore (run 0.2);
      let m = run 0.1 in
      let bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      Array.for_all
        (fun (r : Ranking.ranked) ->
          let pa = r.Ranking.analysis in
          let p = pa.Path_analysis.path in
          match Path_cache.find cache ~gates config p with
          | None -> Alcotest.fail "a reported path is not cached"
          | Some (cached, ledger) ->
              let h = Health.create () in
              let fresh =
                Path_analysis.analyze ~health:h
                  (Path_analysis.context config sta.Sta.graph placement)
                  p
              in
              cached == pa
              && Health.events ledger = Health.events h
              && cached.Path_analysis.gate_count = fresh.Path_analysis.gate_count
              && cached.Path_analysis.coeffs = fresh.Path_analysis.coeffs
              && List.for_all2 bits
                   Path_analysis.
                     [ cached.det_delay; cached.mean; cached.std;
                       cached.intra_sigma; cached.inter_sigma;
                       cached.confidence_point; cached.worst_case ]
                   Path_analysis.
                     [ fresh.det_delay; fresh.mean; fresh.std;
                       fresh.intra_sigma; fresh.inter_sigma;
                       fresh.confidence_point; fresh.worst_case ]
              && pdf_bits_equal cached.Path_analysis.intra_pdf
                   fresh.Path_analysis.intra_pdf
              && pdf_bits_equal cached.Path_analysis.inter_pdf
                   fresh.Path_analysis.inter_pdf
              && pdf_bits_equal cached.Path_analysis.total_pdf
                   fresh.Path_analysis.total_pdf)
        m.Methodology.ranked
      && (Path_cache.stats cache).Path_cache.hits > 0)

let chaos_corpus circuit =
  let items = ref [] in
  let add ?(det = true) line = items := (line, det) :: !items in
  for i = 1 to 40 do
    add
      (Printf.sprintf
         {|{"op":"run","id":"run%d","quality_intra":%d,"quality_inter":8,"max_paths":%d,"full":false}|}
         i
         (8 + (4 * (i mod 3)))
         (1 + (i mod 5)))
  done;
  let outs = circuit.Netlist.outputs in
  for i = 1 to 20 do
    let name = Netlist.node_name circuit outs.(i mod Array.length outs) in
    add
      (Printf.sprintf {|{"op":"query","id":"q%d","endpoint":"%s"}|} i name)
  done;
  add {|{"op":"query","id":"qbad1","endpoint":"no_such_node"}|};
  add {|{"op":"query","id":"qbad2","endpoint":"also_missing"}|};
  for i = 1 to 12 do
    add (Printf.sprintf {|{"op":"criticality","id":"cr%d","top":%d}|} i
           (1 + (i mod 6)))
  done;
  for i = 1 to 4 do
    add
      (Printf.sprintf
         {|{"op":"check","id":"chk%d","path_limit":%d,"only":["check-health","check-pdfsan-mass"]}|}
         i (1 + i))
  done;
  (* Malformed protocol lines: answered with deterministic typed errors. *)
  List.iter (fun l -> add l)
    [ {|{"op":"nope"}|};
      {|{"quality_intra":8}|};
      {|{"op":"run","bogus":1}|};
      {|{"op":"run","quality_intra":-3}|};
      {|{"op":"run","deadline":0}|};
      {|{"op":"run","id":true}|};
      {|[1,2]|};
      {|{"op":"run"|};
      {|{"op":"run","id":"x","id":"y"}|};
      {|"\ud800"|};
      "\"a\x01b\"";
      "\"\xff\"";
      {|{"op":"query"}|};
      {|{"op":"criticality","top":0}|};
      "not json at all";
      "{}" ];
  (* Over-budget: wall-clock truncation point is timing-dependent, so
     only the status contract is asserted. *)
  for i = 1 to 5 do
    add ~det:false
      (Printf.sprintf
         {|{"op":"run","id":"dl%d","deadline":1e-6,"quality_intra":64,"max_paths":200,"full":false}|}
         i)
  done;
  add ~det:false {|{"op":"health","id":"h1"}|};
  add ~det:false {|{"op":"health","id":"h2"}|};
  add {|{"op":"reload","id":"rel1"}|};
  add {|{"op":"reload","id":"rel2"}|};
  (* Two byte-identical requests at different queue positions: the warm
     cache state differs (first builds, second reuses) but the answer
     must not. *)
  add {|{"op":"run","id":"dup","max_paths":3,"full":false}|};
  add {|{"op":"run","id":"dup","max_paths":3,"full":false}|};
  List.rev !items

let run_order server items =
  List.map
    (fun (line, det) ->
      let resp =
        try ask server line
        with e ->
          Alcotest.failf "request crashed the dispatcher: %s (%s)"
            (Printexc.to_string e) line
      in
      (line, det, resp))
    items

let test_chaos_acceptance () =
  let t_a, circuit = make_server () in
  let items = chaos_corpus circuit in
  check_true "corpus size" (List.length items >= 100);
  let order_a = run_order t_a items in
  let t_b, _ = make_server () in
  let order_b = List.rev (run_order t_b (List.rev items)) in
  (* Every request answered with typed JSON carrying a status. *)
  List.iter
    (fun (line, _, resp) ->
      match Json.parse resp with
      | Ok v ->
          check_true
            (Printf.sprintf "typed status (%s)" (String.escaped line))
            (Json.member "status" v <> None);
          check_true "single line" (not (String.contains resp '\n'))
      | Error e ->
          Alcotest.failf "untyped response for %s: %s" (String.escaped line)
            (Err.to_string e))
    order_a;
  (* Deterministic responses are byte-identical across arrival orders. *)
  List.iter2
    (fun (line, det, ra) (line_b, _, rb) ->
      check_true "corpus aligned" (line = line_b);
      if det then
        Alcotest.(check string)
          (Printf.sprintf "order-independent (%s)" (String.escaped line))
          ra rb
      else
        check_true
          (Printf.sprintf "status contract (%s)" (String.escaped line))
          (List.mem (status_of ra) [ "ok"; "degraded" ]
          && List.mem (status_of rb) [ "ok"; "degraded" ]))
    order_a order_b;
  (* The two byte-identical "dup" requests agree within one order. *)
  let dups order =
    List.filter_map
      (fun (line, _, resp) ->
        if line = {|{"op":"run","id":"dup","max_paths":3,"full":false}|} then
          Some resp
        else None)
      order
  in
  (match dups order_a with
  | [ a; b ] -> Alcotest.(check string) "dup agree (order A)" a b
  | _ -> Alcotest.fail "expected two dup responses");
  match dups order_b with
  | [ a; b ] -> Alcotest.(check string) "dup agree (order B)" a b
  | _ -> Alcotest.fail "expected two dup responses"

let suite =
  ( "server",
    [ case "json printing is deterministic" test_json_print_deterministic;
      case "json accessors" test_json_accessors;
      case "json strictness" test_json_rejections;
      case "json surrogate pairs" test_json_surrogate_pair;
      case "protocol decodes every op" test_protocol_decode_ok;
      case "protocol rejects malformed requests" test_protocol_decode_errors;
      case "protocol rendering" test_protocol_render;
      case "protocol decode: every field at its boundaries"
        test_protocol_decode_boundaries;
      slow_case "warm requests build no gate table" test_gate_table_lifetime;
      slow_case "served edit session = fresh server on the edited design"
        test_served_session_matches_fresh_server;
      slow_case "path cache: served session = fresh server"
        test_path_cache_session;
      qcheck_cached_reuse_is_fresh;
      case "bounded request queue" test_supervisor;
      case "a blocked take wakes on submit and on shutdown"
        test_supervisor_take_wakes;
      slow_case "server answers the basic request set"
        test_server_basic_requests;
      slow_case "health exposes pool parking"
        test_server_health_reports_pool_parking;
      slow_case "deadline breach degrades, server survives"
        test_server_deadline_degrades_then_recovers;
      slow_case "serve loop drains and shuts down" test_serve_loop;
      slow_case "cancel ends an idle serve loop" test_serve_cancel_while_idle;
      case "block max_policy: grid refused, clark is the default"
        test_block_max_policy_field;
      slow_case "block query on an interior node is refused"
        test_block_query_interior_node;
      slow_case "error replies echo the request id" test_error_replies_echo_id;
      slow_case "chaos acceptance: two arrival orders"
        test_chaos_acceptance ] )
