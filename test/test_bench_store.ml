(* Vstamp_obs.Bench_store: run parsing, the metric flattening behind
   `vstamp bench diff/check`, config comparability, and the JSONL
   ledger. *)

module Obs = Vstamp_obs
module BS = Obs.Bench_store
open Obs.Jsonx

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let run_of_json j =
  match BS.of_json j with
  | Ok r -> r
  | Error m -> Alcotest.failf "of_json rejected a valid run: %s" m

(* a miniature but shape-complete /3 run *)
let mk_run ?(schema = "vstamp-bench-core/3") ?(join_ns = 100.0)
    ?(ratio = 4.0) ?(config = Obj [ ("quick", Bool false) ]) () =
  run_of_json
    (Obj
       [
         ("schema", String schema);
         ("seed", Int 7);
         ("git_rev", String "deadbeef");
         ("config", config);
         ( "op_latency_ns",
           Obj
             [
               ("ops/stamp/join d8", Float join_ns);
               ("ops/stamp/update d8", Float 10.0);
               ( "ablation/list/join:12",
                 Obj [ ("timed_out", Bool true); ("probe_ms", Float 317.0) ] );
             ] );
         ( "sizes",
           List
             [
               Obj
                 [
                   ("workload", String "uniform");
                   ("n", Int 100);
                   ("tracker", String "stamps");
                   ("mean_bits", Float 50.0);
                   ("p95_bits", Float 80.0);
                   ("peak_bits", Int 120);
                 ];
             ] );
         ( "reduction",
           List
             [
               Obj
                 [
                   ("trace", String "churn");
                   ("reduced_bits", Int 100);
                   ("raw_bits", Int 400);
                   ("ratio", Float ratio);
                 ];
             ] );
         ( "monitor_overhead",
           Obj
             [
               ( "uniform",
                 Obj
                   [
                     ("monitor_slowdown", Float 50.0);
                     ("sampled_slowdown", Float 2.0);
                   ] );
             ] );
       ])

(* --- parsing --- *)

let test_of_json () =
  check_bool "accepts /2" true
    (Result.is_ok
       (BS.of_json (Obj [ ("schema", String "vstamp-bench-core/2") ])));
  check_bool "accepts /3" true
    (Result.is_ok
       (BS.of_json (Obj [ ("schema", String "vstamp-bench-core/3") ])));
  check_bool "rejects foreign schema" true
    (Result.is_error (BS.of_json (Obj [ ("schema", String "other/1") ])));
  check_bool "rejects missing schema" true
    (Result.is_error (BS.of_json (Obj [ ("x", Int 1) ])));
  let r = mk_run () in
  check_string "schema accessor" "vstamp-bench-core/3" (BS.schema r);
  check_bool "git_rev accessor" true (BS.git_rev r = Some "deadbeef")

(* --- metric flattening --- *)

let test_metrics () =
  let ms = BS.metrics (mk_run ()) in
  let names = List.map (fun (n, _, _) -> n) ms in
  check_bool "sorted" true (names = List.sort compare names);
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) ms with
    | Some (_, v, _) -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  check_bool "latency" true (value "latency/ops/stamp/join d8" = 100.0);
  check_bool "size" true (value "size/uniform/n=100/stamps/p95_bits" = 80.0);
  check_bool "reduction bits" true (value "reduction/churn/reduced_bits" = 100.0);
  check_bool "reduction ratio" true (value "reduction/churn/ratio" = 4.0);
  check_bool "monitor" true (value "monitor/uniform/sampled_slowdown" = 2.0);
  check_bool "timed-out case omitted" true
    (not (List.mem "latency/ablation/list/join:12" names))

(* --- deltas, directions, and the gate --- *)

let test_compare_and_gate () =
  let baseline = mk_run () in
  (* join 2x slower (regression), ratio 2x better (improvement) *)
  let current = mk_run ~join_ns:200.0 ~ratio:8.0 () in
  match BS.compare_runs ~baseline current with
  | Error m -> Alcotest.failf "same-config compare refused: %s" m
  | Ok deltas ->
      let find name =
        match List.find_opt (fun d -> d.BS.metric = name) deltas with
        | Some d -> d
        | None -> Alcotest.failf "delta %s missing" name
      in
      let join = find "latency/ops/stamp/join d8" in
      check_bool "lower-better regression is positive" true
        (abs_float (join.BS.worse_pct -. 100.0) < 1e-9);
      let ratio = find "reduction/churn/ratio" in
      check_bool "higher-better improvement is negative" true
        (ratio.BS.worse_pct < 0.0);
      let regs = BS.regressions ~tolerance:50.0 deltas in
      check_int "one regression beyond 50%" 1 (List.length regs);
      check_string "it is the join" "latency/ops/stamp/join d8"
        (List.hd regs).BS.metric;
      check_int "no regressions at 150%" 0
        (List.length (BS.regressions ~tolerance:150.0 deltas));
      check_bool "ratio improvement found" true
        (List.exists
           (fun d -> d.BS.metric = "reduction/churn/ratio")
           (BS.improvements ~tolerance:10.0 deltas))

let test_config_compatibility () =
  let a = mk_run () in
  let b = mk_run ~config:(Obj [ ("quick", Bool true) ]) () in
  (match BS.config_compatibility ~baseline:a ~current:a with
  | `Same -> ()
  | _ -> Alcotest.fail "identical configs should be `Same");
  (match BS.config_compatibility ~baseline:a ~current:b with
  | `Mismatch _ -> ()
  | _ -> Alcotest.fail "different configs should be `Mismatch");
  check_bool "mismatch refused" true
    (Result.is_error (BS.compare_runs ~baseline:a b));
  check_bool "mismatch overridable" true
    (Result.is_ok (BS.compare_runs ~ignore_config:true ~baseline:a b));
  (* /2 runs predate the config block: comparable, compatibility unknown *)
  let legacy =
    run_of_json
      (Obj
         [
           ("schema", String "vstamp-bench-core/2");
           ("op_latency_ns", Obj [ ("ops/stamp/join d8", Float 90.0) ]);
         ])
  in
  (match BS.config_compatibility ~baseline:legacy ~current:a with
  | `Unknown -> ()
  | _ -> Alcotest.fail "legacy run should be `Unknown");
  match BS.compare_runs ~baseline:legacy a with
  | Ok [ d ] ->
      check_string "legacy compares on the intersection"
        "latency/ops/stamp/join d8" d.BS.metric
  | Ok ds -> Alcotest.failf "expected one delta, got %d" (List.length ds)
  | Error m -> Alcotest.failf "legacy compare refused: %s" m

(* a lane that vanishes must not pass the gate silently: the deltas
   cover only the intersection, so the dropped metric is listed apart *)
let test_missing_lane () =
  let baseline = mk_run () in
  let current =
    run_of_json
      (Obj
         [
           ("schema", String "vstamp-bench-core/3");
           ("seed", Int 7);
           ("config", Obj [ ("quick", Bool false) ]);
           ("op_latency_ns", Obj [ ("ops/stamp/join d8", Float 100.0) ]);
         ])
  in
  (match BS.config_compatibility ~baseline ~current with
  | `Same -> ()
  | _ -> Alcotest.fail "same config expected");
  let missing = BS.missing_metrics ~baseline current in
  check_bool "dropped latency lane listed" true
    (List.mem "latency/ops/stamp/update d8" missing);
  check_bool "dropped size lane listed" true
    (List.mem "size/uniform/n=100/stamps/p95_bits" missing);
  check_bool "kept lane not listed" false
    (List.mem "latency/ops/stamp/join d8" missing);
  check_bool "timed-out baseline lane not listed" false
    (List.mem "latency/ablation/list/join:12" missing);
  check_int "nothing missing against itself" 0
    (List.length (BS.missing_metrics ~baseline baseline))

let test_zero_baseline () =
  let d =
    match
      BS.compare_runs
        ~baseline:(mk_run ~join_ns:0.0 ())
        (mk_run ~join_ns:5.0 ())
    with
    | Ok ds -> List.find (fun d -> d.BS.metric = "latency/ops/stamp/join d8") ds
    | Error m -> Alcotest.failf "compare failed: %s" m
  in
  check_bool "zero baseline going up is +inf" true (d.BS.worse_pct = infinity)

(* --- the ledger --- *)

let test_ledger_roundtrip () =
  let file = Filename.temp_file "vstamp_bench" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Sys.remove file;
      let entry rev =
        Obj
          [
            ("schema", String "vstamp-bench-core/3");
            ("git_rev", String rev);
          ]
      in
      BS.append ~file (entry "aaa");
      BS.append ~file (entry "bbb");
      match BS.history ~file with
      | Error m -> Alcotest.failf "history failed: %s" m
      | Ok entries ->
          check_int "two entries" 2 (List.length entries);
          check_bool "oldest first" true
            (List.map
               (fun j -> Obs.Jsonx.member "git_rev" j)
               entries
            = [ Some (String "aaa"); Some (String "bbb") ]))

let test_ledger_errors () =
  check_bool "missing ledger is an error" true
    (Result.is_error (BS.history ~file:"/nonexistent/ledger.jsonl"));
  check_bool "missing run file is an error" true
    (Result.is_error (BS.load ~file:"/nonexistent/run.json"));
  let file = Filename.temp_file "vstamp_bench" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "{\"schema\":\"vstamp-bench-core/3\"}\n\nnot json\n";
      close_out oc;
      match BS.history ~file with
      | Ok _ -> Alcotest.fail "malformed line accepted"
      | Error m ->
          check_bool "error names line 3" true
            (String.length m > 0
            &&
            let re = file ^ ":3" in
            String.length m >= String.length re
            && String.sub m 0 (String.length re) = re))

let () =
  Alcotest.run "bench_store"
    [
      ( "parse",
        [
          Alcotest.test_case "of_json" `Quick test_of_json;
          Alcotest.test_case "metrics" `Quick test_metrics;
        ] );
      ( "compare",
        [
          Alcotest.test_case "deltas and gate" `Quick test_compare_and_gate;
          Alcotest.test_case "config compatibility" `Quick
            test_config_compatibility;
          Alcotest.test_case "zero baseline" `Quick test_zero_baseline;
          Alcotest.test_case "missing lane" `Quick test_missing_lane;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "roundtrip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "errors" `Quick test_ledger_errors;
        ] );
    ]
