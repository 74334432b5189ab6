(* vstamp — command-line front end for the version-stamp library.

   Subcommands:
     figures              regenerate the paper's figures
     relate / frontier    classify stamps given in the paper's notation
     update/fork/join/reduce   apply stamp operations
     simulate / gen-trace      run or generate workload traces
     compare              run one trace over several mechanisms
     metrics              run instrumented and expose the metric registry
     bench                diff/check benchmark runs, browse the ledger
     profile              attribute a run's time and allocation per op
     draw                 ASCII lineage diagram of a trace
     encode / decode      wire format round trips *)

open Cmdliner
open Vstamp_core
open Vstamp_sim

let stamp_conv =
  let parse s =
    match Vstamp_codec.Text.stamp_of_string s with
    | Ok stamp -> Ok stamp
    | Error e -> Error (`Msg (Format.asprintf "%a" Vstamp_codec.Text.pp_error e))
  in
  Arg.conv (parse, Stamp.pp)

(* --- figures --- *)

let figures () =
  let f1 = Scenario.Fig1.run () in
  Format.printf "Figure 1 (version vectors): %s@."
    (if Scenario.Fig1.matches_paper f1 then "reproduced" else "MISMATCH");
  List.iter
    (fun (name, v) ->
      Format.printf "  %s final: %a@." name Vstamp_vv.Version_vector.pp v)
    f1.Scenario.Fig1.final;
  let f4 = Scenario.Fig4.run () in
  Format.printf "Figures 2+4 (version stamps): %s@."
    (if Scenario.Fig4.matches_paper f4 then "reproduced" else "MISMATCH");
  List.iter
    (fun (name, s) -> Format.printf "  %-3s %a@." name Stamp.pp s)
    f4.Scenario.Fig4.named_steps;
  Format.printf "  rewrite chain: %s@."
    (String.concat " -> "
       (List.map Stamp.to_string f4.Scenario.Fig4.g_reduction_chain));
  let f3 = Scenario.Fig3.run () in
  Format.printf "Figure 3 (encoding fixed replicas): %s@."
    (if Scenario.Fig3.encodings_agree f3 then "orders agree" else "MISMATCH")

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures and check them")
    Term.(const figures $ const ())

(* --- relate --- *)

let relate a b =
  Format.printf "%a vs %a: %s@." Stamp.pp a Stamp.pp b
    (Relation.to_paper_string (Stamp.relation a b))

let relate_cmd =
  let a =
    Arg.(required & pos 0 (some stamp_conv) None & info [] ~docv:"STAMP1")
  in
  let b =
    Arg.(required & pos 1 (some stamp_conv) None & info [] ~docv:"STAMP2")
  in
  Cmd.v
    (Cmd.info "relate"
       ~doc:
         "Classify two coexisting stamps (equivalent / obsolete / \
          inconsistent), e.g. vstamp relate '[1|1]' '[e|0]'")
    Term.(const relate $ a $ b)

(* --- op --- *)

let op_update s = Format.printf "%a@." Stamp.pp (Stamp.update s)

let op_fork s =
  let l, r = Stamp.fork s in
  Format.printf "%a@.%a@." Stamp.pp l Stamp.pp r

let op_join reduce a b =
  Format.printf "%a@." Stamp.pp (Stamp.join ~reduce a b)

let op_reduce s = Format.printf "%a@." Stamp.pp (Stamp.reduce s)

let stamp_pos n docv =
  Arg.(required & pos n (some stamp_conv) None & info [] ~docv)

let update_cmd =
  Cmd.v
    (Cmd.info "update" ~doc:"Apply the update operation to STAMP")
    Term.(const op_update $ stamp_pos 0 "STAMP")

let fork_cmd =
  Cmd.v
    (Cmd.info "fork" ~doc:"Fork STAMP; prints the two resulting stamps")
    Term.(const op_fork $ stamp_pos 0 "STAMP")

let join_cmd =
  let no_reduce =
    Arg.(value & flag & info [ "no-reduce" ] ~doc:"Skip Section 6 reduction")
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Join two stamps")
    Term.(const (fun nr a b -> op_join (not nr) a b) $ no_reduce
          $ stamp_pos 0 "STAMP1" $ stamp_pos 1 "STAMP2")

let reduce_cmd =
  Cmd.v
    (Cmd.info "reduce" ~doc:"Rewrite STAMP to its Section 6 normal form")
    Term.(const op_reduce $ stamp_pos 0 "STAMP")

(* --- simulate --- *)

let tracker_names =
  [
    "stamps";
    "stamps-list";
    "stamps-noreduce";
    "vv";
    "dvv";
    "oracle";
    "plausible-<slots>";
  ]

let tracker_of_name = function
  | "stamps" -> Ok Tracker.stamps
  | "stamps-list" -> Ok Tracker.stamps_list
  | "stamps-noreduce" -> Ok Tracker.stamps_nonreducing
  | "vv" -> Ok Tracker.version_vectors
  | "dvv" -> Ok Tracker.dynamic_vv
  | "oracle" -> Ok Tracker.histories
  | s when String.length s > 10 && String.sub s 0 10 = "plausible-" -> (
      match int_of_string_opt (String.sub s 10 (String.length s - 10)) with
      | Some k when k > 0 -> Ok (Tracker.plausible k)
      | _ -> Error (`Msg "plausible-<slots> needs a positive slot count"))
  | s ->
      Error
        (`Msg
           (Printf.sprintf "unknown tracker %S (known: %s)" s
              (String.concat ", " tracker_names)))

let tracker_conv =
  Arg.conv
    ( tracker_of_name,
      fun ppf t -> Format.pp_print_string ppf (Tracker.name t) )

let workload_of_name ~seed ~n_ops = function
  | "uniform" -> Ok (Workload.uniform ~seed ~n_ops ())
  | "deep-fork" -> Ok (Workload.deep_fork ~depth:(max 1 (n_ops / 2)) ())
  | "sync-star" ->
      Ok (Workload.sync_star ~peers:8 ~rounds:(max 1 (n_ops / 32)) ())
  | "gossip" ->
      Ok (Workload.gossip ~seed ~replicas:8 ~rounds:(max 1 (n_ops / 10)) ())
  | "churn" -> Ok (Workload.churn ~seed ~target:8 ~n_ops ())
  | "partitioned" ->
      Ok
        (Workload.partitioned ~seed ~replicas:8 ~groups:2 ~phases:4
           ~syncs_per_phase:(max 1 (n_ops / 40)) ())
  | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))

let load_ops ~workload ~seed ~n_ops = function
  | Some file -> (
      match Trace.load ~file with
      | Ok ops -> Ok ops
      | Error e -> Error (`Msg (Format.asprintf "%s: %a" file Trace.pp_error e)))
  | None -> workload_of_name ~seed ~n_ops workload

let with_metrics_sink metrics_out f =
  match metrics_out with
  | None -> f None
  | Some file ->
      let sink = Vstamp_obs.Sink.to_file file in
      Fun.protect
        ~finally:(fun () ->
          Vstamp_obs.Sink.close sink;
          Format.printf "wrote %d events to %s@."
            (Vstamp_obs.Sink.emitted sink) file)
        (fun () -> f (Some sink))

(* --sample-every / --sample-prob thin the invariant monitor; the
   probability draws come from the simulation RNG seeded with the
   workload seed, so a sampled run is as reproducible as the plain
   one. *)
let sampling_of sample_every sample_prob =
  match (sample_every, sample_prob) with
  | None, None -> Ok Vstamp_obs.Monitor.Always
  | Some n, None ->
      if n > 0 then Ok (Vstamp_obs.Monitor.Every_n n)
      else Error (`Msg "--sample-every needs a positive period")
  | None, Some p ->
      if p >= 0.0 && p <= 1.0 then Ok (Vstamp_obs.Monitor.Probability p)
      else Error (`Msg "--sample-prob needs a probability in [0, 1]")
  | Some _, Some _ ->
      Error (`Msg "--sample-every and --sample-prob are mutually exclusive")

let simulate tracker workload seed n_ops no_oracle trace_file metrics_out
    check_invariants sample_every sample_prob violation_out =
  let ops_or_err = load_ops ~workload ~seed ~n_ops trace_file in
  match (ops_or_err, sampling_of sample_every sample_prob) with
  | Error (`Msg m), _ | _, Error (`Msg m) ->
      Format.eprintf "error: %s@." m;
      exit 1
  | Ok ops, Ok sampling ->
      with_metrics_sink metrics_out (fun sink ->
          try
            let registry = Vstamp_obs.Registry.create () in
            let r =
              System.run ~with_oracle:(not no_oracle) ~registry ?sink
                ~check_invariants ~sampling ~sample_seed:seed ?violation_out
                tracker ops
            in
            Format.printf "%a@." System.pp_result r;
            if check_invariants && sampling <> Vstamp_obs.Monitor.Always then begin
              let gauge name =
                match
                  Vstamp_obs.Registry.find registry
                    (Printf.sprintf "%s{monitor=%S}" name (Tracker.name tracker))
                with
                | Some (Vstamp_obs.Registry.Gauge g) -> Vstamp_obs.Metric.value g
                | _ -> nan
              in
              Format.printf
                "monitor sampling: %.1f%% of steps checked, %.1f%% of run \
                 time in checks@."
                (100.0 *. gauge "vstamp_monitor_coverage")
                (100.0 *. gauge "vstamp_monitor_time_fraction")
            end
          with System.Invariant_violation _ as e ->
            Format.eprintf "error: %s@." (Printexc.to_string e);
            exit 2)

let simulate_cmd =
  let tracker =
    Arg.(
      value
      & opt tracker_conv Tracker.stamps
      & info [ "t"; "tracker" ] ~docv:"TRACKER"
          ~doc:("Mechanism: " ^ String.concat ", " tracker_names))
  in
  let workload =
    Arg.(
      value & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "Workload: uniform, deep-fork, sync-star, gossip, churn, \
             partitioned")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"RNG seed")
  in
  let n_ops =
    Arg.(
      value & opt int 400
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Approximate operation count")
  in
  let no_oracle =
    Arg.(
      value & flag
      & info [ "no-oracle" ] ~doc:"Skip the causal-history accuracy check")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Replay a trace file instead of generating a workload")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL telemetry stream (sim.start / sim.step / \
             sim.result events, logical-step timestamps) to FILE")
  in
  let check_invariants =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:
            "Evaluate the mechanism's invariants (I1-I3 for stamps) after \
             every step; fail loudly with a minimal witness on violation")
  in
  let sample_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "With --check-invariants: check only one step in N (plus the \
             final frontier, always)")
  in
  let sample_prob =
    Arg.(
      value
      & opt (some float) None
      & info [ "sample-prob" ] ~docv:"P"
          ~doc:
            "With --check-invariants: check each step with probability P, \
             drawn from the deterministic simulation RNG")
  in
  let violation_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "violation-out" ] ~docv:"FILE"
          ~doc:
            "With --check-invariants: save the minimal failing op prefix to \
             FILE as a replayable trace")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a workload over a tracking mechanism and report size/accuracy")
    Term.(
      const simulate $ tracker $ workload $ seed $ n_ops
      $ no_oracle $ trace_file $ metrics_out $ check_invariants $ sample_every
      $ sample_prob $ violation_out)

(* --- compare --- *)

let compare_cmd =
  let default_trackers =
    [ Tracker.stamps; Tracker.stamps_list; Tracker.version_vectors; Tracker.dynamic_vv ]
  in
  let trackers =
    Arg.(
      value
      & opt (list tracker_conv) default_trackers
      & info [ "t"; "trackers" ] ~docv:"TRACKERS"
          ~doc:"Comma-separated mechanisms to compare")
  in
  let workload =
    Arg.(
      value & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload family")
  in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED") in
  let n_ops = Arg.(value & opt int 400 & info [ "n"; "ops" ] ~docv:"N") in
  let no_oracle =
    Arg.(
      value & flag
      & info [ "no-oracle" ] ~doc:"Skip the causal-history accuracy check")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Replay a trace file")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the JSONL telemetry of every run to FILE")
  in
  let compare trackers workload seed n_ops no_oracle trace_file metrics_out =
    match load_ops ~workload ~seed ~n_ops trace_file with
    | Error (`Msg m) ->
        Format.eprintf "error: %s@." m;
        exit 1
    | Ok ops ->
        with_metrics_sink metrics_out (fun sink ->
            let rs =
              System.run_all ~with_oracle:(not no_oracle) ?sink trackers ops
            in
            Stats.pp_table Format.std_formatter ~header:System.header
              (List.map System.to_row rs))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run one trace over several mechanisms and tabulate the results")
    Term.(
      const compare $ trackers $ workload $ seed $ n_ops $ no_oracle
      $ trace_file $ metrics_out)

(* --- metrics --- *)

let metrics tracker workload seed n_ops format =
  match workload_of_name ~seed ~n_ops workload with
  | Error (`Msg m) ->
      Format.eprintf "error: %s@." m;
      exit 1
  | Ok ops ->
      let registry = Vstamp_obs.Registry.create () in
      (* final stamp frontier computed before instrumentation starts, so
         the replay does not double the core op counters *)
      let final_stamps = Execution.Run_stamps.run ops in
      Vstamp_core.Instr.reset ();
      Telemetry.attach ~registry ();
      Fun.protect ~finally:Telemetry.detach (fun () ->
          let (_ : System.result) =
            System.run ~with_oracle:false ~registry
              (Tracker.with_metrics ~registry tracker)
              ops
          in
          (* exercise the wire codec on the final stamp frontier so the
             encoded/decoded byte counters mean something *)
          List.iter
            (fun s ->
              let bytes = Vstamp_codec.Wire.stamp_to_string s in
              ignore (Vstamp_codec.Wire.stamp_of_string bytes))
            final_stamps);
      Telemetry.sync_counters registry;
      (match format with
      | `Prom -> print_string (Vstamp_obs.Registry.to_prometheus registry)
      | `Json ->
          print_endline
            (Vstamp_obs.Jsonx.to_string (Vstamp_obs.Registry.to_json registry))
      | `Table -> Vstamp_obs.Registry.pp_table Format.std_formatter registry)

let metrics_cmd =
  let tracker =
    Arg.(
      value
      & opt tracker_conv Tracker.stamps
      & info [ "t"; "tracker" ] ~docv:"TRACKER" ~doc:"Mechanism to instrument")
  in
  let workload =
    Arg.(
      value & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload family")
  in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED") in
  let n_ops = Arg.(value & opt int 400 & info [ "n"; "ops" ] ~docv:"N") in
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("prom", `Prom); ("json", `Json) ]) `Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: table, prom (Prometheus text), or json")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a workload with full instrumentation (core op counters, \
          reduction stats, wire bytes, op latencies) and print the metric \
          registry")
    Term.(const metrics $ tracker $ workload $ seed $ n_ops $ format)

(* --- gen-trace --- *)

let gen_trace workload seed n_ops output =
  match workload_of_name ~seed ~n_ops workload with
  | Error (`Msg m) ->
      Format.eprintf "error: %s@." m;
      exit 1
  | Ok ops -> (
      match output with
      | Some file ->
          Trace.save ~file ops;
          let u, f, j = Trace.stats ops in
          Format.printf "wrote %d ops (u=%d f=%d j=%d) to %s@."
            (List.length ops) u f j file
      | None -> Format.printf "%s@." (Trace.to_string ops))

let gen_trace_cmd =
  let workload =
    Arg.(
      value & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload family")
  in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED") in
  let n_ops = Arg.(value & opt int 400 & info [ "n"; "ops" ] ~docv:"N") in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout")
  in
  Cmd.v
    (Cmd.info "gen-trace" ~doc:"Generate a workload trace for later replay")
    Term.(const gen_trace $ workload $ seed $ n_ops $ output)

(* --- frontier --- *)

let frontier stamps =
  let f = Frontier.of_list stamps in
  if not (Vstamp_core.Invariants.i2 stamps) then
    Format.printf
      "warning: these stamps do not form a valid frontier (I2 fails);@ answers below describe name order only@.";
  List.iteri
    (fun i s ->
      let status =
        if List.memq s (Frontier.obsolete f) then "obsolete"
        else if List.exists (fun (a, b) -> a == s || b == s) (Frontier.conflicts f)
        then "in conflict"
        else "dominant"
      in
      Format.printf "%d: %a  %s@." i Stamp.pp s status)
    stamps;
  Format.printf "conflict pairs: %d; all equivalent: %b@."
    (List.length (Frontier.conflicts f))
    (Frontier.all_equivalent f)

let frontier_cmd =
  let stamps =
    Arg.(non_empty & pos_all stamp_conv [] & info [] ~docv:"STAMP...")
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:"Classify a whole frontier of stamps: dominant / obsolete / conflicts")
    Term.(const frontier $ stamps)

(* --- draw --- *)

let draw trace_file with_stamps =
  match Trace.load ~file:trace_file with
  | Error e ->
      Format.eprintf "error: %s: %a@." trace_file Trace.pp_error e;
      exit 1
  | Ok ops ->
      Format.printf "%s@." (Viz.header ops);
      Format.printf "%s" (Viz.draw ~with_stamps ops)

let draw_cmd =
  let trace_file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE_FILE")
  in
  let with_stamps =
    Arg.(
      value & flag
      & info [ "stamps" ] ~doc:"Label surviving lineages with their stamps")
  in
  Cmd.v
    (Cmd.info "draw" ~doc:"Render a trace file as an ASCII lineage diagram")
    Term.(const draw $ trace_file $ with_stamps)

(* --- encode / decode --- *)

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let of_hex s =
  if String.length s mod 2 <> 0 then Error (`Msg "odd-length hex string")
  else
    try
      Ok
        (String.init (String.length s / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error (`Msg "invalid hex string")

let encode s =
  let bytes = Vstamp_codec.Wire.stamp_to_string s in
  Format.printf "%s (%d bits)@." (to_hex bytes) (Vstamp_codec.Wire.stamp_bits s)

let encode_cmd =
  Cmd.v
    (Cmd.info "encode" ~doc:"Wire-encode STAMP as hex")
    Term.(const encode $ stamp_pos 0 "STAMP")

let decode hex =
  match of_hex hex with
  | Error (`Msg m) ->
      Format.eprintf "error: %s@." m;
      exit 1
  | Ok bytes -> (
      match Vstamp_codec.Wire.stamp_of_string bytes with
      | Ok s -> Format.printf "%a@." Stamp.pp s
      | Error e ->
          Format.eprintf "error: %a@." Vstamp_codec.Wire.pp_error e;
          exit 1)

let decode_cmd =
  let hex = Arg.(required & pos 0 (some string) None & info [] ~docv:"HEX") in
  Cmd.v
    (Cmd.info "decode" ~doc:"Decode a hex wire encoding into a stamp")
    Term.(const decode $ hex)

(* --- trace: causal-trace forensics --- *)

module CT = Vstamp_obs.Causal_trace

let die fmt = Format.kasprintf (fun m -> Format.eprintf "error: %s@." m; exit 1) fmt

let read_file file =
  try
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error m -> Error (`Msg m)

(* Data goes to [output] verbatim (byte-identity matters for replay), or
   to stdout when no file is given; progress chatter only ever goes to
   stdout when the data went to a file. *)
let write_data output data =
  match output with
  | None -> print_string data
  | Some file ->
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc data)

let load_causal file =
  match read_file file with
  | Error (`Msg m) -> Error (`Msg (Printf.sprintf "%s: %s" file m))
  | Ok s -> (
      match CT.of_jsonl s with
      | Ok tr -> Ok tr
      | Error m -> Error (`Msg (Printf.sprintf "%s: %s" file m)))

let trace_record tracker workload seed n_ops trace_file check_invariants
    violation_out ops_out output =
  match load_ops ~workload ~seed ~n_ops trace_file with
  | Error (`Msg m) -> die "%s" m
  | Ok ops -> (
      try
        let tr, (_ : System.result) =
          Forensics.record ~check_invariants ?violation_out tracker ops
        in
        (match ops_out with
        | Some file -> Trace.save ~file ops
        | None -> ());
        write_data output (CT.to_jsonl tr);
        match output with
        | Some file ->
            Format.printf "recorded %d ops as %d nodes to %s@."
              (List.length ops) (CT.length tr) file
        | None -> ()
      with System.Invariant_violation _ as e ->
        Format.eprintf "error: %s@." (Printexc.to_string e);
        exit 2)

let trace_record_cmd =
  let tracker =
    Arg.(
      value
      & opt tracker_conv Tracker.stamps
      & info [ "t"; "tracker" ] ~docv:"TRACKER" ~doc:"Mechanism to record")
  in
  let workload =
    Arg.(
      value & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload family")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"RNG seed")
  in
  let n_ops =
    Arg.(
      value & opt int 400
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Approximate operation count")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record a trace file instead of generating a workload")
  in
  let check_invariants =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:"Monitor the mechanism's invariants while recording")
  in
  let violation_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "violation-out" ] ~docv:"FILE"
          ~doc:"Save the minimal failing op prefix to FILE on violation")
  in
  let ops_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "ops-out" ] ~docv:"FILE"
          ~doc:"Also save the op sequence as a replayable trace file")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the causal-trace JSONL to FILE instead of stdout")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a workload and record its causal event DAG (one JSONL node \
          event per replica state, deterministic logical-step timestamps)")
    Term.(
      const trace_record $ tracker $ workload $ seed $ n_ops $ trace_file
      $ check_invariants $ violation_out $ ops_out $ output)

let trace_replay tracker file output =
  match load_causal file with
  | Error (`Msg m) -> die "%s" m
  | Ok tr -> (
      match Forensics.replay ~check_invariants:true tracker tr with
      | Error m -> die "%s: %s" file m
      | Ok r ->
          (match output with
          | Some _ ->
              write_data output (CT.to_jsonl r.Forensics.replayed)
          | None -> ());
          let u, f, j = Trace.stats r.Forensics.ops in
          if r.Forensics.identical then
            Format.printf
              "replay OK: %d ops (u=%d f=%d j=%d) over %s, %d nodes, \
               byte-identical event stream@."
              (List.length r.Forensics.ops)
              u f j (Tracker.name tracker)
              (CT.length r.Forensics.replayed)
          else begin
            Format.printf
              "replay MISMATCH: reconstructed %d ops (u=%d f=%d j=%d) over \
               %s but the re-recorded stream differs@."
              (List.length r.Forensics.ops)
              u f j (Tracker.name tracker);
            exit 1
          end)

let trace_replay_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE_JSONL")
  in
  let tracker =
    Arg.(
      value
      & opt tracker_conv Tracker.stamps
      & info [ "t"; "tracker" ] ~docv:"TRACKER"
          ~doc:"Mechanism to replay over (must match the recording)")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the re-recorded JSONL to FILE")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Reconstruct the op sequence from a recorded causal trace, re-run \
          it with invariant monitors on, and verify the event stream is \
          byte-identical (exit 1 if not)")
    Term.(const trace_replay $ tracker $ file $ output)

let trace_explain file sel_a sel_b =
  match load_causal file with
  | Error (`Msg m) -> die "%s" m
  | Ok tr -> (
      match Forensics.explain tr sel_a sel_b with
      | Error m -> die "%s" m
      | Ok e -> (
          Format.printf "%a@." Forensics.pp_explanation e;
          (* When both labels parse as stamps, confirm Proposition 5.1:
             the stamp order must coincide with the causal-history
             relation the DAG walk just derived. *)
          match
            ( Vstamp_codec.Text.stamp_of_string e.Forensics.a.CT.label,
              Vstamp_codec.Text.stamp_of_string e.Forensics.b.CT.label )
          with
          | Ok sa, Ok sb ->
              let stamp_rel = Stamp.relation sa sb in
              Format.printf "stamp order: A is %s relative to B (%s)@."
                (Relation.to_paper_string stamp_rel)
                (if Relation.equal stamp_rel e.Forensics.relation then
                   "agrees with the causal history, as Prop. 5.1 promises"
                 else "DISAGREES with the causal history")
          | _ -> ()))

let trace_explain_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE_JSONL")
  in
  let sel_a =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"A")
  in
  let sel_b =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"B")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain how two recorded states relate: the update events one has \
          and the other lacks, where their lineages diverged, and the joins \
          that folded knowledge.  Select states by node id (#7) or by stamp \
          label ('[1|01+1]')")
    Term.(const trace_explain $ file $ sel_a $ sel_b)

let trace_export file format output =
  match load_causal file with
  | Error (`Msg m) -> die "%s" m
  | Ok tr ->
      let data =
        match format with
        | `Dot -> CT.to_dot tr
        | `Chrome -> Vstamp_obs.Jsonx.to_string (CT.to_chrome tr) ^ "\n"
        | `Jsonl -> CT.to_jsonl tr
      in
      write_data output data;
      (match output with
      | Some f -> Format.printf "wrote %d nodes to %s@." (CT.length tr) f
      | None -> ())

let trace_export_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE_JSONL")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("dot", `Dot); ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Dot
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: dot (Graphviz), chrome (trace-event JSON, loads \
             in Perfetto / chrome://tracing), or jsonl (canonical form)")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Convert a recorded causal trace to DOT, Chrome trace JSON or JSONL")
    Term.(const trace_export $ file $ format $ output)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Causal-trace forensics: record a run's event DAG, replay it \
          byte-identically, explain the relation between two states, export \
          for Graphviz or Perfetto")
    [ trace_record_cmd; trace_replay_cmd; trace_explain_cmd; trace_export_cmd ]

(* --- bench: benchmark ledger and regression gate --- *)

module BS = Vstamp_obs.Bench_store

let load_run file =
  match BS.load ~file with Error m -> die "%s" m | Ok run -> run

let pp_run_id ppf run =
  match BS.git_rev run with
  | Some rev ->
      Format.fprintf ppf "%s (%s)"
        (String.sub rev 0 (min 12 (String.length rev)))
        (BS.schema run)
  | None -> Format.pp_print_string ppf (BS.schema run)

let bench_diff ignore_config limit old_file new_file =
  let baseline = load_run old_file and current = load_run new_file in
  match BS.compare_runs ~ignore_config ~baseline current with
  | Error m -> die "%s" m
  | Ok deltas ->
      Format.printf "baseline: %s %a@.current:  %s %a@.@." old_file pp_run_id
        baseline new_file pp_run_id current;
      BS.pp_delta_table ~limit Format.std_formatter deltas;
      let n = List.length deltas in
      let worse = List.length (BS.regressions ~tolerance:0.0 deltas) in
      let better = List.length (BS.improvements ~tolerance:0.0 deltas) in
      Format.printf "@.%d comparable metrics: %d worse, %d better, %d equal@."
        n worse better (n - worse - better);
      let missing = BS.missing_metrics ~baseline current in
      if missing <> [] then begin
        Format.printf "@.%d baseline metrics missing from the current run:@."
          (List.length missing);
        List.iter (Format.printf "  %s@.") missing
      end

let bench_diff_cmd =
  let old_file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD_JSON")
  in
  let new_file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW_JSON")
  in
  let ignore_config =
    Arg.(
      value & flag
      & info [ "ignore-config" ]
          ~doc:
            "Compare runs even when their config blocks (iteration budgets, \
             workload scales) differ")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N" ~doc:"Table rows to show (worst first)")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two benchmark runs metric by metric (op latencies, sizes, \
          reduction efficacy, monitor overheads), worst regression first")
    Term.(const bench_diff $ ignore_config $ limit $ old_file $ new_file)

let bench_check baseline_file current_file tolerance ignore_config limit =
  let baseline = load_run baseline_file and current = load_run current_file in
  match BS.compare_runs ~ignore_config ~baseline current with
  | Error m -> die "%s" m
  | Ok deltas -> (
      let regs = BS.regressions ~tolerance deltas in
      let imps = BS.improvements ~tolerance deltas in
      (* under one config every baseline lane must still be measured; a
         lane that vanished would otherwise pass unseen *)
      let missing =
        match BS.config_compatibility ~baseline ~current with
        | `Same -> BS.missing_metrics ~baseline current
        | `Unknown | `Mismatch _ -> []
      in
      Format.printf
        "checked %d metrics of %s %a against baseline %s %a (tolerance \
         %.1f%%)@."
        (List.length deltas) current_file pp_run_id current baseline_file
        pp_run_id baseline tolerance;
      if missing <> [] then begin
        Format.printf "@.MISSING (baseline metrics the current run lacks):@.@.";
        List.iter (Format.printf "  %s@.") missing
      end;
      match regs with
      | [] when missing = [] ->
          Format.printf "OK: no regressions beyond %.1f%%; %d improvements@."
            tolerance (List.length imps)
      | [] -> exit 1
      | _ ->
          Format.printf "@.REGRESSIONS (worse by more than %.1f%%):@.@."
            tolerance;
          BS.pp_delta_table ~limit Format.std_formatter regs;
          exit 1)

let bench_check_cmd =
  let baseline_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline benchmark JSON")
  in
  let current_file =
    Arg.(
      value
      & pos 0 string "BENCH_core.json"
      & info [] ~docv:"CURRENT_JSON"
          ~doc:"Run to gate (default BENCH_core.json)")
  in
  let tolerance =
    Arg.(
      value & opt float 10.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Allowed regression per metric, in percent")
  in
  let ignore_config =
    Arg.(
      value & flag
      & info [ "ignore-config" ]
          ~doc:"Compare runs even when their config blocks differ")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N" ~doc:"Regression rows to show")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Regression gate: exit non-zero when any metric of the current run \
          is worse than the baseline by more than the tolerance, or when \
          the runs share a config and a baseline metric is missing from \
          the current run")
    Term.(
      const bench_check $ baseline_file $ current_file $ tolerance
      $ ignore_config $ limit)

let bench_history file limit =
  match BS.history ~file with
  | Error m -> die "%s" m
  | Ok entries ->
      let entries =
        let n = List.length entries in
        if limit > 0 && n > limit then
          List.filteri (fun i _ -> i >= n - limit) entries
        else entries
      in
      let rows =
        List.mapi
          (fun i j ->
            let str path =
              match Vstamp_obs.Jsonx.member path j with
              | Some (Vstamp_obs.Jsonx.String s) -> s
              | _ -> "-"
            in
            let recorded =
              match Vstamp_obs.Jsonx.member "wall_clock" j with
              | Some wc -> (
                  match
                    Option.bind
                      (Vstamp_obs.Jsonx.member "recorded_unix_s" wc)
                      Vstamp_obs.Jsonx.to_float
                  with
                  | Some s ->
                      let tm = Unix.localtime s in
                      Printf.sprintf "%04d-%02d-%02d %02d:%02d"
                        (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
                        tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
                  | None -> "-")
              | None -> "-"
            in
            let metrics =
              match BS.of_json j with
              | Ok run -> string_of_int (List.length (BS.metrics run))
              | Error _ -> "-"
            in
            let rev = str "git_rev" in
            [
              string_of_int i;
              str "schema";
              String.sub rev 0 (min 12 (String.length rev));
              recorded;
              metrics;
            ])
          entries
      in
      Stats.pp_table Format.std_formatter
        ~header:[ "#"; "schema"; "git_rev"; "recorded"; "metrics" ]
        rows

let bench_history_cmd =
  let file =
    Arg.(
      value
      & pos 0 string "BENCH_history.jsonl"
      & info [] ~docv:"LEDGER"
          ~doc:"Benchmark ledger (default BENCH_history.jsonl)")
  in
  let limit =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Show only the newest N entries (0: all)")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"List the runs accumulated in a benchmark ledger, oldest first")
    Term.(const bench_history $ file $ limit)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Benchmark regression tooling over BENCH_core.json runs: diff two \
          runs, gate against a baseline, browse the ledger")
    [ bench_diff_cmd; bench_check_cmd; bench_history_cmd ]

(* --- profile --- *)

let profile tracker workload seed n_ops no_oracle trace_file check_invariants
    out weight top_n by =
  match load_ops ~workload ~seed ~n_ops trace_file with
  | Error (`Msg m) -> die "%s" m
  | Ok ops ->
      let p = Vstamp_obs.Profile.create () in
      (try
         ignore
           (System.run ~with_oracle:(not no_oracle) ~check_invariants
              ~profile:p tracker ops
             : System.result)
       with System.Invariant_violation _ as e ->
         Format.eprintf "error: %s@." (Printexc.to_string e);
         exit 2);
      Vstamp_obs.Profile.pp_top ~by ~n:top_n Format.std_formatter p;
      Format.printf "attributed total: %.3f ms over %d stacks@."
        (Int64.to_float (Vstamp_obs.Profile.total_ns p) /. 1e6)
        (List.length (Vstamp_obs.Profile.rows p));
      match out with
      | None -> ()
      | Some file ->
          write_data (Some file) (Vstamp_obs.Profile.to_folded ~weight p);
          Format.printf
            "wrote collapsed stacks to %s (flamegraph.pl %s > prof.svg)@." file
            file

let profile_cmd =
  let tracker =
    Arg.(
      value
      & opt tracker_conv Tracker.stamps
      & info [ "t"; "tracker" ] ~docv:"TRACKER" ~doc:"Mechanism to profile")
  in
  let workload =
    Arg.(
      value & opt string "uniform"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload family")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"RNG seed")
  in
  let n_ops =
    Arg.(
      value & opt int 400
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Approximate operation count")
  in
  let no_oracle =
    Arg.(
      value & flag
      & info [ "no-oracle" ]
          ~doc:"Skip (and so leave unprofiled) the causal-history oracle")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Profile a trace file instead of a generated workload")
  in
  let check_invariants =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:"Also run (and attribute) the invariant monitors")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write collapsed-stack output (one 'frame;frame weight' line \
             per stack, flamegraph.pl input) to FILE")
  in
  let weight =
    Arg.(
      value
      & opt (enum [ ("ns", `Ns); ("alloc", `Alloc) ]) `Ns
      & info [ "weight" ] ~docv:"WEIGHT"
          ~doc:"Folded-stack weight: ns (time) or alloc (bytes)")
  in
  let top_n =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot-op table")
  in
  let by =
    Arg.(
      value
      & opt (enum [ ("ns", `Ns); ("alloc", `Alloc); ("count", `Count) ]) `Ns
      & info [ "by" ] ~docv:"KEY" ~doc:"Hot-op table order: ns, alloc, count")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload under the op-level profiler and report where the \
          time and allocation went, per tracker operation (update / fork / \
          join / monitor / record / oracle)")
    Term.(
      const profile $ tracker $ workload $ seed $ n_ops $ no_oracle
      $ trace_file $ check_invariants $ out $ weight $ top_n $ by)

(* --- soak / top / scrape: the live telemetry plane --- *)

module HE = Vstamp_obs.Http_export
module Obs_registry = Vstamp_obs.Registry
module Obs_sink = Vstamp_obs.Sink
module Obs_event = Vstamp_obs.Event
module Jx = Vstamp_obs.Jsonx
module Tr = Vstamp_obs.Trace_ctx
module Tmerge = Vstamp_obs.Trace_merge

(* Stamp comparison over text labels, for the merge layer (which lives
   below the stamp mechanism and sees only strings).  Memoized: a
   cluster merge compares every label pair within a scope. *)
let stamp_label_leq : Tmerge.leq =
  let cache : (string, Stamp.t option) Hashtbl.t = Hashtbl.create 64 in
  let parse label =
    match Hashtbl.find_opt cache label with
    | Some v -> v
    | None ->
        let v =
          match Vstamp_codec.Text.stamp_of_string label with
          | Ok s -> Some s
          | Error _ -> None
        in
        Hashtbl.add cache label v;
        v
  in
  fun a b ->
    match (parse a, parse b) with
    | Some sa, Some sb -> Some (Stamp.leq sa sb)
    | _ -> None

(* One continuous key-value phase: three server replicas take causal
   puts/gets/deletes and anti-entropy rounds, all counted by
   Kv_node.Obs into the live registry. *)
let soak_kv_phase rng ~ops_n =
  let open Vstamp_kvs in
  let keys = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta" |] in
  let nodes = Array.init 3 (fun i -> Kv_node.create ~id:i) in
  let rec go rng k =
    if k = 0 then rng
    else
      let op, rng =
        Rng.pick_weighted rng
          [ (5, `Put); (4, `Get); (1, `Delete); (2, `Sync) ]
      in
      let ni, rng = Rng.int rng (Array.length nodes) in
      let ki, rng = Rng.int rng (Array.length keys) in
      let key = keys.(ki) in
      (match op with
      | `Put ->
          let _, context = Kv_node.get nodes.(ni) key in
          nodes.(ni) <-
            Kv_node.put nodes.(ni) ~key ~context (Printf.sprintf "v%d" k)
      | `Get -> ignore (Kv_node.get nodes.(ni) key)
      | `Delete ->
          let _, context = Kv_node.get nodes.(ni) key in
          nodes.(ni) <- Kv_node.delete nodes.(ni) ~key ~context
      | `Sync ->
          let nj = (ni + 1) mod Array.length nodes in
          let a, b = Kv_node.anti_entropy nodes.(ni) nodes.(nj) in
          nodes.(ni) <- a;
          nodes.(nj) <- b);
      go rng (k - 1)
  in
  go rng ops_n

(* One continuous file-sync phase: two devices share some files,
   create others independently (colliding paths surface as conflicts),
   edit concurrently, and reconcile — counted by Sync.Obs. *)
let soak_sync_phase rng =
  let open Vstamp_panasync in
  let content rng tag =
    let n, rng = Rng.int rng 48 in
    (Printf.sprintf "%s:%s" tag (String.make (8 + n) '#'), rng)
  in
  let add store path rng =
    let c, rng = content rng path in
    (Store.add_new store ~path ~content:c, rng)
  in
  let merge = Sync.Merge (fun ~left ~right -> left ^ "|" ^ right) in
  let a = Store.create ~name:"left" and b = Store.create ~name:"right" in
  let a, rng = add a "notes.txt" rng in
  let a, rng = add a "todo.txt" rng in
  let b, rng = add b "photos.idx" rng in
  (* the same logical path created independently on both devices: an
     unrelated-lineage conflict the stamps cannot order *)
  let a, rng = add a "shared.cfg" rng in
  let b, rng = add b "shared.cfg" rng in
  let a, b, _ = Sync.session ~policy:merge a b in
  (* concurrent edits of a now-shared file: a genuine stamp conflict *)
  let c1, rng = content rng "notes-left" in
  let c2, rng = content rng "notes-right" in
  let a = Store.edit a ~path:"notes.txt" ~content:c1 in
  let b = Store.edit b ~path:"notes.txt" ~content:c2 in
  let a, b, _ = Sync.session ~policy:merge a b in
  (* a one-sided edit: propagation, no conflict *)
  let c3, rng = content rng "todo" in
  let a = Store.edit a ~path:"todo.txt" ~content:c3 in
  let a, b, _ = Sync.session ~policy:merge a b in
  ignore (Sync.converged a b);
  rng

(* One stamped-KV anti-entropy phase: ad-hoc replicas write
   concurrently and reconcile — the kvs_sync_* delta ledger counted by
   Stamped_kv.Obs (a creation round, a concurrent round and an
   already-equal round, so shipped/minimal/redundant all move). *)
let soak_stamped_kv_phase rng =
  let open Vstamp_kvs in
  let value rng tag =
    let n, rng = Rng.int rng 24 in
    (Printf.sprintf "%s#%d" tag n, rng)
  in
  let v1, rng = value rng "x" in
  let v2, rng = value rng "y" in
  let v3, rng = value rng "x'" in
  let a = Stamped_kv.put Stamped_kv.empty ~key:"x" v1 in
  let a = Stamped_kv.put a ~key:"y" v2 in
  let a, b = Stamped_kv.sync a Stamped_kv.empty in
  let b = Stamped_kv.put b ~key:"x" v3 in
  let a = Stamped_kv.put a ~key:"x" v1 in
  let a, b = Stamped_kv.sync a b in
  let a, b = Stamped_kv.sync a b in
  ignore (Stamped_kv.converged a b : bool);
  rng

let soak_checkpoint ~history ~registry ~srv ~sink ~t0 ~iteration ~final =
  let j =
    Jx.Obj
      [
        ("schema", Jx.String "vstamp-soak-checkpoint/1");
        ("final", Jx.Bool final);
        ("iteration", Jx.Int iteration);
        ("elapsed_s", Jx.Float (Unix.gettimeofday () -. t0));
        ("events_total", Jx.Int (Obs_sink.emitted sink));
        ("requests_total", Jx.Int (HE.requests srv));
        ("port", Jx.Int (HE.port srv));
        ("registry", Obs_registry.to_json registry);
      ]
  in
  Vstamp_obs.Bench_store.append ~file:history j

let parse_hostport ~flag spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
      let host = String.sub spec 0 i
      and port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" -> (host, p)
      | _ -> die "%s %s: expected HOST:PORT" flag spec)
  | None -> die "%s %s: expected HOST:PORT" flag spec

let soak port addr duration iterations n_ops seed sample_every sample_prob
    checkpoint_every history events_out port_file quiet partition_weather
    churn_rate rules_file retention record_every tsdb_out node_id span_out
    trace_parent stamp_seed net_port net_peers =
  let tracker = Tracker.stamps in
  (match partition_weather with
  | Some s when not (s >= 0.0 && s <= 1.0) ->
      die "--partition-weather needs a severity in [0, 1]"
  | _ -> ());
  (match churn_rate with
  | Some r when not (r >= 0.0) -> die "--churn needs a non-negative rate"
  | _ -> ());
  if record_every <= 0.0 then die "--record-every needs a positive cadence";
  let rules =
    match rules_file with
    | None -> None
    | Some file -> (
        match read_file file with
        | Error (`Msg m) -> die "--rules %s: %s" file m
        | Ok text -> (
            match Vstamp_obs.Alert.parse_rules text with
            | Ok rs -> Some rs
            | Error m -> die "--rules %s: %s" file m))
  in
  let retention_s =
    match retention with
    | None -> None
    | Some dur -> (
        match Vstamp_obs.Alert.duration_of_string dur with
        | Ok s when s > 0.0 -> Some s
        | Ok _ -> die "--retention needs a positive duration"
        | Error m -> die "--retention: %s" m)
  in
  let sampling =
    match (sampling_of sample_every sample_prob, sample_every, sample_prob) with
    | Error (`Msg m), _, _ -> die "%s" m
    (* soak default: sampled monitors — full I2/I3 checking on every
       step would dominate the workload (EXPERIMENTS E13) *)
    | Ok Vstamp_obs.Monitor.Always, None, None -> Vstamp_obs.Monitor.Every_n 8
    | Ok s, _, _ -> s
  in
  let registry = Obs_registry.create () in
  (* Distributed tracing: with --span-out every iteration (and the
     sync rounds inside it) becomes a span appended to a JSONL log;
     with --trace-parent those spans continue the launching process's
     trace, so a whole cluster's workers land in one trace (merged by
     `vstamp report --cluster`). *)
  let trace_root =
    match trace_parent with
    | None -> None
    | Some h -> (
        match Tr.of_header h with
        | Ok ctx -> Some ctx
        | Error m -> die "--trace-parent: %s" m)
  in
  let span_oc =
    match span_out with
    | None -> None
    | Some file -> Some (open_out_bin file)
  in
  if span_oc <> None || trace_root <> None then begin
    let sink =
      match span_oc with
      | None -> fun _ -> ()
      | Some oc ->
          fun sp ->
            output_string oc (Tr.span_to_string sp);
            output_char oc '\n';
            flush oc
    in
    Tr.attach ~registry ~sink ~node:node_id ?parent:trace_root ()
  end;
  (* Each iteration advances this stamp and labels its span with it:
     inside one process the labels are linearly ordered by [update],
     and across a cluster the parent forks the seed so every worker's
     labels stay mutually comparable (domain "cluster"). *)
  let soak_stamp = ref (Option.value ~default:Stamp.seed stamp_seed) in
  let stop = ref false in
  let iterations_done = ref 0 in
  let last_step = ref 0 in
  let health () =
    [
      ("last_step", Jx.Int !last_step);
      ("iterations", Jx.Int !iterations_done);
      ("sampling", Jx.String (Vstamp_obs.Monitor.sampling_to_string sampling));
    ]
  in
  (* Flight recorder: a bounded multi-resolution history of every
     registry metric, sampled on the recorder cadence.  [--retention]
     sizes the rings so the coarsest tier reaches back that far. *)
  let tsdb =
    let capacity =
      match retention_s with
      | None -> 240
      | Some r ->
          let coarsest_period = record_every *. 144.0 (* downsample^2 *) in
          max 16 (int_of_float (ceil (r /. coarsest_period)))
    in
    Vstamp_obs.Tsdb.create ~capacity ~tiers:3 ~downsample:12 ()
  in
  let runtime = Vstamp_obs.Runtime.create ~registry () in
  (* The alert engine's transition events must reach the live /events
     feed, but the sink tees off the server — which itself needs the
     engine for /alerts.json.  Break the cycle with an indirection. *)
  let sink_ref = ref Obs_sink.null in
  let alerts =
    Option.map
      (fun rs ->
        Vstamp_obs.Alert.create ~registry
          ~sink:(Obs_sink.of_fn (fun e -> Obs_sink.emit !sink_ref e))
          rs)
      rules
  in
  (* --net: a real networked anti-entropy plane alongside the workload —
     this process runs a Stamped_kv replica speaking vstamp-sync/1 on
     TCP, writes one key per iteration and converges with its
     --net-peer nodes; the peer lifecycle shows up on /peers.json and
     the net_* metric families on /metrics *)
  let net_node =
    match net_port with
    | None -> None
    | Some sync_port ->
        let peers = List.map (parse_hostport ~flag:"--net-peer") net_peers in
        let module N = Vstamp_net.Node in
        let node =
          try
            N.create ~registry ~interval_s:0.5 ~addr ~node_id ~port:sync_port
              ~peers ()
          with Unix.Unix_error (e, _, _) ->
            die "cannot bind %s:%d: %s" addr sync_port (Unix.error_message e)
        in
        N.start_dialers node;
        Some
          ( (fun i -> N.put node ~key:("soak-" ^ node_id) (string_of_int i)),
            (fun () -> N.peers_json node),
            (fun () -> N.stop node) )
  in
  let srv =
    (* a deeper /events ring than the default 64: one workload iteration
       emits ~n_ops sim events, which would evict sparse-but-important
       lines (alert transitions) before anyone can scrape them *)
    try
      HE.create ~registry ~health ~tsdb ?alerts
        ?peers:(Option.map (fun (_, pj, _) -> pj) net_node)
        ~recent:512 ~addr ~port ()
    with Unix.Unix_error (e, _, _) ->
      die "cannot bind %s:%d: %s" addr port (Unix.error_message e)
  in
  (match port_file with
  | Some file -> write_data (Some file) (string_of_int (HE.port srv) ^ "\n")
  | None -> ());
  if not quiet then
    Format.printf
      "soak: serving on http://%s:%d (/metrics /healthz /stats.json \
       /range.json /alerts.json /events) — SIGINT/SIGTERM for graceful \
       shutdown@."
      addr (HE.port srv);
  let sink =
    let live = HE.event_sink srv in
    match events_out with
    | Some file -> Obs_sink.tee (Obs_sink.to_file file) live
    | None -> live
  in
  sink_ref := sink;
  (* GC sampling, alert evaluation and time-series capture run on
     their own cadence so history and debounce stay even-paced no
     matter how long an iteration takes. *)
  let record_tick () =
    Vstamp_obs.Runtime.sample runtime;
    (match alerts with Some a -> Vstamp_obs.Alert.eval a | None -> ());
    Vstamp_obs.Tsdb.sample tsdb registry
  in
  let recorder_stop = ref false in
  let recorder =
    Thread.create
      (fun () ->
        while not !recorder_stop do
          record_tick ();
          Thread.delay record_every
        done)
      ()
  in
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Vstamp_kvs.Kv_node.Obs.attach ~registry ();
  Vstamp_kvs.Stamped_kv.Obs.attach ~registry ();
  Vstamp_panasync.Sync.Obs.attach ~registry ();
  let sim_failures = Obs_registry.counter registry "soak_sim_failures_total" in
  let iter_counter = Obs_registry.counter registry "soak_iterations_total" in
  let step_gauge = Obs_registry.gauge registry "soak_last_step" in
  let t0 = Unix.gettimeofday () in
  let workloads =
    [| "uniform"; "gossip"; "churn"; "partitioned"; "sync-star" |]
  in
  let expired i =
    !stop
    || (iterations > 0 && i > iterations)
    || (duration > 0.0 && Unix.gettimeofday () -. t0 >= duration)
  in
  let rec loop i =
    if expired i then ()
    else begin
      let wname = workloads.((i - 1) mod Array.length workloads) in
      let iteration_body () =
        (match workload_of_name ~seed:(seed + i) ~n_ops wname with
        | Error (`Msg m) -> die "%s" m (* unreachable: names are known *)
        | Ok ops -> (
            (try
               ignore
                 (System.run ~with_oracle:false ~registry ~sink
                    ~check_invariants:true ~sampling ~sample_seed:(seed + i)
                    tracker ops
                   : System.result)
             with System.Invariant_violation _ ->
               Vstamp_obs.Metric.inc sim_failures);
            last_step := !last_step + List.length ops));
        let rng = Rng.make (seed + i) in
        let rng = soak_kv_phase rng ~ops_n:(max 16 (n_ops / 2)) in
        let rng = soak_sync_phase rng in
        let (_ : Rng.t) = soak_stamped_kv_phase rng in
        (* partition-weather phase: a 3-replica convergence scenario per
           iteration, publishing the vstamp_replica_lag /
           vstamp_divergence_* / vstamp_convergence_* gauges and the
           sim-level delta ledger into the live registry *)
        (match partition_weather with
        | None -> ()
        | Some severity ->
            let cfg =
              {
                Lag.default_config with
                Lag.severity;
                seed = seed + i;
                rounds = max 4 (n_ops / 32);
              }
            in
            ignore (Lag.run ~registry cfg tracker : Lag.result));
        (* replica-churn phase: a fork/retire lifecycle scenario per
           iteration, publishing the vstamp_idspace_* fragmentation and
           genealogy gauges (and the sim_churn_* op counters) into the
           live registry — the data behind /idspace.json and the `top`
           identity-space panel *)
        match churn_rate with
        | None -> ()
        | Some rate ->
            let cfg =
              {
                Churn.default_config with
                Churn.churn_rate = rate;
                seed = seed + i;
                rounds = max 4 (n_ops / 32);
              }
            in
            ignore (Churn.run ~registry cfg : Churn.result)
      in
      (* One iteration is one span, labelled with this worker's stamp
         after a fresh [update] — so the cluster merge can place the
         iteration in the causal order by stamp leq alone. *)
      if Tr.attached () then begin
        soak_stamp := Stamp.update !soak_stamp;
        Tr.with_span "soak.iteration"
          ~stamp:(Stamp.to_string !soak_stamp)
          ~domain:"cluster"
          ~attrs:[ ("iteration", Jx.Int i); ("workload", Jx.String wname) ]
          iteration_body
      end
      else iteration_body ();
      incr iterations_done;
      Vstamp_obs.Metric.inc iter_counter;
      Vstamp_obs.Metric.set step_gauge (float_of_int !last_step);
      (match net_node with
      | Some (net_put, _, _) -> net_put i
      | None -> ());
      Obs_sink.emit sink
        (Obs_event.v ~ts:(Obs_event.Step !last_step) "soak.iteration"
           [ ("iteration", Jx.Int i); ("workload", Jx.String wname) ]);
      (match history with
      | Some file when checkpoint_every > 0 && i mod checkpoint_every = 0 ->
          soak_checkpoint ~history:file ~registry ~srv ~sink ~t0 ~iteration:i
            ~final:false
      | _ -> ());
      loop (i + 1)
    end
  in
  loop 1;
  (* graceful shutdown.  One last recorder tick so the dump and the
     exit status reflect the end state, then stop the server *before*
     the final checkpoint and the events fsync — an in-flight scrape
     must never observe (or race) a half-written checkpoint. *)
  recorder_stop := true;
  Thread.join recorder;
  record_tick ();
  (match net_node with Some (_, _, stop_node) -> stop_node () | None -> ());
  HE.stop srv;
  (match history with
  | Some file ->
      soak_checkpoint ~history:file ~registry ~srv ~sink ~t0
        ~iteration:!iterations_done ~final:true
  | None -> ());
  Obs_sink.flush sink;
  Obs_sink.close sink;
  (match tsdb_out with
  | Some file ->
      let alerts_json = Option.map Vstamp_obs.Alert.to_json alerts in
      write_data (Some file)
        (Jx.to_string (Vstamp_obs.Tsdb.to_json ?alerts:alerts_json tsdb) ^ "\n")
  | None -> ());
  Vstamp_kvs.Kv_node.Obs.detach ();
  Vstamp_kvs.Stamped_kv.Obs.detach ();
  Vstamp_panasync.Sync.Obs.detach ();
  if Tr.attached () then Tr.detach ();
  (match span_oc with None -> () | Some oc -> close_out_noerr oc);
  if not quiet then
    Format.printf
      "soak: %d iterations, %d logical steps, %d events, %d requests in \
       %.1fs@."
      !iterations_done !last_step (Obs_sink.emitted sink) (HE.requests srv)
      (Unix.gettimeofday () -. t0);
  match alerts with
  | Some a when Vstamp_obs.Alert.any_firing a ->
      let names =
        List.map
          (fun r -> r.Vstamp_obs.Alert.name)
          (Vstamp_obs.Alert.firing a)
      in
      Format.eprintf "soak: alerts firing at shutdown: %s@."
        (String.concat ", " names);
      exit 4
  | _ -> ()

(* --- soak --cluster: the multi-process cluster observatory ---

   The parent forks N soak workers (each with its own telemetry port,
   flight recorder and span log), hands each a trace header and a
   forked stamp seed, federates their telemetry behind /cluster.json,
   and on shutdown merges every node's span log into one causally
   ordered Chrome trace plus a causal-ordering validation report. *)

let soak_cluster n port addr duration iterations n_ops seed quiet
    partition_weather rules_file record_every port_file dir net net_base_port
    =
  if n < 2 then die "--cluster needs at least 2 workers";
  if net && (net_base_port < 1 || net_base_port + n > 65536) then
    die "--net-base-port %d leaves no room for %d workers" net_base_port n;
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path p = Filename.concat dir p in
  (* the parent's own spans (the launch) go to memory, written out at
     the end next to the workers' logs *)
  let parent_spans = ref [] in
  Tr.attach ~sink:(fun sp -> parent_spans := sp :: !parent_spans)
    ~node:"parent" ();
  (* one n-way fork of the seed: every worker's stamp lineage stays
     mutually comparable, and the launch (labelled with the seed
     itself) is strictly below every worker iteration — the cross-node
     ordered pairs wall clocks could not justify *)
  let worker_stamps = Stamp.fork_many Stamp.seed n in
  let spawn header i stamp =
    let name = Printf.sprintf "node-%d" i in
    (try Sys.remove (path (name ^ ".port")) with Sys_error _ -> ());
    let argv =
      [
        "vstamp"; "soak"; "--port"; "0"; "--addr"; addr;
        "--port-file"; path (name ^ ".port");
        "--node-id"; name;
        "--span-out"; path (name ^ ".spans.jsonl");
        "--trace-parent"; header;
        "--stamp-seed"; Stamp.to_string stamp;
        "--tsdb-out"; path (name ^ ".tsdb.json");
        "--seed"; string_of_int (seed + (1000 * i));
        "--ops"; string_of_int n_ops;
        "--record-every"; string_of_float record_every;
        "--no-history"; "--quiet";
      ]
      @ (if duration > 0.0 then [ "--duration"; string_of_float duration ]
         else [])
      @ (if iterations > 0 then
           [ "--iterations"; string_of_int iterations ]
         else [])
      @ (match partition_weather with
        | None -> []
        | Some s -> [ "--partition-weather"; string_of_float s ])
      @ (match rules_file with None -> [] | Some f -> [ "--rules"; f ])
      @ (if not net then []
         else
           (* real-TCP anti-entropy: deterministic sync ports base+i,
              full mesh — every worker peers with every other *)
           [ "--net-port"; string_of_int (net_base_port + i) ]
           @ List.concat
               (List.init n (fun j ->
                    if j = i then []
                    else
                      [
                        "--net-peer";
                        Printf.sprintf "%s:%d" addr (net_base_port + j);
                      ])))
    in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list argv)
        Unix.stdin Unix.stdout Unix.stderr
    in
    (name, pid)
  in
  let workers =
    Tr.with_span "cluster.launch"
      ~stamp:(Stamp.to_string Stamp.seed)
      ~domain:"cluster"
      ~attrs:[ ("workers", Jx.Int n) ]
      (fun () ->
        let header =
          match Tr.current () with Some c -> Tr.to_header c | None -> ""
        in
        List.mapi (spawn header) worker_stamps)
  in
  (* children die with us: forward the signal, then keep reaping *)
  let forward _ =
    List.iter
      (fun (_, pid) ->
        try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      workers
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle forward);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle forward);
  (* wait for every worker's ephemeral port to land in its port file *)
  let await_port name =
    let file = path (name ^ ".port") in
    let deadline = Unix.gettimeofday () +. 15.0 in
    let rec go () =
      let p =
        match read_file file with
        | Ok s -> int_of_string_opt (String.trim s)
        | Error _ -> None
      in
      match p with
      | Some p -> p
      | None ->
          if Unix.gettimeofday () > deadline then
            die "cluster: %s did not publish a port within 15s" name
          else begin
            (try Unix.sleepf 0.05
             with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            go ()
          end
    in
    go ()
  in
  let nodes =
    List.map
      (fun (name, _) ->
        { Vstamp_obs.Cluster.id = name; host = "127.0.0.1";
          port = await_port name })
      workers
  in
  let trace_id =
    match Tr.root () with Some c -> c.Tr.trace_id | None -> "?"
  in
  let registry = Obs_registry.create () in
  let srv =
    try
      HE.create ~registry
        ~health:(fun () -> [ ("cluster_workers", Jx.Int n) ])
        ~cluster:(fun () ->
          Vstamp_obs.Cluster.collect ~timeout_s:2.0
            ~meta:[ ("trace", Jx.String trace_id) ]
            nodes)
        ~addr ~port ()
    with Unix.Unix_error (e, _, _) ->
      die "cannot bind %s:%d: %s" addr port (Unix.error_message e)
  in
  (match port_file with
  | Some file -> write_data (Some file) (string_of_int (HE.port srv) ^ "\n")
  | None -> ());
  if not quiet then begin
    Format.printf
      "cluster: %d workers (%s), parent on http://%s:%d/cluster.json, \
       trace %s@."
      n
      (String.concat ", "
         (List.map
            (fun nd ->
              Printf.sprintf "%s:%d" nd.Vstamp_obs.Cluster.id
                nd.Vstamp_obs.Cluster.port)
            nodes))
      addr (HE.port srv) trace_id;
    Format.print_flush ()
  end;
  (* reap until every worker has exited (waitpid is interruptible —
     the signal handler above already forwarded the TERM) *)
  let statuses = Hashtbl.create n in
  let rec reap () =
    if Hashtbl.length statuses < List.length workers then begin
      List.iter
        (fun (name, pid) ->
          if not (Hashtbl.mem statuses pid) then
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _, st -> Hashtbl.replace statuses pid (name, st)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                Hashtbl.replace statuses pid (name, Unix.WEXITED 0))
        workers;
      if Hashtbl.length statuses < List.length workers then begin
        (try Unix.sleepf 0.1
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        reap ()
      end
    end
  in
  reap ();
  HE.stop srv;
  Tr.detach ();
  write_data
    (Some (path "parent.spans.jsonl"))
    (Tr.spans_to_jsonl (List.rev !parent_spans));
  (* the cross-node post-mortem: merge every node's span log into one
     stamp-ordered timeline and validate every stamp-ordered pair
     against the wall clocks *)
  let all_spans =
    List.concat_map
      (fun file ->
        match Tmerge.load_file (path file) with
        | Ok sps -> sps
        | Error m ->
            Format.eprintf "cluster: %s@." m;
            [])
      ("parent.spans.jsonl"
      :: List.map (fun (name, _) -> name ^ ".spans.jsonl") workers)
  in
  let merged = Tmerge.merge ~leq:stamp_label_leq all_spans in
  write_data
    (Some (path "trace.chrome.json"))
    (Jx.to_string (Tmerge.to_chrome merged) ^ "\n");
  let rep = Tmerge.validate ~leq:stamp_label_leq all_spans in
  write_data
    (Some (path "causal-report.json"))
    (Jx.to_string (Tmerge.report_json rep) ^ "\n");
  if not quiet then
    Format.printf
      "cluster: %d spans over %d nodes, %d stamped, %d stamp-ordered \
       pairs (%d cross-node), %d contradictions — %s, %s@."
      rep.Tmerge.rp_spans
      (List.length rep.Tmerge.rp_nodes)
      rep.Tmerge.rp_stamped rep.Tmerge.rp_ordered_pairs
      rep.Tmerge.rp_cross_node_ordered_pairs
      (List.length rep.Tmerge.rp_contradictions)
      (path "trace.chrome.json")
      (path "causal-report.json");
  let worst =
    Hashtbl.fold
      (fun _ (name, st) acc ->
        match st with
        | Unix.WEXITED 0 -> acc
        | Unix.WEXITED c ->
            Format.eprintf "cluster: %s exited %d@." name c;
            max acc c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
            Format.eprintf "cluster: %s killed by signal@." name;
            max acc 1)
      statuses 0
  in
  if worst <> 0 then exit worst;
  if rep.Tmerge.rp_contradictions <> [] then begin
    Format.eprintf
      "cluster: %d span pairs contradict stamp order@."
      (List.length rep.Tmerge.rp_contradictions);
    exit 5
  end

let soak_cmd =
  let port =
    Arg.(
      value & opt int 9464
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Telemetry port (0 picks an ephemeral one; see --port-file)")
  in
  let addr =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "addr" ] ~docv:"ADDR" ~doc:"Address to bind")
  in
  let duration =
    Arg.(
      value & opt float 0.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Stop after this long (0: run until signalled)")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after N iterations (0: run until signalled)")
  in
  let n_ops =
    Arg.(
      value & opt int 300
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Simulator ops per iteration")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Base seed")
  in
  let sample_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-every" ] ~docv:"N"
          ~doc:"Invariant-monitor sampling period (default 8)")
  in
  let sample_prob =
    Arg.(
      value
      & opt (some float) None
      & info [ "sample-prob" ] ~docv:"P"
          ~doc:"Invariant-monitor sampling probability")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 25
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:"Append a ledger checkpoint every K iterations")
  in
  let history =
    Arg.(
      value
      & opt (some string) (Some "BENCH_history.jsonl")
      & info [ "history" ] ~docv:"FILE"
          ~doc:"Checkpoint ledger (JSONL, appended); empty to disable")
  in
  let no_history =
    Arg.(
      value & flag
      & info [ "no-history" ] ~doc:"Do not append ledger checkpoints")
  in
  let events_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "events-out" ] ~docv:"FILE"
          ~doc:
            "Also persist the live event feed to FILE as JSONL (flushed and \
             fsynced on shutdown)")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound port to FILE (for scripts with --port 0)")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No chatter") in
  let partition_weather =
    Arg.(
      value
      & opt (some float) None
      & info [ "partition-weather" ] ~docv:"SEVERITY"
          ~doc:
            "Also run a partition-weather convergence phase each \
             iteration (severity in [0,1]: evolving asymmetric \
             connectivity), charting replica lag, divergence and \
             sync-delta efficiency on /metrics and /lag.json")
  in
  let churn =
    Arg.(
      value
      & opt (some float) None
      & info [ "churn" ] ~docv:"RATE"
          ~doc:
            "Also run a replica-churn phase each iteration (RATE: \
             expected forks and retire attempts per scenario round), \
             charting identity-space fragmentation, id-bit reclamation \
             and the partition-of-unity audit on /metrics and \
             /idspace.json (single-process soak only)")
  in
  let rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:
            "Alert rules file (one `name condition [for duration]` per \
             line; see doc/telemetry.md).  Firing/resolved transitions \
             appear on /events and /alerts.json; alerts still firing at \
             shutdown make soak exit 4")
  in
  let retention =
    Arg.(
      value
      & opt (some string) None
      & info [ "retention" ] ~docv:"DURATION"
          ~doc:
            "How far back the flight recorder's coarsest tier reaches \
             (e.g. 30m, 4h; default ~9.6h at the default cadence).  \
             Memory stays fixed: the rings are sized once, up front")
  in
  let record_every =
    Arg.(
      value & opt float 1.0
      & info [ "record-every" ] ~docv:"SECONDS"
          ~doc:"Flight-recorder cadence: registry sampling, GC telemetry \
                and alert evaluation")
  in
  let tsdb_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "tsdb-out" ] ~docv:"FILE"
          ~doc:
            "Dump the recorded time series (and alert state) as JSON on \
             shutdown — the input of `vstamp report --dump`")
  in
  let node_id =
    Arg.(
      value & opt string "node-0"
      & info [ "node-id" ] ~docv:"NAME"
          ~doc:"This process's node name in span records")
  in
  let span_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "span-out" ] ~docv:"FILE"
          ~doc:
            "Record every iteration and sync round as a trace span, \
             appended to FILE as JSONL — the input of `vstamp report \
             --cluster`")
  in
  let trace_parent =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-parent" ] ~docv:"HEADER"
          ~doc:
            "Continue a propagated trace: a vstamp-trace/1 header (the \
             cluster driver passes the launch span's) that becomes the \
             parent of this process's spans")
  in
  let stamp_seed =
    Arg.(
      value
      & opt (some stamp_conv) None
      & info [ "stamp-seed" ] ~docv:"STAMP"
          ~doc:
            "Starting stamp for the per-iteration span labels, in the \
             paper's text notation (default the seed [1|0]); the \
             cluster driver forks the seed n ways so workers' labels \
             stay mutually comparable")
  in
  let cluster =
    Arg.(
      value & opt int 0
      & info [ "cluster" ] ~docv:"N"
          ~doc:
            "Fork N soak worker processes (each with its own telemetry \
             port, flight recorder and span log), federate them behind \
             this process's /cluster.json, and merge their span logs \
             into a causally ordered Chrome trace on shutdown")
  in
  let cluster_dir =
    Arg.(
      value & opt string "cluster-out"
      & info [ "cluster-dir" ] ~docv:"DIR"
          ~doc:
            "Where --cluster keeps its artifacts (port files, span \
             logs, tsdb dumps, trace.chrome.json, causal-report.json)")
  in
  let net_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "net-port" ] ~docv:"PORT"
          ~doc:
            "Also run a networked anti-entropy node: a stamped \
             key-value replica speaking vstamp-sync/1 on PORT (0 for \
             ephemeral) that writes one key per iteration and \
             converges with the --net-peer nodes; peer lifecycle on \
             /peers.json, net_* families on /metrics")
  in
  let net_peer =
    Arg.(
      value & opt_all string []
      & info [ "net-peer" ] ~docv:"HOST:PORT"
          ~doc:"A peer node's sync endpoint for --net-port; repeatable")
  in
  let net =
    Arg.(
      value & flag
      & info [ "net" ]
          ~doc:
            "With --cluster: wire the workers into a real-TCP full \
             mesh (deterministic sync ports from --net-base-port) so \
             anti-entropy rounds cross process boundaries")
  in
  let net_base_port =
    Arg.(
      value & opt int 9600
      & info [ "net-base-port" ] ~docv:"PORT"
          ~doc:"First sync port for --cluster --net (worker i gets \
                PORT+i)")
  in
  let wrap port addr duration iterations n_ops seed sample_every sample_prob
      checkpoint_every history no_history events_out port_file quiet
      partition_weather churn rules retention record_every tsdb_out node_id
      span_out trace_parent stamp_seed cluster cluster_dir net_port net_peer
      net net_base_port =
    if cluster > 0 then
      soak_cluster cluster port addr duration iterations n_ops seed quiet
        partition_weather rules record_every port_file cluster_dir net
        net_base_port
    else begin
      if net then die "--net needs --cluster (use --net-port standalone)";
      soak port addr duration iterations n_ops seed sample_every sample_prob
        checkpoint_every
        (if no_history then None else history)
        events_out port_file quiet partition_weather churn rules retention
        record_every tsdb_out node_id span_out trace_parent stamp_seed
        net_port net_peer
    end
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Long-running soak driver: continuously exercises the simulator, \
          the replicated key-value store and file-sync sessions with \
          sampled invariant monitors on, serving live telemetry over HTTP \
          (/metrics for Prometheus, /stats.json for vstamp top, \
          /range.json for recorded history, /alerts.json for the alert \
          plane, /events for streaming) and appending periodic \
          checkpoints to the bench ledger.  --cluster N forks N workers \
          and federates them behind /cluster.json; --cluster N --net \
          additionally wires the workers into a real-TCP anti-entropy \
          mesh")
    Term.(
      const wrap $ port $ addr $ duration $ iterations $ n_ops $ seed
      $ sample_every $ sample_prob $ checkpoint_every $ history
      $ no_history $ events_out $ port_file $ quiet $ partition_weather
      $ churn $ rules $ retention $ record_every $ tsdb_out $ node_id
      $ span_out $ trace_parent $ stamp_seed $ cluster $ cluster_dir
      $ net_port $ net_peer $ net $ net_base_port)

(* --- top --- *)

(* Transport errors (refused connection, timeout) are retried with
   exponential backoff when [retries > 0] — a live command racing a
   soak process that is still binding its port waits it out instead of
   dying on the first refusal.  HTTP-level errors are never retried:
   the server answered, it just doesn't like the request.  This is the
   one retry policy behind every `--retry` flag (`top`, `scrape`,
   `lag`, `churn`, `report`). *)
let retry_transport ?(retries = 0) f =
  let rec go attempt delay =
    match f () with
    | Ok _ as ok -> ok
    | Error _ as e ->
        if attempt >= retries then e
        else begin
          Unix.sleepf delay;
          go (attempt + 1) (Float.min 5.0 (delay *. 2.0))
        end
  in
  go 0 0.2

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Retry a failed connection up to N times with exponential \
           backoff (0.2s doubling, capped at 5s) — for scripts racing \
           a soak process that is still binding its port.  HTTP errors \
           are not retried")

let fetch ?retries ?timeout_s ~host ~port path =
  match
    retry_transport ?retries (fun () ->
        HE.Client.get ?timeout_s ~host ~port path)
  with
  | Ok (200, body) -> Ok body
  | Ok (status, _) -> Error (Printf.sprintf "GET %s: HTTP %d" path status)
  | Error m -> Error (Printf.sprintf "GET %s: %s" path m)

let fetch_json ?retries ?timeout_s ~host ~port path =
  match fetch ?retries ?timeout_s ~host ~port path with
  | Error _ as e -> e
  | Ok body -> (
      match Jx.of_string (String.trim body) with
      | Ok j -> Ok j
      | Error m -> Error (Printf.sprintf "GET %s: bad JSON: %s" path m))

(* Cluster mode: one /cluster.json fetch per frame, rendered as the
   multi-node panel. *)
let top_cluster ~host ~port ~timeout_s ~retries interval frames no_color =
  let frame () =
    match fetch_json ~retries ~timeout_s ~host ~port "/cluster.json" with
    | Ok j -> Vstamp_obs.Dash.render_cluster ~color:(not no_color) j
    | Error m -> die "%s" m
  in
  if frames = 1 then begin
    print_string (frame ());
    flush stdout
  end
  else begin
    let rec loop n =
      print_string Vstamp_obs.Dash.clear_screen;
      print_string (frame ());
      flush stdout;
      if frames = 0 || n < frames then begin
        Unix.sleepf interval;
        loop (n + 1)
      end
    in
    loop 1
  end

let top host port timeout_s retries interval frames events_n no_color
    spark_arg =
  let fetch_json ~host ~port path =
    fetch_json ~retries ~timeout_s ~host ~port path
  in
  let stats () =
    match fetch_json ~host ~port "/stats.json" with
    | Ok j -> j
    | Error m -> die "%s" m
  in
  let spark_names =
    String.split_on_char ',' spark_arg
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  (* Flight-recorder panels: both endpoints 404 on a server without a
     recorder or alert engine — the panels just don't render then. *)
  let fetch_sparks () =
    List.filter_map
      (fun metric ->
        match
          fetch_json ~host ~port
            (Printf.sprintf "/range.json?metric=%s&from=-120" metric)
        with
        | Ok j -> (
            match Jx.member "points" j with
            | Some (Jx.List (_ :: _ as pts)) ->
                Some
                  ( metric,
                    List.filter_map
                      (fun p -> Option.bind (Jx.member "avg" p) Jx.to_float)
                      pts )
            | _ -> None)
        | Error _ -> None)
      spark_names
  in
  let fetch_alerts () =
    match fetch_json ~host ~port "/alerts.json" with
    | Ok j -> Some j
    | Error _ -> None
  in
  let frame_of prev prev_t =
    let cur = stats () in
    let now = Unix.gettimeofday () in
    let deltas = Obs_registry.diff ~elapsed_s:(now -. prev_t) ~prev cur in
    let health =
      match fetch_json ~host ~port "/healthz" with
      | Ok j -> Some j
      | Error _ -> None
    in
    let events =
      match
        fetch_json ~host ~port (Printf.sprintf "/events.json?n=%d" events_n)
      with
      | Ok (Jx.List l) -> List.map Jx.to_string l
      | _ -> []
    in
    ( Vstamp_obs.Dash.render ~color:(not no_color) ~events ?health
        ?alerts:(fetch_alerts ()) ~sparks:(fetch_sparks ()) ~deltas
        ~snapshot:cur (),
      cur,
      now )
  in
  let first = stats () in
  if frames = 1 then begin
    (* --once: a single frame, immediately, from one snapshot (rates
       read 0 — there is no second sample to difference against), no
       screen clearing, exit 0.  Scriptable in CI and over ssh pipes. *)
    let frame, _, _ = frame_of first (Unix.gettimeofday ()) in
    print_string frame;
    flush stdout
  end
  else begin
    let rec loop n prev prev_t =
      Unix.sleepf interval;
      let frame, cur, now = frame_of prev prev_t in
      print_string Vstamp_obs.Dash.clear_screen;
      print_string frame;
      flush stdout;
      if frames = 0 || n < frames then loop (n + 1) cur now
    in
    loop 1 first (Unix.gettimeofday ())
  end

let top_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server address")
  in
  let port =
    Arg.(
      value & opt int 9464
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "i"; "interval" ] ~docv:"SECONDS" ~doc:"Poll interval")
  in
  let frames =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N" ~doc:"Stop after N frames (0: forever)")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single frame and exit (no screen clearing)")
  in
  let events_n =
    Arg.(
      value & opt int 8
      & info [ "events" ] ~docv:"N" ~doc:"Recent events to show")
  in
  let no_color =
    Arg.(value & flag & info [ "no-color" ] ~doc:"Disable ANSI styling")
  in
  let spark =
    Arg.(
      value
      & opt string
          "soak_iterations_total,runtime_heap_words,runtime_allocation_rate_words_per_s"
      & info [ "spark" ] ~docv:"METRICS"
          ~doc:
            "Comma-separated metric names to render as flight-recorder \
             sparklines (needs a server with /range.json; missing series \
             are skipped)")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Socket timeout per fetch (a stalled endpoint errors out \
                instead of freezing the panel)")
  in
  let retry = retry_arg in
  let cluster =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:
            "Render the multi-node cluster panel from /cluster.json (a \
             `soak --cluster` parent) instead of the single-process \
             dashboard")
  in
  let wrap host port timeout retry interval frames once events_n no_color
      spark cluster =
    let frames = if once then 1 else frames in
    if retry < 0 then die "--retry needs a non-negative count";
    if cluster then
      top_cluster ~host ~port ~timeout_s:timeout ~retries:retry interval
        frames no_color
    else top host port timeout retry interval frames events_n no_color spark
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a soaking process: polls \
          /stats.json, differences successive snapshots into per-second \
          rates (Registry.diff), and repaints alerts, op rates, gauges, \
          flight-recorder sparklines, histogram summaries and the latest \
          events.  --once renders a single frame immediately and exits 0 \
          (no screen clearing) for CI and ssh pipes; --cluster renders \
          the multi-node panel of a `soak --cluster` parent")
    Term.(
      const wrap $ host $ port $ timeout $ retry $ interval $ frames $ once
      $ events_n $ no_color $ spark $ cluster)

(* --- scrape --- *)

let scrape host port timeout retries path =
  match
    retry_transport ~retries (fun () ->
        HE.Client.get ~host ~timeout_s:timeout ~port path)
  with
  | Ok (200, body) -> print_string body
  | Ok (status, body) ->
      Format.eprintf "error: GET %s: HTTP %d@.%s" path status body;
      exit 1
  | Error m -> die "GET %s: %s" path m

let scrape_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server address")
  in
  let port =
    Arg.(
      value & opt int 9464
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Socket timeout")
  in
  let retry = retry_arg in
  let path =
    Arg.(
      value & pos 0 string "/metrics"
      & info [] ~docv:"PATH" ~doc:"Endpoint path (default /metrics)")
  in
  let wrap host port timeout retry path =
    if retry < 0 then die "--retry needs a non-negative count";
    scrape host port timeout retry path
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch one telemetry endpoint (curl-free, for scripts and CI \
          smoke): prints the body of GET PATH, exits non-zero on any \
          HTTP or transport error; --retry N waits out a server that \
          is still coming up")
    Term.(const wrap $ host $ port $ timeout $ retry $ path)

(* --- lag --- *)

module Obs_conv = Vstamp_obs.Convergence

(* Sim mode: run the Lag convergence scenario and render its report —
   the divergence matrix at quiescence, per-replica staleness, the
   convergence timing and the sync-delta ledger. *)
let lag_sim tracker replicas rounds p_update syncs_per_round severity seed
    epoch json =
  if not (severity >= 0.0 && severity <= 1.0) then
    die "--severity needs a value in [0, 1]";
  if replicas < 2 then die "--replicas needs at least 2";
  let cfg =
    {
      Lag.replicas;
      rounds;
      p_update;
      syncs_per_round;
      severity;
      seed;
      epoch;
      max_heal_rounds = 16;
    }
  in
  let rounds_log = ref [] in
  let r = Lag.run ~on_round:(fun o -> rounds_log := o :: !rounds_log) cfg tracker in
  if json then begin
    let matrix_j = Obs_conv.matrix_to_json in
    let conv_j =
      match r.Lag.convergence with
      | None -> Jx.Null
      | Some (ns, steps) ->
          Jx.Obj
            [
              ("ns", Jx.Float (Int64.to_float ns)); ("steps", Jx.Int steps);
            ]
    in
    print_endline
      (Jx.to_string
         (Jx.Obj
            [
              ("tracker", Jx.String (Tracker.name tracker));
              ("replicas", Jx.Int r.Lag.replicas);
              ("severity", Jx.Float severity);
              ("updates", Jx.Int r.Lag.updates);
              ("syncs", Jx.Int r.Lag.syncs);
              ("blocked_syncs", Jx.Int r.Lag.blocked_syncs);
              ("heal_rounds", Jx.Int r.Lag.heal_rounds);
              ("converged", Jx.Bool r.Lag.converged);
              ("convergence", conv_j);
              ("peak_width", Jx.Int r.Lag.peak_width);
              ("peak_lag", Jx.Int r.Lag.peak_lag);
              ("mean_lag", Jx.Float r.Lag.mean_lag);
              ("peak_entropy", Jx.Float r.Lag.peak_entropy);
              ("divergence", matrix_j r.Lag.divergence);
              ("final", matrix_j r.Lag.final);
              ("shipped_bytes", Jx.Int r.Lag.shipped_bytes);
              ("minimal_bytes", Jx.Int r.Lag.minimal_bytes);
              ("redundant_bytes", Jx.Int r.Lag.redundant_bytes);
              ("delta_efficiency", Jx.Float r.Lag.delta_efficiency);
            ]))
  end
  else begin
    Format.printf
      "lag: tracker=%s replicas=%d rounds=%d severity=%.2f seed=%d@."
      (Tracker.name tracker) replicas rounds severity seed;
    Format.printf
      "  %d updates, %d syncs (%d blocked by weather), peak width %d, \
       peak lag %d, mean lag %.2f@."
      r.Lag.updates r.Lag.syncs r.Lag.blocked_syncs r.Lag.peak_width
      r.Lag.peak_lag r.Lag.mean_lag;
    Format.printf "divergence at quiescence (= equal, > dominates, < \
                   dominated, # concurrent):@.%a"
      Obs_conv.pp_matrix r.Lag.divergence;
    Format.printf "converged: %b (%d heal rounds)@." r.Lag.converged
      r.Lag.heal_rounds;
    (match r.Lag.convergence with
    | Some (ns, steps) ->
        Format.printf "  convergence: %d steps, %Ld ns after last write@."
          steps ns
    | None -> ());
    Format.printf
      "sync delta: shipped=%dB minimal=%dB redundant=%dB efficiency=%.3f@."
      r.Lag.shipped_bytes r.Lag.minimal_bytes r.Lag.redundant_bytes
      r.Lag.delta_efficiency;
    if not r.Lag.converged then exit 3
  end

(* Live mode: render the /lag.json view of a soaking process. *)
let lag_live host port timeout_s retries json =
  match fetch_json ~retries ~timeout_s ~host ~port "/lag.json" with
  | Error m -> die "%s" m
  | Ok j ->
      if json then print_endline (Jx.to_string j)
      else begin
        let obj name =
          match Jx.member name j with Some (Jx.Obj kvs) -> kvs | _ -> []
        in
        let num name =
          match Option.bind (Jx.member name j) Jx.to_float with
          | Some f -> Printf.sprintf "%g" f
          | None -> "-"
        in
        Format.printf "lag: live http://%s:%d/lag.json@." host port;
        let fields label kvs =
          Format.printf "  %s:%s@." label
            (if kvs = [] then " (none)"
             else
               String.concat ""
                 (List.map
                    (fun (k, v) ->
                      Printf.sprintf " %s=%s" k
                        (match Jx.to_float v with
                        | Some f -> Printf.sprintf "%g" f
                        | None -> "-"))
                    kvs))
        in
        fields "replica lag" (obj "replica_lag");
        fields "divergence pairs" (obj "divergence_pairs");
        Format.printf "  frontier width: %s, entropy %s@."
          (num "frontier_width") (num "divergence_entropy");
        (match
           ( Option.bind (Jx.member "convergence_ns" j) Jx.to_float,
             Option.bind (Jx.member "convergence_steps" j) Jx.to_float )
         with
        | Some ns, Some steps ->
            Format.printf "  convergence: %.0f steps, %.0f ns after last \
                           write@."
              steps ns
        | _ -> Format.printf "  convergence: not yet observed@.");
        fields "sync delta" (obj "sync_delta")
      end

let lag_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server address (live mode)")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "Render the /lag.json view of a live soak on PORT instead of \
             running the simulation")
  in
  let tracker_arg =
    Arg.(
      value
      & opt tracker_conv Tracker.stamps
      & info [ "t"; "tracker" ] ~docv:"TRACKER"
          ~doc:"Tracking mechanism for the simulated scenario")
  in
  let replicas =
    Arg.(
      value & opt int 3
      & info [ "replicas" ] ~docv:"N" ~doc:"Frontier size (>= 2)")
  in
  let rounds =
    Arg.(
      value & opt int 12
      & info [ "rounds" ] ~docv:"N" ~doc:"Active rounds before quiescence")
  in
  let p_update =
    Arg.(
      value & opt float 0.5
      & info [ "p-update" ] ~docv:"P"
          ~doc:"Per-replica write probability per round")
  in
  let syncs_per_round =
    Arg.(
      value & opt int 2
      & info [ "syncs-per-round" ] ~docv:"N"
          ~doc:"Sync attempts per round (the weather may block them)")
  in
  let severity =
    Arg.(
      value & opt float 0.6
      & info [ "severity" ] ~docv:"S"
          ~doc:"Partition-weather severity in [0, 1]")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Seed")
  in
  let epoch =
    Arg.(
      value & opt int 4
      & info [ "epoch" ] ~docv:"N" ~doc:"Weather epoch length, in rounds")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Socket timeout for the live fetch")
  in
  let retry = retry_arg in
  let wrap host port timeout retry tracker replicas rounds p_update
      syncs_per_round severity seed epoch json =
    if retry < 0 then die "--retry needs a non-negative count";
    match port with
    | Some p -> lag_live host p timeout retry json
    | None ->
        lag_sim tracker replicas rounds p_update syncs_per_round severity seed
          epoch json
  in
  Cmd.v
    (Cmd.info "lag"
       ~doc:
         "Convergence report: run a partition-weather scenario and render \
          the divergence matrix, per-replica staleness against the \
          causal-history oracle, time-to-convergence and the sync-delta \
          ledger — or, with --port, render the live /lag.json view of a \
          soaking process")
    Term.(
      const wrap $ host $ port $ timeout $ retry $ tracker_arg $ replicas
      $ rounds $ p_update $ syncs_per_round $ severity $ seed $ epoch $ json)

(* --- churn: the identity-space observatory's scenario --- *)

module Obs_id = Vstamp_obs.Idspace

(* Sim mode: run the replica-churn scenario — high-rate fork/retire
   under partition weather, a lockstep dynamic-VV lane — and render the
   identity-space report: fragmentation and reclamation analytics, the
   dynamic-VV baggage comparison, and the partition-of-unity audit
   (witnesses and exit 3 when it fails). *)
let churn_sim replicas min_replicas max_replicas rounds p_update
    syncs_per_round churn_rate gc_every severity seed epoch
    inject_corruption dot_out genealogy_out json =
  if not (severity >= 0.0 && severity <= 1.0) then
    die "--severity needs a value in [0, 1]";
  if replicas < 1 then die "--replicas needs at least 1";
  if min_replicas < 1 then die "--min-replicas needs at least 1";
  if max_replicas < replicas then
    die "--max-replicas needs a value >= --replicas";
  if churn_rate < 0.0 then die "--churn-rate needs a non-negative rate";
  if gc_every < 1 then die "--gc-every needs at least 1";
  let cfg =
    {
      Churn.replicas;
      min_replicas;
      max_replicas;
      rounds;
      p_update;
      syncs_per_round;
      churn_rate;
      gc_every;
      severity;
      seed;
      epoch;
      inject_corruption;
    }
  in
  let r = Churn.run cfg in
  let out_of file = if file = "-" then None else Some file in
  (match dot_out with
  | Some file -> write_data (out_of file) (Obs_id.to_dot r.Churn.genealogy)
  | None -> ());
  (match genealogy_out with
  | Some file ->
      write_data (out_of file)
        (Jx.to_string (Obs_id.to_json r.Churn.genealogy) ^ "\n")
  | None -> ());
  let audit = r.Churn.audit in
  if json then
    print_endline
      (Jx.to_string
         (Jx.Obj
            [
              ("replicas", Jx.Int replicas);
              ("max_replicas", Jx.Int max_replicas);
              ("rounds", Jx.Int r.Churn.rounds);
              ("churn_rate", Jx.Float churn_rate);
              ("severity", Jx.Float severity);
              ("updates", Jx.Int r.Churn.updates);
              ("syncs", Jx.Int r.Churn.syncs);
              ("blocked_syncs", Jx.Int r.Churn.blocked_syncs);
              ("forks", Jx.Int r.Churn.forks);
              ("retires", Jx.Int r.Churn.retires);
              ("blocked_retires", Jx.Int r.Churn.blocked_retires);
              ("peak_replicas", Jx.Int r.Churn.peak_replicas);
              ("final_replicas", Jx.Int r.Churn.final_replicas);
              ("stamp_id_bits", Jx.Int r.Churn.stamp_id_bits);
              ("stamp_peak_id_bits", Jx.Int r.Churn.stamp_peak_id_bits);
              ("stamp_id_width", Jx.Int r.Churn.stamp_id_width);
              ("stamp_max_depth", Jx.Int r.Churn.stamp_max_depth);
              ("stamp_size_bits", Jx.Int r.Churn.stamp_size_bits);
              ("reclaimed_bits", Jx.Int r.Churn.reclaimed_bits);
              ("fork_bits", Jx.Int r.Churn.fork_bits);
              ("oracle_bits", Jx.Int r.Churn.oracle_bits);
              ("entropy", Jx.Float r.Churn.entropy);
              ("oracle_entropy", Jx.Float r.Churn.oracle_entropy);
              ( "reduce_effectiveness",
                Jx.Float r.Churn.reduce_effectiveness );
              ("dvv_entries", Jx.Int r.Churn.dvv_entries);
              ("dvv_retired_entries", Jx.Int r.Churn.dvv_retired_entries);
              ( "dvv_peak_retired_entries",
                Jx.Int r.Churn.dvv_peak_retired_entries );
              ("dvv_size_bits", Jx.Int r.Churn.dvv_size_bits);
              ("dvv_gc_dropped", Jx.Int r.Churn.dvv_gc_dropped);
              ("relation_mismatches", Jx.Int r.Churn.relation_mismatches);
              ("audit_clean", Jx.Bool r.Churn.audit_clean);
              ( "audit",
                Jx.Obj
                  [
                    ("audited", Jx.Int audit.Obs_id.audited);
                    ("fragments", Jx.Int audit.Obs_id.audit_fragments);
                    ( "violations",
                      Jx.List
                        (List.map Obs_id.violation_json
                           audit.Obs_id.violations) );
                  ] );
            ]))
  else begin
    Format.printf
      "churn: replicas=%d..%d rounds=%d rate=%.2f severity=%.2f seed=%d@."
      replicas max_replicas r.Churn.rounds churn_rate severity seed;
    Format.printf
      "  %d updates, %d syncs (%d blocked by weather), %d forks, %d \
       retires (%d blocked), population %d -> %d (peak %d)@."
      r.Churn.updates r.Churn.syncs r.Churn.blocked_syncs r.Churn.forks
      r.Churn.retires r.Churn.blocked_retires replicas
      r.Churn.final_replicas r.Churn.peak_replicas;
    Format.printf
      "  identity space: %d fragments, %d id bits (oracle %d), entropy \
       %.3f (oracle %.3f), max depth %d@."
      r.Churn.stamp_id_width r.Churn.stamp_id_bits r.Churn.oracle_bits
      r.Churn.entropy r.Churn.oracle_entropy r.Churn.stamp_max_depth;
    Format.printf
      "  reclamation: %d bits reclaimed of %d forked, reduce \
       effectiveness %.3f@."
      r.Churn.reclaimed_bits r.Churn.fork_bits r.Churn.reduce_effectiveness;
    Format.printf
      "  dynamic vv: %d entries (%d retired baggage, peak %d), %d size \
       bits, gc dropped %d@."
      r.Churn.dvv_entries r.Churn.dvv_retired_entries
      r.Churn.dvv_peak_retired_entries r.Churn.dvv_size_bits
      r.Churn.dvv_gc_dropped;
    Format.printf "  relation mismatches: %d@." r.Churn.relation_mismatches;
    if r.Churn.audit_clean then
      Format.printf "  audit: clean (%d replicas, %d fragments audited)@."
        audit.Obs_id.audited audit.Obs_id.audit_fragments
    else begin
      Format.printf "  audit: %d violation(s)@."
        (List.length audit.Obs_id.violations);
      List.iter
        (fun v -> Format.printf "    %a@." Obs_id.pp_violation v)
        audit.Obs_id.violations
    end
  end;
  if not r.Churn.audit_clean then exit 3

(* Live mode: render the /idspace.json view of a soaking process. *)
let churn_live host port timeout_s retries json =
  match fetch_json ~retries ~timeout_s ~host ~port "/idspace.json" with
  | Error m -> die "%s" m
  | Ok j ->
      if json then print_endline (Jx.to_string j)
      else begin
        let obj name =
          match Jx.member name j with Some (Jx.Obj kvs) -> kvs | _ -> []
        in
        let num name =
          match Option.bind (Jx.member name j) Jx.to_float with
          | Some f -> Printf.sprintf "%g" f
          | None -> "-"
        in
        Format.printf "churn: live http://%s:%d/idspace.json@." host port;
        let fields label kvs =
          Format.printf "  %s:%s@." label
            (if kvs = [] then " (none — has the soak run with --churn?)"
             else
               String.concat ""
                 (List.map
                    (fun (k, v) ->
                      Printf.sprintf " %s=%s" k
                        (match Jx.to_float v with
                        | Some f -> Printf.sprintf "%g" f
                        | None -> "-"))
                    kvs))
        in
        fields "identity space" (obj "idspace");
        fields "ops" (obj "ops");
        Format.printf "  reclaimed bits: %s, fork bits: %s@."
          (num "reclaimed_bits_total") (num "fork_bits_total")
      end

let churn_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server address (live mode)")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "Render the /idspace.json view of a live soak on PORT \
             instead of running the simulation")
  in
  let replicas =
    Arg.(
      value & opt int 4
      & info [ "replicas" ] ~docv:"N" ~doc:"Initial population (>= 1)")
  in
  let min_replicas =
    Arg.(
      value & opt int 2
      & info [ "min-replicas" ] ~docv:"N"
          ~doc:"Retires stop at this population floor")
  in
  let max_replicas =
    Arg.(
      value & opt int 16
      & info [ "max-replicas" ] ~docv:"N"
          ~doc:"Forks stop at this population ceiling")
  in
  let rounds =
    Arg.(
      value & opt int 16 & info [ "rounds" ] ~docv:"N" ~doc:"Scenario rounds")
  in
  let p_update =
    Arg.(
      value & opt float 0.5
      & info [ "p-update" ] ~docv:"P"
          ~doc:"Per-replica write probability per round")
  in
  let syncs_per_round =
    Arg.(
      value & opt int 2
      & info [ "syncs-per-round" ] ~docv:"N"
          ~doc:"Sync attempts per round (the weather may block them)")
  in
  let churn_rate =
    Arg.(
      value & opt float 1.0
      & info [ "churn-rate" ] ~docv:"RATE"
          ~doc:
            "Expected forks per round, and independently expected \
             retire attempts per round.  Forks are autonomous (never \
             weather-blocked — the paper's point); retires need \
             connectivity")
  in
  let gc_every =
    Arg.(
      value & opt int 1
      & info [ "gc-every" ] ~docv:"N"
          ~doc:"Dynamic-VV gc sweep cadence, in rounds")
  in
  let severity =
    Arg.(
      value & opt float 0.4
      & info [ "severity" ] ~docv:"S"
          ~doc:"Partition-weather severity in [0, 1]")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Seed")
  in
  let epoch =
    Arg.(
      value & opt int 4
      & info [ "epoch" ] ~docv:"N" ~doc:"Weather epoch length, in rounds")
  in
  let inject_corruption =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-corruption" ] ~docv:"ROUND"
          ~doc:
            "Fault injection: at ROUND, corrupt one live replica's \
             fragment inventory so the partition-of-unity audit must \
             produce an overlap witness (and the command exit 3) — \
             proof the auditor is actually wired in")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the genealogy DAG as Graphviz DOT to FILE (- for \
             stdout): live nodes bold, consumed nodes grey, retire \
             edges dashed")
  in
  let genealogy_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "genealogy" ] ~docv:"FILE"
          ~doc:
            "Write the full genealogy export (vstamp-idspace/1 JSON: \
             every incarnation with lineage and fragment, stats and the \
             audit) to FILE (- for stdout)")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Socket timeout for the live fetch")
  in
  let retry = retry_arg in
  let wrap host port timeout retry replicas min_replicas max_replicas rounds
      p_update syncs_per_round churn_rate gc_every severity seed epoch
      inject_corruption dot_out genealogy_out json =
    if retry < 0 then die "--retry needs a non-negative count";
    match port with
    | Some p -> churn_live host p timeout retry json
    | None ->
        churn_sim replicas min_replicas max_replicas rounds p_update
          syncs_per_round churn_rate gc_every severity seed epoch
          inject_corruption dot_out genealogy_out json
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Identity-space observatory: run the replica-churn scenario \
          (high-rate autonomous fork / weather-gated retire, a lockstep \
          dynamic-VV lane) and render fragmentation analytics, id-digit \
          reclamation vs the oracle minimum, the dynamic-VV retired- \
          entry baggage comparison and the partition-of-unity audit \
          (exit 3 on a violation); --dot/--genealogy export the lineage \
          DAG; or, with --port, render the live /idspace.json view of a \
          soaking process")
    Term.(
      const wrap $ host $ port $ timeout $ retry $ replicas $ min_replicas
      $ max_replicas $ rounds $ p_update $ syncs_per_round $ churn_rate
      $ gc_every $ severity $ seed $ epoch $ inject_corruption $ dot_out
      $ genealogy_out $ json)

(* --- report: markdown soak post-mortem --- *)

module Obs_tsdb = Vstamp_obs.Tsdb
module Obs_alert = Vstamp_obs.Alert

(* One recorded series, uniform across the live (/range.json) and dump
   (--dump) sources: buckets of (t, min, max, avg, last, count). *)
type report_series = {
  rs_name : string;
  rs_kind : string;
  rs_points : (float * float * float * float * float * int) list;
}

let report_points_of_json j =
  match Jx.member "points" j with
  | Some (Jx.List pts) ->
      List.filter_map
        (fun p ->
          let f k = Option.bind (Jx.member k p) Jx.to_float in
          let i k = Option.bind (Jx.member k p) Jx.to_int in
          match (f "t", f "min", f "max", f "avg", f "last", i "count") with
          | Some t, Some mn, Some mx, Some avg, Some last, Some n ->
              Some (t, mn, mx, avg, last, n)
          | _ -> None)
        pts
  | _ -> []

let report_series_live ~host ~port ~timeout_s ~retries ~window_s ~step_s =
  let fetch_json ~host ~port path =
    fetch_json ~retries ~timeout_s ~host ~port path
  in
  let index =
    match fetch_json ~host ~port "/range.json" with
    | Ok j -> j
    | Error m -> die "%s" m
  in
  let metrics =
    match Jx.member "metrics" index with
    | Some (Jx.List ms) -> List.filter_map Jx.to_str ms
    | _ -> die "GET /range.json: no metrics index in response"
  in
  let series =
    List.filter_map
      (fun metric ->
        match
          fetch_json ~host ~port
            (Printf.sprintf "/range.json?from=-%g&step=%g&metric=%s" window_s
               step_s metric)
        with
        | Error _ -> None
        | Ok j -> (
            match report_points_of_json j with
            | [] -> None
            | points ->
                let kind =
                  match Option.bind (Jx.member "kind" j) Jx.to_str with
                  | Some k -> k
                  | None -> "?"
                in
                Some { rs_name = metric; rs_kind = kind; rs_points = points }))
      metrics
  in
  let alerts =
    match fetch_json ~host ~port "/alerts.json" with
    | Ok j -> Some j
    | Error _ -> None
  in
  (series, alerts)

let report_series_dump ~file ~window_s ~step_s =
  let json =
    match read_file file with
    | Error (`Msg m) -> die "%s: %s" file m
    | Ok text -> (
        match Jx.of_string (String.trim text) with
        | Ok j -> j
        | Error m -> die "%s: bad JSON: %s" file m)
  in
  match Obs_tsdb.of_json json with
  | Error m -> die "%s: %s" file m
  | Ok (tsdb, alerts) ->
      let series =
        match Obs_tsdb.time_bounds tsdb with
        | None -> []
        | Some (lo, hi) ->
            let from_s =
              if window_s > 0.0 then Stdlib.max lo (hi -. window_s) else lo
            in
            let to_s = hi +. 1e-6 in
            let step_s =
              if step_s > 0.0 then step_s
              else Stdlib.max 1e-9 ((to_s -. from_s) /. 60.0)
            in
            List.filter_map
              (fun name ->
                match
                  Obs_tsdb.query tsdb ~metric:name ~from_s ~to_s ~step_s
                with
                | [] -> None
                | points ->
                    let kind =
                      match Obs_tsdb.series_kind tsdb name with
                      | Some Obs_tsdb.Counter -> "counter"
                      | Some Obs_tsdb.Gauge -> "gauge"
                      | Some Obs_tsdb.Histogram -> "histogram"
                      | None -> "?"
                    in
                    Some
                      {
                        rs_name = name;
                        rs_kind = kind;
                        rs_points =
                          List.map
                            (fun p ->
                              ( p.Obs_tsdb.t_s,
                                p.Obs_tsdb.min,
                                p.Obs_tsdb.max,
                                (if p.Obs_tsdb.count = 0 then 0.0
                                 else
                                   p.Obs_tsdb.sum
                                   /. float_of_int p.Obs_tsdb.count),
                                p.Obs_tsdb.last,
                                p.Obs_tsdb.count ))
                            points;
                      })
              (Obs_tsdb.names tsdb)
      in
      (series, alerts)

let report_percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
      sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

let report_time t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let report_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

(* The post-mortem document: summary, alert timeline, GC summary, then
   a sparkline block and percentile table per recorded metric. *)
let render_report ~source ~series ~alerts =
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  out "# vstamp soak post-mortem\n\n";
  out "- source: %s\n" source;
  let bounds =
    List.concat_map
      (fun rs -> List.map (fun (t, _, _, _, _, _) -> t) rs.rs_points)
      series
  in
  (match bounds with
  | [] -> out "- window: (no recorded samples)\n"
  | ts ->
      let lo = List.fold_left Float.min infinity ts in
      let hi = List.fold_left Float.max neg_infinity ts in
      out "- window: %s → %s (%.1f s)\n" (report_time lo) (report_time hi)
        (hi -. lo));
  out "- series recorded: %d\n\n" (List.length series);
  (* alerts *)
  out "## Alerts\n\n";
  (match Option.bind alerts (Jx.member "rules") with
  | Some (Jx.List (_ :: _ as rules)) ->
      out "| rule | state | condition | value |\n";
      out "|---|---|---|---|\n";
      List.iter
        (fun r ->
          let str k =
            Option.value ~default:"-"
              (Option.bind (Jx.member k r) Jx.to_str)
          in
          let value =
            match Option.bind (Jx.member "value" r) Jx.to_float with
            | Some v -> report_num v
            | None -> "-"
          in
          out "| %s | %s | `%s` | %s |\n" (str "name") (str "state")
            (str "rule") value)
        rules
  | _ -> out "No alert rules were loaded.\n");
  (match Option.bind alerts (Jx.member "transitions") with
  | Some (Jx.List (_ :: _ as trs)) ->
      out "\n### Timeline\n\n";
      out "| time | rule | transition |\n";
      out "|---|---|---|\n";
      List.iter
        (fun tr ->
          let t =
            match Option.bind (Jx.member "t_s" tr) Jx.to_float with
            | Some t -> report_time t
            | None -> "-"
          in
          let str k =
            Option.value ~default:"-"
              (Option.bind (Jx.member k tr) Jx.to_str)
          in
          out "| %s | %s | %s |\n" t (str "rule") (str "to"))
        trs
  | _ -> ());
  out "\n";
  (* GC summary *)
  let stats_of rs =
    let avgs =
      Array.of_list (List.map (fun (_, _, _, a, _, _) -> a) rs.rs_points)
    in
    Array.sort compare avgs;
    let mins = List.map (fun (_, m, _, _, _, _) -> m) rs.rs_points in
    let maxs = List.map (fun (_, _, m, _, _, _) -> m) rs.rs_points in
    let n = List.fold_left (fun a (_, _, _, _, _, c) -> a + c) 0 rs.rs_points in
    let weighted_sum =
      List.fold_left
        (fun a (_, _, _, avg, _, c) -> a +. (avg *. float_of_int c))
        0.0 rs.rs_points
    in
    let last =
      match List.rev rs.rs_points with
      | (_, _, _, _, l, _) :: _ -> l
      | [] -> 0.0
    in
    ( n,
      List.fold_left Float.min infinity mins,
      (if n = 0 then 0.0 else weighted_sum /. float_of_int n),
      report_percentile avgs 0.5,
      report_percentile avgs 0.95,
      List.fold_left Float.max neg_infinity maxs,
      last )
  in
  let runtime_series =
    List.filter
      (fun rs -> String.starts_with ~prefix:"runtime_" rs.rs_name)
      series
  in
  out "## Runtime / GC\n\n";
  (match runtime_series with
  | [] -> out "No runtime telemetry was recorded.\n\n"
  | rts ->
      out "| metric | last | min | mean | max |\n";
      out "|---|---|---|---|---|\n";
      List.iter
        (fun rs ->
          let _, mn, mean, _, _, mx, last = stats_of rs in
          out "| `%s` | %s | %s | %s | %s |\n" rs.rs_name (report_num last)
            (report_num mn) (report_num mean) (report_num mx))
        rts;
      out "\n");
  (* per-metric blocks *)
  out "## Metrics\n\n";
  List.iter
    (fun rs ->
      out "### `%s` (%s)\n\n" rs.rs_name rs.rs_kind;
      let avgs = List.map (fun (_, _, _, a, _, _) -> a) rs.rs_points in
      out "```\n%s\n```\n\n" (Vstamp_obs.Dash.sparkline ~width:60 avgs);
      let n, mn, mean, p50, p95, mx, last = stats_of rs in
      out "| samples | min | mean | p50 | p95 | max | last |\n";
      out "|---|---|---|---|---|---|---|\n";
      out "| %d | %s | %s | %s | %s | %s | %s |\n\n" n (report_num mn)
        (report_num mean) (report_num p50) (report_num p95) (report_num mx)
        (report_num last))
    series;
  Buffer.contents buf

(* Cluster mode: a cross-node post-mortem from a `soak --cluster`
   artifact directory — merge every node's span log into one
   stamp-ordered timeline, validate it against the wall clocks, and
   summarize each worker's flight-recorder dump. *)
let report_cluster dir output =
  let entries =
    match Sys.readdir dir with
    | files -> List.sort compare (Array.to_list files)
    | exception Sys_error m -> die "--cluster %s: %s" dir m
  in
  let span_files =
    List.filter (fun f -> Filename.check_suffix f ".spans.jsonl") entries
  in
  if span_files = [] then die "--cluster %s: no *.spans.jsonl span logs" dir;
  let spans =
    List.concat_map
      (fun f ->
        match Tmerge.load_file (Filename.concat dir f) with
        | Ok sps -> sps
        | Error m -> die "%s" m)
      span_files
  in
  let merged = Tmerge.merge ~leq:stamp_label_leq spans in
  let rep = Tmerge.validate ~leq:stamp_label_leq spans in
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "# vstamp cluster post-mortem\n\n";
  out "- source: `%s` (%d span logs)\n" dir (List.length span_files);
  out "- spans: %d over %d nodes (%s), %d carrying stamp labels\n"
    rep.Tmerge.rp_spans
    (List.length rep.Tmerge.rp_nodes)
    (String.concat ", " rep.Tmerge.rp_nodes)
    rep.Tmerge.rp_stamped;
  out "- stamp-ordered pairs: %d (%d cross-node — the orderings wall \
       clocks could not justify)\n"
    rep.Tmerge.rp_ordered_pairs rep.Tmerge.rp_cross_node_ordered_pairs;
  out "- contradictions (wall clock vs stamp order): %d\n\n"
    (List.length rep.Tmerge.rp_contradictions);
  (match rep.Tmerge.rp_contradictions with
  | [] -> ()
  | prs ->
      out "## Contradictions\n\n";
      out "| stamp-before | wall-before |\n|---|---|\n";
      List.iter
        (fun (a, b) ->
          out "| %s/%s | %s/%s |\n" a.Tr.sp_node a.Tr.sp_name b.Tr.sp_node
            b.Tr.sp_name)
        prs;
      out "\n");
  out "## Merged timeline (stamp order)\n\n";
  out "| seq | node | span | stamp | ms |\n|---|---|---|---|---|\n";
  let shown = 40 in
  List.iteri
    (fun i sp ->
      if i < shown then
        out "| %d | %s | %s | %s | %.3f |\n" i sp.Tr.sp_node sp.Tr.sp_name
          (match sp.Tr.sp_stamp with
          | Some s -> Printf.sprintf "`%s`" s
          | None -> "-")
          (Int64.to_float (Int64.sub sp.Tr.sp_end_ns sp.Tr.sp_start_ns)
          /. 1e6))
    merged;
  if List.length merged > shown then
    out "\n… %d more spans (full trace: `%s`)\n"
      (List.length merged - shown)
      (Filename.concat dir "trace.chrome.json");
  out "\n## Workers\n\n";
  let tsdbs =
    List.filter (fun f -> Filename.check_suffix f ".tsdb.json") entries
  in
  if tsdbs = [] then out "No per-worker flight-recorder dumps found.\n"
  else begin
    out "| worker | recorded series | window (s) |\n|---|---|---|\n";
    List.iter
      (fun f ->
        let name = Filename.chop_suffix f ".tsdb.json" in
        match read_file (Filename.concat dir f) with
        | Error (`Msg m) -> out "| `%s` | (unreadable: %s) | - |\n" name m
        | Ok text -> (
            match Jx.of_string (String.trim text) with
            | Error m -> out "| `%s` | (bad JSON: %s) | - |\n" name m
            | Ok j -> (
                match Obs_tsdb.of_json j with
                | Error m -> out "| `%s` | (%s) | - |\n" name m
                | Ok (tsdb, _) ->
                    let window =
                      match Obs_tsdb.time_bounds tsdb with
                      | Some (lo, hi) -> Printf.sprintf "%.1f" (hi -. lo)
                      | None -> "-"
                    in
                    out "| `%s` | %d | %s |\n" name
                      (List.length (Obs_tsdb.names tsdb))
                      window)))
      tsdbs
  end;
  write_data output (Buffer.contents buf)

let report host port timeout_s retries dump cluster output window step =
  if retries < 0 then die "--retry needs a non-negative count";
  match cluster with
  | Some dir ->
      if port <> None || dump <> None then
        die "--cluster is its own source; drop --port/--dump";
      report_cluster dir output
  | None ->
      let window_s =
        match Obs_alert.duration_of_string window with
        | Ok s -> s
        | Error m -> die "--window: %s" m
      in
      let series, alerts =
        match (port, dump) with
        | Some _, Some _ ->
            die "use either --port (live) or --dump (file), not both"
        | Some port, None ->
            let step_s =
              if step > 0.0 then step else Stdlib.max 0.001 (window_s /. 60.0)
            in
            report_series_live ~host ~port ~timeout_s ~retries ~window_s
              ~step_s
        | None, Some file -> report_series_dump ~file ~window_s ~step_s:step
        | None, None ->
            die
              "need a source: --port for a live soak, --dump for a tsdb \
               dump, --cluster for a cluster directory"
      in
      let source =
        match (port, dump) with
        | Some port, _ -> Printf.sprintf "live soak at http://%s:%d" host port
        | _, Some file -> Printf.sprintf "tsdb dump `%s`" file
        | _ -> assert false
      in
      write_data output (render_report ~source ~series ~alerts)

let report_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server address (live mode)")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Read the history from a live soak's /range.json")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:"Read the history from a `vstamp soak --tsdb-out` dump")
  in
  let cluster =
    Arg.(
      value
      & opt (some string) None
      & info [ "cluster" ] ~docv:"DIR"
          ~doc:
            "Render a cross-node post-mortem from a `soak --cluster` \
             artifact directory: the stamp-ordered merged timeline, the \
             causal-ordering validation and per-worker summaries")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Socket timeout per live fetch")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the markdown here (default stdout)")
  in
  let window =
    Arg.(
      value & opt string "10m"
      & info [ "window" ] ~docv:"DURATION"
          ~doc:"How far back to report (e.g. 90s, 10m, 2h)")
  in
  let step =
    Arg.(
      value & opt float 0.0
      & info [ "step" ] ~docv:"SECONDS"
          ~doc:"Bucket width (default: window/60)")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a markdown soak post-mortem — alert timeline, GC \
          summary, and a sparkline block plus percentile table per \
          recorded metric — from a live soak's /range.json and \
          /alerts.json or from a --tsdb-out dump file; or, with \
          --cluster DIR, a cross-node post-mortem with the \
          stamp-ordered merged trace")
    Term.(
      const report $ host $ port $ timeout $ retry_arg $ dump $ cluster
      $ output $ window $ step)

(* --- serve: a networked anti-entropy node --- *)

(* One real replica on the network: a Stamped_kv store served over the
   vstamp-sync/1 framed protocol (lib/net), converging with its peers
   through periodic anti-entropy rounds, with the HTTP observability
   plane (/metrics, /healthz, /stats.json, /peers.json) embedded. *)
let serve sync_port http_port addr peers node_id interval duration puts
    port_file quiet =
  if interval <= 0.0 then die "--interval needs a positive cadence";
  if duration < 0.0 then die "--duration needs a non-negative duration";
  let peers = List.map (parse_hostport ~flag:"--peer") peers in
  let puts =
    List.map
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i ->
            ( String.sub spec 0 i,
              String.sub spec (i + 1) (String.length spec - i - 1) )
        | None -> die "--put %s: expected KEY=VALUE" spec)
      puts
  in
  let node_id =
    match node_id with
    | Some id -> id
    | None -> Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ())
  in
  let registry = Obs_registry.create () in
  let module N = Vstamp_net.Node in
  let node =
    try
      N.create ~registry ~interval_s:interval ~addr ~node_id ~port:sync_port
        ~peers ()
    with Unix.Unix_error (e, _, _) ->
      die "cannot bind %s:%d: %s" addr sync_port (Unix.error_message e)
  in
  List.iter (fun (key, value) -> N.put node ~key value) puts;
  let health () =
    [
      ("node_id", Jx.String node_id);
      ("sync_port", Jx.Int (N.port node));
      ("store_keys", Jx.Int (List.length (N.keys node)));
    ]
  in
  let srv =
    try
      HE.create ~registry ~health
        ~peers:(fun () -> N.peers_json node)
        ~addr ~port:http_port ()
    with Unix.Unix_error (e, _, _) ->
      N.stop node;
      die "cannot bind %s:%d: %s" addr http_port (Unix.error_message e)
  in
  (* two lines: the sync port, then the HTTP port — scripts race-free
     against ephemeral (--port 0) binds *)
  (match port_file with
  | Some file ->
      write_data (Some file)
        (Printf.sprintf "%d\n%d\n" (N.port node) (HE.port srv))
  | None -> ());
  if not quiet then
    Format.printf
      "serve: node %s syncing on %s:%d (%d peer%s, every %gs), http on \
       http://%s:%d (/metrics /healthz /stats.json /peers.json) — \
       SIGINT/SIGTERM for graceful shutdown@."
      node_id addr (N.port node) (List.length peers)
      (if List.length peers = 1 then "" else "s")
      interval addr (HE.port srv);
  let stop = ref false in
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  N.start_dialers node;
  let t0 = Unix.gettimeofday () in
  while
    (not !stop) && (duration = 0.0 || Unix.gettimeofday () -. t0 < duration)
  do
    Thread.delay 0.1
  done;
  N.stop node;
  HE.stop srv;
  if not quiet then
    Format.printf "serve: node %s stopped (%d keys)@." node_id
      (List.length (N.keys node))

let serve_cmd =
  let sync_port =
    Arg.(
      value & opt int 9470
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port for the vstamp-sync/1 protocol (0 for ephemeral)")
  in
  let http_port =
    Arg.(
      value & opt int 9464
      & info [ "http-port" ] ~docv:"PORT"
          ~doc:"Port for the embedded HTTP plane (0 for ephemeral)")
  in
  let addr =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "addr" ] ~docv:"ADDR" ~doc:"Bind address for both planes")
  in
  let peers =
    Arg.(
      value & opt_all string []
      & info [ "peer" ] ~docv:"HOST:PORT"
          ~doc:
            "A peer's sync endpoint; repeatable.  Each peer gets its own \
             dial thread running an anti-entropy round every --interval, \
             reconnecting with exponential backoff (0.2s doubling, capped \
             at 5s) when the peer is down")
  in
  let node_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "node-id" ] ~docv:"ID"
          ~doc:"Node id for the handshake (default: hostname-pid)")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Anti-entropy round cadence per peer")
  in
  let duration =
    Arg.(
      value & opt float 0.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Stop after this long (0 = run until signalled)")
  in
  let puts =
    Arg.(
      value & opt_all string []
      & info [ "put" ] ~docv:"KEY=VALUE"
          ~doc:"Seed the store with a write before syncing; repeatable")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound ports (sync then HTTP, one per line) to \
             FILE once listening — for scripts using ephemeral ports")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No startup banner")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a networked anti-entropy node: a stamped key-value replica \
          speaking the framed vstamp-sync/1 protocol on TCP, converging \
          with its --peer nodes through periodic engine sessions \
          (frontier offer, delta request, reconcile), with /metrics, \
          /healthz, /stats.json and /peers.json served per node")
    Term.(
      const serve $ sync_port $ http_port $ addr $ peers $ node_id
      $ interval $ duration $ puts $ port_file $ quiet)

(* --- main --- *)

let main_cmd =
  Cmd.group
    (Cmd.info "vstamp" ~version:"1.0.0"
       ~doc:
         "Version stamps: decentralized version vectors (Almeida, Baquero, \
          Fonte; ICDCS 2002)")
    [
      figures_cmd;
      relate_cmd;
      update_cmd;
      fork_cmd;
      join_cmd;
      reduce_cmd;
      simulate_cmd;
      compare_cmd;
      metrics_cmd;
      bench_cmd;
      soak_cmd;
      serve_cmd;
      top_cmd;
      scrape_cmd;
      lag_cmd;
      churn_cmd;
      report_cmd;
      profile_cmd;
      gen_trace_cmd;
      trace_cmd;
      draw_cmd;
      frontier_cmd;
      encode_cmd;
      decode_cmd;
    ]

let () =
  (* the CLI links unix, so spans get a real wall clock instead of the
     dependency-free Sys.time default *)
  Vstamp_obs.Clock.set_source Unix.gettimeofday;
  exit (Cmd.eval main_cmd)
