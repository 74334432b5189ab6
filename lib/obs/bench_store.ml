type run = Jsonx.t

let schema_prefix = "vstamp-bench-core/"

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let of_json j =
  match Jsonx.member "schema" j with
  | Some (Jsonx.String s) when has_prefix ~prefix:schema_prefix s -> Ok j
  | Some (Jsonx.String s) ->
      Error (Printf.sprintf "unrecognized bench schema %S" s)
  | Some _ -> Error "bench run: schema field is not a string"
  | None -> Error "bench run: missing schema field"

let read_file file =
  try
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error m -> Error m

let load ~file =
  match read_file file with
  | Error m -> Error (Printf.sprintf "%s: %s" file m)
  | Ok s -> (
      match Jsonx.of_string (String.trim s) with
      | Error m -> Error (Printf.sprintf "%s: %s" file m)
      | Ok j -> (
          match of_json j with
          | Error m -> Error (Printf.sprintf "%s: %s" file m)
          | Ok run -> Ok run))

let to_json run = run

let schema run =
  match Jsonx.member "schema" run with
  | Some (Jsonx.String s) -> s
  | _ -> assert false (* enforced by [of_json] *)

let git_rev run = Option.bind (Jsonx.member "git_rev" run) Jsonx.to_str

let config run =
  match Jsonx.member "config" run with
  | None -> None
  | Some c ->
      let seed =
        match Jsonx.member "seed" run with
        | Some s -> [ ("seed", s) ]
        | None -> []
      in
      Some (Jsonx.Obj (seed @ [ ("config", c) ]))

(* --- ledger --- *)

let append ~file json =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Jsonx.to_string json);
      output_char oc '\n')

let history ~file =
  match read_file file with
  | Error m -> Error (Printf.sprintf "%s: %s" file m)
  | Ok s ->
      let lines = String.split_on_char '\n' s in
      let rec go lineno acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
            if String.trim line = "" then go (lineno + 1) acc rest
            else (
              match Jsonx.of_string line with
              | Ok j -> go (lineno + 1) (j :: acc) rest
              | Error m ->
                  Error (Printf.sprintf "%s:%d: %s" file lineno m))
      in
      go 1 [] lines

(* --- comparison --- *)

type direction = Lower_better | Higher_better

type delta = {
  metric : string;
  baseline : float;
  current : float;
  worse_pct : float;
  direction : direction;
}

let float_field name obj = Option.bind (Jsonx.member name obj) Jsonx.to_float

let scalar_fields ~base ~direction names obj =
  List.filter_map
    (fun name ->
      Option.map
        (fun v -> (base ^ "/" ^ name, v, direction))
        (float_field name obj))
    names

let latency_metrics run =
  match Jsonx.member "op_latency_ns" run with
  | Some (Jsonx.Obj fields) ->
      (* non-numeric values are the /3 {"timed_out": true} markers —
         nothing to compare *)
      List.filter_map
        (fun (name, v) ->
          Option.map
            (fun f -> ("latency/" ^ name, f, Lower_better))
            (Jsonx.to_float v))
        fields
  | _ -> []

let size_metrics run =
  match Jsonx.member "sizes" run with
  | Some (Jsonx.List rows) ->
      List.concat_map
        (fun row ->
          match
            ( Option.bind (Jsonx.member "workload" row) Jsonx.to_str,
              Option.bind (Jsonx.member "n" row) Jsonx.to_int,
              Option.bind (Jsonx.member "tracker" row) Jsonx.to_str )
          with
          | Some w, Some n, Some t ->
              scalar_fields
                ~base:(Printf.sprintf "size/%s/n=%d/%s" w n t)
                ~direction:Lower_better
                [ "mean_bits"; "p95_bits"; "peak_bits" ]
                row
          | _ -> [])
        rows
  | _ -> []

let reduction_metrics run =
  match Jsonx.member "reduction" run with
  | Some (Jsonx.List rows) ->
      List.concat_map
        (fun row ->
          match Option.bind (Jsonx.member "trace" row) Jsonx.to_str with
          | Some trace ->
              let base = "reduction/" ^ trace in
              scalar_fields ~base ~direction:Lower_better
                [ "reduced_bits" ] row
              @ scalar_fields ~base ~direction:Higher_better [ "ratio" ] row
          | None -> [])
        rows
  | _ -> []

let monitor_metrics run =
  match Jsonx.member "monitor_overhead" run with
  | Some (Jsonx.Obj workloads) ->
      List.concat_map
        (fun (w, fields) ->
          scalar_fields ~base:("monitor/" ^ w) ~direction:Lower_better
            [ "monitor_slowdown"; "sampled_slowdown" ]
            fields)
        workloads
  | _ -> []

let convergence_metrics run =
  match Jsonx.member "convergence" run with
  | Some (Jsonx.List rows) ->
      (* schema /5: one row per (severity, tracker) of the E14 lane.
         convergence_ns is wall-clock noise and deliberately not
         extracted; a null convergence_steps (heal budget exhausted)
         simply contributes no metric. *)
      List.concat_map
        (fun row ->
          match
            ( Option.bind (Jsonx.member "severity" row) Jsonx.to_float,
              Option.bind (Jsonx.member "tracker" row) Jsonx.to_str )
          with
          | Some s, Some t ->
              let base = Printf.sprintf "convergence/severity=%g/%s" s t in
              scalar_fields ~base ~direction:Lower_better
                [ "convergence_steps"; "redundant_bytes"; "peak_lag" ]
                row
              @ scalar_fields ~base ~direction:Higher_better
                  [ "sync_delta_efficiency" ] row
          | _ -> [])
        rows
  | _ -> []

let recorder_metrics run =
  match Jsonx.member "recorder" run with
  | Some (Jsonx.Obj _ as obj) ->
      (* schema /6: the E15 flight-recorder lane.  footprint_bytes is a
         deterministic function of the store geometry; the tick costs
         are wall clock. *)
      scalar_fields ~base:"recorder" ~direction:Lower_better
        [ "tick_ns"; "overhead_pct_1s"; "overhead_pct_100ms"; "footprint_bytes" ]
        obj
  | _ -> []

let trace_metrics run =
  match Jsonx.member "trace" run with
  | Some (Jsonx.Obj _ as obj) ->
      (* schema /7: the E16 context-propagation lane.  header_bytes and
         span_json_bytes are deterministic wire/record sizes; the span
         costs are wall clock. *)
      scalar_fields ~base:"trace" ~direction:Lower_better
        [
          "with_span_ns"; "detached_ns"; "remote_span_ns"; "header_bytes";
          "span_json_bytes";
        ]
        obj
  | _ -> []

let idspace_metrics run =
  match Jsonx.member "idspace" run with
  | Some (Jsonx.List rows) ->
      (* schema /8: one row per churn rate of the E17 lane.  Everything
         here is deterministic in the scenario seed: the stamp lane's
         id-digit footprint against the dynamic-VV lane's retired-entry
         baggage. *)
      List.concat_map
        (fun row ->
          match
            Option.bind (Jsonx.member "churn_rate" row) Jsonx.to_float
          with
          | Some rate ->
              let base = Printf.sprintf "idspace/rate=%g" rate in
              scalar_fields ~base ~direction:Lower_better
                [
                  "stamp_id_bits"; "stamp_id_width"; "dvv_retired_entries";
                  "dvv_size_bits";
                ]
                row
              @ scalar_fields ~base ~direction:Higher_better
                  [ "reduce_effectiveness" ] row
          | None -> [])
        rows
  | _ -> []

let net_metrics run =
  match Jsonx.member "net" run with
  | Some (Jsonx.Obj _ as obj) ->
      (* schema /9: the E18 networked anti-entropy lane.  Byte counts
         and round counts are deterministic in the seeded workload;
         convergence_ns is wall-clock noise and deliberately not
         extracted. *)
      scalar_fields ~base:"net" ~direction:Lower_better
        [
          "wire_bytes"; "shipped_bytes"; "redundant_bytes"; "overhead_ratio";
          "rounds_to_convergence"; "protocol_errors";
        ]
        obj
  | _ -> []

let metrics run =
  List.sort
    (fun (a, _, _) (b, _, _) -> compare a b)
    (latency_metrics run @ size_metrics run @ reduction_metrics run
   @ monitor_metrics run @ convergence_metrics run @ recorder_metrics run
   @ trace_metrics run @ idspace_metrics run @ net_metrics run)

let config_compatibility ~baseline ~current =
  match (config baseline, config current) with
  | None, _ | _, None -> `Unknown
  | Some a, Some b ->
      if Jsonx.equal a b then `Same
      else
        `Mismatch
          (Printf.sprintf "baseline %s vs current %s" (Jsonx.to_string a)
             (Jsonx.to_string b))

let worse_pct ~direction ~baseline ~current =
  let towards_worse =
    match direction with
    | Lower_better -> current -. baseline
    | Higher_better -> baseline -. current
  in
  if baseline = 0.0 then
    if towards_worse > 0.0 then infinity
    else if towards_worse < 0.0 then neg_infinity
    else 0.0
  else 100.0 *. towards_worse /. Float.abs baseline

let compare_runs ?(ignore_config = false) ~baseline current =
  match config_compatibility ~baseline ~current with
  | `Mismatch m when not ignore_config ->
      Error
        ("runs have different configurations and are not comparable \
          point for point (pass --ignore-config to override): " ^ m)
  | `Same | `Unknown | `Mismatch _ ->
      let cur = Hashtbl.create 64 in
      List.iter
        (fun (name, v, _) -> Hashtbl.replace cur name v)
        (metrics current);
      Ok
        (List.filter_map
           (fun (metric, baseline, direction) ->
             match Hashtbl.find_opt cur metric with
             | None -> None
             | Some current ->
                 Some
                   {
                     metric;
                     baseline;
                     current;
                     worse_pct = worse_pct ~direction ~baseline ~current;
                     direction;
                   })
           (metrics baseline))

let missing_metrics ~baseline current =
  let cur = Hashtbl.create 64 in
  List.iter (fun (name, _, _) -> Hashtbl.replace cur name ()) (metrics current);
  List.filter_map
    (fun (metric, _, _) -> if Hashtbl.mem cur metric then None else Some metric)
    (metrics baseline)

let regressions ~tolerance deltas =
  List.filter (fun d -> d.worse_pct > tolerance) deltas

let improvements ~tolerance deltas =
  List.filter (fun d -> d.worse_pct < -.tolerance) deltas

let pct_string pct =
  if pct = infinity then "+inf%"
  else if pct = neg_infinity then "-inf%"
  else Printf.sprintf "%+.1f%%" pct

let pp_delta_table ?(limit = 20) ppf deltas =
  (* worst first; metric path breaks ties deterministically *)
  let sorted =
    List.sort
      (fun a b ->
        match compare b.worse_pct a.worse_pct with
        | 0 -> compare a.metric b.metric
        | c -> c)
      deltas
  in
  let shown = List.filteri (fun i _ -> i < limit) sorted in
  let width =
    List.fold_left (fun w d -> max w (String.length d.metric)) 6 shown
  in
  Format.fprintf ppf "%-*s %14s %14s %9s@." width "metric" "baseline"
    "current" "change";
  List.iter
    (fun d ->
      Format.fprintf ppf "%-*s %14.6g %14.6g %9s@." width d.metric d.baseline
        d.current (pct_string d.worse_pct))
    shown;
  let elided = List.length sorted - List.length shown in
  if elided > 0 then Format.fprintf ppf "(and %d more)@." elided
