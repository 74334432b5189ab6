(** Replica-churn scenario: high-rate autonomous fork/retire under
    partition weather, observed by the identity-space observatory.

    The paper's motivating workload: replicas are created by {e fork}
    (no id server — the operation is autonomous and never blocked by a
    partition) and destroyed by {e retire} (a join into a surviving
    replica, which {e does} need connectivity and is weather-gated,
    like ordinary syncs).  The scenario drives a stamp population
    through that lifecycle while a lockstep {!Vstamp_vv.Dynamic_vv}
    lane mirrors every operation, so one run yields both sides of the
    E17 comparison: stamp id digits reclaimed by join/reduce versus
    dynamic-VV retired-entry baggage awaiting garbage collection.

    Every round the live id fragments are fed to
    {!Vstamp_obs.Idspace}, the partition-of-unity audit runs, and the
    [vstamp_idspace_*] / [sim_churn_*] families are published.  The
    run is deterministic in [config.seed]. *)

type config = {
  replicas : int;  (** initial population *)
  min_replicas : int;  (** retires stop at this floor *)
  max_replicas : int;  (** forks stop at this ceiling *)
  rounds : int;
  p_update : float;  (** per-replica update probability per round *)
  syncs_per_round : int;  (** weather-gated pairwise syncs per round *)
  churn_rate : float;
      (** expected forks per round, and independently expected retire
          attempts per round *)
  gc_every : int;  (** dynamic-VV {!Vstamp_vv.Dynamic_vv.gc} sweep cadence *)
  severity : float;  (** partition weather severity, 0..1 *)
  seed : int;
  epoch : int;  (** weather epoch length in rounds *)
  inject_corruption : int option;
      (** fault injection: at this round, corrupt one live replica's
          fragment inventory (an overlapping fragment) so the
          partition-of-unity audit must produce a witness *)
}

val default_config : config

type round_obs = {
  round : int;
  live : int;
  id_bits : int;
  fragments : int;
  entropy : float;
  dvv_retired_entries : int;
  violations : int;
}

type result = {
  rounds : int;
  updates : int;
  syncs : int;
  blocked_syncs : int;
  forks : int;  (** churn forks (initial population setup not counted) *)
  retires : int;
  blocked_retires : int;  (** retire attempts refused by the weather *)
  peak_replicas : int;
  final_replicas : int;
  (* stamp lane *)
  stamp_id_bits : int;  (** final total id digits across the live set *)
  stamp_peak_id_bits : int;
  stamp_id_width : int;  (** final total fragment count *)
  stamp_peak_id_width : int;
  stamp_max_depth : int;
  stamp_size_bits : int;  (** final total stamp wire size *)
  reclaimed_bits : int;  (** cumulative digits reclaimed by join/reduce *)
  fork_bits : int;  (** cumulative digits added by forks *)
  oracle_bits : int;  (** minimum digits for the final population size *)
  entropy : float;
  oracle_entropy : float;
  reduce_effectiveness : float;
  (* dynamic-VV lane *)
  dvv_entries : int;  (** final total entries including baggage *)
  dvv_retired_entries : int;  (** final retired-entry baggage width *)
  dvv_peak_retired_entries : int;
  dvv_size_bits : int;
  dvv_peak_size_bits : int;
  dvv_gc_dropped : int;  (** baggage entries reclaimed by gc sweeps *)
  relation_mismatches : int;
      (** pairs where stamp order and dynamic-VV order disagree; both
          trackers are accurate, so anything nonzero is a bug *)
  audit : Vstamp_obs.Idspace.audit;
      (** the first failing audit if any round failed, else the final
          round's (clean) audit *)
  audit_clean : bool;  (** every observed round's audit had no violations *)
  genealogy : Vstamp_obs.Idspace.t;
      (** the full inventory, for DOT/JSON export *)
}

val run :
  ?registry:Vstamp_obs.Registry.t ->
  ?on_round:(round_obs -> unit) ->
  config ->
  result
(** Run the scenario over the production stamps.
    @raise Invalid_argument on a malformed config ([replicas < 1],
    [min_replicas < 1], [max_replicas < replicas], negative rates). *)
