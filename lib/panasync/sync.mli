(** Pairwise synchronization sessions between stores.

    A session walks the union of both stores' paths: files present on one
    side are replicated to the other (a fork — no global registry is
    consulted or updated), and files present on both are reconciled by
    their stamp relation.  Only truly concurrent copies surface as
    conflicts; stale copies are fast-forwarded silently, which is the
    paper's obsolete-vs-inconsistent distinction doing its job.

    One situation stamps alone cannot handle: the same logical path
    created {e independently} on both sides.  Such copies carry unrelated
    lineages (see {!File_copy}), so they always compare concurrent and
    surface as conflicts — unless their contents are identical, in which
    case there is observationally nothing to reconcile and the session
    reports them unchanged.

    Sessions run on the shared transport-agnostic anti-entropy engine
    ({!Vstamp_sync.Engine}): the initiator offers its frontier (stamp
    metadata plus a content digest per path), the responder requests
    only what it cannot prove redundant, and reconciliation happens
    responder-side with replica branches shipped back.  In-process the
    legs compose directly, so the result is indistinguishable from the
    historical full walk. *)

type policy =
  | Manual  (** Leave conflicting copies untouched and report them. *)
  | Prefer_left
  | Prefer_right
  | Merge of (left:string -> right:string -> string)
      (** Settle conflicts with a content-level merge function. *)

type outcome =
  | Created
  | Unchanged
  | Propagated_left_to_right
  | Propagated_right_to_left
  | Resolved
  | Conflict

type report = {
  path : string;
  relation : Vstamp_core.Relation.t option;
      (** [None] when the file existed on one side only. *)
  outcome : outcome;
}

val outcome_to_string : outcome -> string

val pp_report : Format.formatter -> report -> unit

val conflicts : report list -> report list

val sync_file :
  policy -> File_copy.t -> File_copy.t -> File_copy.t * File_copy.t * report
(** Reconcile two copies of one logical file.
    @raise Invalid_argument if their paths differ. *)

val session :
  ?policy:policy -> Store.t -> Store.t -> Store.t * Store.t * report list
(** Synchronize two stores; returns both updated stores and one report
    per logical path (sorted by path).  Default policy is [Manual]. *)

val converged : Store.t -> Store.t -> bool
(** Both stores hold content-identical copies of every logical path
    (observational convergence; further sessions are no-ops). *)

(** {1 Live instrumentation}

    Off by default.  When attached, every {!session} bumps
    [sync_rounds_total], every reconciled logical file bumps
    [sync_files_total{outcome=...}] (outcomes as slugs: [created],
    [unchanged], [propagated_lr], [propagated_rl], [resolved],
    [conflict]), the content bytes that crossed between the devices
    (replicated, propagated or resolved payloads) accumulate in
    [sync_bytes_total], and surfaced conflicts in
    [sync_conflicts_total].

    Delta accounting rides along: [sync_shipped_bytes_total] counts
    what the session's full walk exchanges (both copies' stamp metadata
    for every shared path, plus moved content),
    [sync_minimal_bytes_total] the minimal delta a frontier-exchange
    protocol would need (nothing for equivalent copies, the dominant
    side only for ordered ones), [sync_redundant_bytes_total] their
    difference, and the [sync_delta_efficiency] gauge the running
    [minimal / shipped] ratio ([1.0] = nothing wasted). *)
module Obs : sig
  val attach : ?registry:Vstamp_obs.Registry.t -> unit -> unit
  (** Start counting into [registry] (default
      {!Vstamp_obs.Registry.default}).  Re-attaching rebinds to the
      registry given last. *)

  val detach : unit -> unit

  val attached : unit -> bool
end
