(** The serving configuration: everything that determines a daemon's
    behaviour given its input stream.

    A batch run is determined by its {!Core.Instance.t} plus the policy and
    seed; an online daemon does not know its jobs up front, so its identity
    is the remainder — cluster shape, horizon, algorithm, seed, restart
    budget.  The config is written into the WAL header and every snapshot:
    crash recovery replays the logged submissions into a daemon rebuilt
    from this record, and kernel determinism does the rest (DESIGN.md §12).
    [workers] deliberately stays out of the durable identity checks'
    semantics: results are bit-identical for every worker count. *)

type t = {
  machines : int array;  (** per-organization machine endowment *)
  speeds : float array option;  (** related machines, flattened order *)
  horizon : int;  (** evaluation end; submissions must be released before *)
  algorithm : string;  (** registry name, e.g. ["ref"], ["fairshare"] *)
  seed : int;  (** RNG seed handed to the policy maker *)
  max_restarts : int option;  (** kill budget under faults *)
  workers : int option;  (** worker domains for parallel-capable policies *)
  groups : int;
      (** org-groups: the number of independent scheduling domains the
          organizations are partitioned into ({!Partition}).  Each group
          owns a contiguous block of orgs (and their machines), its own
          session, and its own WAL segment.  Part of the durable identity:
          the partition determines ψsp, so a resumed daemon must keep it.
          [1] (the default) is the unsharded daemon. *)
  federated : bool;
      (** the daemon accepts [endow] feeds: its sessions are constructed in
          federated mode ({!Federation.Mode}), so estimator policies build
          live sub-coalition simulators that follow the ownership stream.
          Part of the durable identity — recovery must rebuild sessions the
          same way to replay logged [Endow] records bit-identically. *)
}

val make :
  ?speeds:float array ->
  ?max_restarts:int ->
  ?workers:int ->
  ?groups:int ->
  ?federated:bool ->
  machines:int array ->
  horizon:int ->
  algorithm:string ->
  seed:int ->
  unit ->
  (t, string) result
(** Validates what {!Core.Instance.make} and {!Algorithms.Registry.find}
    would reject later: at least one machine, positive horizon, known
    algorithm, non-negative restart budget, positive workers, speeds length
    matching the machine count, [1 <= groups <= organizations] with at
    least one machine per org-group. *)

val organizations : t -> int
val total_machines : t -> int

val empty_instance : t -> Core.Instance.t
(** The job-less instance a fresh session starts from. *)

val codec : t Obs.Json.Codec.obj
(** The JSON object of the WAL header and of snapshots.  Decoding re-runs
    the {!make} validation. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}. *)

val equal : t -> t -> bool
(** Structural equality of the durable identity — [workers] excluded: a
    resumed daemon may use a different worker count without breaking
    bit-identity. *)

val pp : Format.formatter -> t -> unit
