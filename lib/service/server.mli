(** The scheduler daemon: a [select]-driven router in front of one
    {!Shard} per org-group.

    The service partitions along {!Partition}'s contiguous org-groups —
    the one boundary pooled scheduling does {e not} couple across (the
    paper's cooperative game is played within a consortium; separate
    groups are separate games).  Each group owns its own {!Online.t}
    engine, WAL segment, dedupe table, and overload detector; [shards]
    worker domains execute the groups (group [g] on worker [g mod W]).
    With one worker — the default — everything runs inline on the router
    thread and the daemon behaves exactly like the pre-sharding
    single-threaded server: requests are admitted in a single global
    arrival order per group, so each group's engine sees one canonical
    event stream regardless of how many clients race.

    Per iteration the router: accepts connections, reads available
    bytes, splits complete lines, and routes each feed to its org's
    group (bounded per-group admission — overflow is answered with a
    [backpressure] error, not dropped).  Control requests ([status],
    [psi], [snapshot], [drain]) are broadcast to every group and their
    parts merged: clocks by max, counters by sum, per-org arrays
    scattered back into global indexing.  Responses per connection are
    emitted in request order (a reorder buffer absorbs cross-shard
    completion races).

    Durability is per group, with group commit: accepted feeds are
    appended to the group's WAL segment and their acks {e held} until
    one [fsync] covers the batch — immediately when [commit_interval] is
    0 (the pre-sharding fsync-per-batch behaviour), else when the oldest
    held ack is [commit_interval] seconds old or [drain_batch] acks are
    held.  Either way no ack reaches a client before its record is
    durable: an acked submission survives [kill -9].

    Robustness (DESIGN.md §14) is unchanged per group: (cid, cseq)
    dedupe rebuilt from the WAL on recovery; overload detection driving
    shedding and (with [degrade_to]) estimator degradation — both now
    per group, so one hot org-group sheds or degrades while the others
    stay healthy.  Health is visible in [status] (estimator/degraded/
    shed/ack_ewma_ms/groups/shards/fsyncs) and in [Obs.Metrics]
    ([service.shed], [service.dup_acks], [service.degrade_switches],
    [service.recover_switches], [service.wal_sync_failures],
    [service.fsync_total], [service.acks_total], [service.queue_depth],
    [service.ack_ewma_ms]).

    Shutdown: a [drain] request or SIGTERM runs every group's engine to
    the horizon, writes final snapshots, answers pending clients,
    flushes, and returns.  SIGKILL at any point is recoverable: restart
    with the same state dir and every segment replays snapshot + WAL
    into a fresh engine, resuming bit-identically (kernel determinism;
    see DESIGN.md §12 and §15). *)

type config = {
  addr : Addr.t;
  service : Config.t;
      (** [service.groups] fixes the org-group partition — the semantic,
          durable part of sharding (it shapes the WAL layout).  [shards]
          below is pure execution and can change between runs. *)
  state_dir : string option;  (** [None] = ephemeral (no durability) *)
  queue_cap : int;
      (** bound on queued submissions + faults, divided evenly across
          org-groups (each group's bound is [queue_cap / groups]) *)
  snapshot_every : int;  (** auto-snapshot period in accepted records per group; 0 = only on request/drain *)
  drain_batch : int;
      (** max {e feed} requests entering a group's engine per pump;
          rejects and control requests are answered without consuming
          the budget (shedding must stay cheap under the flood that
          caused it).  Also the held-ack count that forces an early
          group commit. *)
  degrade_to : string option;
      (** estimator spec to switch to under sustained overload (e.g.
          ["rand:0.1,0.9"]); [None] disables degraded mode.  The switch —
          and the switch back on recovery — is logged as a [Mode] WAL
          record in the affected group's segment and enacted by
          rebuilding that group's engine from its full record history
          under the new estimator, so crash recovery reproduces it
          bit-identically. *)
  overload : Overload.config;  (** detector thresholds and dwell times *)
  shards : int;
      (** worker domains executing the org-groups, clamped to
          [1 <= shards <= groups].  1 (the default) runs everything
          inline on the router thread — no domains, the pre-sharding
          behaviour.  Scheduling state is bit-identical across any
          [shards] value for a fixed [groups]: the partition, not the
          execution, decides which engine sees which event. *)
  commit_interval : float;
      (** group-commit window in seconds; 0 (the default) fsyncs every
          pump exactly as the pre-sharding server did.  Positive values
          bound the extra ack latency while letting one fsync cover many
          acks ([service.fsync_total] stays well below
          [service.acks_total] under load). *)
}

val make_config :
  ?state_dir:string ->
  ?queue_cap:int ->
  ?snapshot_every:int ->
  ?drain_batch:int ->
  ?degrade_to:string ->
  ?overload:Overload.config ->
  ?shards:int ->
  ?commit_interval:float ->
  addr:Addr.t ->
  service:Config.t ->
  unit ->
  config
(** Defaults: queue_cap 1024, snapshot_every 4096, drain_batch 256, no
    degraded mode, {!Overload.default} thresholds, shards 1,
    commit_interval 0. *)

val run : ?ready:(unit -> unit) -> config -> (unit, string) result
(** Bind, recover, serve until drained.  [ready] fires once the socket
    is listening and recovery is complete (used by tests and by [serve]
    to print the listening line).  When the state dir holds a config
    from a previous life, the {e recovered} config wins over
    [config.service] — including its [groups] count, which fixes the
    number of [wal-<g>/] segments; a note goes to stderr when they
    differ.  Errors (bind failure, corrupt or inconsistent segments, a
    flat single-group state dir from an older build, which is refused
    untouched with the [mv] into [wal-0/] that upgrades it) come back as
    one-line messages. *)
