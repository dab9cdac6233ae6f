(** One org-group's scheduling domain.

    The sharded daemon (DESIGN.md §15) splits the service along the
    {e semantic} partition — {!Partition}'s contiguous org-groups — and
    gives each group everything the pre-sharding server owned except the
    sockets: its own {!Online.t} engine over the group's induced
    sub-config, its own WAL segment, dedupe table, overload detector,
    and group-commit buffer.  The router (Server) owns connections,
    parses lines, and routes each feed to its org's group; a {!worker}
    executes one or more groups, either on its own domain or inline on
    the router thread when the daemon is single-shard.

    Communication is two mailboxes: router → worker {!msg}s (tagged with
    the destination group), worker → router {!completion}s.  Tokens
    ([tok]) are opaque to the shard — the router uses them to find the
    connection/slot (feeds) or the gather (control queries) a completion
    belongs to.

    {b Group commit.}  Acks of accepted feeds are {e held} until one
    [fsync] covers the whole batch.  [commit_interval = 0] syncs every
    pump (the pre-sharding behaviour: one fsync per select round); a
    positive interval lets appends accumulate until the oldest held ack
    is [commit_interval] seconds old or [commit_max] acks are held,
    amortizing the fsync.  Durability is unchanged: no ack leaves the
    shard before the fsync (or snapshot) covering its record succeeds,
    so every acked submission still survives [kill -9]. *)

(** A mutex-protected queue with a pipe for readiness, so the consumer
    can [select] with a timeout (group-commit deadlines).  SPSC in the
    daemon, safe for any number of producers. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit
  val drain : 'a t -> 'a list
  (** Everything queued, FIFO; empties the wake pipe. *)

  val is_empty : 'a t -> bool

  val wait_fd : 'a t -> Unix.file_descr
  (** Readable when a push happened since the last {!drain}; pass to
      [Unix.select]. *)

  val close : 'a t -> unit
end

(** {2 Messages — router to shard} *)

type query =
  | Q_status
  | Q_psi
  | Q_snapshot
  | Q_drain of { detail : bool }

type 'tok msg =
  | Feed of { tok : 'tok; req : Protocol.request; t_enq : float }
      (** a [Submit]/[Fault]/[Endow] already range-validated and admitted
          by the router; [t_enq] is its enqueue wall-clock time *)
  | Query of { tok : 'tok; q : query }
  | Tick  (** wake only — commit deadlines, stop checks *)

(** {2 Completions — shard to router}

    Control responses come back as per-group {e parts}; the router
    gathers one from every group and merges (max of clocks, sum of
    counters, scatter of per-org arrays — see Server). *)

type status_part = {
  st_now : int;
  st_frontier : int;
  st_accepted : int;
  st_rejected : int;
  st_waiting : int array;  (** local org indexing *)
  st_stats : Kernel.Stats.t;
  st_estimator : string;
  st_degraded : bool;
  st_ewma : float;
  st_fsyncs : int;
}

type psi_part = { ps_now : int; ps_psi : int array; ps_parts : int array }

type drain_part = {
  dr_now : int;
  dr_psi : int array;
  dr_parts : int array;
  dr_stats : Kernel.Stats.t;
  dr_schedule : (int * int * int * int * int) list option;
      (** rows already translated to global org/machine ids *)
}

type part =
  | P_status of status_part
  | P_psi of psi_part
  | P_snapshot of (int * string, string) result
      (** [(last_seq, path)] on success *)
  | P_drain of drain_part

type 'tok completion =
  | Ack of { tok : 'tok; resp : Protocol.response }
  | Part of { tok : 'tok; group : int; part : part }

(** {2 Shards} *)

type 'tok t

val create :
  partition:Partition.t ->
  group:int ->
  state_dir:string option ->
  overload:Overload.config ->
  degrade_to:string option ->
  snapshot_every:int ->
  commit_interval:float ->
  commit_max:int ->
  unit ->
  ('tok t, string) result
(** Recover the group's segment ([state_dir] is {e this segment's}
    directory, [wal-<g>/] under the daemon's state dir),
    verify its stored config equals the partition's, replay into a fresh
    engine under the final estimator, rebuild the dedupe cache, compact
    on boot, and open a fresh site-prefixed WAL. *)

val group : _ t -> int
val sub_config : _ t -> Config.t
val fsyncs : _ t -> int
val accepted : _ t -> int

val depth : _ t -> int
(** Feeds admitted but not yet processed (router increments via
    {!depth_incr} at routing, the worker decrements at engine feed) —
    the sharded equivalent of the old admission-queue occupancy. *)

val depth_incr : _ t -> unit

val published_overloaded : _ t -> bool
(** The shard's overload level, published after every pump; the router
    sheds on it without crossing the domain boundary. *)

val published_retry_ms : _ t -> int

val close : _ t -> unit

(** {2 Workers — execution of one or more shards} *)

type 'tok worker

val make_worker :
  id:int ->
  shards:(int * 'tok t) list ->
  drain_batch:int ->
  cap:int ->
  post:('tok completion -> unit) ->
  'tok worker
(** [shards] maps group id to shard, ascending; [cap] is the per-group
    admission bound (occupancy denominator); [post] delivers completions
    (called from the worker's domain). *)

val post_msg : 'tok worker -> group:int -> 'tok msg -> unit

val pump : 'tok worker -> unit
(** One processing round: drain the mailbox, feed at most [drain_batch]
    engine entries (control queries ride free, as before), run the
    group-commit policy, compact if due, re-evaluate overload.  Called
    in a loop by {!start_worker}'s domain — or directly by the router
    when the daemon runs single-shard, preserving the pre-sharding
    single-threaded execution exactly. *)

val wait_timeout : 'tok worker -> float
(** Seconds the worker may sleep: 0 when work is backlogged, else the
    nearest commit deadline, else a 1 s idle tick (overload recovery is
    observed calm). *)

val start_worker : 'tok worker -> unit
(** Spawn the worker's domain running [select]+{!pump}. *)

val stop_worker : 'tok worker -> unit
(** Stop and join the domain (if any), close mailbox and shard WALs. *)
