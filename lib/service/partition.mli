(** The org-group partition: how a sharded daemon splits one
    {!Config.t} into independent scheduling domains (DESIGN.md §15).

    Pooled scheduling couples organizations — any org's job may run on
    any machine — so the unit of sharding cannot be an arbitrary subset
    of the request stream; it must be a {e semantic} partition under
    which the coupled state decomposes.  Org-groups are that unit
    (ground: federated-cloud consortia, PAPERS.md): group [g] owns the
    contiguous org block [g*k/G, (g+1)*k/G) and exactly the machines
    those orgs endow, runs its own {!Online.t} over the induced
    sub-config, and logs to its own WAL segment.  ψsp within a group is
    by construction identical to a daemon serving only that group; the
    sharded daemon's ψsp vector is the concatenation.

    The partition is a pure function of the durable config ([machines],
    [groups]) — no state of its own — so replay after a crash and a
    differently-threaded run ([--shards]) always agree on who owns
    what. *)

type t

val make : Config.t -> t
(** Derives the block boundaries.  The config's own validation already
    guarantees every group is non-empty with at least one machine. *)

val groups : t -> int
val config : t -> Config.t

val group_of_org : t -> int -> int
(** Owning group of a global org id (caller checks range). *)

val group_of_machine : t -> int -> int
(** Owning group of a global machine id. *)

val org_range : t -> int -> int * int
(** [(lo, hi)] global org ids of a group, half-open. *)

val machine_range : t -> int -> int * int
(** [(lo, hi)] global machine ids of a group, half-open. *)

val local_org : t -> int -> int
(** Global org id to the owning group's local org index. *)

val local_machine : t -> int -> int

val local_fault : t -> Faults.Event.t -> Faults.Event.t
(** A fault event under global machine ids, translated to the owning
    group's local ids. *)

val local_endow : t -> Federation.Event.t -> Federation.Event.t
(** An endowment event under global ids, translated to the local ids of
    the group owning every org and machine it names (the router refuses
    cross-group events before they reach a shard). *)

val global_org : t -> group:int -> int -> int
(** Local org index of [group] back to the global id. *)

val global_machine : t -> group:int -> int -> int

val sub_config : t -> int -> Config.t
(** The induced single-group config of group [g]: its machine block
    (and speed slice), same horizon/algorithm/seed/restart budget,
    [groups = 1].  The sub-config drives each shard's engine; segment
    WAL headers store the {e global} config so any segment alone
    identifies the whole partition. *)

val scatter_int : t -> (int -> int array) -> int array
(** Assemble a global per-org int array from per-group local arrays:
    [scatter_int p f] places [f g] (length = group [g]'s org count) at
    the group's block offset. *)
