(** Durability: a write-ahead log of accepted inputs plus periodic
    snapshots.

    The daemon never serializes engine or policy state — REF's
    sub-coalition simulations alone would make that intractable.  Instead
    it logs the {e inputs} (accepted submissions and fault events, each
    stamped with a monotone sequence number) and relies on kernel
    determinism: replaying the same inputs into a fresh {!Online.t} built
    from the same {!Config.t} reproduces the same state bit-for-bit.  A
    snapshot is therefore just a compaction of the log — config, the last
    sequence number it covers, and the accepted records — not a memory
    image.

    A daemon's state directory holds one segment subdirectory
    [wal-<g>/] per org-group ([wal-0/] alone for a single group; see
    {!segment_dir}).  The functions below read and write one segment
    directory:
    - [wal.ndjson] — header line [{"fairsched_wal":1,"config":{...}}]
      followed by one record per line;
    - [snapshot.json] — the latest snapshot, written to a temp file and
      renamed into place (atomic on POSIX).

    Records, snapshot and header are each declared once as an
    {!Obs.Json.Codec} member list, which yields both the writer and the
    reader; the records reuse {!Protocol}'s stamp and event codecs, so a
    logged request is encoded exactly as it came off the socket.

    Every durability-critical syscall goes through {!Chaos.Fs}, so tests
    can fail or tear any write/fsync/rename and die at any named crash
    point deterministically.  Sites used here: [wal-open], [wal-header],
    [wal-append], [wal-fsync], [wal-truncate], [snap-open], [snap-write],
    [snap-fsync], [snap-rename], [dir-fsync]; points: [before-wal-append],
    [after-wal-append], [after-wal-fsync], [after-snapshot-write],
    [before-snapshot-rename], [after-snapshot-rename].

    Crash and corruption windows (DESIGN.md §14):
    - a torn final WAL line (power cut mid-append) is dropped and
      reported in {!check} as torn-tail diagnosis;
    - a corrupt {e middle} line, a sequence regression/duplicate, or a
      damaged snapshot refuses to boot with a typed {!boot_error} naming
      the file, line, and byte offset — the log is damaged, not merely
      truncated, and guessing could double-apply or drop acked work;
    - a failed or torn {e append} (ENOSPC, EIO, crash mid-write) is
      repaired on the next {!sync}: the writer tracks the last durable
      offset and truncates back to it before rewriting, so a retried
      batch can never leave interleaved half-records;
    - a crash between snapshot rename and WAL truncation leaves records
      with [seq <= last_seq] in the log — {!recover} drops them by
      sequence number; an orphaned [snapshot.json.tmp] is deleted.

    The server [fsync]s the WAL before acknowledging a batch, so an acked
    submission is always recovered. *)

type record =
  | Submit of {
      seq : int;
      org : int;
      user : int;
      release : int;
      size : int;
      cid : int;  (** client id for idempotent retransmission; 0 = none *)
      cseq : int;  (** client-chosen sequence under [cid]; 0 = none *)
    }
  | Fault of { seq : int; time : int; event : Faults.Event.t; cid : int; cseq : int }
  | Endow of {
      seq : int;
      time : int;
      event : Federation.Event.t;
      cid : int;
      cseq : int;
    }
      (** an accepted endowment event (consortium membership / machine
          ownership change), encoded on disk exactly as on the wire
          ({!Protocol.endow_event}); replay feeds it back through
          {!Online.endow} so recovered ownership is bit-identical *)
  | Mode of { seq : int; estimator : string }
      (** the server switched the live estimator (degraded mode); logged
          so WAL replay reproduces the switch deterministically *)

val seq_of : record -> int
val record_to_json : record -> Obs.Json.t
val record_of_json : Obs.Json.t -> (record, string) result

val is_feed : record -> bool
(** [Submit]/[Fault]/[Endow] — records that feed the engine (a [Mode]
    switch does not count toward accepted submissions). *)

val client_of : record -> int * int
(** [(cid, cseq)] of a feed record; [(0, 0)] for [Mode]. *)

val of_request : seq:int -> Protocol.request -> record option
(** The record a feed request is logged as under sequence number [seq]
    (the trace id is not logged); [None] for control requests. *)

val wal_path : dir:string -> string
val snapshot_path : dir:string -> string

(** {2 Segment layout — state dirs}

    Every org-group, the only one of a single-group daemon included, has
    its own segment subdirectory [wal-<g>/] containing the two files
    above.  Each segment header stores the {e global} config, so any one
    segment identifies the whole partition, and recovery cross-checks
    that all segments agree. *)

val segment_dir : dir:string -> group:int -> string
(** [dir/wal-<group>]. *)

val segment_site_prefix : group:int -> string
(** The {!Chaos.Fs} site/point prefix of a segment's syscalls, ["g<g>/"]
    — a fault plan like [eio@g1/wal-fsync:1+] hits only that shard's
    WAL. Single-group daemons use no prefix, so pre-sharding plans keep
    working. *)

val segments : dir:string -> int list
(** Group ids of the [wal-<g>/] segment subdirectories found under a
    state dir, sorted; [[]] for an empty or missing dir. *)

(** {2 Typed boot errors} *)

type corruption = {
  c_file : string;
  c_line : int;  (** 1-based line number of the damage *)
  c_offset : int;  (** byte offset of that line's start *)
  c_reason : string;
}

type boot_error =
  | Io of string  (** unreadable file, permission, short read *)
  | Corrupt of corruption  (** refuse-to-start: damaged log or snapshot *)
  | Mismatch of string  (** snapshot and WAL disagree on the config *)

val boot_error_to_string : boot_error -> string

(** {2 Writing} *)

type writer

val create :
  ?site_prefix:string -> dir:string -> config:Config.t -> unit ->
  (writer, string) result
(** Truncate/create [wal.ndjson], write and [fsync] the header line.
    [site_prefix] (default [""]) prefixes every {!Chaos.Fs} site and
    point this writer touches — see {!segment_site_prefix}.  Errors are
    one-line messages (unwritable directory, etc.). *)

val append : writer -> record -> unit
(** Buffered; call {!sync} before acknowledging. *)

val sync : writer -> (unit, string) result
(** Flush the buffer and [fsync].  One call covers every {!append} since
    the last successful sync — the server batches: append the whole
    admission batch, sync once, then ack.  On failure (ENOSPC, EIO, torn
    write) the buffered records are {e kept} and the file is repaired
    back to the last durable offset on the next call, so a later retry
    can still make them durable without corrupting the log. *)

val pending : writer -> bool
(** Appended records not yet known durable (buffered, or written but not
    fsynced). *)

val close : writer -> unit

(** {2 Snapshots} *)

type snapshot = {
  config : Config.t;
  last_seq : int;  (** highest sequence number the snapshot covers *)
  records : record list;  (** every accepted record, oldest first *)
}

val write_snapshot :
  ?site_prefix:string -> dir:string -> snapshot -> (string, string) result
(** Write [snapshot.json] via temp-file + [fsync] + rename; returns the
    final path.  The caller recreates the WAL ({!create}) afterwards to
    compact. *)

(** {2 Recovery} *)

type recovery = {
  r_config : Config.t option;  (** [None] when the state dir is empty *)
  r_records : record list;  (** snapshot records + WAL tail, deduped, oldest first *)
  r_last_seq : int;  (** 0 when empty *)
}

val recover : dir:string -> (recovery, boot_error) result
(** Read snapshot and WAL, drop WAL records already covered by the
    snapshot ([seq <= last_seq]), verify the two agree on the config
    ({!Config.equal}), tolerate a torn final WAL line, delete an orphaned
    [snapshot.json.tmp].  Sequence numbers must be strictly increasing
    within each file — a regression or duplicate is {!Corrupt}. *)

(** {2 Offline inspection — [fairsched ctl wal-check]} *)

type check_report = {
  ck_kind : [ `Wal | `Snapshot | `State_dir ];
  ck_config : Config.t option;
  ck_submits : int;
  ck_faults : int;
  ck_endows : int;
  ck_modes : int;
  ck_first_seq : int;  (** 0 when no records *)
  ck_last_seq : int;
  ck_gaps : (int * int) list;
      (** adjacent seq pairs [(a, b)] with [b > a + 1]; expected after
          compaction, suspicious otherwise *)
  ck_torn : (int * int * int) option;
      (** [(line, offset, bytes)] of a dropped torn tail *)
}

val check : string -> (check_report, boot_error) result
(** Inspect a WAL file, a snapshot file (sniffed by content), or a state
    directory (both, merged as {!recover} would).  Corrupt input comes
    back as the same typed error a refused boot produces. *)

val pp_check : Format.formatter -> check_report -> unit
