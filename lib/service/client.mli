(** Blocking protocol client: one connection, synchronous request/response.

    The daemon answers requests in order per connection, so a synchronous
    client needs no correlation ids — write one line, read one line.

    Every operation takes a deadline.  A stalled or half-dead server
    (SIGSTOP, network partition, a chaos-injected hang) turns into a
    {!Timeout} error instead of blocking the caller forever; the caller
    decides whether to retry on a fresh connection.  {!Resilient} is that
    caller for the common case: jittered exponential backoff
    ({!Retry.policy}) over transient errors and [Backpressure]
    rejections, with at-most-once semantics via (cid, cseq) stamping so a
    retransmitted feed is never applied twice. *)

type error =
  | Timeout of string  (** the named phase (connect/write/read) hit its deadline *)
  | Closed  (** server closed the connection *)
  | Refused of string  (** connection could not be established *)
  | Transport of string  (** reset, oversized or unparseable response, ... *)

val error_to_string : error -> string

val is_transient : error -> bool
(** Worth retrying on a fresh connection.  Everything above qualifies —
    even a parse error, since retransmission is made safe by server-side
    dedupe — so this currently always holds; it exists to keep the
    classification in one place. *)

type t

val connect : ?timeout_s:float -> Addr.t -> (t, error) result
(** Connect with a deadline (default 5 s; [0] or negative = wait
    forever).  TCP sets [TCP_NODELAY]: the protocol is one small line per
    round trip, and Nagle would serialize the load generator's pace. *)

val request :
  ?timeout_s:float -> t -> Protocol.request -> (Protocol.response, error) result
(** Send one request line and block for the response line, each phase
    bounded by [timeout_s] (default 5 s).  [Error] means a transport
    failure, not a protocol-level rejection — those arrive as
    [Ok (Error {code; msg; _})]. *)

val close : t -> unit

(** {2 Retrying client} *)

module Resilient : sig
  type conn
  (** A lazily-(re)connected endpoint.  Connections are made on first
      use and remade after any transient error, so a [conn] survives a
      server crash + restart transparently (within its retry budget). *)

  type stats = {
    attempts : int;  (** wire attempts, including first tries *)
    retries : int;  (** re-sends after a transient transport error *)
    backpressured : int;  (** [Backpressure] rejections absorbed *)
    reconnects : int;  (** fresh connections after a failure *)
    gave_up : int;  (** requests abandoned with the budget exhausted *)
  }

  val create :
    ?policy:Retry.policy ->
    ?timeout_s:float ->
    ?cid:int ->
    rng:Fstats.Rng.t ->
    Addr.t ->
    conn
  (** [cid] defaults to a value derived from [rng]; pass it explicitly to
      keep an identity stable across client restarts. *)

  val cid : conn -> int

  val call : conn -> Protocol.request -> (Protocol.response, error) result
  (** Send with retries.  Feed requests are stamped with this
      connection's [cid] and the next [cseq] {e once}, before the first
      attempt — every retransmission carries the same stamp, so the
      server's dedupe table makes the retry loop at-most-once.  Retries
      cover transient transport errors (reconnecting first) and
      [Backpressure] rejections (honoring the server's [retry_after_ms]
      hint).  Other protocol errors return immediately.  [Error e] means
      the retry budget ran out; the request may or may not have been
      applied — only a re-send with the same stamp could tell. *)

  val stats : conn -> stats
  val close : conn -> unit
end
