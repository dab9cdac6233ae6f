type error =
  | Timeout of string
  | Closed
  | Refused of string
  | Transport of string

let error_to_string = function
  | Timeout phase -> Printf.sprintf "timeout during %s" phase
  | Closed -> "connection closed by server"
  | Refused msg -> Printf.sprintf "connect: %s" msg
  | Transport msg -> msg

let is_transient = function
  | Timeout _ | Closed | Refused _ | Transport _ -> true

type t = { fd : Unix.file_descr; rbuf : Buffer.t; default_timeout : float }

let ( let* ) = Result.bind

(* Wait until [fd] is readable/writable or the deadline passes.
   [deadline = infinity] blocks indefinitely. *)
let await_fd fd ~phase ~what ~deadline =
  let rec go () =
    let left =
      if deadline = infinity then -1.0
      else Float.max 0.0 (deadline -. Unix.gettimeofday ())
    in
    if left = 0.0 && deadline <> infinity then Error (Timeout phase)
    else
      let r, w =
        match what with `Read -> ([ fd ], []) | `Write -> ([], [ fd ])
      in
      match Unix.select r w [] left with
      | [], [], [] -> Error (Timeout phase)
      | _ -> Ok ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Transport (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  in
  go ()

let deadline_of timeout_s =
  if timeout_s <= 0.0 then infinity else Unix.gettimeofday () +. timeout_s

let connect ?(timeout_s = 5.0) addr =
  let deadline = deadline_of timeout_s in
  match Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Refused (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  | fd -> (
      let fail err =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error err
      in
      (match addr with
      | Addr.Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
      | Addr.Unix_sock _ -> ());
      Unix.set_nonblock fd;
      let finish () =
        (* connect(2) completed in the background: surface its verdict. *)
        match Unix.getsockopt_error fd with
        | Some e -> fail (Refused (Unix.error_message e))
        | None ->
            Unix.clear_nonblock fd;
            Ok { fd; rbuf = Buffer.create 1024; default_timeout = timeout_s }
      in
      match Unix.connect fd (Addr.to_sockaddr addr) with
      | () ->
          Unix.clear_nonblock fd;
          Ok { fd; rbuf = Buffer.create 1024; default_timeout = timeout_s }
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
        -> (
          match await_fd fd ~phase:"connect" ~what:`Write ~deadline with
          | Ok () -> finish ()
          | Error e -> fail e)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> (
          (* The kernel keeps connecting; wait for the outcome. *)
          match await_fd fd ~phase:"connect" ~what:`Write ~deadline with
          | Ok () -> finish ()
          | Error e -> fail e)
      | exception Unix.Unix_error (e, _, _) ->
          fail (Refused (Unix.error_message e)))

let write_fully fd s ~deadline =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
          match await_fd fd ~phase:"write" ~what:`Write ~deadline with
          | Ok () -> go off
          | Error _ as e -> e)
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> Error Closed
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Transport (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  in
  go 0

(* Read until the buffer holds a full line; tolerate responses split
   across reads and multiple responses per read (leftover stays
   buffered for the next call). *)
let read_line t ~deadline =
  let chunk = Bytes.create 4096 in
  let rec take () =
    let s = Buffer.contents t.rbuf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear t.rbuf;
        Buffer.add_substring t.rbuf s (i + 1) (String.length s - i - 1);
        Ok (String.sub s 0 i)
    | None ->
        if Buffer.length t.rbuf > Protocol.max_line then
          Error (Transport "response line too long")
        else begin
          let* () = await_fd t.fd ~phase:"read" ~what:`Read ~deadline in
          match Unix.read t.fd chunk 0 (Bytes.length chunk) with
          | 0 -> Error Closed
          | n ->
              Buffer.add_subbytes t.rbuf chunk 0 n;
              take ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              take ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Error Closed
          | exception Unix.Unix_error (e, fn, _) ->
              Error
                (Transport (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
        end
  in
  take ()

let request ?timeout_s t req =
  let timeout_s = Option.value ~default:t.default_timeout timeout_s in
  let deadline = deadline_of timeout_s in
  let* () = write_fully t.fd (Protocol.request_to_line req) ~deadline in
  let* line = read_line t ~deadline in
  Result.map_error (fun m -> Transport m) (Protocol.response_of_line line)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- Retrying client ----------------------------------------------------- *)

module Resilient = struct
  type stats = {
    attempts : int;
    retries : int;
    backpressured : int;
    reconnects : int;
    gave_up : int;
  }

  type conn = {
    addr : Addr.t;
    policy : Retry.policy;
    timeout_s : float;
    rng : Fstats.Rng.t;
    r_cid : int;
    mutable next_cseq : int;
    mutable live : t option;
    mutable s_attempts : int;
    mutable s_retries : int;
    mutable s_backpressured : int;
    mutable s_reconnects : int;
    mutable s_gave_up : int;
  }

  let create ?(policy = Retry.default) ?(timeout_s = 5.0) ?cid ~rng addr =
    let r_cid =
      match cid with
      | Some c when c > 0 -> c
      | Some _ | None -> 1 + Fstats.Rng.int rng ((1 lsl 30) - 1)
    in
    {
      addr;
      policy;
      timeout_s;
      rng;
      r_cid;
      next_cseq = 0;
      live = None;
      s_attempts = 0;
      s_retries = 0;
      s_backpressured = 0;
      s_reconnects = 0;
      s_gave_up = 0;
    }

  let cid c = c.r_cid

  let stats c =
    {
      attempts = c.s_attempts;
      retries = c.s_retries;
      backpressured = c.s_backpressured;
      reconnects = c.s_reconnects;
      gave_up = c.s_gave_up;
    }

  let drop_live c =
    match c.live with
    | None -> ()
    | Some t ->
        close t;
        c.live <- None

  let ensure_connected c =
    match c.live with
    | Some t -> Ok t
    | None -> (
        match connect ~timeout_s:c.timeout_s c.addr with
        | Ok t ->
            c.live <- Some t;
            Ok t
        | Error _ as e -> e)

  (* Stamp every feed request with this connection's identity exactly once —
     before the first attempt — so every retransmission of the request
     carries the same (cid, cseq) and the server can deduplicate.  The
     trace id rides the same discipline: derived from the (cid, cseq)
     stamp, so retransmissions keep one identity in the server's trace
     and a caller-chosen id survives untouched. *)
  let trace_of ~cid ~cseq = (cid lsl 20) lor (cseq land 0xFFFFF)

  let stamp c req =
    match Protocol.stamp req with
    | Some (0, _, trace) ->
        c.next_cseq <- c.next_cseq + 1;
        let trace =
          if trace = 0 then trace_of ~cid:c.r_cid ~cseq:c.next_cseq else trace
        in
        Protocol.with_stamp ~cid:c.r_cid ~cseq:c.next_cseq ~trace req
    | Some _ | None -> req

  let call c req =
    let req = stamp c req in
    let t0 = Unix.gettimeofday () in
    let rec go attempt =
      let outcome =
        let* t = ensure_connected c in
        c.s_attempts <- c.s_attempts + 1;
        request t req
      in
      let retry ~hint ~on_transport =
        if on_transport then drop_live c;
        let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        match
          Retry.next c.policy ~rng:c.rng ~attempt ~elapsed_ms
            ~retry_after_ms:hint
        with
        | Retry.Give_up ->
            c.s_gave_up <- c.s_gave_up + 1;
            None
        | Retry.Sleep ms ->
            if on_transport then c.s_retries <- c.s_retries + 1
            else c.s_backpressured <- c.s_backpressured + 1;
            if on_transport then c.s_reconnects <- c.s_reconnects + 1;
            Unix.sleepf (ms /. 1000.0);
            Some (attempt + 1)
      in
      match outcome with
      | Ok (Protocol.Error { code = Protocol.Backpressure; retry_after_ms; _ })
        as last -> (
          match retry ~hint:retry_after_ms ~on_transport:false with
          | Some next -> go next
          | None -> last)
      | Ok _ as ok -> ok
      | Error e as last when is_transient e -> (
          match retry ~hint:None ~on_transport:true with
          | Some next -> go next
          | None -> last)
      | Error _ as err -> err
    in
    go 1

  let close c = drop_live c
end
