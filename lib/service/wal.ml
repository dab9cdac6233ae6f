type record =
  | Submit of {
      seq : int;
      org : int;
      user : int;
      release : int;
      size : int;
      cid : int;
      cseq : int;
    }
  | Fault of { seq : int; time : int; event : Faults.Event.t; cid : int; cseq : int }
  | Endow of {
      seq : int;
      time : int;
      event : Federation.Event.t;
      cid : int;
      cseq : int;
    }
  | Mode of { seq : int; estimator : string }

let seq_of = function
  | Submit { seq; _ } | Fault { seq; _ } | Endow { seq; _ } | Mode { seq; _ }
    ->
      seq

let is_feed = function
  | Submit _ | Fault _ | Endow _ -> true
  | Mode _ -> false

let client_of = function
  | Submit { cid; cseq; _ } | Fault { cid; cseq; _ } | Endow { cid; cseq; _ }
    ->
      (cid, cseq)
  | Mode _ -> (0, 0)

let of_request ~seq = function
  | Protocol.Submit { org; user; release; size; cid; cseq; trace = _ } ->
      Some (Submit { seq; org; user; release; size; cid; cseq })
  | Protocol.Fault { time; event; cid; cseq; trace = _ } ->
      Some (Fault { seq; time; event; cid; cseq })
  | Protocol.Endow { time; event; cid; cseq; trace = _ } ->
      Some (Endow { seq; time; event; cid; cseq })
  | Protocol.Status | Protocol.Psi | Protocol.Snapshot | Protocol.Drain _
  | Protocol.Metrics | Protocol.Trace _ ->
      None

open Obs.Json

let ( let* ) = Result.bind

(* cid/cseq are omitted when zero so logs written before idempotent
   retransmission existed (and anonymous clients) stay byte-compatible. *)
let client_fields cid cseq =
  if cid = 0 && cseq = 0 then []
  else [ ("cid", Int cid); ("cseq", Int cseq) ]

let record_to_json = function
  | Submit { seq; org; user; release; size; cid; cseq } ->
      Obj
        ([
           ("rec", String "submit");
           ("seq", Int seq);
           ("org", Int org);
           ("user", Int user);
           ("release", Int release);
           ("size", Int size);
         ]
        @ client_fields cid cseq)
  | Fault { seq; time; event; cid; cseq } ->
      let kind, machine =
        match event with
        | Faults.Event.Fail m -> ("fail", m)
        | Faults.Event.Recover m -> ("recover", m)
      in
      Obj
        ([
           ("rec", String "fault");
           ("seq", Int seq);
           ("time", Int time);
           ("kind", String kind);
           ("machine", Int machine);
         ]
        @ client_fields cid cseq)
  | Endow { seq; time; event; cid; cseq } ->
      (* Same event encoding as the socket (Protocol.endow_event_fields)
         so the log replays exactly what was fed. *)
      Obj
        ((("rec", String "endow") :: ("seq", Int seq) :: ("time", Int time)
         :: Protocol.endow_event_fields event)
        @ client_fields cid cseq)
  | Mode { seq; estimator } ->
      Obj
        [
          ("rec", String "mode");
          ("seq", Int seq);
          ("estimator", String estimator);
        ]

let int_field j name =
  match member j name with
  | Some (Int v) -> Ok v
  | Some _ -> Error (Printf.sprintf "WAL field %S must be an integer" name)
  | None -> Error (Printf.sprintf "WAL field %S missing" name)

let opt_int_field j name ~default =
  match member j name with
  | Some (Int v) -> Ok v
  | Some _ -> Error (Printf.sprintf "WAL field %S must be an integer" name)
  | None -> Ok default

let record_of_json j =
  match member j "rec" with
  | Some (String "submit") ->
      let* seq = int_field j "seq" in
      let* org = int_field j "org" in
      let* user = int_field j "user" in
      let* release = int_field j "release" in
      let* size = int_field j "size" in
      let* cid = opt_int_field j "cid" ~default:0 in
      let* cseq = opt_int_field j "cseq" ~default:0 in
      Ok (Submit { seq; org; user; release; size; cid; cseq })
  | Some (String "fault") ->
      let* seq = int_field j "seq" in
      let* time = int_field j "time" in
      let* machine = int_field j "machine" in
      let* cid = opt_int_field j "cid" ~default:0 in
      let* cseq = opt_int_field j "cseq" ~default:0 in
      let* event =
        match member j "kind" with
        | Some (String "fail") -> Ok (Faults.Event.Fail machine)
        | Some (String "recover") -> Ok (Faults.Event.Recover machine)
        | _ -> Error "WAL field \"kind\" must be \"fail\" or \"recover\""
      in
      Ok (Fault { seq; time; event; cid; cseq })
  | Some (String "endow") ->
      let* seq = int_field j "seq" in
      let* time = int_field j "time" in
      let* event = Protocol.endow_event_of_json j in
      let* cid = opt_int_field j "cid" ~default:0 in
      let* cseq = opt_int_field j "cseq" ~default:0 in
      Ok (Endow { seq; time; event; cid; cseq })
  | Some (String "mode") ->
      let* seq = int_field j "seq" in
      let* estimator =
        match member j "estimator" with
        | Some (String s) when s <> "" -> Ok s
        | _ -> Error "WAL field \"estimator\" must be a non-empty string"
      in
      Ok (Mode { seq; estimator })
  | _ -> Error "WAL record missing \"rec\" discriminator"

let wal_path ~dir = Filename.concat dir "wal.ndjson"
let snapshot_path ~dir = Filename.concat dir "snapshot.json"

(* --- Segment layout (sharded state dirs) --------------------------------- *)

(* Every org-group has its own segment subdirectory wal-<g>/ holding the
   two files above; recovery lists the segments before it reads any
   config. *)

let segment_dir ~dir ~group = Filename.concat dir (Printf.sprintf "wal-%d" group)

let segment_site_prefix ~group = Printf.sprintf "g%d/" group

let segments ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      let groups =
        Array.to_list entries
        |> List.filter_map (fun name ->
               match
                 if String.length name > 4 && String.sub name 0 4 = "wal-" then
                   int_of_string_opt
                     (String.sub name 4 (String.length name - 4))
                 else None
               with
               | Some g
                 when g >= 0 && Sys.is_directory (Filename.concat dir name) ->
                   Some g
               | _ -> None)
      in
      List.sort compare groups

(* --- Typed boot errors --------------------------------------------------- *)

type corruption = {
  c_file : string;
  c_line : int;
  c_offset : int;
  c_reason : string;
}

type boot_error =
  | Io of string
  | Corrupt of corruption
  | Mismatch of string

let boot_error_to_string = function
  | Io msg -> msg
  | Corrupt { c_file; c_line; c_offset; c_reason } ->
      Printf.sprintf "%s: corrupt at line %d (byte offset %d): %s" c_file
        c_line c_offset c_reason
  | Mismatch msg -> msg

(* --- Writing ------------------------------------------------------------- *)

(* [durable_len] is the file length as of the last successful fsync;
   [file_len] tracks every byte we have handed to write(2), successful or
   not.  When they disagree a previous sync died partway (ENOSPC, EIO, a
   torn write) and the tail of the file may hold half a record — sync
   truncates back to [durable_len] before rewriting the retained buffer,
   so retrying a failed batch can never interleave old half-lines with
   new ones. *)
type writer = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable durable_len : int;
  mutable file_len : int;
  prefix : string;
      (* chaos site/point prefix, e.g. "g1/" — lets a fault plan target
         one shard's segment while the others stay healthy *)
}

let wal_magic = "fairsched_wal"

let header_json config =
  Obj [ (wal_magic, Int 1); ("config", Config.to_json config) ]

let write_fully ~site fd s =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      let n = Chaos.Fs.write ~site fd bytes off (len - off) in
      go (off + n)
  in
  go 0

(* Like [write_fully] but records progress in [w.file_len] per chunk, so
   a failure mid-loop still knows how many bytes may have landed. *)
let write_tracked ~site w s =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then begin
      let n = Chaos.Fs.write ~site w.fd bytes off (len - off) in
      w.file_len <- w.file_len + n;
      go (off + n)
    end
  in
  go 0

let protect_sys f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "%s%s: %s" fn
           (if arg = "" then "" else " " ^ arg)
           (Unix.error_message e))
  | exception Sys_error msg -> Error msg

let create ?(site_prefix = "") ~dir ~config () =
  protect_sys (fun () ->
      let path = wal_path ~dir in
      let fd =
        Chaos.Fs.openfile ~site:(site_prefix ^ "wal-open") path
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
          0o644
      in
      let header = to_string (header_json config) ^ "\n" in
      write_fully ~site:(site_prefix ^ "wal-header") fd header;
      Chaos.Fs.fsync ~site:(site_prefix ^ "wal-fsync") fd;
      let len = String.length header in
      {
        fd;
        buf = Buffer.create 4096;
        durable_len = len;
        file_len = len;
        prefix = site_prefix;
      })

let append w record =
  to_buffer w.buf (record_to_json record);
  Buffer.add_char w.buf '\n'

let pending w = Buffer.length w.buf > 0 || w.file_len > w.durable_len

let sync w =
  protect_sys (fun () ->
      if pending w then begin
        if w.file_len > w.durable_len then begin
          (* Repair a torn append from a previously failed sync. *)
          Chaos.Fs.ftruncate ~site:(w.prefix ^ "wal-truncate") w.fd
            w.durable_len;
          ignore (Unix.LargeFile.lseek w.fd (Int64.of_int w.durable_len) Unix.SEEK_SET);
          w.file_len <- w.durable_len
        end;
        Chaos.Fs.point (w.prefix ^ "before-wal-append");
        write_tracked ~site:(w.prefix ^ "wal-append") w (Buffer.contents w.buf);
        Chaos.Fs.point (w.prefix ^ "after-wal-append");
        Chaos.Fs.fsync ~site:(w.prefix ^ "wal-fsync") w.fd;
        w.durable_len <- w.file_len;
        Buffer.clear w.buf;
        Chaos.Fs.point (w.prefix ^ "after-wal-fsync")
      end)

let close w =
  (match sync w with Ok () | Error _ -> ());
  try Unix.close w.fd with Unix.Unix_error _ -> ()

(* --- Snapshots ----------------------------------------------------------- *)

type snapshot = { config : Config.t; last_seq : int; records : record list }

let snapshot_json s =
  Obj
    [
      ("fairsched_snapshot", Int 1);
      ("config", Config.to_json s.config);
      ("last_seq", Int s.last_seq);
      ("records", List (List.map record_to_json s.records));
    ]

let snapshot_of_json j =
  let* config =
    match member j "config" with
    | Some cj -> Config.of_json cj
    | None -> Error "snapshot missing \"config\""
  in
  let* last_seq = int_field j "last_seq" in
  let* records =
    match member j "records" with
    | Some (List items) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | item :: rest ->
              let* r = record_of_json item in
              go (r :: acc) rest
        in
        go [] items
    | Some _ | None -> Error "snapshot missing \"records\""
  in
  Ok { config; last_seq; records }

let write_snapshot ?(site_prefix = "") ~dir s =
  protect_sys (fun () ->
      let path = snapshot_path ~dir in
      let tmp = path ^ ".tmp" in
      let fd =
        Chaos.Fs.openfile ~site:(site_prefix ^ "snap-open") tmp
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
          0o644
      in
      write_fully ~site:(site_prefix ^ "snap-write") fd
        (to_string (snapshot_json s) ^ "\n");
      Chaos.Fs.fsync ~site:(site_prefix ^ "snap-fsync") fd;
      Unix.close fd;
      Chaos.Fs.point (site_prefix ^ "after-snapshot-write");
      Chaos.Fs.point (site_prefix ^ "before-snapshot-rename");
      Chaos.Fs.rename ~site:(site_prefix ^ "snap-rename") tmp path;
      Chaos.Fs.point (site_prefix ^ "after-snapshot-rename");
      (* Persist the rename itself. *)
      (match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
      | dfd ->
          (try Chaos.Fs.fsync ~site:(site_prefix ^ "dir-fsync") dfd
           with Unix.Unix_error _ -> ());
          Unix.close dfd
      | exception Unix.Unix_error _ -> ());
      path)

(* --- Recovery ------------------------------------------------------------ *)

type recovery = {
  r_config : Config.t option;
  r_records : record list;
  r_last_seq : int;
}

(* One physical line: text without the newline, the byte offset of its
   first character, and whether a terminating '\n' was present (a torn
   final write usually lacks one). *)
type raw_line = { l_text : string; l_offset : int; l_terminated : bool }

let read_file path =
  protect_sys (fun () ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let split_lines s =
  let n = String.length s in
  let rec go acc start =
    if start >= n then List.rev acc
    else
      match String.index_from_opt s start '\n' with
      | None ->
          List.rev
            ({ l_text = String.sub s start (n - start); l_offset = start;
               l_terminated = false }
            :: acc)
      | Some i ->
          go
            ({ l_text = String.sub s start (i - start); l_offset = start;
               l_terminated = true }
            :: acc)
            (i + 1)
  in
  go [] 0

let corrupt file (line : raw_line) lineno reason =
  Corrupt { c_file = file; c_line = lineno; c_offset = line.l_offset;
            c_reason = reason }

(* Parse the record lines of a WAL body.  The final line may be torn
   (crash mid-append): if it fails to parse it is dropped and reported.
   Any earlier failure, or a sequence number that does not strictly
   increase, refuses with a typed corruption naming the line.  Sequence
   monotonicity is what turns a duplicated or reordered line — which is
   individually well-formed JSON — into a detectable error. *)
let parse_records ~file ~first_lineno lines =
  let n = List.length lines in
  let rec go i last_seq acc = function
    | [] -> Ok (List.rev acc, None)
    | (line : raw_line) :: rest -> (
        let lineno = first_lineno + i in
        let parsed =
          let* j = of_string line.l_text in
          record_of_json j
        in
        match parsed with
        | Ok r ->
            let seq = seq_of r in
            if seq <= last_seq then
              Error
                (corrupt file line lineno
                   (Printf.sprintf
                      "sequence number %d not above previous %d (duplicated \
                       or reordered record)"
                      seq last_seq))
            else go (i + 1) seq (r :: acc) rest
        | Error e ->
            if i = n - 1 && line.l_text <> "" then
              (* Torn tail: dropped, surfaced for diagnostics. *)
              Ok
                ( List.rev acc,
                  Some (lineno, line.l_offset, String.length line.l_text) )
            else Error (corrupt file line lineno e))
  in
  go 0 min_int [] lines

let read_wal path =
  let* text = Result.map_error (fun m -> Io m) (read_file path) in
  match split_lines text with
  | [] ->
      Error
        (Corrupt
           { c_file = path; c_line = 1; c_offset = 0;
             c_reason = "empty WAL (missing header)" })
  | header :: body ->
      let* config =
        match of_string header.l_text with
        | Ok hj -> (
            match (member hj wal_magic, member hj "config") with
            | Some (Int 1), Some cj ->
                Result.map_error
                  (fun e -> corrupt path header 1 e)
                  (Config.of_json cj)
            | _ -> Error (corrupt path header 1 "not a fairsched WAL header"))
        | Error e ->
            Error (corrupt path header 1 (Printf.sprintf "bad WAL header: %s" e))
      in
      let* records, torn = parse_records ~file:path ~first_lineno:2 body in
      Ok (config, records, torn)

let read_snapshot path =
  let* text = Result.map_error (fun m -> Io m) (read_file path) in
  let fail reason =
    Error (Corrupt { c_file = path; c_line = 1; c_offset = 0; c_reason = reason })
  in
  match of_string (String.trim text) with
  | Error e -> fail e
  | Ok j -> (
      match snapshot_of_json j with
      | Error e -> fail e
      | Ok s ->
          (* The same monotonicity law applies inside a snapshot: a bit
             flip that clones or reorders records must refuse, not
             silently replay a different history. *)
          let rec mono last = function
            | [] -> Ok s
            | r :: rest ->
                let seq = seq_of r in
                if seq <= last then
                  fail
                    (Printf.sprintf
                       "snapshot record sequence %d not above previous %d" seq
                       last)
                else mono seq rest
          in
          let* s = mono min_int s.records in
          let max_seq =
            List.fold_left (fun acc r -> Stdlib.max acc (seq_of r)) 0 s.records
          in
          if max_seq > s.last_seq then
            fail
              (Printf.sprintf
                 "snapshot last_seq %d below its own records (max %d)"
                 s.last_seq max_seq)
          else Ok s)

let remove_orphan_tmp ~dir =
  let tmp = snapshot_path ~dir ^ ".tmp" in
  if Sys.file_exists tmp then (try Sys.remove tmp with Sys_error _ -> ())

let recover ~dir =
  (* A crash between snapshot write and rename leaves a .tmp behind; the
     renamed-or-not snapshot.json is authoritative either way. *)
  remove_orphan_tmp ~dir;
  let snap_file = snapshot_path ~dir in
  let wal_file = wal_path ~dir in
  let* snap =
    if Sys.file_exists snap_file then
      Result.map Option.some (read_snapshot snap_file)
    else Ok None
  in
  let* wal =
    if Sys.file_exists wal_file then
      Result.map Option.some (read_wal wal_file)
    else Ok None
  in
  let* config =
    match (snap, wal) with
    | None, None -> Ok None
    | Some s, None -> Ok (Some s.config)
    | None, Some (c, _, _) -> Ok (Some c)
    | Some s, Some (c, _, _) ->
        if Config.equal s.config c then Ok (Some s.config)
        else
          Error
            (Mismatch
               (Printf.sprintf
                  "state dir %s: snapshot and WAL disagree on the configuration"
                  dir))
  in
  let snap_records, last_snap_seq =
    match snap with None -> ([], 0) | Some s -> (s.records, s.last_seq)
  in
  let wal_records =
    match wal with
    | None -> []
    | Some (_, records, _) ->
        (* Records at or below the snapshot's last_seq were compacted
           into it; a crash before WAL truncation leaves them behind. *)
        List.filter (fun r -> seq_of r > last_snap_seq) records
  in
  let records = snap_records @ wal_records in
  let last_seq =
    List.fold_left (fun acc r -> Stdlib.max acc (seq_of r)) last_snap_seq records
  in
  Ok { r_config = config; r_records = records; r_last_seq = last_seq }

(* --- Offline inspection --------------------------------------------------- *)

type check_report = {
  ck_kind : [ `Wal | `Snapshot | `State_dir ];
  ck_config : Config.t option;
  ck_submits : int;
  ck_faults : int;
  ck_endows : int;
  ck_modes : int;
  ck_first_seq : int;
  ck_last_seq : int;
  ck_gaps : (int * int) list;
  ck_torn : (int * int * int) option;
}

let report_of_records ~kind ~config ~torn records =
  let submits, faults, endows, modes =
    List.fold_left
      (fun (s, f, e, m) -> function
        | Submit _ -> (s + 1, f, e, m)
        | Fault _ -> (s, f + 1, e, m)
        | Endow _ -> (s, f, e + 1, m)
        | Mode _ -> (s, f, e, m + 1))
      (0, 0, 0, 0) records
  in
  let seqs = List.map seq_of records in
  let first_seq = match seqs with [] -> 0 | s :: _ -> s in
  let last_seq = List.fold_left Stdlib.max 0 seqs in
  let rec gaps acc = function
    | a :: (b :: _ as rest) ->
        gaps (if b > a + 1 then (a, b) :: acc else acc) rest
    | [] | [ _ ] -> List.rev acc
  in
  {
    ck_kind = kind;
    ck_config = config;
    ck_submits = submits;
    ck_faults = faults;
    ck_endows = endows;
    ck_modes = modes;
    ck_first_seq = first_seq;
    ck_last_seq = last_seq;
    ck_gaps = gaps [] seqs;
    ck_torn = torn;
  }

let check path =
  if Sys.file_exists path && Sys.is_directory path then
    let* r = recover ~dir:path in
    (* Per-file torn diagnosis: re-read the WAL alone if present. *)
    let torn =
      let wal_file = wal_path ~dir:path in
      if Sys.file_exists wal_file then
        match read_wal wal_file with Ok (_, _, t) -> t | Error _ -> None
      else None
    in
    Ok
      (report_of_records ~kind:`State_dir ~config:r.r_config ~torn r.r_records)
  else if not (Sys.file_exists path) then
    Error (Io (Printf.sprintf "%s: no such file or directory" path))
  else
    (* Sniff the kind from the first line's magic. *)
    let* text = Result.map_error (fun m -> Io m) (read_file path) in
    let first_line =
      match String.index_opt text '\n' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      nn > 0 && at 0
    in
    if contains first_line wal_magic then
      let* config, records, torn = read_wal path in
      Ok (report_of_records ~kind:`Wal ~config:(Some config) ~torn records)
    else if contains first_line "fairsched_snapshot" then
      let* s = read_snapshot path in
      Ok
        (report_of_records ~kind:`Snapshot ~config:(Some s.config) ~torn:None
           s.records)
    else
      Error
        (Corrupt
           { c_file = path; c_line = 1; c_offset = 0;
             c_reason = "neither a fairsched WAL nor a snapshot" })

let pp_check ppf r =
  let kind =
    match r.ck_kind with
    | `Wal -> "wal"
    | `Snapshot -> "snapshot"
    | `State_dir -> "state-dir"
  in
  Format.fprintf ppf "kind: %s@." kind;
  (match r.ck_config with
  | Some c ->
      Format.fprintf ppf
        "config: %d orgs, %d machines, horizon %d, algorithm %s@."
        (Config.organizations c) (Config.total_machines c) c.Config.horizon
        c.Config.algorithm
  | None -> Format.fprintf ppf "config: (empty state)@.");
  Format.fprintf ppf "records: %d submit, %d fault, %d endow, %d mode@."
    r.ck_submits r.ck_faults r.ck_endows r.ck_modes;
  Format.fprintf ppf "seq range: %d..%d@." r.ck_first_seq r.ck_last_seq;
  (match r.ck_gaps with
  | [] -> Format.fprintf ppf "seq gaps: none@."
  | gaps ->
      Format.fprintf ppf "seq gaps: %s@."
        (String.concat ", "
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) gaps)));
  match r.ck_torn with
  | None -> Format.fprintf ppf "torn tail: none@."
  | Some (line, off, bytes) ->
      Format.fprintf ppf
        "torn tail: line %d at byte offset %d (%d bytes dropped)@." line off
        bytes
