(* The daemon's submit path, replayed in process through the public
   functions of each service layer.

   For every submission, in stream order, routed to its org-group as the
   daemon routes it:

     Protocol.request_of_line -> Online.check_submit -> Wal.append
       -> Online.submit -> Protocol.response_to_line

   [Wal.sync] runs every [sync_every] records of a group (the daemon's
   measured acks per fsync), [Wal.write_snapshot] of all the group's
   records so far every [snapshot_every] records, and at the end
   [Online.drain] plus the final snapshot the daemon writes on drain.
   Without instrumentation only the [Online] calls run: that is the
   oracle the daemon's drained ψsp is checked against. *)

type times = {
  decode : Pct.Samples.t;
  check : Pct.Samples.t;
  append : Pct.Samples.t;
  submit : Pct.Samples.t;
  encode : Pct.Samples.t;
  sync : Pct.Samples.t;
  snapshot : Pct.Samples.t;
  mutable drain_s : float;
  mutable request_bytes : int;
  mutable wal_bytes : int;
  mutable records : int;
  mutable alloc_bytes : float;
}

let times () =
  {
    decode = Pct.Samples.create ();
    check = Pct.Samples.create ();
    append = Pct.Samples.create ();
    submit = Pct.Samples.create ();
    encode = Pct.Samples.create ();
    sync = Pct.Samples.create ();
    snapshot = Pct.Samples.create ();
    drain_s = 0.;
    request_bytes = 0;
    wal_bytes = 0;
    records = 0;
    alloc_bytes = 0.;
  }

type instrument = {
  dir : string;  (* WAL segments go to [dir/wal-<g>] *)
  sync_every : int;
  snapshot_every : int;
  spans : Spans.t option;
  times : times;
}

(* The request line a client sends for the [i]-th job of a stream: stamped
   with the client id, sequence and trace id the way the load generator
   stamps its own. *)
let submit_line ~cid i (j : Core.Job.t) =
  Service.Protocol.request_to_line
    (Service.Protocol.Submit
       {
         org = j.Core.Job.org;
         user = j.Core.Job.user;
         release = j.Core.Job.release;
         size = j.Core.Job.size;
         cid;
         cseq = i + 1;
         trace = i + 1;
       })

let fail fmt = Printf.ksprintf failwith fmt
let ok_or what = function Ok v -> v | Error e -> fail "%s: %s" what e

type group = {
  online : Service.Online.t;
  gdir : string;
  mutable writer : Service.Wal.writer option;
  mutable seq : int;
  mutable records_rev : Service.Wal.record list;
  mutable since_sync : int;
  mutable since_snapshot : int;
}

(* wal and drain spans are few and always kept *)
let span ins name ~t0 ~t1 =
  match ins.spans with
  | Some s -> Spans.add s ~force:true name ~t0 ~t1
  | None -> ()

let sync ins g =
  match g.writer with
  | Some w when g.since_sync > 0 ->
      let t0 = Pct.now_ns () in
      ok_or "wal sync" (Service.Wal.sync w);
      let t1 = Pct.now_ns () in
      Pct.Samples.add ins.times.sync (Pct.ns_to_s (Int64.sub t1 t0));
      span ins "wal.sync" ~t0 ~t1;
      g.since_sync <- 0
  | Some _ | None -> ()

(* What the daemon's shard does on snapshot: write all records, then
   restart the WAL (compaction). *)
let snapshot ins ~config g =
  let t0 = Pct.now_ns () in
  ignore
    (ok_or "snapshot"
       (Service.Wal.write_snapshot ~dir:g.gdir
          {
            Service.Wal.config;
            last_seq = g.seq;
            records = List.rev g.records_rev;
          }));
  Option.iter Service.Wal.close g.writer;
  g.writer <- Some (ok_or "wal create" (Service.Wal.create ~dir:g.gdir ~config ()));
  let t1 = Pct.now_ns () in
  Pct.Samples.add ins.times.snapshot (Pct.ns_to_s (Int64.sub t1 t0));
  span ins "wal.snapshot" ~t0 ~t1;
  g.since_snapshot <- 0

let record_bytes r =
  String.length (Obs.Json.to_string (Service.Wal.record_to_json r)) + 1

(* Returns the drained [2·ψsp] per organization, global indexing. *)
let run ?instrument ~config ~cid (jobs : Core.Job.t array) =
  let part = Service.Partition.make config in
  let groups =
    Array.init (Service.Partition.groups part) (fun g ->
        let gdir =
          match instrument with
          | Some ins -> Filename.concat ins.dir (Printf.sprintf "wal-%d" g)
          | None -> ""
        in
        let writer =
          Option.map
            (fun _ ->
              Daemon.mkdir_p gdir;
              ok_or "wal create" (Service.Wal.create ~dir:gdir ~config ()))
            instrument
        in
        {
          online = Service.Online.create (Service.Partition.sub_config part g);
          gdir;
          writer;
          seq = 0;
          records_rev = [];
          since_sync = 0;
          since_snapshot = 0;
        })
  in
  let plain i (j : Core.Job.t) =
    let g = groups.(Service.Partition.group_of_org part j.Core.Job.org) in
    match
      Service.Online.submit g.online
        ~org:(Service.Partition.local_org part j.Core.Job.org)
        ~user:j.Core.Job.user ~size:j.Core.Job.size ~release:j.Core.Job.release
        ()
    with
    | Ok _ -> ()
    | Error e -> fail "job %d: %s" i (Service.Online.error_to_string e)
  in
  let traced ins i wire =
    let tm = ins.times in
    tm.request_bytes <- tm.request_bytes + String.length wire + 1;
    let t0 = Pct.now_ns () in
    let req = Service.Protocol.request_of_line wire in
    let t1 = Pct.now_ns () in
    match req with
    | Ok (Service.Protocol.Submit { org; user; release; size; cid; cseq; _ }) ->
        let g = groups.(Service.Partition.group_of_org part org) in
        let lorg = Service.Partition.local_org part org in
        (match Service.Online.check_submit g.online ~org:lorg ~size ~release with
        | Ok () -> ()
        | Error e -> fail "job %d: %s" i (Service.Online.error_to_string e));
        let t2 = Pct.now_ns () in
        g.seq <- g.seq + 1;
        let record =
          Service.Wal.Submit { seq = g.seq; org; user; release; size; cid; cseq }
        in
        Option.iter (fun w -> Service.Wal.append w record) g.writer;
        let t3 = Pct.now_ns () in
        let index =
          match
            Service.Online.submit g.online ~org:lorg ~user ~size ~release ()
          with
          | Ok index -> index
          | Error e -> fail "job %d: %s" i (Service.Online.error_to_string e)
        in
        let t4 = Pct.now_ns () in
        let resp =
          Service.Protocol.response_to_line
            (Service.Protocol.Submit_ok
               { seq = g.seq; org; index; now = Service.Online.now g.online })
        in
        let t5 = Pct.now_ns () in
        ignore (Sys.opaque_identity resp);
        let d a b = Pct.ns_to_s (Int64.sub b a) in
        Pct.Samples.add tm.decode (d t0 t1);
        Pct.Samples.add tm.check (d t1 t2);
        Pct.Samples.add tm.append (d t2 t3);
        Pct.Samples.add tm.submit (d t3 t4);
        Pct.Samples.add tm.encode (d t4 t5);
        (match ins.spans with
        | Some s when Spans.room s 6 ->
            Spans.add s
              ~args:[ ("trace", Obs.Json.Int (i + 1)) ]
              "request" ~t0 ~t1:t5;
            Spans.add s "protocol.decode" ~t0 ~t1;
            Spans.add s "online.check" ~t0:t1 ~t1:t2;
            Spans.add s "wal.append" ~t0:t2 ~t1:t3;
            Spans.add s "online.submit" ~t0:t3 ~t1:t4;
            Spans.add s "protocol.encode" ~t0:t4 ~t1:t5
        | Some _ | None -> ());
        g.records_rev <- record :: g.records_rev;
        tm.records <- tm.records + 1;
        g.since_sync <- g.since_sync + 1;
        g.since_snapshot <- g.since_snapshot + 1;
        if g.since_sync >= ins.sync_every then begin
          sync ins g;
          if g.since_snapshot >= ins.snapshot_every then snapshot ins ~config g
        end
    | Ok _ -> fail "job %d: decoded to another request" i
    | Error e -> fail "job %d: %s" i e
  in
  (match instrument with
  | None -> Array.iteri plain jobs
  | Some ins ->
      (* the client's side, kept out of the allocation count *)
      let wires =
        Array.mapi
          (fun i j ->
            let line = submit_line ~cid i j in
            String.sub line 0 (String.length line - 1))
          jobs
      in
      let a0 = Gc.allocated_bytes () in
      Array.iteri (traced ins) wires;
      ins.times.alloc_bytes <- Gc.allocated_bytes () -. a0);
  let t0 = Pct.now_ns () in
  Array.iter (fun g -> Service.Online.drain g.online) groups;
  let drain_s = Pct.ns_to_s (Int64.sub (Pct.now_ns ()) t0) in
  Option.iter
    (fun ins ->
      ins.times.drain_s <- drain_s;
      span ins "online.drain" ~t0 ~t1:(Pct.now_ns ());
      Array.iter
        (fun g ->
          snapshot ins ~config g;
          Option.iter Service.Wal.close g.writer;
          ins.times.wal_bytes <-
            List.fold_left
              (fun acc r -> acc + record_bytes r)
              ins.times.wal_bytes g.records_rev)
        groups)
    instrument;
  Service.Partition.scatter_int part (fun g ->
      Service.Online.psi_scaled groups.(g).online)
