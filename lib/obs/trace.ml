type event = {
  name : string;
  cat : string;
  ph : char;
  ts_ns : int64;
  dur_ns : int64;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

let dummy =
  {
    name = "";
    cat = "";
    ph = ' ';
    ts_ns = 0L;
    dur_ns = 0L;
    pid = 1;
    tid = 0;
    args = [];
  }

(* One ring buffer per domain: recording never locks or contends.  Rings
   register themselves in a global list on first use and are kept after
   their domain dies (short-lived pool domains still contribute their
   events to the dump). *)
type ring = {
  tid : int;
  mutable pid : int; (* Chrome process lane; 1 unless {!set_pid} is called *)
  buf : event array;
  mutable pos : int; (* next write slot *)
  mutable written : int; (* total events ever recorded *)
}

let default_capacity = 1 lsl 16
let capacity = Atomic.make default_capacity

let set_capacity n =
  if n <= 0 then invalid_arg "Obs.Trace.set_capacity: capacity must be >= 1";
  Atomic.set capacity n

let rings : ring list ref = ref []
let rings_mutex = Mutex.create ()

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          tid = (Domain.self () :> int);
          pid = 1;
          buf = Array.make (Atomic.get capacity) dummy;
          pos = 0;
          written = 0;
        }
      in
      Mutex.lock rings_mutex;
      rings := r :: !rings;
      Mutex.unlock rings_mutex;
      r)

let enabled_flag = Atomic.make false
let epoch = Atomic.make 0L

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then Atomic.set epoch (Clock.now_ns ());
  Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* Process-lane names ([process_name] metadata in the dump): registered
   by {!set_pid}, global so the merge sees every lane. *)
let pid_names : (int * string) list ref = ref []
let pid_names_mutex = Mutex.create ()

let set_pid ?name pid =
  let r = Domain.DLS.get ring_key in
  r.pid <- pid;
  match name with
  | None -> ()
  | Some n ->
      Mutex.lock pid_names_mutex;
      if not (List.mem_assoc pid !pid_names) then
        pid_names := (pid, n) :: !pid_names;
      Mutex.unlock pid_names_mutex

let record ?(args = []) name cat ph ts_ns dur_ns =
  let r = Domain.DLS.get ring_key in
  r.buf.(r.pos) <- { name; cat; ph; ts_ns; dur_ns; pid = r.pid; tid = r.tid; args };
  r.pos <- (r.pos + 1) mod Array.length r.buf;
  r.written <- r.written + 1

let close_span ?args name cat t0 =
  let t1 = Clock.now_ns () in
  record ?args name cat 'X' (Int64.sub t0 (Atomic.get epoch)) (Int64.sub t1 t0)

(* A plain [match] rather than [Fun.protect]: a span allocates no
   [finally] closure, and a raising body still records its span before
   the exception escapes with its original backtrace. *)
let span ?(cat = "fairsched") ?args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Clock.now_ns () in
    match f () with
    | v ->
        close_span ?args name cat t0;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close_span ?args name cat t0;
        Printexc.raise_with_backtrace e bt
  end

let instant ?(cat = "fairsched") ?args name =
  if Atomic.get enabled_flag then
    record ?args name cat 'i'
      (Int64.sub (Clock.now_ns ()) (Atomic.get epoch))
      0L

let all_rings () =
  Mutex.lock rings_mutex;
  let rs = !rings in
  Mutex.unlock rings_mutex;
  rs

let reset () =
  List.iter
    (fun r ->
      Array.fill r.buf 0 (Array.length r.buf) dummy;
      r.pos <- 0;
      r.written <- 0)
    (all_rings ())

let dropped () =
  List.fold_left
    (fun acc r -> acc + Stdlib.max 0 (r.written - Array.length r.buf))
    0 (all_rings ())

let events () =
  let live r =
    let cap = Array.length r.buf in
    let n = Stdlib.min r.written cap in
    (* Oldest first: when the ring wrapped, the oldest survivor is at
       [pos]. *)
    let start = if r.written <= cap then 0 else r.pos in
    List.init n (fun i -> r.buf.((start + i) mod cap))
  in
  all_rings ()
  |> List.concat_map live
  |> List.stable_sort (fun a b ->
         match Int64.compare a.ts_ns b.ts_ns with
         | 0 -> Int64.compare b.dur_ns a.dur_ns (* outer spans first *)
         | c -> c)

let ns_to_us ns = Int64.to_float ns /. 1e3

let event_json e =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String (String.make 1 e.ph));
      ("ts", Json.Float (ns_to_us e.ts_ns));
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.tid);
    ]
  in
  let base =
    if e.ph = 'X' then base @ [ ("dur", Json.Float (ns_to_us e.dur_ns)) ]
    else base
  in
  Json.Obj
    (if e.args = [] then base else base @ [ ("args", Json.Obj e.args) ])

(* [process_name] metadata rows so Perfetto labels the router and each
   shard-worker lane; the validator skips timing checks on 'M'. *)
let metadata_events () =
  Mutex.lock pid_names_mutex;
  let names = !pid_names in
  Mutex.unlock pid_names_mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) names
  |> List.map (fun (pid, name) ->
         Json.Obj
           [
             ("name", Json.String "process_name");
             ("ph", Json.String "M");
             ("pid", Json.Int pid);
             ("tid", Json.Int 0);
             ("args", Json.Obj [ ("name", Json.String name) ]);
           ])

let take_last n l =
  let rec drop k l = if k <= 0 then l else drop (k - 1) (List.tl l) in
  drop (List.length l - n) l

let to_json ?limit () =
  let evs = events () in
  let evs = match limit with None -> evs | Some n -> take_last n evs in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (metadata_events () @ List.map event_json evs) );
      ("displayTimeUnit", Json.String "ms");
    ]

let write path =
  let doc = to_json () in
  let n =
    match Json.member doc "traceEvents" with
    | Some (Json.List l) -> List.length l
    | _ -> 0
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Json.to_buffer buf doc;
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf);
  n

(* --- validation --------------------------------------------------------- *)

type validation = {
  total_events : int;
  tids : int list;
  span_names : string list;
}

let validate doc =
  let ( let* ) = Result.bind in
  let* events =
    match doc with
    | Json.List l -> Ok l
    | Json.Obj _ -> (
        match Json.member doc "traceEvents" with
        | Some (Json.List l) -> Ok l
        | Some _ -> Error "\"traceEvents\" is not an array"
        | None -> Error "missing \"traceEvents\" array")
    | _ -> Error "expected a JSON object or array at top level"
  in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let open_spans : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let names = Hashtbl.create 16 in
  let check i ev =
    let ctx msg = Error (Printf.sprintf "event %d: %s" i msg) in
    let* name =
      match Option.bind (Json.member ev "name") Json.get_string with
      | Some n -> Ok n
      | None -> ctx "missing string \"name\""
    in
    let* ph =
      match Option.bind (Json.member ev "ph") Json.get_string with
      | Some p when String.length p = 1 -> Ok p.[0]
      | Some p -> ctx (Printf.sprintf "bad phase %S" p)
      | None -> ctx "missing \"ph\""
    in
    let* () =
      match ph with
      | 'X' | 'B' | 'E' | 'i' | 'I' | 'C' | 'M' -> Ok ()
      | c -> ctx (Printf.sprintf "unknown phase %C" c)
    in
    if ph = 'M' then Ok () (* metadata events carry no timing *)
    else
      let* ts =
        match Option.bind (Json.member ev "ts") Json.get_number with
        | Some t when t >= 0. -> Ok t
        | Some _ -> ctx "negative \"ts\""
        | None -> ctx "missing numeric \"ts\""
      in
      let* tid =
        match Option.bind (Json.member ev "tid") Json.get_number with
        | Some t -> Ok (int_of_float t)
        | None -> ctx "missing numeric \"tid\""
      in
      let* () =
        match Hashtbl.find_opt last_ts tid with
        | Some prev when ts < prev ->
            ctx
              (Printf.sprintf "ts %g goes backwards on tid %d (previous %g)"
                 ts tid prev)
        | _ ->
            Hashtbl.replace last_ts tid ts;
            Ok ()
      in
      let* () =
        match ph with
        | 'X' -> (
            match Option.bind (Json.member ev "dur") Json.get_number with
            | Some d when d >= 0. -> Ok ()
            | Some _ -> ctx "negative \"dur\""
            | None -> ctx "complete event without \"dur\"")
        | 'B' ->
            Hashtbl.replace open_spans tid
              (name :: Option.value ~default:[] (Hashtbl.find_opt open_spans tid));
            Ok ()
        | 'E' -> (
            match Hashtbl.find_opt open_spans tid with
            | Some (_ :: rest) ->
                Hashtbl.replace open_spans tid rest;
                Ok ()
            | Some [] | None ->
                ctx (Printf.sprintf "unbalanced E event on tid %d" tid))
        | _ -> Ok ()
      in
      if ph = 'X' || ph = 'B' then Hashtbl.replace names name ();
      Ok ()
  in
  let rec go i = function
    | [] -> Ok ()
    | (Json.Obj _ as ev) :: rest ->
        let* () = check i ev in
        go (i + 1) rest
    | _ -> Error (Printf.sprintf "event %d: not an object" i)
  in
  let* () = go 0 events in
  let* () =
    Hashtbl.fold
      (fun tid stack acc ->
        let* () = acc in
        match stack with
        | [] -> Ok ()
        | name :: _ ->
            Error
              (Printf.sprintf "unclosed B event %S on tid %d" name tid))
      open_spans (Ok ())
  in
  let sorted_keys tbl =
    List.sort_uniq Stdlib.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  in
  Ok
    {
      total_events = List.length events;
      tids = sorted_keys last_ts;
      span_names = sorted_keys names;
    }

let validate_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Result.bind (Json.of_string contents) validate
  | exception Sys_error msg -> Error msg
