(* The traced run's own spans, kept in memory and written once at the end
   as a Chrome trace-event file that [Obs.Trace.validate] accepts.

   Spans are recorded from the benchmark's side of each layer boundary:
   the benchmark times its calls into the public functions of the
   service, policy and simulation layers.  Nesting is by time on one
   thread lane, so a stage span recorded inside a request span is its
   child.  Only the first [cap] spans are kept (structural spans such as
   a whole simulation run are always kept); callers aggregate every call,
   kept or not, into their exact duration arrays. *)

type event = {
  name : string;
  ts : int64;  (* start, ns since [epoch] *)
  dur : int64;
  tid : int;
  args : (string * Obs.Json.t) list;
}

type t = {
  epoch : int64;
  cap : int;
  mutable kept : event list;  (* newest first *)
  mutable count : int;
  mutable dropped : int;
  lock : Mutex.t;
}

let create ~epoch ~cap =
  { epoch; cap; kept = []; count = 0; dropped = 0; lock = Mutex.create () }

let room t n = t.count + n <= t.cap

(* Record a span that started at [t0] and ended at [t1] (both
   [Pct.now_ns] readings) on the calling domain's lane. *)
let add t ?(force = false) ?(args = []) name ~t0 ~t1 =
  Mutex.protect t.lock (fun () ->
      if force || t.count < t.cap then begin
        t.kept <-
          {
            name;
            ts = Int64.sub t0 t.epoch;
            dur = Int64.sub t1 t0;
            tid = (Domain.self () :> int);
            args;
          }
          :: t.kept;
        t.count <- t.count + 1
      end
      else t.dropped <- t.dropped + 1)

let dropped ts = List.fold_left (fun n t -> n + t.dropped) 0 ts

(* Lanes in order, each by start time with the enclosing (longer) span
   first, so [validate]'s per-lane ordering holds and parents precede
   their children. *)
let sorted ts =
  List.sort
    (fun a b ->
      match Int.compare a.tid b.tid with
      | 0 -> (
          match Int64.compare a.ts b.ts with
          | 0 -> Int64.compare b.dur a.dur
          | c -> c)
      | c -> c)
    (List.concat_map (fun t -> t.kept) ts)

(* Self time per span name: a span's duration minus the part its
   children cover.  Returns (name, spans, total self seconds), by
   descending self time. *)
let self_times ts =
  let acc = Hashtbl.create 16 in
  let add name d =
    let n, s = Option.value (Hashtbl.find_opt acc name) ~default:(0, 0L) in
    Hashtbl.replace acc name (n + 1, Int64.add s d)
  in
  (* stack of (event, end, child time so far) *)
  let stack = ref [] and tid = ref min_int in
  let close () =
    match !stack with
    | (e, _, child) :: rest ->
        add e.name (Int64.sub e.dur !child);
        (match rest with
        | (_, _, pchild) :: _ -> pchild := Int64.add !pchild e.dur
        | [] -> ());
        stack := rest
    | [] -> ()
  in
  List.iter
    (fun e ->
      if e.tid <> !tid then begin
        while !stack <> [] do
          close ()
        done;
        tid := e.tid
      end;
      while
        match !stack with
        | (_, stop, _) :: _ -> Int64.compare stop e.ts <= 0
        | [] -> false
      do
        close ()
      done;
      stack := (e, Int64.add e.ts e.dur, ref 0L) :: !stack)
    (sorted ts);
  while !stack <> [] do
    close ()
  done;
  Hashtbl.fold (fun name (n, s) l -> (name, n, Int64.to_float s *. 1e-9) :: l) acc []
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)

let to_json ts =
  let us ns = Obs.Json.Float (Int64.to_float ns /. 1000.) in
  Obs.Json.Obj
    [
      ( "traceEvents",
        Obs.Json.List
          (List.map
             (fun e ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String e.name);
                   ("cat", Obs.Json.String "bench");
                   ("ph", Obs.Json.String "X");
                   ("ts", us e.ts);
                   ("dur", us e.dur);
                   ("pid", Obs.Json.Int 1);
                   ("tid", Obs.Json.Int e.tid);
                   ("args", Obs.Json.Obj e.args);
                 ])
             (sorted ts)) );
      ("displayTimeUnit", Obs.Json.String "ms");
    ]

(* Write the trace and read it back through the in-tree validator. *)
let write ts path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string (to_json ts));
      output_char oc '\n');
  Obs.Trace.validate_file path
