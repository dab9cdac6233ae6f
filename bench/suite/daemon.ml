(* The real daemon: `fairsched serve` spawned as a child process, one
   state directory and one Unix socket per instance, both under the
   benchmark's output directory. *)

type t = {
  pid : int;
  addr : Service.Addr.t;
  setup_s : float;  (* spawn to the first status reply *)
}

let rec rm path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* Peak resident set of a process, from /proc. *)
let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.map (fun k -> k /. 1024.) (float_of_string_opt kb)
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' s)
      |> Option.value ~default:nan

(* Lower this process's peak resident set to its current one, so the next
   [vm_hwm_mb 0] reads the peak since now. *)
let reset_hwm () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

let request ?(timeout_s = 30.) t req =
  match Service.Client.connect ~timeout_s t.addr with
  | Error e -> Error (Service.Client.error_to_string e)
  | Ok c ->
      let r = Service.Client.request ~timeout_s c req in
      Service.Client.close c;
      Result.map_error Service.Client.error_to_string r

let status ?timeout_s t =
  match request ?timeout_s t Service.Protocol.Status with
  | Ok (Service.Protocol.Status_ok st) -> Ok st
  | Ok _ -> Error "unexpected reply to status"
  | Error e -> Error e

let reap pid =
  let deadline = Pct.now_s () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Pct.now_s () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t.pid

(* Spawn and poll every 0.1 ms until the daemon answers a status
   request: a coarser poll would round the few milliseconds a boot takes
   to whole poll periods.  [dir] receives the socket, the state directory
   and the daemon's log. *)
let spawn ~exe ~dir args =
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let addr = Service.Addr.Unix_sock sock in
  let log_path = Filename.concat dir "daemon.log" in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    Array.of_list
      ([ "fairsched"; "serve"; "--listen"; sock; "--state";
         Filename.concat dir "state" ]
      @ args)
  in
  let t0 = Pct.now_s () in
  let pid = Unix.create_process exe argv Unix.stdin log log in
  Unix.close log;
  let t = { pid; addr; setup_s = 0. } in
  let rec poll () =
    let answered =
      Sys.file_exists sock
      && match status ~timeout_s:1. t with Ok _ -> true | Error _ -> false
    in
    if answered then Ok { t with setup_s = Pct.now_s () -. t0 }
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Pct.now_s () -. t0 < 30. ->
          Unix.sleepf 0.0001;
          poll ()
      | 0, _ ->
          kill t;
          Error "daemon did not answer within 30 s"
      | _ ->
          Error
            ("daemon exited at start-up: "
            ^ String.trim (In_channel.with_open_text log_path In_channel.input_all))
  in
  poll ()

(* Drain (run to the horizon, final snapshot, exit) and reap. *)
let drain t =
  let r =
    match request t (Service.Protocol.Drain { detail = false }) with
    | Ok (Service.Protocol.Drain_ok d) -> Ok d
    | Ok _ -> Error "unexpected reply to drain"
    | Error e -> Error e
  in
  reap t.pid;
  r
