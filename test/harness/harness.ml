(* Shared plumbing for everything that drives a fairsched daemon from the
   outside: the smoke binaries, the unit tests and the bench.  Temp dirs,
   child processes of the real binary, connect-with-retry, one-shot
   requests, and the golden outcome a daemon must reproduce.  Failures
   raise [Failure] with a one-line reason: {!Smoke.run} turns that into a
   FATAL exit, alcotest into a failed case. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* A fresh directory under the system temp dir, named after the running
   executable, removed afterwards. *)
let with_tmpdir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fairsched-%s-%d-%d"
         (Filename.remove_extension (Filename.basename Sys.executable_name))
         (Unix.getpid ()) (Random.bits ()))
  in
  let cleanup () = try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> () in
  cleanup ();
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:cleanup (fun () -> f dir)

(* --- child processes of the real binary --------------------------------- *)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644

(* [exe args] with stdout discarded and stderr inherited. *)
let spawn ~exe args =
  let out = devnull () in
  let pid =
    Unix.create_process exe
      (Array.of_list (Filename.basename exe :: args))
      Unix.stdin out Unix.stderr
  in
  Unix.close out;
  pid

let spawn_serve ~exe args = spawn ~exe ("serve" :: args)

let reap pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error _ -> Unix.WEXITED 0

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid)

(* Run a CLI subcommand to completion; its exit code (255 if signaled). *)
let run_cli ~exe args =
  match reap (spawn ~exe args) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255

(* --- talking to a daemon --------------------------------------------------- *)

(* Retry every 50 ms while the daemon is still binding its socket. *)
let connect_retry ?(tries = 200) ?timeout_s addr =
  let rec go n =
    match Service.Client.connect ?timeout_s addr with
    | Ok c -> c
    | Error e ->
        if n = 0 then failwith ("connect: " ^ Service.Client.error_to_string e)
        else begin
          Unix.sleepf 0.05;
          go (n - 1)
        end
  in
  go tries

let request ?timeout_s client req =
  match Service.Client.request ?timeout_s client req with
  | Ok resp -> resp
  | Error e -> failwith ("request: " ^ Service.Client.error_to_string e)

let submit_of_job ?(cid = 0) ?(cseq = 0) (j : Core.Job.t) =
  Service.Protocol.Submit
    {
      org = j.Core.Job.org;
      user = j.Core.Job.user;
      release = j.Core.Job.release;
      size = j.Core.Job.size;
      cid;
      cseq;
      trace = 0;
    }

(* Submit one job of a golden instance: the daemon must accept it and
   rank it exactly as the batch run did. *)
let submit_job client (j : Core.Job.t) =
  match request client (submit_of_job j) with
  | Service.Protocol.Submit_ok { index; _ } ->
      if index <> j.Core.Job.index then
        failwith
          (Printf.sprintf "served rank %d <> batch rank %d" index
             j.Core.Job.index)
  | Service.Protocol.Error { msg; _ } -> failwith ("submit rejected: " ^ msg)
  | _ -> failwith "submit: unexpected response"

let send_endow client ({ Federation.Event.time; event } : Federation.Event.timed)
    =
  match
    request client
      (Service.Protocol.Endow { time; event; cid = 0; cseq = 0; trace = 0 })
  with
  | Service.Protocol.Endow_ok _ -> ()
  | Service.Protocol.Error { msg; _ } ->
      failwith
        (Format.asprintf "endow %a rejected: %s" Federation.Event.pp event msg)
  | _ -> failwith "endow: unexpected response"

(* --- golden outcomes ------------------------------------------------------- *)

type feed = Job of Core.Job.t | Endow of Federation.Event.timed

let jobs_of instance =
  List.map (fun j -> Job j) (Array.to_list instance.Core.Instance.jobs)

(* The ψsp vector and kernel stats a daemon serving [service] ends with
   after [feeds] and a drain.  One group: the batch Sim.Driver.run of the
   instance (under the endowment script, if any).  With G > 1 groups the
   daemon plays G independent games, each pooling only its own machines,
   so the golden is one Online engine per group over Partition.sub_config
   fed the same stream under local ids, scattered back to global shape. *)
let golden ~(service : Service.Config.t) ?federation instance feeds =
  let groups = service.Service.Config.groups in
  if groups = 1 then
    let batch =
      Sim.Driver.run ~instance ?federation
        ~rng:(Fstats.Rng.create ~seed:service.Service.Config.seed)
        (Algorithms.Registry.find_exn service.Service.Config.algorithm)
    in
    (batch.Sim.Driver.utilities_scaled, batch.Sim.Driver.stats)
  else begin
    let p = Service.Partition.make service in
    let sessions =
      Array.init groups (fun g ->
          Service.Online.create (Service.Partition.sub_config p g))
    in
    let ok what = function
      | Ok _ -> ()
      | Error e ->
          failwith
            (Printf.sprintf "grouped golden %s: %s" what
               (Service.Online.error_to_string e))
    in
    List.iter
      (function
        | Job (j : Core.Job.t) ->
            let g = Service.Partition.group_of_org p j.Core.Job.org in
            ok "submit"
              (Service.Online.submit sessions.(g)
                 ~org:(Service.Partition.local_org p j.Core.Job.org)
                 ~user:j.Core.Job.user ~size:j.Core.Job.size
                 ~release:j.Core.Job.release ())
        | Endow { Federation.Event.time; event } ->
            let g =
              Service.Partition.group_of_org p (Federation.Event.org event)
            in
            ok "endow"
              (Service.Online.endow sessions.(g) ~time
                 (Service.Partition.local_endow p event)))
      feeds;
    Array.iter Service.Online.drain sessions;
    ( Service.Partition.scatter_int p (fun g ->
          Service.Online.psi_scaled sessions.(g)),
      Kernel.Stats.total
        (Array.to_list (Array.map Service.Online.stats sessions)) )
  end

(* --- smoke binaries ---------------------------------------------------------- *)

(* A smoke binary is a list of scenarios run against the fairsched
   executable named by argv.(1); argv after it passes through to every
   [serve] the scenarios start.  [fail] counts a failure and carries on;
   a [Failure] raised by a scenario aborts the run as FATAL.  Exit 0 on
   success, 1 with one line per failure otherwise. *)
module Smoke = struct
  let name = ref "smoke"
  let exe = ref ""
  let args = ref []
  let failures = ref 0
  let trials = ref 0

  let fail fmt =
    Format.kasprintf
      (fun msg ->
        incr failures;
        Format.eprintf "%s: FAIL %s@." !name msg)
      fmt

  let fatal fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "%s: FATAL %s@." !name msg;
        exit 1)
      fmt

  let serve extra = spawn_serve ~exe:!exe (extra @ !args)
  let cli argv = run_cli ~exe:!exe argv

  (* Fail unless a CLI subcommand exits [expect] (default 0). *)
  let expect_cli ?(expect = 0) argv =
    let code = cli argv in
    if code <> expect then
      fail "`fairsched %s` exited %d, expected %d" (String.concat " " argv)
        code expect

  (* Fail unless a drained daemon exited 0. *)
  let expect_clean_exit ?(ctx = "drained daemon") pid =
    match reap pid with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> fail "%s exited %d" ctx c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> fail "%s was signaled" ctx

  (* The value of [--flag N] among the passthrough args. *)
  let arg ~default flag conv =
    let rec scan = function
      | f :: v :: _ when f = flag -> (
          match conv v with
          | Some x -> x
          | None -> fatal "bad %s value %S" flag v)
      | _ :: rest -> scan rest
      | [] -> default
    in
    scan !args

  let run ~name:n scenarios =
    name := n;
    if Array.length Sys.argv < 2 then
      fatal "usage: %s FAIRSCHED_EXE [SERVE_ARGS...]" n;
    let e = Sys.argv.(1) in
    exe := if Filename.is_relative e then Filename.concat (Sys.getcwd ()) e else e;
    args := Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2));
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (match
       with_tmpdir (fun dir ->
           List.iter (fun scenario -> scenario dir) scenarios)
     with
    | () -> ()
    | exception Failure msg -> fatal "%s" msg);
    let across =
      if !trials > 0 then Printf.sprintf " across %d trials" !trials else ""
    in
    if !failures > 0 then begin
      Format.eprintf "%s: %d failure(s)%s@." n !failures across;
      exit 1
    end;
    if !trials > 0 then Format.printf "%s: OK (%d trials)@." n !trials
    else Format.printf "%s: OK@." n
end
