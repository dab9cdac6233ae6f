type t = {
  config : Config.t;
  session : Sim.Session.t;
  next_index : int array;  (* per-org FIFO rank counter *)
  (* Admission-time ownership: the session's own copy only advances when
     the engine processes an instant, so same-instant endow sequences
     would validate against stale state.  This copy replays every event
     at admission, mirroring Federation.Event.validate. *)
  ownership : Federation.Event.Ownership.t;
  mutable frontier : int;
  mutable submitted : int;
  mutable faults_fed : int;
  mutable endows_fed : int;
  mutable drained : bool;
}

type error =
  | Bad_org of { org : int; norgs : int }
  | Bad_size of int
  | Bad_release of { release : int; frontier : int }
  | Past_horizon of { release : int; horizon : int }
  | Bad_machine of { machine : int; machines : int }
  | Bad_fault_time of { time : int; frontier : int }
  | Bad_endow_time of { time : int; frontier : int }
  | Bad_endow of string
  | Not_federated
  | Drained

let error_to_string = function
  | Bad_org { org; norgs } ->
      Printf.sprintf "organization %d out of range [0, %d)" org norgs
  | Bad_size s -> Printf.sprintf "job size must be positive, got %d" s
  | Bad_release { release; frontier } ->
      Printf.sprintf
        "release %d before the admission frontier %d (submissions must \
         arrive in release order)"
        release frontier
  | Past_horizon { release; horizon } ->
      Printf.sprintf "release %d at or past the horizon %d" release horizon
  | Bad_machine { machine; machines } ->
      Printf.sprintf "machine %d out of range [0, %d)" machine machines
  | Bad_fault_time { time; frontier } ->
      Printf.sprintf "fault time %d before the admission frontier %d" time
        frontier
  | Bad_endow_time { time; frontier } ->
      Printf.sprintf "endowment time %d before the admission frontier %d" time
        frontier
  | Bad_endow msg -> msg
  | Not_federated ->
      "daemon is not federated (start it with --federation to accept \
       endowment events)"
  | Drained -> "session already drained"

let machine_homes config =
  let homes = Array.make (Config.total_machines config) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun u m ->
      for _ = 1 to m do
        homes.(!pos) <- u;
        incr pos
      done)
    config.Config.machines;
  homes

let create config =
  let instance = Config.empty_instance config in
  let maker = Algorithms.Registry.find_exn config.Config.algorithm in
  let rng = Fstats.Rng.create ~seed:config.Config.seed in
  let session =
    Sim.Session.create ~record:true ?workers:config.Config.workers
      ?max_restarts:config.Config.max_restarts
      ~federated:config.Config.federated ~instance ~rng maker
  in
  {
    config;
    session;
    next_index = Array.make (Config.organizations config) 0;
    ownership =
      Federation.Event.Ownership.create ~homes:(machine_homes config)
        ~orgs:(Config.organizations config);
    frontier = 0;
    submitted = 0;
    faults_fed = 0;
    endows_fed = 0;
    drained = false;
  }

let check_submit t ~org ~size ~release =
  let norgs = Config.organizations t.config in
  if t.drained then Error Drained
  else if org < 0 || org >= norgs then Error (Bad_org { org; norgs })
  else if size <= 0 then Error (Bad_size size)
  else if release < 0 || release < t.frontier then
    Error (Bad_release { release; frontier = t.frontier })
  else if release >= t.config.Config.horizon then
    Error (Past_horizon { release; horizon = t.config.Config.horizon })
  else Ok ()

let submit t ~org ?(user = 0) ~size ~release () =
  match check_submit t ~org ~size ~release with
  | Error _ as e -> e
  | Ok () ->
      let index = t.next_index.(org) in
      t.next_index.(org) <- index + 1;
      t.frontier <- release;
      t.submitted <- t.submitted + 1;
      Sim.Session.advance_below t.session ~time:release;
      Sim.Session.feed_job t.session
        (Core.Job.make ~org ~index ~user ~release ~size ());
      Ok index

let check_fault t ~time event =
  let machines = Config.total_machines t.config in
  let m = Faults.Event.machine event in
  if t.drained then Error Drained
  else if m < 0 || m >= machines then Error (Bad_machine { machine = m; machines })
  else if time < 0 || time < t.frontier then
    Error (Bad_fault_time { time; frontier = t.frontier })
  else Ok ()

let fault t ~time event =
  match check_fault t ~time event with
  | Error _ as e -> e
  | Ok () ->
      t.frontier <- time;
      t.faults_fed <- t.faults_fed + 1;
      Sim.Session.advance_below t.session ~time;
      Sim.Session.feed_fault t.session { Faults.Event.time; event };
      Ok ()

let check_endow_time t ~time =
  if t.drained then Error Drained
  else if not t.config.Config.federated then Error Not_federated
  else if time < 0 || time < t.frontier then
    Error (Bad_endow_time { time; frontier = t.frontier })
  else Ok ()

let check_endow t ~time event =
  match check_endow_time t ~time with
  | Error _ as e -> e
  | Ok () -> (
      (* Replay preconditions on a throwaway copy: check must not move
         the admission state (the caller may still reject the feed). *)
      match
        Federation.Event.Ownership.apply
          (Federation.Event.Ownership.copy t.ownership)
          event
      with
      | Ok _ -> Ok ()
      | Error msg -> Error (Bad_endow msg))

let endow t ~time event =
  match check_endow_time t ~time with
  | Error _ as e -> e
  | Ok () -> (
      (* [apply] leaves the state unchanged on [Error], so mutating the
         real admission copy here is itself the validation. *)
      match Federation.Event.Ownership.apply t.ownership event with
      | Error msg -> Error (Bad_endow msg)
      | Ok _changes ->
          t.frontier <- time;
          t.endows_fed <- t.endows_fed + 1;
          Sim.Session.advance_below t.session ~time;
          Sim.Session.feed_endow t.session { Federation.Event.time; event };
          Ok ())

let catch_up t = (not t.drained) && Sim.Session.catch_up t.session

let drain t =
  if not t.drained then begin
    Sim.Session.run_to_horizon t.session ();
    t.drained <- true
  end

let config t = t.config
let now t = Sim.Session.now t.session
let frontier t = t.frontier
let drained t = t.drained
let submitted t = t.submitted
let faults_fed t = t.faults_fed
let endows_fed t = t.endows_fed
let ownership t = t.ownership
(* Before drain, values are exact only at the last processed instant;
   after drain every event is final and the batch convention applies:
   evaluate at the horizon (Definition 3.2 judges ψsp there). *)
let eval_at t = if t.drained then t.config.Config.horizon else now t

let psi_scaled t = Sim.Session.psi_scaled t.session ~at:(eval_at t)
let parts t = Sim.Session.parts_at t.session ~at:(eval_at t)

let queue_depths t =
  let cluster = Sim.Session.cluster t.session in
  Array.init (Config.organizations t.config) (Core.Cluster.waiting_count cluster)

let stats t = Sim.Session.stats t.session
let schedule t = Sim.Session.schedule t.session
let session t = t.session
