(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

type view = {
  instance : Instance.t;
  cluster : Cluster.t;
  trackers : Utility.Tracker.t array;
}

type t = {
  name : string;
  select : view -> time:int -> int;
  pick_machine : view -> time:int -> org:int -> int option;
  on_release : view -> time:int -> Job.t -> unit;
  on_start : view -> time:int -> Schedule.placement -> unit;
  on_complete : view -> time:int -> Cluster.completion -> unit;
  on_kill : view -> time:int -> Cluster.kill -> unit;
  on_fault : view -> time:int -> Faults.Event.t -> unit;
  on_endow : view -> time:int -> Federation.Event.t -> unit;
  stats : (unit -> Kernel.Stats.t) option;
  catch_up : unit -> bool;
}

let nop3 _ ~time:_ _ = ()

let make ~name ?pick_machine ?on_release ?on_start ?on_complete ?on_kill
    ?on_fault ?on_endow ?stats ?catch_up ~select () =
  {
    name;
    select;
    pick_machine =
      Option.value pick_machine ~default:(fun _ ~time:_ ~org:_ -> None);
    on_release = Option.value on_release ~default:nop3;
    on_start = Option.value on_start ~default:nop3;
    on_complete = Option.value on_complete ~default:nop3;
    on_kill = Option.value on_kill ~default:nop3;
    on_fault = Option.value on_fault ~default:nop3;
    on_endow = Option.value on_endow ~default:nop3;
    stats;
    catch_up = Option.value catch_up ~default:(fun () -> false);
  }

type maker = Instance.t -> rng:Fstats.Rng.t -> t

let utility_plus_pending_scaled view ~pending ~org ~time =
  Utility.Tracker.value_scaled view.trackers.(org) ~at:time
  + (2 * Instant.get pending ~time ~org)
