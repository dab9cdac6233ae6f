(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core
module Coalition = Shapley.Coalition

let empty_schedule = Schedule.of_placements ~machines:1 []

(* ψ(C, u, t) read off the coalition's recorded schedule. *)
let psi_of ~utility ~schedule_of ~mask ~org ~at =
  utility.Utility.Functions.eval (schedule_of mask) ~org ~at

(* UpdateVals (Fig. 1): Shapley contributions of the members of [mask] from
   the current values of all its sub-coalition schedules. *)
let contributions ~utility ~k ~schedule_of ~mask ~at =
  let size_mask = Coalition.size mask in
  let phi = Array.make k 0. in
  Coalition.iter_subsets mask (fun sub ->
      if sub <> Coalition.empty then begin
        let w =
          Numeric.Combinatorics.shapley_weight_float ~players:size_mask
            ~subset:(Coalition.size sub - 1)
        in
        let v c =
          Coalition.fold
            (fun u acc -> acc +. psi_of ~utility ~schedule_of ~mask:c ~org:u ~at)
            c 0.
        in
        let v_sub = v sub in
        Coalition.iter_members
          (fun u ->
            phi.(u) <- phi.(u) +. (w *. (v_sub -. v (Coalition.remove sub u))))
          sub
      end);
  phi

(* Distance (Fig. 1): the L1 gap between contributions and utilities if the
   front job of [org] were started now.  Δψ is evaluated at [at+1]: at [at]
   a just-started job has no executed part yet (see DESIGN.md). *)
let distance ~utility ~schedule_of ~mask ~phi ~at ~org ~front_start_added =
  let size_mask = Coalition.size mask in
  let delta =
    utility.Utility.Functions.eval front_start_added ~org ~at:(at + 1)
    -. psi_of ~utility ~schedule_of ~mask ~org ~at:(at + 1)
  in
  let spread = delta /. float_of_int size_mask in
  Coalition.fold
    (fun u acc ->
      let psi_u = psi_of ~utility ~schedule_of ~mask ~org:u ~at in
      let adjusted_psi = if u = org then psi_u +. delta else psi_u in
      acc +. Float.abs (phi.(u) +. spread -. adjusted_psi))
    mask 0.

let with_tentative_start schedule (job : Job.t) ~at =
  (* The tentative machine id does not matter for envy-free utilities; use
     machine 0 (always valid: the schedule has >= 1 machine). *)
  Schedule.of_placements
    ~machines:(Schedule.machines schedule)
    (Schedule.placement ~job ~start:at ~machine:0 ()
     :: Schedule.placements schedule)

let select_in ~utility ~k ~schedule_of ~mask ~waiting ~front ~at =
  let phi = contributions ~utility ~k ~schedule_of ~mask ~at in
  let score u =
    match front u with
    | None -> infinity
    | Some job ->
        let tentative = with_tentative_start (schedule_of mask) job ~at in
        distance ~utility ~schedule_of ~mask ~phi ~at ~org:u
          ~front_start_added:tentative
  in
  match List.map (fun u -> (score u, u)) waiting with
  | [] -> invalid_arg "ref-generic: nothing waiting"
  | first :: rest ->
      snd
        (List.fold_left
           (fun (bs, bu) (s, u) -> if s < bs then (s, u) else (bs, bu))
           first rest)

(* Every proper sub-coalition keeps a recorded what-if schedule on the
   shared Coalition_set engine; its scheduling rounds run the same Fig. 1
   rule, reading the (frozen within the instant) schedules of strictly
   smaller coalitions. *)
let make ~utility ?name ?workers ?max_restarts () instance ~rng:_ =
  let k = Instance.organizations instance in
  if k > 8 then
    invalid_arg
      "Ref_generic: the general algorithm recomputes utilities over 3^k \
       schedules; use k <= 8 (or Reference for psp)";
  let grand = Coalition.grand ~players:k in
  let set =
    Coalition_set.create ?max_restarts ~record:true ?workers ~instance
      (Array.init (grand - 1) (fun i -> i + 1))
  in
  let sub_schedule mask =
    match Coalition_set.find set mask with
    | -1 -> empty_schedule
    | slot -> Coalition_sim.schedule (Coalition_set.sim set slot)
  in
  let select_sim sim ~time =
    select_in ~utility ~k ~schedule_of:sub_schedule
      ~mask:(Coalition_sim.members sim)
      ~waiting:(Coalition_sim.waiting_orgs sim)
      ~front:(Coalition_sim.front sim) ~at:time
  in
  let name =
    Option.value name
      ~default:("ref-generic-" ^ utility.Utility.Functions.name)
  in
  Policy.make ~name
    ~on_release:(fun _view ~time:_ job -> Coalition_set.add_release set job)
    ~on_fault:(fun _view ~time event ->
      Coalition_set.add_fault set { Faults.Event.time; event })
    ~on_endow:(fun _view ~time event ->
      Coalition_set.add_endow set { Federation.Event.time; event })
    ~stats:(fun () -> Coalition_set.stats set)
    ~select:(fun view ~time ->
      Coalition_set.advance_to set ~time ~select:select_sim;
      let schedule_of mask =
        if mask = grand then
          Schedule.of_placements
            ~machines:(Cluster.machines view.Policy.cluster)
            (Cluster.placements view.Policy.cluster)
        else sub_schedule mask
      in
      select_in ~utility ~k ~schedule_of ~mask:grand
        ~waiting:(Cluster.waiting_orgs view.Policy.cluster)
        ~front:(Cluster.front view.Policy.cluster)
        ~at:time)
    ()

let make_with utility_of ?name ?workers ?max_restarts () instance ~rng =
  make ~utility:(utility_of instance) ?name ?workers ?max_restarts () instance
    ~rng

let ref_psp instance ~rng =
  make ~utility:Utility.Functions.psp ~name:"ref-generic-psp" () instance ~rng
