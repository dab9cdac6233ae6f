type t = {
  machines : int array;
  speeds : float array option;
  horizon : int;
  algorithm : string;
  seed : int;
  max_restarts : int option;
  workers : int option;
  groups : int;
  federated : bool;
}

(* Org-groups partition the organizations into contiguous balanced blocks:
   group [g] owns orgs [g*k/G, (g+1)*k/G).  Machines follow their orgs. *)
let group_org_lo ~orgs ~groups g = g * orgs / groups

let make ?speeds ?max_restarts ?workers ?(groups = 1) ?(federated = false)
    ~machines ~horizon ~algorithm ~seed () =
  let total = Array.fold_left ( + ) 0 machines in
  let orgs = Array.length machines in
  let empty_group () =
    (* every group needs at least one machine, or its session is invalid *)
    let rec go g =
      if g >= groups then false
      else
        let lo = group_org_lo ~orgs ~groups g
        and hi = group_org_lo ~orgs ~groups (g + 1) in
        let sum = ref 0 in
        for o = lo to hi - 1 do
          sum := !sum + machines.(o)
        done;
        if !sum = 0 then true else go (g + 1)
    in
    go 0
  in
  if Array.length machines = 0 then Error "no organizations"
  else if Array.exists (fun m -> m < 0) machines then
    Error "negative machine count"
  else if total = 0 then Error "no machines at all"
  else if horizon <= 0 then Error "horizon must be positive"
  else if Algorithms.Registry.find algorithm = None then
    Error (Printf.sprintf "unknown algorithm %S" algorithm)
  else if (match max_restarts with Some r -> r < 0 | None -> false) then
    Error "max_restarts must be >= 0"
  else if (match workers with Some w -> w < 1 | None -> false) then
    Error "workers must be >= 1"
  else if groups < 1 then Error "groups must be >= 1"
  else if groups > orgs then Error "groups must not exceed the organization count"
  else if empty_group () then Error "every org-group needs at least one machine"
  else
    match speeds with
    | Some sp when Array.length sp <> total ->
        Error "speeds length must match the machine count"
    | Some sp when Array.exists (fun s -> s <= 0.) sp ->
        Error "speeds must be positive"
    | _ ->
        Ok
          {
            machines;
            speeds;
            horizon;
            algorithm;
            seed;
            max_restarts;
            workers;
            groups;
            federated;
          }

let organizations t = Array.length t.machines
let total_machines t = Array.fold_left ( + ) 0 t.machines

let empty_instance t =
  match t.speeds with
  | None -> Core.Instance.make ~machines:t.machines ~jobs:[] ~horizon:t.horizon
  | Some speeds ->
      Core.Instance.make_related ~speeds ~machines:t.machines ~jobs:[]
        ~horizon:t.horizon

(* [groups] is omitted when 1 so single-group WAL headers stay
   byte-identical with logs written before sharding existed; only
   federated daemons mark their headers.  Decoding re-runs [make]'s
   validation. *)
let codec =
  let open Obs.Json.Codec in
  obj ~style:(field_style "config ")
    [
      req "machines" int_array;
      opt "speeds" (array number);
      req "horizon" int;
      req "algorithm" (fails_as Missing string);
      req "seed" int;
      opt "max_restarts" int;
      opt "workers" int;
      dft ~omit:true "groups" int 1;
      dft ~omit:true "federated" bool false;
    ]
    (fun [ machines; speeds; horizon; algorithm; seed; max_restarts; workers;
           groups; federated ] ->
      {
        machines;
        speeds;
        horizon;
        algorithm;
        seed;
        max_restarts;
        workers;
        groups;
        federated;
      })
    (fun t ->
      [
        t.machines;
        t.speeds;
        t.horizon;
        t.algorithm;
        t.seed;
        t.max_restarts;
        t.workers;
        t.groups;
        t.federated;
      ])
  |> validate (fun t ->
         make ?speeds:t.speeds ?max_restarts:t.max_restarts ?workers:t.workers
           ~groups:t.groups ~federated:t.federated ~machines:t.machines
           ~horizon:t.horizon ~algorithm:t.algorithm ~seed:t.seed ())

let to_json = Obs.Json.Codec.encode codec
let of_json = Obs.Json.Codec.decode codec

let equal a b = { a with workers = None } = { b with workers = None }

let pp ppf t =
  Format.fprintf ppf "%s k=%d m=%d horizon=%d seed=%d" t.algorithm
    (organizations t) (total_machines t) t.horizon t.seed
