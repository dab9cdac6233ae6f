type t = {
  mutable instants : int;
  mutable completions : int;
  mutable fault_events : int;
  mutable endow_events : int;
  mutable kills : int;
  mutable abandoned : int;
  mutable wasted : int;
  mutable releases : int;
  mutable rounds : int;
  mutable starts : int;
  mutable heap_pops : int;
}

let create () =
  {
    instants = 0;
    completions = 0;
    fault_events = 0;
    endow_events = 0;
    kills = 0;
    abandoned = 0;
    wasted = 0;
    releases = 0;
    rounds = 0;
    starts = 0;
    heap_pops = 0;
  }

let reset t =
  t.instants <- 0;
  t.completions <- 0;
  t.fault_events <- 0;
  t.endow_events <- 0;
  t.kills <- 0;
  t.abandoned <- 0;
  t.wasted <- 0;
  t.releases <- 0;
  t.rounds <- 0;
  t.starts <- 0;
  t.heap_pops <- 0

let copy t = { t with instants = t.instants }

let add acc x =
  acc.instants <- acc.instants + x.instants;
  acc.completions <- acc.completions + x.completions;
  acc.fault_events <- acc.fault_events + x.fault_events;
  acc.endow_events <- acc.endow_events + x.endow_events;
  acc.kills <- acc.kills + x.kills;
  acc.abandoned <- acc.abandoned + x.abandoned;
  acc.wasted <- acc.wasted + x.wasted;
  acc.releases <- acc.releases + x.releases;
  acc.rounds <- acc.rounds + x.rounds;
  acc.starts <- acc.starts + x.starts;
  acc.heap_pops <- acc.heap_pops + x.heap_pops

let total xs =
  let acc = create () in
  List.iter (add acc) xs;
  acc

let pp ppf t =
  Format.fprintf ppf
    "instants=%d completions=%d faults=%d endows=%d kills=%d abandoned=%d \
     wasted=%d releases=%d rounds=%d starts=%d heap_pops=%d"
    t.instants t.completions t.fault_events t.endow_events t.kills t.abandoned
    t.wasted t.releases t.rounds t.starts t.heap_pops

(* Absent [endow_events] reads as 0: snapshots and replies written before
   the federation layer have no such field. *)
let codec =
  let open Obs.Json.Codec in
  let style name = function
    | Missing -> Printf.sprintf "missing field %S" name
    | Expected what -> Printf.sprintf "field %S is not %s" name what
    | p -> field_style "" name p
  in
  obj ~style
    [
      req "instants" int;
      req "completions" int;
      req "fault_events" int;
      dft "endow_events" int 0;
      req "kills" int;
      req "abandoned" int;
      req "wasted" int;
      req "releases" int;
      req "rounds" int;
      req "starts" int;
      req "heap_pops" int;
    ]
    (fun [ instants; completions; fault_events; endow_events; kills; abandoned;
           wasted; releases; rounds; starts; heap_pops ] ->
      {
        instants;
        completions;
        fault_events;
        endow_events;
        kills;
        abandoned;
        wasted;
        releases;
        rounds;
        starts;
        heap_pops;
      })
    (fun t ->
      [
        t.instants;
        t.completions;
        t.fault_events;
        t.endow_events;
        t.kills;
        t.abandoned;
        t.wasted;
        t.releases;
        t.rounds;
        t.starts;
        t.heap_pops;
      ])

let to_json t = Obs.Json.to_string (Obs.Json.Codec.encode codec t)
let of_json = Obs.Json.Codec.decode codec
