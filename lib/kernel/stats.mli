(** Instrumentation counters of one simulation kernel instance.

    Every event loop in the system — the grand-coalition driver, each
    sub-coalition what-if simulation inside REF/RAND, the rigid and
    preemptive extension models — advances through {!Engine}, and the
    engine counts what it does here: event instants processed, completions
    popped, fault events applied, kills and wasted parts, releases
    admitted, scheduling rounds and job starts.  The REF engine adds its
    global event-heap pops.  Counters are plain mutable ints: each kernel
    instance is only ever advanced by one domain at a time (the parallel
    REF stages partition sims across domains), and cross-sim totals are
    taken sequentially with {!add}. *)

type t = {
  mutable instants : int;  (** event instants processed *)
  mutable completions : int;  (** completion events popped *)
  mutable fault_events : int;  (** fault events applied (fail + recover) *)
  mutable endow_events : int;  (** endowment events applied (join/leave/lend/reclaim) *)
  mutable kills : int;  (** jobs killed by machine failures or retirements *)
  mutable abandoned : int;  (** kills that exhausted the restart budget *)
  mutable wasted : int;  (** executed-then-lost parts across kills *)
  mutable releases : int;  (** job releases admitted *)
  mutable rounds : int;  (** scheduling rounds run *)
  mutable starts : int;  (** scheduling decisions (job starts / slot grants) *)
  mutable heap_pops : int;  (** global event-heap pops (REF engine only) *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc] field-wise. *)

val total : t list -> t
(** Fresh field-wise sum. *)

val pp : Format.formatter -> t -> unit

val codec : t Obs.Json.Codec.obj
(** One flat JSON object, keys matching the field names.  An absent
    [endow_events] reads as 0; a wrong-typed one is an error. *)

val to_json : t -> string
(** {!codec}'s object, serialized. *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}: it reconstructs [t] exactly. *)
