(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** First-class utility functions ψ(σ, org, t).

    Section 3 of the paper defines the fair algorithm for an {e arbitrary}
    utility; Section 4 then argues the utility must be ψsp to be
    strategy-proof.  This module packages both ψsp and the classic
    alternatives behind one interface so the general Algorithm REF
    ([Algorithms.Ref_generic], whose recorded sub-coalition schedules run
    on the shared [Algorithms.Coalition_set] engine) and the
    utility-function ablation can switch between them.

    All functions are in maximization form (bigger = better), non-clairvoyant
    (they only look at jobs started by [at]), and envy-free in the paper's
    sense (they depend only on the organization's own placements).  Most
    count only parts executed by [at], so a job started at [at] adds
    nothing yet; {!neg_waiting} counts its wait from the moment it starts,
    so a start at [at] already moves its value at [at]. *)

type t = {
  name : string;
  eval : Schedule.t -> org:int -> at:int -> float;
}

val psp : t
(** The strategy-proof utility (Eq. 3). *)

val neg_flow_time : all_jobs:Job.t list -> t
(** −(online flow time of the organization's jobs): the classic metric the
    paper criticizes — scheduling nothing is "optimal", and splitting pays.
    Needs the full job list to account for waiting jobs. *)

val throughput : t
(** Number of the organization's completed jobs — breaks start-time
    anonymity (completing a long job counts like a short one). *)

val cpu_time : t
(** Executed machine-seconds of the organization's jobs — anonymous in
    starting times (breaks axiom 1: finishing early is worth nothing). *)

val neg_waiting : t
(** −Σ (start − release) over started jobs. *)

val all : t list
val by_name : string -> t option
