(** Name → policy registry used by the CLI, the benches and the tests. *)

val find : string -> Policy.maker option
(** Lookup by name; ["rand-N"] accepts any positive N, and
    ["rand:EPS,CONF"] any valid {!Estimator} spec (Hoeffding-driven sample
    count), so estimator specs are first-class algorithm names — service
    configs and WAL records store them verbatim. *)

val find_exn : string -> Policy.maker

val all_names : string list
(** Canonical names, evaluation set first (REF, RAND variants, DIRECTCONTR,
    FAIRSHARE, UTFAIRSHARE, CURRFAIRSHARE, ROUNDROBIN), then extra
    baselines. *)
