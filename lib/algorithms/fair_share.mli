(** The distributive-fairness family (Section 7.1).

    Every variant assigns each organization a static target share equal to
    the fraction of processors it contributes (as in the paper's
    experiments) and serves the organization with the smallest
    consumption-to-share ratio among those with waiting jobs. *)

val fair_share : Policy.maker
(** FAIRSHARE (Kay & Lauder): consumption = processor time already assigned
    to the organization's jobs — completed work plus the elapsed (and
    currently committed) slots of running jobs. *)

val ut_fair_share : Policy.maker
(** UTFAIRSHARE: consumption = the organization's ψsp utility — the same
    allocator driven by the paper's strategy-proof metric. *)

val curr_fair_share : Policy.maker
(** CURRFAIRSHARE: memoryless variant — consumption = number of
    currently-running jobs. *)
