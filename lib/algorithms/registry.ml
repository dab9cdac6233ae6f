let fixed : (string * Policy.maker) list =
  [
    ("ref", Reference.reference);
    ("ref-generic-psp", Ref_generic.ref_psp);
    ("ref-banzhaf", Reference.banzhaf);
    ("rand-15", Rand.rand15);
    ("rand-75", Rand.rand75);
    ("directcontr", Direct_contr.direct_contr);
    ("fairshare", Fair_share.fair_share);
    ("utfairshare", Fair_share.ut_fair_share);
    ("currfairshare", Fair_share.curr_fair_share);
    ("roundrobin", Baselines.round_robin);
    ("fifo", Baselines.fifo);
    ("random", Baselines.random_greedy);
    ("longest-queue", Baselines.longest_queue);
    ("fairshare-decay", Decayed.fair_share ~half_life:5_000.);
    ("directcontr-decay", Decayed.direct_contr ~half_life:5_000.);
  ]

let find name =
  match List.assoc_opt name fixed with
  | Some maker -> Some maker
  | None -> (
      (* Estimator specs double as algorithm names ("rand-N",
         "rand:EPS,CONF") so service configs and WAL records round-trip
         through the registry unchanged. *)
      match Estimator.of_string name with
      | Ok (Estimator.Fixed _ as spec) | Ok (Estimator.Sampled _ as spec) ->
          Some (Estimator.maker spec)
      | Ok Estimator.Exact | Error _ -> None)

let find_exn name =
  match find name with
  | Some maker -> maker
  | None -> invalid_arg (Printf.sprintf "unknown algorithm %S" name)

let all_names = List.map fst fixed
