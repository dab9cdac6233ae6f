open Core

type report = {
  policy : string;
  max_excess : float;
  mean_positive_excess : float;
  violating : int;
  coalitions : int;
  max_excess_ratio : float;
}

let analyze ~instance ~seed policies =
  let k = Instance.organizations instance in
  let at = instance.Instance.horizon in
  let grand = Shapley.Coalition.grand ~players:k in
  let proper =
    List.filter
      (fun c -> c <> Shapley.Coalition.empty && c <> grand)
      (Shapley.Coalition.subcoalitions grand)
  in
  let standalone =
    (* Standalone value of coalition C: C's jobs on C's machines with the
       FCFS greedy rule.  (The secessionists would run their own scheduler;
       any greedy rule gives the same total for unit jobs and nearly the
       same total otherwise — the work is conserved.) *)
    List.map
      (fun mask ->
        (mask, Algorithms.Coalition_sim.fifo_value ~instance ~members:mask ~at))
      proper
  in
  List.map
    (fun (name, maker) ->
      let result =
        Sim.Driver.run ~record:false ~instance
          ~rng:(Fstats.Rng.create ~seed)
          maker
      in
      let psi = Sim.Driver.utilities result in
      let v_grand = Array.fold_left ( +. ) 0. psi in
      let tolerance = 1.0 in
      let max_excess = ref neg_infinity in
      let positive_sum = ref 0. in
      let positive_count = ref 0 in
      let violating = ref 0 in
      List.iter
        (fun (mask, v_alone) ->
          let received =
            Shapley.Coalition.fold (fun u acc -> acc +. psi.(u)) mask 0.
          in
          let excess = v_alone -. received in
          if excess > !max_excess then max_excess := excess;
          if excess > 0. then begin
            positive_sum := !positive_sum +. excess;
            incr positive_count
          end;
          if excess > tolerance then incr violating)
        standalone;
      {
        policy = name;
        max_excess = !max_excess;
        mean_positive_excess =
          (if !positive_count = 0 then 0.
           else !positive_sum /. float_of_int !positive_count);
        violating = !violating;
        coalitions = List.length standalone;
        max_excess_ratio =
          (if v_grand = 0. then 0. else !max_excess /. v_grand);
      })
    policies

let pp ppf reports =
  Format.fprintf ppf "  %-14s %14s %14s %16s@." "policy" "max excess"
    "violations" "excess / v";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-14s %14.1f %10d/%-4d %15.4f%%@." r.policy
        r.max_excess r.violating r.coalitions
        (100. *. r.max_excess_ratio))
    reports

let demo ?(norgs = 4) ?(seed = 2027) () =
  let instance =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs ~machines:8 ~horizon:30_000
         ~load:0.95 Workload.Traces.lpc_egee)
      ~seed
  in
  analyze ~instance ~seed:(seed lxor 0xca11)
    [
      ("ref", Algorithms.Reference.reference);
      ("rand-15", Algorithms.Rand.rand15);
      ("fairshare", Algorithms.Fair_share.fair_share);
      ("roundrobin", Algorithms.Baselines.round_robin);
    ]
