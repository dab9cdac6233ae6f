(* Contribution-estimator specification: which engine computes the Shapley
   contributions a fair policy schedules by.  Parsed from CLI flags
   (`--estimator`), service configs and WAL records, so the textual form is
   part of the persistent interface and must stay stable. *)

type t =
  | Exact
  | Fixed of int
  | Sampled of { epsilon : float; confidence : float }

let to_string = function
  | Exact -> "exact"
  | Fixed n -> Printf.sprintf "rand-%d" n
  | Sampled { epsilon; confidence } ->
      Printf.sprintf "rand:%g,%g" epsilon confidence

let algorithm_name = function
  | Exact -> "ref"
  | (Fixed _ | Sampled _) as t -> to_string t

let spec_syntax = "expected \"exact\", \"rand-N\" or \"rand:EPS,CONF\""

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match s with
  | "exact" | "ref" -> Ok Exact
  | _ when String.length s >= 5 && String.sub s 0 5 = "rand:" -> (
      let body = String.sub s 5 (String.length s - 5) in
      match String.split_on_char ',' body with
      | [ "" ] -> err "estimator %S: missing EPS,CONF after \"rand:\"" s
      | [ _ ] ->
          err "estimator %S: missing confidence (expected \"rand:EPS,CONF\")" s
      | [ eps; conf ] -> (
          match (float_of_string_opt eps, float_of_string_opt conf) with
          | None, _ -> err "estimator %S: EPS is not a number" s
          | _, None -> err "estimator %S: CONF is not a number" s
          | Some epsilon, Some confidence ->
              if not (epsilon > 0.) then
                err "estimator %S: EPS must be > 0" s
              else if not (confidence > 0. && confidence < 1.) then
                err
                  "estimator %S: CONF must be strictly between 0 and 1 (it is \
                   the success probability of the Hoeffding guarantee)"
                  s
              else Ok (Sampled { epsilon; confidence }))
      | _ -> err "estimator %S: too many commas (%s)" s spec_syntax)
  | _ -> (
      match String.split_on_char '-' s with
      | [ "rand"; n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> Ok (Fixed n)
          | Some _ -> err "estimator %S: sample count must be positive" s
          | None -> err "estimator %S: %s" s spec_syntax)
      | _ -> err "unknown estimator %S: %s" s spec_syntax)

let of_string_exn s =
  match of_string s with Ok t -> t | Error m -> invalid_arg m

let sample_count t ~players =
  match t with
  | Exact -> None
  | Fixed n -> Some n
  | Sampled { epsilon; confidence } ->
      Some (Shapley.Sample.sample_count ~players ~epsilon ~confidence)

let maker ?workers = function
  | Exact -> Reference.make ?workers ()
  | Fixed n -> Rand.rand ~n
  | Sampled { epsilon; confidence } ->
      fun instance ~rng ->
        let p = Rand.rand_with_guarantee ~epsilon ~confidence instance ~rng in
        (* Keep the registry-resolvable spec as the policy name so service
           configs round-trip through the WAL unchanged (rand_with_guarantee
           bakes the resolved sample count into its name). *)
        { p with Policy.name = Printf.sprintf "rand:%g,%g" epsilon confidence }
