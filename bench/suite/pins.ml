(* Output digests pinned at the default seed and the configured run length
   (BENCHMARK.json's run_seconds).  A service workload streams more jobs
   the longer it runs, so its digest holds at that length only; the smoke
   scale uses other inputs and is checked by its own oracles alone. *)

let default_seed = 4242
let run_seconds = 15.

let pinned =
  [
    ("serve-fairshare", "a59aa9846787c1f202566f4b7cb5dae6");
    ("serve-rand24", "0d13677bcd47c5f83a63ee18eae5aec1");
    ("batch-ref8", "828bb7d3f4fa8d3654875155c259f38d");
    ("batch-rand50", "d412a79b843be9eb02ca082dcc506752");
    ("table1", "108b6f1a39e227e6c91f005f13225dc5");
  ]

let find ~workload ~seed ~seconds =
  if seed = default_seed && seconds = run_seconds then
    List.assoc_opt workload pinned
  else None
