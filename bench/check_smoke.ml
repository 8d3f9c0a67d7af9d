(* CI gate for the mp_check exploration harness.

   Runs every scenario in the corpus under a wall-clock budget and prints a
   per-scenario table; exits nonzero if any scenario fails, if the
   self-test (the deliberately broken lock) is NOT caught, or if the
   per-scenario schedule floor is not met.  Exploration is race-directed
   (DPOR + sleep sets) by default and can fan out across host domains;
   everything but the time columns is byte-identical for any --jobs.
   Three shapes:

     check_smoke.exe --bound 3 --seconds 300 --jobs 2     # every-PR gate
     check_smoke.exe --bound 3 --json                     # BENCH_check.json
     check_smoke.exe --bound 4 --faults --mode both       # weekly deep run *)

let bound = ref 2
let mode = ref "dfs" (* dfs | random | both *)
let runs = ref 500
let seed = ref None
let with_faults = ref false
let seconds = ref 120.0
let max_schedules = ref 20_000
let max_steps = ref 20_000
let dpor = ref true
let jobs_opt = ref None
let json = ref false
let json_file = ref "BENCH_check.json"

let usage =
  "check_smoke [--bound N] [--mode dfs|random|both] [--runs N] [--seed 0x...] \
   [--faults] [--seconds S] [--max-schedules N] [--no-dpor] [--jobs N] [--json]"

let spec =
  [
    ("--bound", Arg.Set_int bound, "preemption bound for DFS (default 2)");
    ("--mode", Arg.Set_string mode, "dfs | random | both (default dfs)");
    ("--runs", Arg.Set_int runs, "random runs per scenario (default 500)");
    ( "--seed",
      Arg.String (fun s -> seed := Some (Mpcheck.Sched_seed.of_string s)),
      "base seed for random mode" );
    ("--faults", Arg.Set with_faults, "enable fault injection");
    ("--seconds", Arg.Set_float seconds, "total wall-clock budget (default 120)");
    ( "--max-schedules",
      Arg.Set_int max_schedules,
      "DFS schedule cap per scenario (default 20000)" );
    ("--max-steps", Arg.Set_int max_steps, "per-run step budget (default 20000)");
    ("--dpor", Arg.Set dpor, "race-directed exploration (default)");
    ( "--no-dpor",
      Arg.Clear dpor,
      "plain CHESS DFS: expand every alternative at every decision" );
    ( "--jobs",
      Arg.Int (fun n -> jobs_opt := Some n),
      "host domains for DPOR frontier waves (default 1)" );
    ( "--json",
      Arg.Set json,
      "write BENCH_check.json (adds a plain-DFS comparison pass over the \
       non-heavy corpus for the reduction factor)" );
    ("--json-file", Arg.Set_string json_file, "JSON output path");
  ]

(* The driver-domain instance: random mode, plain DFS, and scenario-name
   resolution.  DPOR worker domains get their own generative instance
   through [make_runner] below. *)
module P = Mpcheck.Mp_check.Int (struct
  let max_procs = 2
end) ()

module S = Mpcheck.Scenarios.Make (P)

type row = {
  row_name : string;
  row_kind : string;
  row_schedules : int;
  row_pruned : int;
  row_truncated : int;
  row_capped : bool;
  row_dfs_schedules : int option; (* plain-DFS comparison pass (--json) *)
  row_seconds : float;
  row_ok : bool;
}

let rows : row list ref = ref []

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let jobs = Exec.Job_pool.resolve_jobs !jobs_opt in
  let faults =
    if !with_faults then
      {
        Mpcheck.Check_intf.no_faults with
        try_lock_fail_pct = 20;
        backoff_boost = 2;
      }
    else Mpcheck.Check_intf.no_faults
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. !seconds in
  let stop () = Unix.gettimeofday () > deadline in
  let failures = ref 0 in
  let skipped = ref 0 in
  Printf.printf
    "mp_check smoke: bound=%d mode=%s faults=%b dpor=%b jobs=%d budget=%.0fs\n%!"
    !bound !mode !with_faults !dpor jobs !seconds;
  Printf.printf "%-24s %10s %9s %8s %7s %s\n" "scenario" "schedules"
    "truncated" "pruned" "time" "result";
  (* A fresh checker instance per worker domain: per-run object ids are a
     pure function of functor-application order and the forced prefix, so
     every domain's instance reproduces the driver's labels exactly. *)
  let make_runner name () =
    let module P2 = Mpcheck.Mp_check.Int (struct
      let max_procs = 2
    end) () in
    let module S2 = Mpcheck.Scenarios.Make (P2) in
    let body = List.assoc name (S2.all @ S2.heavy @ S2.broken) in
    P2.Explore.runner ~faults ~max_steps:!max_steps body
  in
  let dpor_report name =
    let r =
      Mpcheck.Dpor.explore ~make_runner:(make_runner name) ~jobs ~bound:!bound
        ~max_schedules:!max_schedules ~stop ()
    in
    {
      Mpcheck.Mp_check.schedules = r.Mpcheck.Dpor.r_schedules;
      truncated = r.Mpcheck.Dpor.r_truncated;
      pruned = r.Mpcheck.Dpor.r_pruned;
      capped = r.Mpcheck.Dpor.r_capped;
      failure =
        Option.map
          (fun (error, schedule, trace) ->
            { Mpcheck.Mp_check.error; schedule; seed = None; trace })
          r.Mpcheck.Dpor.r_failure;
    }
  in
  let run_scenario ~kind want_failure (name, body) =
    if stop () then begin
      incr skipped;
      Printf.printf "%-24s %10s %9s %8s %7s skipped (budget exhausted)\n%!"
        name "-" "-" "-" "-"
    end
    else begin
      let s0 = Unix.gettimeofday () in
      let reports = ref [] in
      if !mode = "dfs" || !mode = "both" then
        reports :=
          (if !dpor then dpor_report name
           else
             P.Explore.dfs ~bound:!bound ~max_schedules:!max_schedules
               ~max_steps:!max_steps ~faults ~stop body)
          :: !reports;
      if
        (!mode = "random" || !mode = "both")
        && not
             (List.exists (fun r -> r.Mpcheck.Mp_check.failure <> None) !reports)
      then
        reports :=
          P.Explore.random ?seed:!seed ~runs:!runs ~max_steps:!max_steps
            ~faults body
          :: !reports;
      let dt = Unix.gettimeofday () -. s0 in
      let schedules =
        List.fold_left (fun n r -> n + r.Mpcheck.Mp_check.schedules) 0 !reports
      in
      let truncated =
        List.fold_left (fun n r -> n + r.Mpcheck.Mp_check.truncated) 0 !reports
      in
      let pruned =
        List.fold_left (fun n r -> n + r.Mpcheck.Mp_check.pruned) 0 !reports
      in
      let failure =
        List.find_map (fun r -> r.Mpcheck.Mp_check.failure) !reports
      in
      let capped = List.exists (fun r -> r.Mpcheck.Mp_check.capped) !reports in
      let ok, verdict =
        match (failure, want_failure) with
        | None, false ->
            (schedules > 0, if capped then "ok (capped)" else "ok")
        | Some _, true -> (true, "caught (expected)")
        | None, true -> (false, "MISSED EXPECTED BUG")
        | Some _, false -> (false, "FAILED")
      in
      (* the plain-DFS comparison pass: same bound, same caps, so the
         reduction factor in BENCH_check.json is like-for-like *)
      let dfs_schedules =
        if !json && !dpor && (!mode = "dfs" || !mode = "both") && kind <> "heavy"
        then
          let r =
            P.Explore.dfs ~bound:!bound ~max_schedules:!max_schedules
              ~max_steps:!max_steps ~faults ~stop body
          in
          Some r.Mpcheck.Mp_check.schedules
        else None
      in
      Printf.printf "%-24s %10d %9d %8d %6.2fs %s\n%!" name schedules truncated
        pruned dt verdict;
      (match failure with
      | Some f when not want_failure ->
          Format.printf "%a@." Mpcheck.Mp_check.pp_failure f
      | _ -> ());
      rows :=
        {
          row_name = name;
          row_kind = kind;
          row_schedules = schedules;
          row_pruned = pruned;
          row_truncated = truncated;
          row_capped = capped;
          row_dfs_schedules = dfs_schedules;
          row_seconds = dt;
          row_ok = ok;
        }
        :: !rows;
      if not ok then incr failures
    end
  in
  List.iter (run_scenario ~kind:"corpus" false) S.all;
  (* heavy scenarios: schedule-capped so the gate stays fast *)
  List.iter
    (run_scenario ~kind:"heavy" false)
    (if !bound >= 2 then S.heavy else []);
  (* self-test: the broken lock must be caught *)
  List.iter (run_scenario ~kind:"broken" true) S.broken;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "total: %.1fs, %d failure(s), %d skipped\n%!" dt !failures
    !skipped;
  if !json then begin
    let open Obs.Json in
    let ratio x y = if y > 0.0 then x /. y else 0.0 in
    let scenario r =
      let schedules = float_of_int r.row_schedules in
      Obj
        ([
           ("name", String r.row_name); ("kind", String r.row_kind);
           ("schedules", Int r.row_schedules); ("pruned", Int r.row_pruned);
           ("truncated", Int r.row_truncated); ("capped", Bool r.row_capped);
         ]
        @ (match r.row_dfs_schedules with
          | Some n ->
              [
                ("dfs_schedules", Int n);
                ("reduction", Float (2, ratio (float_of_int n) schedules));
              ]
          | None -> [])
        @ [
            ("seconds", Float (4, r.row_seconds));
            ( "schedules_per_sec",
              Float (1, ratio schedules r.row_seconds) );
            ("ok", Bool r.row_ok);
          ])
    in
    write !json_file ~schema:"mp-repro/check/v1"
      [
        ("benchmark", String "mp_check"); ("bound", Int !bound);
        ("mode", String !mode); ("dpor", Bool !dpor);
        ("jobs", Int jobs); ("faults", Bool !with_faults);
        ( "counters",
          let counters =
            Mpcheck.Check_intf.counters () @ Exec.Job_pool.counters ()
          in
          Obj (List.map (fun (k, v) -> (k, Int v)) counters) );
        ("scenarios", List (List.map scenario (List.rev !rows)));
      ];
    Printf.printf "wrote %s\n%!" !json_file
  end;
  if !failures > 0 then exit 1
