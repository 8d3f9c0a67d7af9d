(* Open-loop server-workload sweep driver (the ROADMAP "millions of users"
   exhibit): a (scheduler × procs) latency-tail grid at a fixed offered
   load plus a per-scheduler saturation ramp at full machine width, both
   fanned out over Job_pool on private machine instances so every rendering
   is byte-identical for any --jobs. *)

type cell = {
  machine : string;
  sched : string;
  procs : int;
  rate : float;
  requests : int;
  completed : int;
  elapsed : float;
  throughput : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  p999_ns : int;
  mean_ns : float;
  queue_wait : float;
}

let schedulers = [ "fifo"; "distributed"; "ws" ]
let grid_procs = [ 1; 4; 16 ]

(* Offered loads for the saturation ramp, requests per virtual second at 16
   procs on the Sequent model.  Pipeline capacity there is ~460 req/s,
   set by the default 4 shards x 1 worker (more workers raise it), so the
   ramp crosses the knee inside the list. *)
let ramp_rates ~quick =
  if quick then [ 150.; 300.; 450.; 700. ]
  else [ 150.; 200.; 250.; 300.; 350.; 400.; 450.; 500.; 600.; 700. ]

let base_config ~quick =
  if quick then { Workloads.Server.default with requests = 600 }
  else Workloads.Server.default

let run_cell ~machine ~config (sched, procs, rate) =
  let module M =
    Sim.Mp_sim.Int (struct
        let config = Sim.Sim_config.of_machine_string_exn ~sched machine
      end)
      ()
  in
  let module S = Workloads.Server.Make (M) in
  let cfg = { config with Workloads.Server.rate } in
  let r =
    S.run ~procs ~sched:(Mpthreads.Sched_policy.of_string_exn sched) cfg
  in
  {
    machine;
    sched;
    procs;
    rate;
    requests = cfg.Workloads.Server.requests;
    completed = r.Workloads.Server.completed;
    elapsed = r.Workloads.Server.elapsed;
    throughput = r.Workloads.Server.throughput;
    p50_ns = r.Workloads.Server.p50;
    p95_ns = r.Workloads.Server.p95;
    p99_ns = r.Workloads.Server.p99;
    p999_ns = r.Workloads.Server.p999;
    mean_ns = Obs.Histogram.mean r.Workloads.Server.hist;
    queue_wait = r.Workloads.Server.queue_wait;
  }

let grid ?(quick = false) ?jobs ?(machine = "sequent") () =
  let config = base_config ~quick in
  let cells =
    List.concat_map
      (fun sched -> List.map (fun procs -> (sched, procs, config.Workloads.Server.rate)) grid_procs)
      schedulers
  in
  Exec.Job_pool.map ~jobs:(Exec.Job_pool.resolve_jobs jobs) (run_cell ~machine ~config) cells

let ramp ?(quick = false) ?jobs ?(machine = "sequent") ?(procs = 16) () =
  let config = base_config ~quick in
  let cells =
    List.concat_map
      (fun sched -> List.map (fun rate -> (sched, procs, rate)) (ramp_rates ~quick))
      schedulers
  in
  Exec.Job_pool.map ~jobs:(Exec.Job_pool.resolve_jobs jobs) (run_cell ~machine ~config) cells

(* Saturation knee of one scheduler's ramp: the lowest offered load whose
   p99 exceeds 5x the p99 at the lightest load — i.e. where queueing
   delay, not service time, starts to own the tail. *)
let knee cells ~sched =
  let mine =
    List.filter (fun c -> c.sched = sched) cells
    |> List.sort (fun a b -> compare a.rate b.rate)
  in
  match mine with
  | [] -> None
  | base :: _ ->
      let blowup = 5 * max 1 base.p99_ns in
      List.find_opt (fun c -> c.p99_ns > blowup) mine
      |> Option.map (fun c -> c.rate)

let ms ns = float_of_int ns /. 1e6

let print_server fmt grid_cells ramp_cells =
  Format.fprintf fmt
    "@.== server: open-loop latency tails (machine %s, Poisson arrivals) \
     ==@."
    (match grid_cells with c :: _ -> c.machine | [] -> "?");
  Format.fprintf fmt
    "@[<v>%-12s %5s %8s %9s %9s %9s %9s %9s %8s@," "sched" "procs" "rate/s"
    "tput/s" "p50ms" "p95ms" "p99ms" "p999ms" "qwait_s";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-12s %5d %8.0f %9.1f %9.2f %9.2f %9.2f %9.2f %8.3f@,"
        c.sched c.procs c.rate c.throughput (ms c.p50_ns) (ms c.p95_ns)
        (ms c.p99_ns) (ms c.p999_ns) c.queue_wait)
    grid_cells;
  Format.fprintf fmt "@]@.";
  (match ramp_cells with
  | [] -> ()
  | c0 :: _ ->
      Format.fprintf fmt
        "@.== server: saturation ramp (%d procs; offered load vs p99) ==@."
        c0.procs;
      Format.fprintf fmt "@[<v>%-12s %8s %9s %9s %9s@," "sched" "rate/s"
        "tput/s" "p99ms" "p999ms";
      List.iter
        (fun c ->
          Format.fprintf fmt "%-12s %8.0f %9.1f %9.2f %9.2f@," c.sched c.rate
            c.throughput (ms c.p99_ns) (ms c.p999_ns))
        ramp_cells;
      Format.fprintf fmt "@]@.";
      List.iter
        (fun sched ->
          match knee ramp_cells ~sched with
          | Some r ->
              Format.fprintf fmt "knee %-12s p99 blows up at %.0f req/s@."
                sched r
          | None ->
              Format.fprintf fmt "knee %-12s none within the ramp@." sched)
        schedulers)

(* ---- BENCH_server.json ------------------------------------------------ *)

let cell_json c =
  Obs.Json.(
    Obj
      [
        ("machine", String c.machine); ("sched", String c.sched);
        ("procs", Int c.procs); ("rate", Float (1, c.rate));
        ("requests", Int c.requests); ("completed", Int c.completed);
        ("elapsed_s", Float (9, c.elapsed));
        ("throughput", Float (3, c.throughput));
        ("p50_ns", Int c.p50_ns); ("p95_ns", Int c.p95_ns);
        ("p99_ns", Int c.p99_ns); ("p999_ns", Int c.p999_ns);
        ("mean_ns", Float (1, c.mean_ns));
        ("queue_wait_s", Float (9, c.queue_wait));
      ])

let write_json ~quick grid_cells ramp_cells =
  let { Workloads.Server.requests; service_mean_instrs; shards;
        workers_per_shard; queue_cap; seed; _ } = base_config ~quick in
  let knee_json sched =
    match knee ramp_cells ~sched with
    | Some r -> (sched, Obs.Json.Float (1, r))
    | None -> (sched, Obs.Json.Null)
  in
  Obs.Json.(
    write "BENCH_server.json" ~schema:"mp-repro/server/v1"
      [
        ("mode", String (if quick then "quick" else "full"));
        ( "config",
          Obj
            [
              ("requests", Int requests); ("arrival", String "poisson");
              ("service", String "exp");
              ("service_mean_instrs", Int service_mean_instrs);
              ("shards", Int shards);
              ("workers_per_shard", Int workers_per_shard);
              ("queue_cap", Int queue_cap); ("seed", Int seed);
            ] );
        ("cells", List (List.map cell_json grid_cells));
        ("ramp", List (List.map cell_json ramp_cells));
        ("knee", Obj (List.map knee_json schedulers));
      ]);
  prerr_endline "wrote BENCH_server.json"
