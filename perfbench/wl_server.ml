(* server and server-domains: the open-loop [Workloads.Server] pipeline
   (accept -> shard -> work -> reply over CML channels and bounded shard
   queues) driven up a fixed ladder of offered rates.

   [server] runs it on the simulated 4-node x 16-proc NUMA machine with
   64 procs, work stealing and 16 shards x 4 workers, in virtual time.
   [server_domains] runs the same client stack on [Mp_domains] with 2
   procs and fixed service demand; [Work.step] is a no-op there, so it
   measures only what CML, Sync, the locks and the scheduler cost on real
   cores, in host time. *)

open Common

type rung = { name : string; rate : float; requests : int }

type inputs = { seed : int; rungs : rung list }

(* Latency limit a rung must meet to count toward [capacity_rps]. *)
let p99_limit_ms = 100.

let sim_rungs =
  [ { name = "light"; rate = 250.; requests = 1000 };
    { name = "busy"; rate = 1000.; requests = 2000 };
    { name = "r1100"; rate = 1100.; requests = 1000 };
    { name = "r1250"; rate = 1250.; requests = 1000 };
    { name = "over"; rate = 2000.; requests = 1000 } ]

(* [over] on domains is one burst at t = 0 (rate infinity). *)
let domain_rungs =
  [ { name = "light"; rate = 5000.; requests = 2000 };
    { name = "over"; rate = infinity; requests = 10000 } ]

let sim_config = Sim.Sim_config.of_machine_string_exn ~sched:"ws" "numa:4x16"
let domain_procs = 2
let sched = Mpthreads.Sched_policy.Ws

let base ~seed ~domains =
  { Workloads.Server.default with
    seed; shards = 16; workers_per_shard = 4;
    service = (if domains then Workloads.Server.Fixed else Workloads.Server.Exp) }

let cfg_of ~seed ~domains r =
  { (base ~seed ~domains) with Workloads.Server.rate = r.rate; requests = r.requests }

type rung_result = {
  rung : rung;
  failed : int;
  p50_ms : float;
  p99_ms : float;
  tput : float;
  digest : string;
}

(* One rung on platform [P]; every request must come back exactly once
   (the collector's count and the latency histogram both equal the
   number offered). *)
let run_rung (module P : Mp.Mp_intf.PLATFORM_INT) ~procs cfg rung =
  let module W = Workloads.Server.Make (P) in
  let n = rung.requests in
  match W.run ~procs ~sched cfg with
  | r ->
      let h = r.Workloads.Server.hist in
      let got = min r.completed (Obs.Histogram.count h) in
      { rung; failed = n - got;
        p50_ms = quantile h 0.5 /. 1e6; p99_ms = quantile h 0.99 /. 1e6;
        tput = r.throughput; digest = histogram_digest h }
  | exception _ ->
      { rung; failed = n; p50_ms = nan; p99_ms = nan; tput = 0.; digest = "" }

let instance ~domains : (module Mp.Mp_intf.PLATFORM_INT) =
  if domains then (module Mp.Mp_domains.Int (struct let max_procs = domain_procs end) ())
  else (module (val sim_instance sim_config))

(* Set-up: generate and check every rung's arrival schedule (ascending,
   one instant per request, mean rate near the offered one), then warm the
   platform up with a short rung on a fresh instance. *)
let setup ~seed ~domains =
  let rungs = if domains then domain_rungs else sim_rungs in
  List.iter
    (fun r ->
      let ts = Workloads.Server.arrivals (cfg_of ~seed ~domains r) in
      let n = Array.length ts in
      let sorted = ref true in
      Array.iteri (fun i t -> if i > 0 && t < ts.(i - 1) then sorted := false) ts;
      let rate_ok =
        (not (Float.is_finite r.rate))
        || Float.abs ((float_of_int n /. ts.(n - 1)) -. r.rate) < 0.2 *. r.rate
      in
      if n <> r.requests || not !sorted || not rate_ok then
        bench_error "bad arrival schedule for rung %s" r.name)
    rungs;
  (* The warm-up is not an input: it uses the repository's default seed,
     so set-up costs the same whatever [seed] is. *)
  let warm = { name = "warm-up"; rate = (List.hd (List.rev rungs)).rate; requests = 200 } in
  let r =
    run_rung (instance ~domains) ~procs:(if domains then domain_procs else 64)
      (cfg_of ~seed:Workloads.Server.default.seed ~domains warm) warm
  in
  if r.failed > 0 then bench_error "warm-up rung lost requests";
  { seed; rungs }

let find results name = List.find (fun r -> r.rung.name = name) results

let capacity results =
  List.fold_left
    (fun acc r ->
      if r.failed = 0 && r.p99_ms <= p99_limit_ms && r.tput >= 0.95 *. r.rung.rate
      then Float.max acc r.rung.rate else acc)
    0. results

let summarize ~domains results ~signature ~layers ~lock_time =
  let ops = List.fold_left (fun a r -> a + r.rung.requests) 0 results in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  let light = find results "light" and over = find results "over" in
  if domains then
    { ops; failed; signature; layers; lock_time;
      lat_ms = light.p50_ms; tail_ms = over.p99_ms; tput_per_s = over.tput;
      headline =
        [ ("p50_ms_light", "ms", light.p50_ms); ("tput_rps_over", "1/s", over.tput) ] }
  else
    let busy = find results "busy" in
    { ops; failed; signature; layers; lock_time;
      lat_ms = light.p50_ms; tail_ms = busy.p99_ms; tput_per_s = over.tput;
      headline =
        [ ("p50_ms_light", "ms", light.p50_ms); ("p99_ms_light", "ms", light.p99_ms);
          ("p50_ms_busy", "ms", busy.p50_ms); ("p99_ms_busy", "ms", busy.p99_ms);
          ("tput_rps_over", "1/s", over.tput); ("capacity_rps", "1/s", capacity results) ] }

(* ---- simulated: numa:4x16, 64 procs ----------------------------------- *)

let sim_pass inputs ~spans =
  let layers = Tally.create () and lock_time = Hashtbl.create 16 in
  let results =
    List.map
      (fun rung ->
        let (module S) = sim_instance sim_config in
        let cfg = cfg_of ~seed:inputs.seed ~domains:false rung in
        let res =
          on_platform ~spans ~layers ~lock_time ~cost:(sim_cost sim_config) ~clock:"cycles"
            ~cell:rung.name (module S) (fun p -> run_rung p ~procs:64 cfg rung)
        in
        tally_sim layers (module S);
        tally_platform layers (module S);
        (res, rung.name ^ "=" ^ res.digest ^ ";" ^ sim_signature (module S)))
      inputs.rungs
  in
  span spans ~name:"reduce" ~tag:"server" (fun () ->
      summarize ~domains:false (List.map fst results)
        ~signature:(String.concat "|" (List.map snd results))
        ~layers ~lock_time)

(* ---- real cores: Mp_domains, 2 procs ---------------------------------- *)

(* [Work.step] charges nothing on real cores. *)
let no_cost : (module Traced.COST) =
  (module struct
    let step_cycles ~instrs:_ ~alloc_words:_ = 0
  end)

let domains_pass inputs ~spans =
  let layers = Tally.create () and lock_time = Hashtbl.create 16 in
  let results =
    List.map
      (fun rung ->
        let module D = Mp.Mp_domains.Int (struct let max_procs = domain_procs end) () in
        let cfg = cfg_of ~seed:inputs.seed ~domains:true rung in
        let res =
          on_platform ~spans ~layers ~lock_time ~cost:no_cost ~clock:"ns" ~cell:rung.name
            (module D) (fun p -> run_rung p ~procs:domain_procs cfg rung)
        in
        tally_platform layers (module D);
        res)
      inputs.rungs
  in
  span spans ~name:"reduce" ~tag:"server-domains" (fun () ->
      summarize ~domains:true results ~signature:"" ~layers ~lock_time)

(* ---- per-request audit ------------------------------------------------- *)

(* Every rung once more with the pipeline's per-shard processing log on:
   each request id must have been processed exactly once, by a worker of
   its own shard, and replied to (the collector counts every reply).  The
   log adds a locked section per request, so this runs apart from the
   measured passes and its timings are not used.  Returns (attempted,
   failed). *)
let audit inputs ~domains =
  List.fold_left
    (fun (att, bad) rung ->
      let cfg = { (cfg_of ~seed:inputs.seed ~domains rung) with record_order = true } in
      let n = rung.requests in
      let (module P) = instance ~domains in
      let module W = Workloads.Server.Make (P) in
      let procs = if domains then domain_procs else 64 in
      let failed =
        match W.run ~procs ~sched cfg with
        | r ->
            let seen = Array.make n 0 in
            Array.iteri
              (fun s ids ->
                List.iter
                  (fun id ->
                    if id >= 0 && id < n && Workloads.Server.shard_of cfg id = s then
                      seen.(id) <- seen.(id) + 1)
                  ids)
              r.Workloads.Server.order;
            let once = Array.fold_left (fun a c -> if c = 1 then a + 1 else a) 0 seen in
            n - min once r.completed
        | exception _ -> n
      in
      (att + n, bad + failed))
    (0, 0) inputs.rungs
