let registry = Obs.Counters.create ()
let c_jobs = Obs.Counters.counter registry "exec.jobs_run"
let c_batches = Obs.Counters.counter registry "exec.parallel_batches"
let c_domains = Obs.Counters.counter registry "exec.domains_spawned"
let c_steals = Obs.Counters.counter registry "exec.steals"

let resolve_jobs = function Some n -> max 1 n | None -> 1

(* One slot per job; distinct jobs write distinct slots, and Domain.join
   publishes every worker's writes before the caller reads, so the merge
   is race-free without locks. *)
type 'b slot = Empty | Ok_ of 'b | Exn of exn

let run_job f x = match f x with v -> Ok_ v | exception e -> Exn e

let map ~jobs f xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then
    List.map
      (fun x ->
        Obs.Counters.incr c_jobs;
        f x)
      xs
  else begin
    Obs.Counters.incr c_batches;
    let results = Array.make n Empty in
    (* The deque owner is the calling domain: it pushes every indexed job
       up front, then drains from the LIFO end while spawned workers
       steal from the FIFO end.  Either side winning a race is fine —
       each job runs exactly once and lands in its own slot. *)
    let deque : (int * 'a) Queues.Ws_deque.t = Queues.Ws_deque.create () in
    List.iteri (fun i x -> Queues.Ws_deque.push deque (i, x)) xs;
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        match Queues.Ws_deque.steal deque with
        | Some (i, x) ->
            Obs.Counters.incr c_jobs;
            Obs.Counters.incr c_steals;
            results.(i) <- run_job f x
        | None ->
            (* Chase–Lev steal also returns None on a lost race while work
               remains, so consult the (racy) size before giving up.  A
               stale read only makes a worker exit early, which is safe:
               the owner pushed every job before spawning and keeps
               popping until its end is truly empty, so unclaimed jobs
               are always drained by someone. *)
            if Queues.Ws_deque.size deque > 0 then Domain.cpu_relax ()
            else continue_ := false
      done
    in
    let spawned = min (jobs - 1) (n - 1) in
    let domains = Array.init spawned (fun _ ->
        Obs.Counters.incr c_domains;
        Domain.spawn worker)
    in
    let continue_ = ref true in
    while !continue_ do
      match Queues.Ws_deque.pop deque with
      | Some (i, x) ->
          Obs.Counters.incr c_jobs;
          results.(i) <- run_job f x
      | None -> continue_ := false
    done;
    Array.iter Domain.join domains;
    let out =
      Array.to_list
        (Array.map
           (function
             | Ok_ v -> v
             | Exn e -> raise e
             | Empty -> assert false)
           results)
    in
    out
  end

let counters () =
  List.filter
    (fun (name, _) -> String.length name > 5 && String.sub name 0 5 = "exec.")
    (Obs.Counters.dump registry)
