open Mp
module Fifo = Queues.Fifo_queue

module Make
    (P : Mp.Mp_intf.PLATFORM_INT)
    (S : Thread_intf.SCHED)
    (F : sig
      val family : string
    end) =
struct
  (* Counters total blocks and wakeups even while event emission is off;
     both are host-side only, so they never perturb virtual time. *)
  let c_blocks = P.Telemetry.counter (F.family ^ ".blocks")
  let c_wakeups = P.Telemetry.counter (F.family ^ ".wakeups")

  let note ~blocked on thread =
    Obs.Counters.incr (if blocked then c_blocks else c_wakeups);
    if P.Telemetry.enabled () then begin
      let proc = max 0 (P.Proc.self ()) and clock = P.Telemetry.now_ts () in
      P.Telemetry.emit
        (if blocked then Obs.Event.Blocked { proc; clock; thread; on }
         else Obs.Event.Wakeup { proc; clock; thread; on })
    end

  let block ~on tid =
    note ~blocked:true on tid;
    S.dispatch ()

  let park ~on lock tid =
    P.Lock.unlock lock;
    block ~on tid

  let wake ~on ((_, _, tid) as w) =
    note ~blocked:false on tid;
    S.reschedule_thread w

  let wake_unit ~on ((_, tid) as w) =
    note ~blocked:false on tid;
    S.reschedule w

  module Semaphore = struct
    type t = {
      spin : P.Lock.mutex_lock;
      on : string;
      mutable count : int;
      waiters : (unit Engine.cont * int) Fifo.queue;
    }

    let create ~on n =
      if n < 0 then invalid_arg "Semaphore.create";
      { spin = P.Lock.mutex_lock (); on; count = n; waiters = Fifo.create () }

    let acquire t =
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          if t.count > 0 then begin
            t.count <- t.count - 1;
            P.Lock.unlock t.spin;
            Engine.throw k ()
          end
          else begin
            let tid = S.id () in
            Fifo.enq t.waiters (k, tid);
            park ~on:t.on t.spin tid
          end)

    let try_acquire t =
      P.Lock.lock t.spin;
      let ok = t.count > 0 in
      if ok then t.count <- t.count - 1;
      P.Lock.unlock t.spin;
      ok

    let release t =
      P.Lock.lock t.spin;
      match Fifo.deq_opt t.waiters with
      | Some w ->
          (* Hand the permit directly to the next waiter. *)
          P.Lock.unlock t.spin;
          wake_unit ~on:t.on w
      | None ->
          t.count <- t.count + 1;
          P.Lock.unlock t.spin

    let value t =
      P.Lock.lock t.spin;
      let v = t.count in
      P.Lock.unlock t.spin;
      v

    let with_permit t f =
      acquire t;
      match f () with
      | v ->
          release t;
          v
      | exception e ->
          release t;
          raise e
  end

  module Condition = struct
    type t = {
      spin : P.Lock.mutex_lock;
      on : string;
      waiters : (unit Engine.cont * int) Fifo.queue;
    }

    let create ~on =
      { spin = P.Lock.mutex_lock (); on; waiters = Fifo.create () }

    let wait ?(cancel = fun () -> false) m t =
      let cancelled = ref false in
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          if cancel () then begin
            cancelled := true;
            P.Lock.unlock t.spin;
            Engine.throw k ()
          end
          else begin
            let tid = S.id () in
            Fifo.enq t.waiters (k, tid);
            P.Lock.unlock t.spin;
            Semaphore.release m;
            block ~on:t.on tid
          end);
      if not !cancelled then Semaphore.acquire m

    let signal t =
      P.Lock.lock t.spin;
      let w = Fifo.deq_opt t.waiters in
      P.Lock.unlock t.spin;
      Option.iter (wake_unit ~on:t.on) w

    let broadcast t =
      P.Lock.lock t.spin;
      let rec drain acc =
        match Fifo.deq_opt t.waiters with
        | Some w -> drain (w :: acc)
        | None -> acc
      in
      let ws = drain [] in
      P.Lock.unlock t.spin;
      List.iter (wake_unit ~on:t.on) ws
  end
end
