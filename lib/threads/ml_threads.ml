module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) = struct
  type thread = int

  let next = Atomic.make 1

  let fork f =
    let handle = Atomic.fetch_and_add next 1 in
    S.fork f;
    handle

  let exit () = S.dispatch ()
  let yield = S.yield
  let self () = S.id ()
  let equal (a : thread) b = a = b
  let id (t : thread) = t

  (* Blocking (not spinning) mutexes and conditions are the shared
     park-and-wake ones: a count-1 semaphore with FIFO handoff. *)
  module Park = Park.Make (P) (S) (struct
    let family = "sync"
  end)

  type mutex = Park.Semaphore.t

  let mutex () = Park.Semaphore.create ~on:"ml.mutex" 1
  let acquire = Park.Semaphore.acquire
  let try_acquire = Park.Semaphore.try_acquire
  let release = Park.Semaphore.release
  let with_mutex = Park.Semaphore.with_permit

  type condition = Park.Condition.t

  let condition () = Park.Condition.create ~on:"ml.condition"
  let wait (c, m) = Park.Condition.wait m c
  let signal = Park.Condition.signal
  let broadcast = Park.Condition.broadcast
end
