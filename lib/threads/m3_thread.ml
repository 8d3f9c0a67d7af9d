open Mp

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) = struct
  type 'a state = Running | Done of 'a | Raised of exn

  exception Alerted

  (* Mutexes and conditions are the shared park-and-wake ones; joins park
     through the same module. *)
  module Park = Park.Make (P) (S) (struct
    let family = "sync"
  end)

  module Mutex = struct
    type t = Park.Semaphore.t

    let create () = Park.Semaphore.create ~on:"m3.mutex" 1
    let lock = Park.Semaphore.acquire
    let unlock = Park.Semaphore.release
    let with_lock = Park.Semaphore.with_permit
  end

  module Condition = struct
    include Park.Condition

    let create () = create ~on:"m3.condition"
    let wait m t = wait m t (* [cancel] is for [alert_wait] only *)
  end

  (* Modula-3 alerts: a per-thread flag plus, while the thread is blocked in
     [alert_wait], the condition it waits on (so [alert] can wake it).  Both
     are atomics: [alert] sets the flag then reads the condition, the waiter
     publishes the condition then tests the flag, and one of the two must
     see the other's write. *)
  type alert_state = {
    alerted : bool Atomic.t;
    waiting_on : Condition.t option Atomic.t;
  }

  let new_alert_state () =
    { alerted = Atomic.make false; waiting_on = Atomic.make None }

  let registry_lock = P.Lock.mutex_lock ()
  let registry : (int, alert_state) Hashtbl.t = Hashtbl.create 64

  let state_of tid =
    P.Lock.lock registry_lock;
    let st =
      match Hashtbl.find_opt registry tid with
      | Some st -> st
      | None ->
          let st = new_alert_state () in
          Hashtbl.replace registry tid st;
          st
    in
    P.Lock.unlock registry_lock;
    st

  let my_state () = state_of (S.id ())

  type 'a t = {
    spin : P.Lock.mutex_lock;
    mutable state : 'a state;
    mutable joiners : (unit Engine.cont * int) list;
    astate : alert_state; (* created at fork, adopted by the thread: alerts
                             posted before the thread starts are not lost *)
  }

  let fork f =
    let t =
      {
        spin = P.Lock.mutex_lock ();
        state = Running;
        joiners = [];
        astate = new_alert_state ();
      }
    in
    S.fork (fun () ->
        (* adopt the handle's alert state under this thread's id *)
        P.Lock.lock registry_lock;
        Hashtbl.replace registry (S.id ()) t.astate;
        P.Lock.unlock registry_lock;
        let outcome = try Done (f ()) with e -> Raised e in
        P.Lock.lock t.spin;
        t.state <- outcome;
        let joiners = t.joiners in
        t.joiners <- [];
        P.Lock.unlock t.spin;
        (* retire the alert state *)
        P.Lock.lock registry_lock;
        Hashtbl.remove registry (S.id ());
        P.Lock.unlock registry_lock;
        List.iter (Park.wake_unit ~on:"m3.join") joiners);
    t

  let join t =
    Engine.callcc (fun k ->
        P.Lock.lock t.spin;
        match t.state with
        | Done _ | Raised _ ->
            P.Lock.unlock t.spin;
            Engine.throw k ()
        | Running ->
            let tid = S.id () in
            t.joiners <- (k, tid) :: t.joiners;
            Park.park ~on:"m3.join" t.spin tid);
    match t.state with
    | Done v -> v
    | Raised e -> raise e
    | Running -> assert false

  (* ---- alerts (Modula-3 Thread.Alert / TestAlert / AlertWait) ---- *)

  let test_alert () = Atomic.exchange (my_state ()).alerted false

  let alert (t : 'a t) =
    Atomic.set t.astate.alerted true;
    Option.iter Condition.broadcast (Atomic.get t.astate.waiting_on)

  let alert_wait m c =
    let st = my_state () in
    Atomic.set st.waiting_on (Some c);
    (* The flag is tested under the condition's lock, so an [alert] that
       lands between this call and the enqueue is not lost. *)
    Park.Condition.wait ~cancel:(fun () -> Atomic.get st.alerted) m c;
    Atomic.set st.waiting_on None;
    (* Modula-3 semantics: the mutex is held when Alerted is raised *)
    if Atomic.exchange st.alerted false then raise Alerted
end
