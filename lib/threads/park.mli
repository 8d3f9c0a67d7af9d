(** Park and wake: the one blocking recipe behind every client construct.

    The paper's §3.3 builds semaphores, reader/writer locks, channels and
    the like from mutex locks, refs and first-class continuations, and the
    recipe is always the same: take a spin lock, enqueue [(k, tid)],
    release the lock, dispatch.  This module is that recipe, with the
    telemetry every park needs: a [<family>.blocks] / [<family>.wakeups]
    counter pair and one [Blocked] / [Wakeup] event per park and wake,
    labelled by [on].  Telemetry is host-side only; it never charges
    virtual time or adds a platform operation. *)

module Make
    (P : Mp.Mp_intf.PLATFORM_INT)
    (S : Thread_intf.SCHED)
    (F : sig
      val family : string
    end) : sig
  val park : on:string -> P.Lock.mutex_lock -> int -> 'a
  (** [park ~on lock tid]: thread [tid] has enqueued its continuation under
      [lock]; release [lock], record the block and dispatch. *)

  val block : on:string -> int -> 'a
  (** {!park} without a lock to release. *)

  val wake : on:string -> 'a Mp.Engine.cont * 'a * int -> unit
  (** Record the wakeup and reschedule the thread with a value. *)

  val wake_unit : on:string -> unit Mp.Engine.cont * int -> unit

  (** Counting semaphore with FIFO handoff: [release] passes the permit
      straight to the longest waiter.  With count 1 it is a blocking mutex. *)
  module Semaphore : sig
    type t

    val create : on:string -> int -> t
    val acquire : t -> unit
    val try_acquire : t -> bool
    val release : t -> unit
    val value : t -> int
    val with_permit : t -> (unit -> 'a) -> 'a
  end

  (** Mesa-semantics condition variable over a count-1 {!Semaphore}. *)
  module Condition : sig
    type t

    val create : on:string -> t

    val wait : ?cancel:(unit -> bool) -> Semaphore.t -> t -> unit
    (** Release the mutex and block until signalled, then re-acquire it.
        [cancel] is tested under the condition's lock before enqueueing;
        if it holds, [wait] returns at once with the mutex still held, so
        a waker that makes [cancel] true before it broadcasts is never
        missed. *)

    val signal : t -> unit
    val broadcast : t -> unit
  end
end
