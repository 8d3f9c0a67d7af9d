type category = Sched | Proc | Lock | Gc | Sync | Select | Cml

let category_name = function
  | Sched -> "sched"
  | Proc -> "proc"
  | Lock -> "lock"
  | Gc -> "gc"
  | Sync -> "sync"
  | Select -> "select"
  | Cml -> "cml"

(* Which collector episode a Gc_start opens: a stop-the-world major, a
   proc-local minor (per-proc minor-heap model; other procs keep running),
   or a parallel stop-the-world copy. *)
type gc_kind = Minor | Major | Par

let gc_kind_name = function Minor -> "minor" | Major -> "major" | Par -> "par"

type t =
  | Dispatch of { proc : int; clock : int }
  | Freed of { proc : int; clock : int }
  | Acquired of { proc : int; by : int; clock : int }
  | Gc_start of {
      clock : int;
      region_words : int;
      kind : gc_kind;
      waiters : int;
    }
  | Gc_end of { clock : int; duration : int }
  | Coalesced of { proc : int; clock : int; cycles : int }
  | Fork of { proc : int; clock : int; thread : int }
  | Switch of { proc : int; clock : int; thread : int }
  | Steal of { proc : int; clock : int }
  | Queue_depth of { proc : int; clock : int; depth : int }
  | Lock_acquired of { proc : int; clock : int }
  | Lock_contended of { proc : int; clock : int; spins : int }
  | Blocked of { proc : int; clock : int; thread : int; on : string }
  | Wakeup of { proc : int; clock : int; thread : int; on : string }
  | Step of { proc : int; clock : int; op : string }

let clock_of = function
  | Dispatch { clock; _ }
  | Freed { clock; _ }
  | Acquired { clock; _ }
  | Gc_start { clock; _ }
  | Gc_end { clock; _ }
  | Coalesced { clock; _ }
  | Fork { clock; _ }
  | Switch { clock; _ }
  | Steal { clock; _ }
  | Queue_depth { clock; _ }
  | Lock_acquired { clock; _ }
  | Lock_contended { clock; _ }
  | Blocked { clock; _ }
  | Wakeup { clock; _ }
  | Step { clock; _ } ->
      clock

(* Blocked/Wakeup events carry their subsystem in [on]; the category is
   derived from its dotted prefix so one constructor serves sync, select
   and CML without three copies of the payload. *)
let site_category on =
  if String.length on >= 3 && String.sub on 0 3 = "cml" then Cml
  else if String.length on >= 6 && String.sub on 0 6 = "select" then Select
  else Sync

let category_of = function
  | Dispatch _ | Coalesced _ | Fork _ | Switch _ | Steal _ | Queue_depth _ ->
      Sched
  | Freed _ | Acquired _ -> Proc
  | Gc_start _ | Gc_end _ -> Gc
  | Lock_acquired _ | Lock_contended _ -> Lock
  | Blocked { on; _ } | Wakeup { on; _ } -> site_category on
  | Step { op; _ } ->
      if String.length op >= 4 && String.sub op 0 4 = "lock" then Lock
      else Sched

let pp fmt = function
  | Dispatch { proc; clock } -> Format.fprintf fmt "%10d dispatch p%d" clock proc
  | Freed { proc; clock } -> Format.fprintf fmt "%10d free     p%d" clock proc
  | Acquired { proc; by; clock } ->
      Format.fprintf fmt "%10d acquire  p%d (by p%d)" clock proc by
  (* Major keeps the original rendering byte for byte: stw-run traces (and
     the tooling pinned to them) must not drift. *)
  | Gc_start { clock; region_words; kind = Major; _ } ->
      Format.fprintf fmt "%10d gc-start (region %d words)" clock region_words
  | Gc_start { clock; region_words; kind = Minor; _ } ->
      Format.fprintf fmt "%10d gc-minor (region %d words)" clock region_words
  | Gc_start { clock; region_words; kind = Par; waiters } ->
      Format.fprintf fmt "%10d gc-start (region %d words, %d waiters)" clock
        region_words waiters
  | Gc_end { clock; duration } ->
      Format.fprintf fmt "%10d gc-end   (%d cycles)" clock duration
  | Coalesced { proc; clock; cycles } ->
      Format.fprintf fmt "%10d coalesce p%d (%d cycles inline)" clock proc
        cycles
  | Fork { proc; clock; thread } ->
      Format.fprintf fmt "%10d fork     p%d t%d" clock proc thread
  | Switch { proc; clock; thread } ->
      Format.fprintf fmt "%10d switch   p%d t%d" clock proc thread
  | Steal { proc; clock } -> Format.fprintf fmt "%10d steal    p%d" clock proc
  | Queue_depth { proc; clock; depth } ->
      Format.fprintf fmt "%10d queue    p%d depth=%d" clock proc depth
  | Lock_acquired { proc; clock } ->
      Format.fprintf fmt "%10d lock     p%d" clock proc
  | Lock_contended { proc; clock; spins } ->
      Format.fprintf fmt "%10d contend  p%d (%d spins)" clock proc spins
  | Blocked { proc; clock; thread; on } ->
      Format.fprintf fmt "%10d block    p%d t%d on %s" clock proc thread on
  | Wakeup { proc; clock; thread; on } ->
      Format.fprintf fmt "%10d wakeup   p%d t%d on %s" clock proc thread on
  | Step { proc; clock; op } ->
      Format.fprintf fmt "%10d step     p%d %s" clock proc op

let to_json e =
  let int k v = (k, Json.Int v) and str k v = (k, Json.String v) in
  let ev, fields =
    match e with
    | Dispatch { proc; _ } -> ("dispatch", [ int "proc" proc ])
    | Freed { proc; _ } -> ("freed", [ int "proc" proc ])
    | Acquired { proc; by; _ } -> ("acquired", [ int "proc" proc; int "by" by ])
    | Gc_start { region_words; kind; waiters; _ } ->
        ( "gc_start",
          [
            int "region_words" region_words;
            str "kind" (gc_kind_name kind);
            int "waiters" waiters;
          ] )
    | Gc_end { duration; _ } -> ("gc_end", [ int "duration" duration ])
    | Coalesced { proc; cycles; _ } ->
        ("coalesced", [ int "proc" proc; int "cycles" cycles ])
    | Fork { proc; thread; _ } ->
        ("fork", [ int "proc" proc; int "thread" thread ])
    | Switch { proc; thread; _ } ->
        ("switch", [ int "proc" proc; int "thread" thread ])
    | Steal { proc; _ } -> ("steal", [ int "proc" proc ])
    | Queue_depth { proc; depth; _ } ->
        ("queue_depth", [ int "proc" proc; int "depth" depth ])
    | Lock_acquired { proc; _ } -> ("lock_acquired", [ int "proc" proc ])
    | Lock_contended { proc; spins; _ } ->
        ("lock_contended", [ int "proc" proc; int "spins" spins ])
    | Blocked { proc; thread; on; _ } ->
        ("blocked", [ int "proc" proc; int "thread" thread; str "on" on ])
    | Wakeup { proc; thread; on; _ } ->
        ("wakeup", [ int "proc" proc; int "thread" thread; str "on" on ])
    | Step { proc; op; _ } -> ("step", [ int "proc" proc; str "op" op ])
  in
  Json.to_string
    (Json.Obj
       (int "ts" (clock_of e)
       :: str "cat" (category_name (category_of e))
       :: str "ev" ev :: fields))
