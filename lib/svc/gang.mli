(** Event-driven gang scheduling of a job stream onto a pool of
    identical slots (nodes, GPUs): the one scheduler core behind
    {!Cluster.simulate} and [Opt.Scheduler].

    A job holds [width] slots from dispatch to completion. Policies rank
    and plan with each job's [estimate]; the time a dispatched job
    actually holds its slots is whatever [on_start] returns. Every
    operation is O(log n) in the stream length [n] except the EASY
    shadow walk, which is linear in the running jobs (at most [slots]):
    arrivals pop from an arrival-sorted array, the wait queue is a
    segment tree over queue ranks (submission order, or estimate order
    under SJF) that finds the first job that fits, running jobs are kept
    sorted by finish time, and queue depth and the per-class slots in
    use are counters. *)

type policy =
  | Fcfs  (** strict submission order; a wide head blocks the queue *)
  | Easy_backfill
      (** later jobs jump ahead only if they finish by the blocked
          head's shadow time or fit the capacity still spare then *)
  | Sjf_quota of float
      (** smallest estimate first (ties in submission order); while
          short jobs wait, long jobs (estimate above the stream's median)
          hold at most this fraction of the pool. [Sjf_quota 1.0] is
          plain SJF. *)
  | Partition of float
      (** this fraction of the pool is reserved for wide jobs (at least
          [max 2 (slots / 8)] slots); each side runs FCFS independently *)

type job = {
  arrival : float;
  width : int;  (** slots held at once, [1 <= width <= slots] *)
  estimate : float;  (** service time the policy ranks and plans with *)
}

val run :
  ?check:bool ->
  ?on_submit:(int -> unit) ->
  ?on_event:(float -> int -> int -> unit) ->
  on_start:(int -> float -> float) ->
  on_finish:(int -> float -> unit) ->
  slots:int ->
  policy ->
  job array ->
  float
(** [run ~on_start ~on_finish ~slots policy jobs] simulates [jobs] and
    returns the makespan (the time of the last event, 0 with no jobs).
    Callbacks receive the job's index in [jobs]:
    - [on_submit i] when job [i] joins the wait queue (at its arrival);
    - [on_start i t] when it is dispatched at [t], returning the service
      time it runs for;
    - [on_finish i t] when it completes at [t]. Jobs finishing at one
      event time are reported most recently dispatched first;
    - [on_event t depth free] after every event time's dispatches
      (and once at [t = 0]), with the queue depth and free slots.

    Jobs whose arrival and finish times lie within 1e-12 s of an event
    are handled at that event. A job that never fits its side of a
    [Partition] stays queued and is never started. With [check]
    (default false) every EASY-backfill decision re-derives the blocked
    head's shadow with the candidate running and raises
    [Invalid_argument] if the reservation would move. Raises
    [Invalid_argument] if a width is outside [1, slots]. *)
