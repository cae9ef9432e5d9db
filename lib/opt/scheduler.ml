(** The Opt activity's job-scheduler simulator (Sec 4.7): thousands of
    small, variable-duration GPU jobs from a topology-optimization
    workflow, scheduled onto a GPU pool under different policies.

    The two paper conclusions this reproduces:
    - with distribution-driven arrivals, the arrival rate must be
      throttled below aggregate processing capacity or the queue grows
      without bound;
    - with batch arrivals, Shortest-Job-First with a quota (limiting the
      GPUs long jobs may hold at once) raises utilization over FCFS while
      bounding long-job starvation. *)

type job = {
  id : int;
  arrival : float;
  duration : float;
  gpus : int;  (** GPUs required simultaneously *)
}

type policy = Fcfs | Fcfs_backfill | Sjf | Sjf_quota of float
(** quota = max fraction of GPUs that "long" jobs may hold at once *)

let policy_name = function
  | Fcfs -> "FCFS"
  | Fcfs_backfill -> "FCFS+EASY-backfill"
  | Sjf -> "SJF"
  | Sjf_quota q -> Fmt.str "SJF+quota(%.0f%%)" (q *. 100.0)

type metrics = {
  makespan : float;
  utilization : float;  (** busy GPU-seconds / (gpus * makespan) *)
  mean_wait : float;
  max_wait : float;
  completed : int;
}

(** Batch workload: all jobs present at t = 0, durations lognormal-ish,
    a minority needing several GPUs. *)
let batch_workload ~(rng : Icoe_util.Rng.t) ?(n = 500) () =
  List.init n (fun id ->
      let duration = exp (Icoe_util.Rng.normal rng ~mu:1.0 ~sigma:0.9) in
      (* a third of the design evaluations are wide (multi-GPU) jobs, up
         to half the pool: these are what make naive FCFS idle GPUs *)
      let gpus = if Icoe_util.Rng.float rng < 0.35 then 2 + Icoe_util.Rng.int rng 7 else 1 in
      { id; arrival = 0.0; duration; gpus })

(** Poisson arrivals at [rate] jobs/s over [horizon] seconds. *)
let poisson_workload ~(rng : Icoe_util.Rng.t) ~rate ~horizon () =
  let rec go t id acc =
    let t = t +. Icoe_util.Rng.exponential rng ~rate in
    if t > horizon then List.rev acc
    else
      let duration = exp (Icoe_util.Rng.normal rng ~mu:1.0 ~sigma:0.6) in
      go t (id + 1) ({ id; arrival = t; duration; gpus = 1 } :: acc)
  in
  go 0.0 0 []

(** Mean processing capacity of the pool, jobs/s, for a workload's mean
    service demand. *)
let capacity ~gpus ~mean_duration = float_of_int gpus /. mean_duration

(* The event loop is the shared gang core: EASY backfill is its
   Easy_backfill, and plain SJF is its Sjf_quota 1.0 (long jobs never hold
   more than the busy GPUs, so a full quota never binds). Jobs wider than
   the pool can never start; they are left out and count as incomplete. *)
let simulate_schedule ?(gpus = 16) ?(check = false) policy jobs =
  let jobs = Array.of_list (List.filter (fun j -> j.gpus <= gpus) jobs) in
  let core =
    match policy with
    | Fcfs -> Icoe_svc.Gang.Fcfs
    | Fcfs_backfill -> Icoe_svc.Gang.Easy_backfill
    | Sjf -> Icoe_svc.Gang.Sjf_quota 1.0
    | Sjf_quota q -> Icoe_svc.Gang.Sjf_quota q
  in
  let busy_area = ref 0.0 in
  let waits = ref [] in
  let schedule = ref [] in
  let completed = ref 0 in
  let on_start i t =
    let j = jobs.(i) in
    waits := (t -. j.arrival) :: !waits;
    busy_area := !busy_area +. (float_of_int j.gpus *. j.duration);
    schedule := (j.id, t, t +. j.duration) :: !schedule;
    j.duration
  in
  let makespan =
    Icoe_svc.Gang.run ~check ~on_start
      ~on_finish:(fun _ _ -> incr completed)
      ~slots:gpus core
      (Array.map
         (fun j ->
           { Icoe_svc.Gang.arrival = j.arrival; width = j.gpus; estimate = j.duration })
         jobs)
  in
  (* reverse start order: the order mean_wait has always summed in *)
  let waits = Array.of_list !waits in
  ( {
      makespan;
      utilization = !busy_area /. (float_of_int gpus *. max 1e-9 makespan);
      mean_wait = (if Array.length waits = 0 then 0.0 else Icoe_util.Stats.mean waits);
      max_wait = (if Array.length waits = 0 then 0.0 else snd (Icoe_util.Stats.min_max waits));
      completed = !completed;
    },
    List.rev !schedule )

let simulate ?gpus ?check policy jobs =
  fst (simulate_schedule ?gpus ?check policy jobs)
