(* Differential test of the gang-scheduling core: Svc.Cluster.simulate
   and Opt.Scheduler.simulate_schedule against test-local copies of the
   list-based event loops they replaced, on small random streams with
   integer-valued times (so arrivals, finishes and estimates tie). Every
   float is compared by its bits. *)

open Icoe_svc

(* --- the list-based loops, kept verbatim as oracles --- *)

module Svc_oracle = struct
  open Cluster

  let placeable nodes (j : Workload.job) = j.nodes <= nodes

  let simulate ?(check = false) ?topology ?(comm_fraction = 0.2) ~nodes
      ~(classes : Workload.job_class array) policy jobs =
    let submitted = List.length jobs in
    let jobs = List.filter (placeable nodes) jobs in
    let price =
      let memo = Hashtbl.create 64 in
      fun (j : Workload.job) ->
        match Hashtbl.find_opt memo (j.Workload.klass, j.Workload.nodes) with
        | Some s -> s
        | None ->
            let s = classes.(j.Workload.klass).Workload.service ~nodes:j.Workload.nodes in
            if not (Float.is_finite s) || s <= 0.0 then
              invalid_arg
                (Fmt.str "Cluster.simulate: class %s priced %.17g s at %d nodes"
                   classes.(j.Workload.klass).Workload.name s j.Workload.nodes);
            Hashtbl.add memo (j.Workload.klass, j.Workload.nodes) s;
            s
    in
    (* service-time median over the submitted stream splits short from
       long for the quota policy (the scheduler has exact estimates: the
       cost model is the runtime) *)
    let median_service =
      match jobs with
      | [] -> 1.0
      | _ -> Icoe_util.Stats.median (Array.of_list (List.map price jobs))
    in
    let is_long j = price j > median_service in
    (* partition policy geometry: jobs at or above an eighth of the
       machine are "wide" and run in a reserved side of the pool; each
       side is FCFS over its own queue *)
    let wide_cut = max 2 (nodes / 8) in
    let is_wide (j : Workload.job) = j.Workload.nodes >= wide_cut in
    let queue = ref [] in
    let pending =
      ref
        (List.sort
           (fun (a : Workload.job) b -> Float.compare a.Workload.arrival b.Workload.arrival)
           jobs)
    in
    let running = ref [] in
    let free = ref nodes in
    let t = ref 0.0 in
    (* lifecycle bookkeeping: concrete node ids (lowest-first placement)
       so the occupancy export can draw jobs onto stable per-node rows,
       plus queue-depth/free-node samples at every event time *)
    let source = "svc/" ^ policy_name policy in
    let free_ids = ref (List.init nodes Fun.id) in
    let live : (int, float * int list) Hashtbl.t = Hashtbl.create 64 in
    let log = ref [] in
    let samples = ref [] in
    let emit_job ev ~t_s (j : Workload.job) fields =
      if Icoe_obs.Events.enabled () then
        Icoe_obs.Events.(
          emit ~t_s ~kind:"job" ~source
            ([
               ("ev", S ev);
               ("job", I j.Workload.id);
               ("class", S classes.(j.Workload.klass).Workload.name);
               ("nodes", I j.Workload.nodes);
             ]
            @ fields))
    in
    let sample () =
      let depth = List.length !queue in
      samples := (!t, depth, !free) :: !samples;
      if Icoe_obs.Events.enabled () then
        Icoe_obs.Events.(
          emit ~t_s:!t ~kind:"queue" ~source
            [ ("depth", I depth); ("free_nodes", I !free) ])
    in
    let busy_area = ref 0.0 in
    let waits = ref [] in
    let turnarounds = ref [] in
    let completed = ref 0 in
    let long_in_use () =
      List.fold_left
        (fun a (_, j) -> if is_long j then a + j.Workload.nodes else a)
        0 !running
    in
    let wide_in_use () =
      List.fold_left
        (fun a (_, j) -> if is_wide j then a + j.Workload.nodes else a)
        0 !running
    in
    let shadow_scan ~free ~need running =
      let finishes = List.sort_uniq Float.compare (List.map fst running) in
      let rec walk free = function
        | _ when free >= need -> (!t, free)
        | [] -> (infinity, free)
        | f :: tl ->
            let freed =
              List.fold_left
                (fun a (f', j) ->
                  if Float.equal f' f then a + j.Workload.nodes else a)
                0 running
            in
            if free + freed >= need then (f, free + freed) else walk (free + freed) tl
      in
      walk free finishes
    in
    let pick () =
      let shorts_waiting () = List.exists (fun j -> not (is_long j)) !queue in
      let quota_fits q (j : Workload.job) =
        j.Workload.nodes <= !free
        && ((not (is_long j))
           || (not (shorts_waiting ()))
           || long_in_use () = 0
           || float_of_int (long_in_use () + j.Workload.nodes)
              <= q *. float_of_int nodes)
      in
      match policy with
      | Fcfs -> (
          match !queue with
          | j :: rest when j.Workload.nodes <= !free ->
              queue := rest;
              Some j
          | _ -> None)
      | Easy_backfill -> (
          match !queue with
          | j :: rest when j.Workload.nodes <= !free ->
              queue := rest;
              Some j
          | head :: rest -> (
              let shadow_t, free_at_shadow =
                shadow_scan ~free:!free ~need:head.Workload.nodes !running
              in
              let spare = free_at_shadow - head.Workload.nodes in
              let candidate =
                List.find_opt
                  (fun (j : Workload.job) ->
                    j.Workload.nodes <= !free
                    && (!t +. price j <= shadow_t || j.Workload.nodes <= spare))
                  rest
              in
              match candidate with
              | Some j ->
                  (if check then
                     let running' = (!t +. price j, j) :: !running in
                     let shadow_t', _ =
                       shadow_scan
                         ~free:(!free - j.Workload.nodes)
                         ~need:head.Workload.nodes running'
                     in
                     if shadow_t' > shadow_t +. 1e-9 then
                       invalid_arg
                         (Fmt.str
                            "Cluster: backfilled job %d delays the head %d \
                             (shadow %.6f -> %.6f)"
                            j.Workload.id head.Workload.id shadow_t shadow_t'));
                  queue :=
                    List.filter (fun (x : Workload.job) -> x.Workload.id <> j.Workload.id) !queue;
                  Some j
              | None -> None)
          | [] -> None)
      | Sjf_quota q -> (
          let sorted =
            List.sort (fun a b -> Float.compare (price a) (price b)) !queue
          in
          match List.find_opt (quota_fits q) sorted with
          | None -> None
          | Some j ->
              queue :=
                List.filter (fun (x : Workload.job) -> x.Workload.id <> j.Workload.id) !queue;
              Some j)
      | Partition wide_frac ->
          (* the wide side owns [wide_frac] of the machine; small jobs own
             the rest. Each side is FCFS over its own sub-queue, so a
             draining wide gang never blocks the stream of small jobs *)
          let wide_nodes = int_of_float (wide_frac *. float_of_int nodes) in
          let small_nodes = nodes - wide_nodes in
          let fits_partition j =
            let small_in_use = nodes - !free - wide_in_use () in
            j.Workload.nodes <= !free
            &&
            if is_wide j then wide_in_use () + j.Workload.nodes <= wide_nodes
            else small_in_use + j.Workload.nodes <= small_nodes
          in
          let rec first_fit seen = function
            | [] -> None
            | j :: rest ->
                (* FCFS within each side: skip a job only if the *other*
                   side's head is ahead of it *)
                let side_blocked =
                  List.exists (fun s -> is_wide s = is_wide j) seen
                in
                if (not side_blocked) && fits_partition j then begin
                  queue :=
                    List.filter (fun (x : Workload.job) -> x.Workload.id <> j.Workload.id) !queue;
                  Some j
                end
                else first_fit (j :: seen) rest
          in
          first_fit [] !queue
    in
    let start_jobs () =
      let continue = ref true in
      while !continue do
        match pick () with
        | None -> continue := false
        | Some j ->
            let s = price j in
            free := !free - j.Workload.nodes;
            let rec take n acc rest =
              if n = 0 then (List.rev acc, rest)
              else
                match rest with
                | x :: tl -> take (n - 1) (x :: acc) tl
                | [] -> (List.rev acc, [])
            in
            let placed, rest_ids = take j.Workload.nodes [] !free_ids in
            free_ids := rest_ids;
            (* placement-aware pricing: a fragmented gang's communication
               climbs higher switch levels than the contiguous-best one,
               stretching the comm share of its service time. Without a
               topology the model-priced [s] is charged unchanged. *)
            let s =
              match topology with
              | None -> s
              | Some topo ->
                  let pen =
                    Hwsim.Topology.placement_penalty topo ~nodes:j.Workload.nodes
                      ~level:(Hwsim.Topology.crossing_of_ids topo placed)
                  in
                  if pen = 1.0 then s
                  else s *. (1.0 +. (comm_fraction *. (pen -. 1.0)))
            in
            Hashtbl.replace live j.Workload.id (!t, placed);
            emit_job "dispatch" ~t_s:!t j
              [ ("wait_s", F (!t -. j.Workload.arrival)); ("service_s", F s) ];
            waits := (!t -. j.Workload.arrival) :: !waits;
            busy_area := !busy_area +. (float_of_int j.Workload.nodes *. s);
            running := (!t +. s, j) :: !running
      done
    in
    let next_event () =
      let arrival =
        match !pending with j :: _ -> Some j.Workload.arrival | [] -> None
      in
      let finish =
        match !running with
        | [] -> None
        | l -> Some (List.fold_left (fun a (f, _) -> min a f) infinity l)
      in
      match (arrival, finish) with
      | None, None -> None
      | Some a, None -> Some a
      | None, Some f -> Some f
      | Some a, Some f -> Some (min a f)
    in
    let rec loop () =
      match next_event () with
      | None -> ()
      | Some te ->
          t := te;
          let done_, still =
            List.partition (fun (f, _) -> f <= !t +. 1e-12) !running
          in
          running := still;
          List.iter
            (fun (_, j) ->
              free := !free + j.Workload.nodes;
              let dispatched, placed =
                Option.value
                  (Hashtbl.find_opt live j.Workload.id)
                  ~default:(0.0, [])
              in
              Hashtbl.remove live j.Workload.id;
              free_ids := List.merge Int.compare placed !free_ids;
              log := { job = j; dispatched; finished = !t; placed } :: !log;
              emit_job "finish" ~t_s:!t j
                [ ("turnaround_s", F (!t -. j.Workload.arrival)) ];
              turnarounds := (!t -. j.Workload.arrival) :: !turnarounds;
              incr completed)
            done_;
          let arrived, later =
            List.partition (fun j -> j.Workload.arrival <= !t +. 1e-12) !pending
          in
          pending := later;
          List.iter
            (fun (j : Workload.job) ->
              emit_job "submit" ~t_s:j.Workload.arrival j [])
            arrived;
          queue := !queue @ arrived;
          start_jobs ();
          sample ();
          loop ()
    in
    start_jobs ();
    sample ();
    loop ();
    let waits = Array.of_list (List.rev !waits) in
    let turnarounds = Array.of_list (List.rev !turnarounds) in
    let sorted_w = Icoe_util.Stats.presort waits in
    let sorted_tt = Icoe_util.Stats.presort turnarounds in
    let pct a p =
      if Array.length a = 0 then 0.0 else Icoe_util.Stats.percentile_sorted a p
    in
    {
      policy = policy_name policy;
      nodes;
      submitted;
      completed = !completed;
      makespan = !t;
      utilization = !busy_area /. (float_of_int nodes *. max 1e-9 !t);
      jobs_per_s = float_of_int !completed /. max 1e-9 !t;
      mean_wait =
        (if Array.length waits = 0 then 0.0 else Icoe_util.Stats.mean waits);
      max_wait =
        (if Array.length waits = 0 then 0.0
         else snd (Icoe_util.Stats.min_max waits));
      wait_p50 = pct sorted_w 0.5;
      wait_p90 = pct sorted_w 0.9;
      wait_p99 = pct sorted_w 0.99;
      turn_p50 = pct sorted_tt 0.5;
      turn_p90 = pct sorted_tt 0.9;
      turn_p99 = pct sorted_tt 0.99;
      waits;
      turnarounds;
      log = List.rev !log;
      samples = List.rev !samples;
    }
end

module Opt_oracle = struct
  open Opt.Scheduler

  let simulate_schedule ?(gpus = 16) ?(check = false) policy jobs =
    let queue = ref [] in
    let pending = ref (List.sort (fun a b -> Float.compare a.arrival b.arrival) jobs) in
    let running = ref [] in
    let free = ref gpus in
    let t = ref 0.0 in
    let busy_area = ref 0.0 in
    let waits = ref [] in
    let schedule = ref [] in
    let completed = ref 0 in
    let median_duration =
      match jobs with
      | [] -> 1.0
      | _ ->
          Icoe_util.Stats.median (Array.of_list (List.map (fun j -> j.duration) jobs))
    in
    let is_long j = j.duration > median_duration in
    let long_in_use () =
      List.fold_left (fun a (_, j) -> if is_long j then a + j.gpus else a) 0 !running
    in
    (* pick the next job to start under the policy, if any fits *)
    let pick () =
      let shorts_waiting () = List.exists (fun j -> not (is_long j)) !queue in
      let fits j =
        j.gpus <= !free
        && (match policy with
           | Sjf_quota q ->
               (* the quota reserves capacity for short jobs, but only binds
                  while shorts are actually waiting, and never blocks the
                  only long job (guaranteed progress) *)
               (not (is_long j))
               || (not (shorts_waiting ()))
               || long_in_use () = 0
               || float_of_int (long_in_use () + j.gpus) <= q *. float_of_int gpus
           | Fcfs | Fcfs_backfill | Sjf -> true)
      in
      (* EASY backfill: when the head doesn't fit, find its shadow time
         (earliest moment enough GPUs will be free) and let later jobs jump
         ahead only if they finish by then or fit in the capacity still
         spare at the shadow time. Finish times are deduplicated before the
         walk: [freed] already sums every job finishing at [f], so a
         duplicate entry would double-count simultaneous finishers and land
         the shadow too early. *)
      let shadow_scan ~free ~need running =
        let finishes = List.sort_uniq Float.compare (List.map fst running) in
        let rec walk free = function
          | _ when free >= need -> (!t, free)
          | [] -> (infinity, free)
          | f :: tl ->
              let freed =
                List.fold_left
                  (fun a (f', j) -> if Float.equal f' f then a + j.gpus else a)
                  0 running
              in
              if free + freed >= need then (f, free + freed)
              else walk (free + freed) tl
        in
        walk free finishes
      in
      let easy_backfill head rest =
        let shadow_t, free_at_shadow = shadow_scan ~free:!free ~need:head.gpus !running in
        (* GPUs left over at the shadow time once the head has started:
           a job may run past the shadow only on these *)
        let spare = free_at_shadow - head.gpus in
        let candidate =
          List.find_opt
            (fun j ->
              j.gpus <= !free
              && (!t +. j.duration <= shadow_t || j.gpus <= spare))
            rest
        in
        (if check then
           match candidate with
           | None -> ()
           | Some j ->
               (* the invariant EASY promises the reserved head: starting
                  the backfilled job must not move the head's shadow *)
               let running' = (!t +. j.duration, j) :: !running in
               let shadow_t', _ =
                 shadow_scan ~free:(!free - j.gpus) ~need:head.gpus running'
               in
               if shadow_t' > shadow_t +. 1e-9 then
                 invalid_arg
                   (Fmt.str
                      "easy_backfill: job %d (%d gpus, %.3f s) delays the \
                       reserved head %d: shadow %.6f -> %.6f"
                      j.id j.gpus j.duration head.id shadow_t shadow_t'));
        candidate
      in
      match policy with
      | Fcfs -> (
          (* strict order: only the head may start (head-of-line blocking) *)
          match !queue with
          | j :: rest when fits j ->
              queue := rest;
              Some j
          | _ -> None)
      | Fcfs_backfill -> (
          match !queue with
          | j :: rest when fits j ->
              queue := rest;
              Some j
          | head :: rest -> (
              match easy_backfill head rest with
              | Some j ->
                  queue := List.filter (fun x -> x.id <> j.id) !queue;
                  Some j
              | None -> None)
          | [] -> None)
      | Sjf | Sjf_quota _ ->
          let sorted =
            List.sort (fun a b -> Float.compare a.duration b.duration) !queue
          in
          (match List.find_opt fits sorted with
          | None -> None
          | Some j ->
              queue := List.filter (fun x -> x.id <> j.id) !queue;
              Some j)
    in
    let start_jobs () =
      let continue = ref true in
      while !continue do
        match pick () with
        | None -> continue := false
        | Some j ->
            free := !free - j.gpus;
            waits := (!t -. j.arrival) :: !waits;
            busy_area := !busy_area +. (float_of_int j.gpus *. j.duration);
            schedule := (j.id, !t, !t +. j.duration) :: !schedule;
            running := (!t +. j.duration, j) :: !running
      done
    in
    let next_event () =
      let arrival = match !pending with j :: _ -> Some j.arrival | [] -> None in
      let finish =
        match !running with
        | [] -> None
        | l -> Some (List.fold_left (fun a (f, _) -> min a f) infinity l)
      in
      match (arrival, finish) with
      | None, None -> None
      | Some a, None -> Some a
      | None, Some f -> Some f
      | Some a, Some f -> Some (min a f)
    in
    let rec loop () =
      match next_event () with
      | None -> ()
      | Some te ->
          t := te;
          (* finishers *)
          let done_, still = List.partition (fun (f, _) -> f <= !t +. 1e-12) !running in
          running := still;
          List.iter
            (fun (_, j) ->
              free := !free + j.gpus;
              incr completed)
            done_;
          (* arrivals *)
          let arrived, later = List.partition (fun j -> j.arrival <= !t +. 1e-12) !pending in
          pending := later;
          queue := !queue @ arrived;
          start_jobs ();
          loop ()
    in
    start_jobs ();
    loop ();
    let waits = Array.of_list !waits in
    ( {
        makespan = !t;
        utilization = !busy_area /. (float_of_int gpus *. max 1e-9 !t);
        mean_wait = (if Array.length waits = 0 then 0.0 else Icoe_util.Stats.mean waits);
        max_wait = (if Array.length waits = 0 then 0.0 else snd (Icoe_util.Stats.min_max waits));
        completed = !completed;
      },
      List.rev !schedule )
end

(* --- random small streams --- *)

let bits = Int64.bits_of_float

(* service times of 1-4 s, so finishes coincide with arrivals and with
   each other, and estimates tie under SJF *)
let classes =
  Array.init 3 (fun k ->
      {
        Workload.name = Fmt.str "c%d" k;
        sizes = [| 1 |];
        service = (fun ~nodes -> float_of_int (1 + ((k + nodes) mod 4)));
      })

(* two 2-node leaves under a contended spine: fragmented gangs pay *)
let topology =
  Hwsim.Topology.make ~name:"2x2"
    [
      { Hwsim.Topology.name = "leaf"; link = Hwsim.Link.ib_edr; radix = 2;
        contention = 1.0 };
      { Hwsim.Topology.name = "spine"; link = Hwsim.Link.ib_edr; radix = 2;
        contention = 2.0 };
    ]

let svc_policies =
  [|
    Cluster.Fcfs; Cluster.Easy_backfill; Cluster.Sjf_quota 0.5;
    Cluster.Sjf_quota 0.25; Cluster.Sjf_quota 1.0; Cluster.Partition 0.5;
    Cluster.Partition 0.25;
  |]

(* ids in list order, arrivals on a 1 s grid in random order; a few jobs
   are one node too wide for the machine *)
let svc_stream r ~nodes n =
  List.init n (fun id ->
      {
        Workload.id;
        arrival = float_of_int (Icoe_util.Rng.int r 12);
        klass = Icoe_util.Rng.int r (Array.length classes);
        nodes = 1 + Icoe_util.Rng.int r (nodes + 1);
      })

let svc_key (m : Cluster.metrics) =
  ( (m.Cluster.policy, m.Cluster.nodes, m.Cluster.submitted, m.Cluster.completed),
    List.map bits
      Cluster.
        [
          m.makespan; m.utilization; m.jobs_per_s; m.mean_wait; m.max_wait;
          m.wait_p50; m.wait_p90; m.wait_p99; m.turn_p50; m.turn_p90;
          m.turn_p99;
        ],
    (Array.map bits m.Cluster.waits, Array.map bits m.Cluster.turnarounds),
    List.map
      (fun (r : Cluster.job_record) ->
        ( r.Cluster.job.Workload.id,
          bits r.Cluster.dispatched,
          bits r.Cluster.finished,
          r.Cluster.placed ))
      m.Cluster.log,
    List.map (fun (t, depth, free) -> (bits t, depth, free)) m.Cluster.samples )

let svc_agrees ?topology ~nodes ~classes pol jobs =
  svc_key (Cluster.simulate ~check:true ?topology ~nodes ~classes pol jobs)
  = svc_key (Svc_oracle.simulate ~check:true ?topology ~nodes ~classes pol jobs)

let prop_svc_matches_oracle =
  QCheck.Test.make ~name:"Cluster.simulate = list-based loop, bit for bit"
    ~count:500
    QCheck.(
      triple (int_bound 1_000_000)
        (int_bound (Array.length svc_policies - 1))
        bool)
    (fun (seed, p, placed) ->
      let r = Icoe_util.Rng.create seed in
      let nodes = 2 + Icoe_util.Rng.int r 11 in
      let jobs = svc_stream r ~nodes (Icoe_util.Rng.int r 31) in
      let topology = if placed then Some topology else None in
      svc_agrees ?topology ~nodes ~classes svc_policies.(p) jobs)

let test_svc_catalog_stream () =
  (* the default catalog at 0.9 of capacity: model-priced, non-integer
     times and a queue that builds up *)
  let machine = Catalog.machine () in
  let classes = Catalog.default machine in
  let nodes = 256 in
  let cap = Workload.capacity ~classes ~zipf_s:1.1 ~nodes in
  let jobs =
    Workload.generate ~rng:(Icoe_util.Rng.create 31) ~classes ~zipf_s:1.1
      ~arrivals:(Workload.Poisson (0.9 *. cap)) ~horizon:6000.0 ()
  in
  Array.iter
    (fun pol ->
      Alcotest.(check bool)
        (Cluster.policy_name pol ^ " bit-identical")
        true
        (svc_agrees ~nodes ~classes pol jobs))
    svc_policies

let opt_policies =
  Opt.Scheduler.
    [| Fcfs; Fcfs_backfill; Sjf; Sjf_quota 0.5; Sjf_quota 0.25 |]

(* widths within the pool: the list-based FCFS loop never started a job
   behind an oversized head *)
let opt_stream r ~gpus n =
  List.init n (fun id ->
      {
        Opt.Scheduler.id;
        arrival = float_of_int (Icoe_util.Rng.int r 12);
        duration = float_of_int (1 + Icoe_util.Rng.int r 4);
        gpus = 1 + Icoe_util.Rng.int r gpus;
      })

let opt_key ((m : Opt.Scheduler.metrics), schedule) =
  ( List.map bits
      Opt.Scheduler.[ m.makespan; m.utilization; m.mean_wait; m.max_wait ],
    m.Opt.Scheduler.completed,
    List.map (fun (id, s, f) -> (id, bits s, bits f)) schedule )

let prop_opt_matches_oracle =
  QCheck.Test.make
    ~name:"Scheduler.simulate_schedule = list-based loop, bit for bit"
    ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_bound (Array.length opt_policies - 1)))
    (fun (seed, p) ->
      let r = Icoe_util.Rng.create seed in
      let gpus = 1 + Icoe_util.Rng.int r 12 in
      let jobs = opt_stream r ~gpus (Icoe_util.Rng.int r 31) in
      let pol = opt_policies.(p) in
      opt_key (Opt.Scheduler.simulate_schedule ~gpus ~check:true pol jobs)
      = opt_key (Opt_oracle.simulate_schedule ~gpus ~check:true pol jobs))

let () =
  Alcotest.run "gang"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_svc_matches_oracle;
          Alcotest.test_case "catalog stream" `Quick test_svc_catalog_stream;
          QCheck_alcotest.to_alcotest prop_opt_matches_oracle;
        ] );
    ]
