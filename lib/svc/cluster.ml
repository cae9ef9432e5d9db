(* The cluster-level scheduler of the service simulation: the Sec 4.7
   policies generalized from a 16-GPU pool to node allocations on a
   machine model, plus a partition/gang policy, run by the Gang core.
   Service times are not pre-drawn: each job is priced by its class's
   Hwsim.Sched/roofline cost model at the requested allocation size
   (memoized per (class, nodes) — the models are pure). *)

type policy = Gang.policy =
  | Fcfs
  | Easy_backfill
  | Sjf_quota of float
  | Partition of float

let policy_name = function
  | Fcfs -> "FCFS"
  | Easy_backfill -> "EASY-backfill"
  | Sjf_quota q -> Fmt.str "SJF+quota(%.0f%%)" (q *. 100.0)
  | Partition f -> Fmt.str "partition(%.0f%% wide)" (f *. 100.0)

type job_record = {
  job : Workload.job;
  dispatched : float;
  finished : float;
  placed : int list;
}

type metrics = {
  policy : string;
  nodes : int;
  submitted : int;
  completed : int;
  makespan : float;
  utilization : float;
  jobs_per_s : float;
  mean_wait : float;
  max_wait : float;
  wait_p50 : float;
  wait_p90 : float;
  wait_p99 : float;
  turn_p50 : float;
  turn_p90 : float;
  turn_p99 : float;
  waits : float array;
  turnarounds : float array;
  log : job_record list;
  samples : (float * int * int) list;
}

(* jobs wider than [nodes] can never be placed; filter them out up front
   so the event loop terminates, and report them as not completed *)
let placeable nodes (j : Workload.job) = j.nodes <= nodes

let simulate ?(check = false) ?topology ?(comm_fraction = 0.2) ~nodes
    ~(classes : Workload.job_class array) policy jobs =
  let submitted = List.length jobs in
  let jobs = Array.of_list (List.filter (placeable nodes) jobs) in
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
  (* the scheduler has exact runtime estimates: the cost model is the
     runtime (before any placement penalty) *)
  let gang =
    Array.map
      (fun (j : Workload.job) ->
        { Gang.arrival = j.Workload.arrival; width = j.Workload.nodes; estimate = price j })
      jobs
  in
  (* lifecycle bookkeeping: concrete node ids (lowest-first placement)
     so the occupancy export can draw jobs onto stable per-node rows,
     plus queue-depth/free-node samples at every event time *)
  let source = "svc/" ^ policy_name policy in
  let busy = Array.make nodes false in
  let dispatched = Array.make (Array.length jobs) 0.0 in
  let placed = Array.make (Array.length jobs) [] in
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
  let on_event t depth free =
    samples := (t, depth, free) :: !samples;
    if Icoe_obs.Events.enabled () then
      Icoe_obs.Events.(
        emit ~t_s:t ~kind:"queue" ~source
          [ ("depth", I depth); ("free_nodes", I free) ])
  in
  let busy_area = ref 0.0 in
  let waits = ref [] in
  let turnarounds = ref [] in
  let completed = ref 0 in
  let on_submit i = emit_job "submit" ~t_s:jobs.(i).Workload.arrival jobs.(i) [] in
  let on_start i t =
    let j = jobs.(i) in
    (* the lowest free ids: find the highest one taken, then collect
       downward so the list comes out ascending *)
    let last = ref (-1) and found = ref 0 in
    while !found < j.Workload.nodes do
      incr last;
      if not busy.(!last) then incr found
    done;
    let ids = ref [] in
    for id = !last downto 0 do
      if not busy.(id) then begin
        busy.(id) <- true;
        ids := id :: !ids
      end
    done;
    let ids = !ids in
    (* placement-aware pricing: a fragmented gang's communication
       climbs higher switch levels than the contiguous-best one,
       stretching the comm share of its service time. Without a
       topology the model-priced service is charged unchanged. *)
    let s = gang.(i).Gang.estimate in
    let s =
      match topology with
      | None -> s
      | Some topo ->
          let pen =
            Hwsim.Topology.placement_penalty topo ~nodes:j.Workload.nodes
              ~level:(Hwsim.Topology.crossing_of_ids topo ids)
          in
          if pen = 1.0 then s
          else s *. (1.0 +. (comm_fraction *. (pen -. 1.0)))
    in
    dispatched.(i) <- t;
    placed.(i) <- ids;
    emit_job "dispatch" ~t_s:t j
      [ ("wait_s", F (t -. j.Workload.arrival)); ("service_s", F s) ];
    waits := (t -. j.Workload.arrival) :: !waits;
    busy_area := !busy_area +. (float_of_int j.Workload.nodes *. s);
    s
  in
  let on_finish i t =
    let j = jobs.(i) in
    List.iter (fun id -> busy.(id) <- false) placed.(i);
    log := { job = j; dispatched = dispatched.(i); finished = t; placed = placed.(i) } :: !log;
    emit_job "finish" ~t_s:t j [ ("turnaround_s", F (t -. j.Workload.arrival)) ];
    turnarounds := (t -. j.Workload.arrival) :: !turnarounds;
    incr completed
  in
  let makespan =
    Gang.run ~check ~on_submit ~on_event ~on_start ~on_finish ~slots:nodes
      policy gang
  in
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
    makespan;
    utilization = !busy_area /. (float_of_int nodes *. max 1e-9 makespan);
    jobs_per_s = float_of_int !completed /. max 1e-9 makespan;
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

(* --- cluster-occupancy Chrome trace: nodes as pids, jobs as spans --- *)

let occupancy_chrome_json (m : metrics) =
  let esc = Hwsim.Trace.json_escape in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  let first = ref true in
  let push line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  (* name each node process once, in id order *)
  let named = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun node ->
          if not (Hashtbl.mem named node) then Hashtbl.add named node ())
        r.placed)
    m.log;
  let nodes_used = List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) named []) in
  List.iter
    (fun node ->
      push
        (Fmt.str
           "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \
            \"args\": {\"name\": \"node%03d\"}}"
           node node))
    nodes_used;
  push
    (Fmt.str
       "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"args\": \
        {\"name\": \"scheduler (%s)\"}}"
       m.nodes (esc m.policy));
  (* one complete-span per (job, node) row *)
  List.iter
    (fun r ->
      let name =
        Fmt.str "job %d (%dn)" r.job.Workload.id r.job.Workload.nodes
      in
      let ts = r.dispatched *. 1e6
      and dur = Float.max 0.0 (r.finished -. r.dispatched) *. 1e6 in
      List.iter
        (fun node ->
          push
            (Fmt.str
               "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": 0, \
                \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"wait_s\": %.6g}}"
               (esc name) node ts dur
               (r.dispatched -. r.job.Workload.arrival)))
        r.placed)
    m.log;
  (* queue-depth / free-node counter tracks on the scheduler process *)
  List.iter
    (fun (t, depth, fr) ->
      push
        (Fmt.str
           "{\"name\": \"queue depth\", \"ph\": \"C\", \"pid\": %d, \"ts\": \
            %.3f, \"args\": {\"jobs\": %d}}"
           m.nodes (t *. 1e6) depth);
      push
        (Fmt.str
           "{\"name\": \"free nodes\", \"ph\": \"C\", \"pid\": %d, \"ts\": \
            %.3f, \"args\": {\"nodes\": %d}}"
           m.nodes (t *. 1e6) fr))
    m.samples;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
