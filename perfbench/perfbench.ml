(* One workload batch in one fresh process.

   usage: perfbench.exe --workload paper|whatif|svc-scale --seed N
            --golden FILE [--trace 0|1] [--run K] [--chrome FILE]
            [--setup-only] [--ids ID,ID,...]
          perfbench.exe --host-ref

   Prints one JSON object on its last stdout line: the host fingerprint,
   the monotonic timestamp of the first timed call (so the caller can
   take set-up time from its own spawn timestamp on the same clock), the
   timed part's wall time, peak heap, attempted/failed operation counts,
   per-layer span totals and the golden lines this run observed.
   perfbench/run.py spawns these processes, takes medians and prints the
   metrics named in BENCHMARK.json. *)

open Icoe_util
module Svc = Icoe_svc

(* --- correctness bookkeeping --- *)

let attempted = ref 0
let failed = ref 0
let errors = ref []
let observed = ref []

let attempt label f =
  incr attempted;
  let error =
    match f () with
    | true -> None
    | false -> Some "failed its check"
    | exception e -> Some (Printexc.to_string e)
  in
  Option.iter
    (fun msg ->
      incr failed;
      errors := (label ^ ": " ^ msg) :: !errors)
    error

(* golden.txt: whitespace-separated lines, keyed by every field but the
   recorded values: "paper <id> <md5 of the report>" and "svc <stream
   seed> <stream> <policy> <md5 of every sub-stream's jobs/s, wait p50
   and wait p99>". *)
let read_golden path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | "paper" :: id :: rest -> loop ((String.concat " " [ "paper"; id ], rest) :: acc)
        | "svc" :: seed :: stream :: policy :: rest ->
            loop ((String.concat " " [ "svc"; seed; stream; policy ], rest) :: acc)
        | _ -> loop acc)
    | exception End_of_file ->
        close_in ic;
        acc
  in
  loop []

let check_golden golden key values =
  observed := String.concat " " (key :: values) :: !observed;
  match List.assoc_opt key golden with
  | Some recorded -> recorded = values
  | None -> false

(* --- paper: every deterministic harness, in registry order --- *)

let paper_harnesses =
  List.filter
    (fun h -> h.Icoe.Harness.id <> "ablations")
    Icoe.Harness_registry.all

(* [ids] picks the harnesses one process runs (all when empty), kept in
   registry order: run.py splits the set into chunks of a few seconds,
   each a fresh process, as a user's `icoe_report run <ids>` would be. *)
let paper ~golden ~ids () =
  (* no generated input: set-up ends here *)
  List.iter
    (fun id ->
      if not (List.exists (fun h -> h.Icoe.Harness.id = id) paper_harnesses)
      then invalid_arg ("unknown paper harness " ^ id))
    ids;
  let harnesses =
    List.filter
      (fun h -> ids = [] || List.mem h.Icoe.Harness.id ids)
      paper_harnesses
  in
  let timed () =
    List.iter
      (fun (h : Icoe.Harness.t) ->
        let id = h.Icoe.Harness.id in
        attempt ("paper " ^ id) (fun () ->
            let o = Span.time ("icoe." ^ id) h.Icoe.Harness.run in
            Span.count "ops" 1.0;
            check_golden golden ("paper " ^ id)
              [ Digest.to_hex (Digest.string o.Icoe.Harness.report) ]))
      harnesses
  in
  timed

(* --- whatif: pricing-only design sweep --- *)

let machines =
  [
    ("sierra", Hwsim.Node.sierra);
    ("frontier", Hwsim.Node.frontier);
    ("grace_hopper", Hwsim.Node.grace_hopper);
  ]

let node_counts = [ 64; 128; 256; 512; 1024; 2048; 4096 ]
let placements = [ Hwsim.Topology.Contiguous; Hwsim.Topology.Random_spread ]
let sw4_grid_points = 26.0e9
let kavg_sizes = [| 256; 512; 128; 16 |]

(* ddcMD strong-scales a fixed 4096-patch system over the nodes; its
   step model has no placement parameter, so it sweeps nodes only. *)
let ddcmd_particles nodes = 136_500 * 4096 / nodes

type point = {
  label : string;
  model : Opt.Autotune.candidate -> float * Icoe_obs.Prof.item array;
}

let timed_model name f =
  Span.time name (fun () ->
      Span.count "ops" 1.0;
      f ())

let sw4_point (mname, m) nodes placement =
  {
    label =
      Printf.sprintf "sw4/%s/%d/%s" mname nodes
        (Hwsim.Topology.placement_name placement);
    model =
      (fun c ->
        timed_model "sw4.step_model" (fun () ->
            let r =
              Sw4.Scenario.production_step_model ~overlap:true ~placement
                ~gpu_frac:c.Opt.Autotune.split ~comm:c.Opt.Autotune.comm m
                ~nodes ~grid_points:sw4_grid_points
            in
            (r.Sw4.Scenario.overlapped_s, r.Sw4.Scenario.dag)));
  }

let ddcmd_point (mname, (m : Hwsim.Node.machine)) nodes =
  let node = m.Hwsim.Node.node in
  let scen =
    if node.Hwsim.Node.gpus >= 4 then Ddcmd.Perf.Four_gpu
    else Ddcmd.Perf.One_gpu
  in
  {
    label = Printf.sprintf "ddcmd/%s/%d" mname nodes;
    model =
      (fun c ->
        timed_model "ddcmd.step_model" (fun () ->
            let r =
              Ddcmd.Perf.ddcmd_step_model ~particles:(ddcmd_particles nodes)
                ~overlap:true ~node ~gpu_frac:c.Opt.Autotune.split
                ~comm:c.Opt.Autotune.comm scen
            in
            (r.Ddcmd.Perf.overlapped_s, r.Ddcmd.Perf.dag)));
  }

let kavg_point (mname, (m : Hwsim.Node.machine)) nodes placement =
  {
    label =
      Printf.sprintf "kavg/%s/%d/%s" mname nodes
        (Hwsim.Topology.placement_name placement);
    model =
      (fun c ->
        timed_model "dlearn.round_model" (fun () ->
            let r =
              Dlearn.Distributed.kavg_round_model ~overlap:true
                ~topology:m.Hwsim.Node.topology ~placement
                ~node:m.Hwsim.Node.node ~gpu_frac:c.Opt.Autotune.split
                ~comm:c.Opt.Autotune.comm ~learners:nodes ~k:8 ~batch:32
                kavg_sizes
            in
            (r.Dlearn.Distributed.overlapped_round_s, r.Dlearn.Distributed.dag)));
  }

let whatif_points () =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun nodes ->
          List.map (sw4_point m nodes) placements
          @ [ ddcmd_point m nodes ]
          @ List.map (kavg_point m nodes) placements)
        node_counts)
    machines

let tuned f =
  Span.time "opt.autotune" (fun () ->
      let r : Opt.Autotune.result = f () in
      Span.count "opt.autotune.evaluations" (float_of_int r.Opt.Autotune.evaluations);
      Span.count "opt.autotune.space" (float_of_int r.Opt.Autotune.space);
      r)

let whatif ~seed () =
  let points = whatif_points () in
  let fine = Hwsim.Split.lattice ~steps:100 () in
  let timed () =
    List.iteri
      (fun i p ->
        attempt ("whatif " ^ p.label) (fun () ->
            let obj c = fst (p.model c) in
            let ex = tuned (fun () -> Opt.Autotune.exhaustive obj) in
            (* a budget covering the default lattice must reproduce the
               exhaustive sweep exactly *)
            let covered =
              tuned (fun () ->
                  Opt.Autotune.anneal ~seed:(seed + i) ~iters:ex.Opt.Autotune.space obj)
            in
            let an =
              tuned (fun () ->
                  Opt.Autotune.anneal ~seed:((seed * 1009) + i) ~iters:160
                    ~splits:fine obj)
            in
            let best = an.Opt.Autotune.best in
            let makespan, dag = p.model best.Opt.Autotune.cand in
            let a =
              Span.time "obs.prof" (fun () ->
                  Icoe_obs.Prof.analyze ~overlap:true dag)
            in
            let ok_result (r : Opt.Autotune.result) =
              Float.is_finite r.Opt.Autotune.best.Opt.Autotune.makespan
              && Float.is_finite r.Opt.Autotune.default.Opt.Autotune.makespan
              && r.Opt.Autotune.best.Opt.Autotune.makespan
                 <= r.Opt.Autotune.default.Opt.Autotune.makespan
            in
            ok_result ex && ok_result covered && ok_result an
            && Float.equal covered.Opt.Autotune.best.Opt.Autotune.makespan
                 ex.Opt.Autotune.best.Opt.Autotune.makespan
            && Float.equal makespan best.Opt.Autotune.makespan
            && Float.equal a.Icoe_obs.Prof.makespan makespan))
      points
  in
  timed

(* --- svc-scale: the service simulator on the default catalog --- *)

let svc_nodes = 256
let svc_zipf_s = 1.1
(* Each stream kind is drawn as many short independent sub-streams: the
   simulator's cost grows faster than linearly in queue depth, and at 0.9
   of capacity one long stream's depth (hence its cost) swings with the
   seed. Many sub-streams average that out while keeping the bursty
   stream's deep queues. *)
let svc_horizon = 15_000.0
let svc_substreams = 32

let svc_policies =
  [
    ("fcfs", Svc.Cluster.Fcfs);
    ("easy", Svc.Cluster.Easy_backfill);
    ("sjf", Svc.Cluster.Sjf_quota 0.5);
    ("partition", Svc.Cluster.Partition 0.5);
  ]

let mean_queue_depth (m : Svc.Cluster.metrics) =
  match m.Svc.Cluster.samples with
  | [] -> 0.0
  | s ->
      float_of_int (List.fold_left (fun a (_, q, _) -> a + q) 0 s)
      /. float_of_int (List.length s)

let svc_scale ~seed ~golden () =
  let classes, cap =
    Span.time "svc.catalog" (fun () ->
        let machine = Svc.Catalog.machine ~nodes:svc_nodes () in
        let classes = Svc.Catalog.default machine in
        (classes, Svc.Workload.capacity ~classes ~zipf_s:svc_zipf_s ~nodes:svc_nodes))
  in
  let rate = 0.9 *. cap in
  let streams =
    Span.time "svc.generate" (fun () ->
        let rng = Rng.create seed in
        let gen arrivals =
          List.init svc_substreams (fun _ ->
              Svc.Workload.generate ~rng:(Rng.split rng) ~classes
                ~zipf_s:svc_zipf_s ~arrivals ~horizon:svc_horizon ())
        in
        (* the bursty shape of the svc harness: 600 s bursts at 2.8x,
           1800 s lulls at 0.4x, the same mean load *)
        [
          ("poisson", gen (Svc.Workload.Poisson rate));
          ( "bursty",
            gen
              (Svc.Workload.Bursty
                 {
                   rate_hi = 2.8 *. rate;
                   rate_lo = 0.4 *. rate;
                   mean_hi_s = 600.0;
                   mean_lo_s = 1800.0;
                 }) );
        ])
  in
  let simulate span policy jobs =
    let m =
      Span.time span (fun () ->
          Svc.Cluster.simulate ~nodes:svc_nodes ~classes policy jobs)
    in
    let completed = float_of_int m.Svc.Cluster.completed in
    Span.count (span ^ ".jobs") completed;
    Span.count (span ^ ".mean_queue_depth")
      (mean_queue_depth m /. float_of_int svc_substreams);
    Span.count "ops" completed;
    let too_wide =
      List.length (List.filter (fun j -> j.Svc.Workload.nodes > svc_nodes) jobs)
    in
    let conserved =
      m.Svc.Cluster.submitted = List.length jobs
      && m.Svc.Cluster.completed = m.Svc.Cluster.submitted - too_wide
    in
    ( conserved,
      List.map (Printf.sprintf "%h")
        [ m.Svc.Cluster.jobs_per_s; m.Svc.Cluster.wait_p50; m.Svc.Cluster.wait_p99 ]
    )
  in
  (* one op per stream kind x policy, over all its sub-streams *)
  let timed () =
    List.iter
      (fun (sname, subs) ->
        List.iter
          (fun (pname, policy) ->
            let key = Printf.sprintf "svc %d %s %s" seed sname pname in
            attempt key (fun () ->
                let span = Printf.sprintf "svc.simulate.%s.%s" sname pname in
                let results = List.map (simulate span policy) subs in
                List.for_all fst results
                && check_golden golden key
                     [
                       Digest.to_hex
                         (Digest.string
                            (String.concat " " (List.concat_map snd results)));
                     ]))
          svc_policies)
      streams
  in
  timed

(* --- host reference ---

   A fixed memory-streaming pass (a 32 MB array written six times) that
   belongs to the benchmark, not to the program. The shared host's speed
   drifts by tens of percent over tens of seconds, mostly through memory
   contention, and this pass slows with it; run.py times it (the median
   of three passes) in its own process next to every workload process
   and scales the reported times by it. *)

let host_ref_s () =
  let t0 = Span.now_ns () in
  let a = Array.make (1 lsl 22) 0.0 in
  for r = 1 to 6 do
    for i = 0 to Array.length a - 1 do
      a.(i) <- a.(i) +. float_of_int (i land r)
    done
  done;
  ignore (Sys.opaque_identity a);
  Span.seconds_between t0 (Span.now_ns ())

(* --- output --- *)

let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let json_list xs = "[" ^ String.concat "," xs ^ "]"
let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let fingerprint ~workload ~seed =
  let env =
    List.filter_map
      (fun name ->
        Option.map (fun v -> (name, json_string v)) (Sys.getenv_opt name))
      [ "ICOE_DOMAINS"; "ICOE_METRICS"; "ICOE_OVERLAP" ]
    @ List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
              ( String.sub kv 0 i,
                json_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
          | None -> (kv, json_string ""))
        (List.filter
           (String.starts_with ~prefix:"ICOE_GC_")
           (List.sort String.compare (Array.to_list (Unix.environment ()))))
  in
  json_obj
    [
      ("workload", json_string workload);
      ("seed", string_of_int seed);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("pool_domains", string_of_int (Icoe_par.Pool.default_domains ()));
      ("env", json_obj env);
    ]

let () =
  let t_start = Span.now_ns () in
  let workload = ref "" and seed = ref 0 and trace = ref 0 in
  let golden_path = ref "" and chrome = ref "" and setup_only = ref false in
  let host_ref = ref false and ids = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " paper | whatif | svc-scale");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--ids", Arg.Set_string ids, " paper: comma-separated harness ids (default all)");
      ("--trace", Arg.Set_int trace, " 1 records layer spans");
      ("--golden", Arg.Set_string golden_path, " recorded outputs file");
      ("--run", Arg.Set_int Span.run_id, " run id stamped on spans");
      ("--chrome", Arg.Set_string chrome, " Chrome trace output (traced runs)");
      ("--setup-only", Arg.Set setup_only, " stop at the first timed call");
      ("--host-ref", Arg.Set host_ref, " time the host reference pass only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --golden FILE [--trace 0|1]";
  if !host_ref then begin
    (* the median of three passes: one pass alone jitters by about 10% *)
    let passes = List.sort Float.compare (List.init 3 (fun _ -> host_ref_s ())) in
    print_endline (json_obj [ ("ref_s", json_float (List.nth passes 1)) ]);
    exit 0
  end;
  ignore (Gctune.apply_env ());
  Span.enabled := !trace = 1;
  let golden = read_golden !golden_path in
  let timed =
    match !workload with
    | "paper" ->
        paper ~golden
          ~ids:(List.filter (( <> ) "") (String.split_on_char ',' !ids))
          ()
    | "whatif" -> whatif ~seed:!seed ()
    | "svc-scale" -> svc_scale ~seed:!seed ~golden ()
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let t_first = Span.now_ns () in
  let fp = fingerprint ~workload:!workload ~seed:!seed in
  if !setup_only then
    print_endline
      (json_obj [ ("fingerprint", fp); ("t_first_ns", Int64.to_string t_first) ])
  else begin
    let gc0 = Gc.quick_stat () and cpu0 = Unix.times () in
    let t0 = Span.now_ns () in
    timed ();
    let t1 = Span.now_ns () in
    let gc1 = Gc.quick_stat () and cpu1 = Unix.times () in
    let wall_s = Span.seconds_between t0 t1 in
    let cpu (t : Unix.process_times) = t.Unix.tms_utime +. t.Unix.tms_stime in
    let counts name = Option.value ~default:0.0 (Hashtbl.find_opt Span.counts name) in
    let peak_heap_mb =
      float_of_int gc1.Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
      /. 1048576.0
    in
    let spans = Span.summarize () in
    let layers =
      List.concat_map
        (fun (s : Span.summary) ->
          [
            (s.Span.s_name ^ ".calls", float_of_int s.Span.calls);
            (s.Span.s_name ^ ".busy_s", s.Span.busy_s);
            (s.Span.s_name ^ ".self_s", s.Span.self_s);
            (s.Span.s_name ^ ".alloc_mwords", s.Span.alloc_mwords);
          ])
        spans
      @ List.of_seq (Hashtbl.to_seq Span.counts)
      @ [
          ( "opt.autotune.eval_ratio",
            let space = counts "opt.autotune.space" in
            if space > 0.0 then counts "opt.autotune.evaluations" /. space
            else 0.0 );
          ( "gc.minor_collections",
            float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
          ( "gc.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
          ("gc.peak_heap_mb", peak_heap_mb);
          ("process.cpu_s", cpu cpu1 -. cpu cpu0);
          ("par.domains", float_of_int (Icoe_par.Pool.default_domains ()));
        ]
    in
    if !chrome <> "" then begin
      let oc = open_out !chrome in
      output_string oc (Span.chrome_json ~origin_ns:t_start);
      close_out oc
    end;
    print_endline
      (json_obj
         [
           ("fingerprint", fp);
           ("t_first_ns", Int64.to_string t_first);
           ("wall_s", json_float wall_s);
           ("peak_heap_mb", json_float peak_heap_mb);
           ("attempted", string_of_int !attempted);
           ("failed", string_of_int !failed);
           ("ops", json_float (counts "ops"));
           ( "paper_ids",
             json_list
               (List.map
                  (fun h -> json_string h.Icoe.Harness.id)
                  paper_harnesses) );
           ("errors", json_list (List.rev_map json_string !errors));
           ("observed", json_list (List.rev_map json_string !observed));
           ( "layers",
             json_obj (List.map (fun (k, v) -> (k, json_float v)) layers) );
           ( "spans",
             json_list
               (List.map
                  (fun (s : Span.summary) ->
                    json_obj
                      [
                        ("name", json_string s.Span.s_name);
                        ("calls", string_of_int s.Span.calls);
                        ("busy_s", json_float s.Span.busy_s);
                        ("self_s", json_float s.Span.self_s);
                        ("alloc_mwords", json_float s.Span.alloc_mwords);
                      ])
                  spans) );
         ])
  end
