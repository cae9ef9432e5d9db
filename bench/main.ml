(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper through
   Icoe.Harness_registry (real workloads + hardware-model pricing),
   printing paper reference values alongside and timing each harness's
   real wall clock next to its simulated seconds.

   Part 2 runs Bechamel microbenchmarks — real wall-clock time of the core
   computational kernels of each activity on this machine — one Test.make
   per reproduced table/figure's dominant kernel, plus par/* variants
   sized to exercise the Icoe_par.Pool domain pool — and writes the
   results plus a metrics-registry snapshot to BENCH_<id>.json, so
   successive commits leave a machine-readable perf trajectory behind.

   Flags: --micro-only skips part 1 (the CI smoke run); --alloc-smoke
   runs only the allocation-budget check (Gc.minor_words delta per
   steady-state iteration of each zero-alloc kernel against fixed word
   budgets, exit 1 over budget) and exits. The id comes from
   the BENCH_ID environment variable when set (CI passes the commit sha),
   otherwise the Unix timestamp. ICOE_DOMAINS sets the pool size (recorded
   in the JSON payload); ICOE_METRICS=0 disables the metrics registry for
   overhead comparisons; ICOE_GC_MINOR_HEAP / ICOE_GC_SPACE_OVERHEAD
   feed Gc.set at startup (echoed in the header). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks of the real kernels                          *)
(* ------------------------------------------------------------------ *)

let bench_spmv =
  (* hypre/Table 4 inner kernel *)
  let a = Linalg.Csr.laplacian_2d 64 64 in
  let x = Array.init 4096 (fun i -> float_of_int (i mod 7)) in
  let y = Array.make 4096 0.0 in
  Test.make ~name:"table4/spmv-64x64" (Staged.stage (fun () -> Linalg.Csr.spmv_into a x y))

let bench_amg_vcycle =
  let a = Linalg.Csr.laplacian_2d 32 32 in
  let amg = Hypre.Boomeramg.setup a in
  let b = Array.make 1024 1.0 in
  let x = Array.make 1024 0.0 in
  Test.make ~name:"fig8/amg-vcycle-32x32"
    (Staged.stage (fun () ->
         Array.fill x 0 1024 0.0;
         Hypre.Boomeramg.v_cycle amg b x))

let bench_pa_apply =
  let mesh = Mfem.Mesh.create ~nx:8 ~ny:8 ~p:4 () in
  let basis = Mfem.Basis.create 4 in
  let pa = Mfem.Diffusion.Pa.setup mesh basis in
  let n = Mfem.Mesh.num_dofs mesh in
  let u = Array.init n (fun i -> sin (float_of_int i)) in
  let y = Array.make n 0.0 in
  Test.make ~name:"table4/pa-apply-p4" (Staged.stage (fun () -> Mfem.Diffusion.Pa.apply pa u y))

let bench_sw4_step =
  let g = Sw4.Grid.create ~nx:64 ~ny:64 ~h:100.0 in
  Sw4.Grid.homogeneous g ~rho:2500.0 ~vp:5000.0 ~vs:2500.0;
  let solver = Sw4.Solver.create g in
  Test.make ~name:"sw4/leapfrog-64x64" (Staged.stage (fun () -> Sw4.Solver.step solver))

let bench_md_forces =
  let rng = Icoe_util.Rng.create 3 in
  let p = Ddcmd.Particles.create ~n:125 ~box:6.5 in
  Ddcmd.Particles.lattice_init p;
  Ddcmd.Particles.thermalize p ~rng ~temp:0.7;
  let e = Ddcmd.Engine.create ~dt:0.004 ~potential:(Ddcmd.Potential.lennard_jones ()) p in
  Test.make ~name:"md/forces-125" (Staged.stage (fun () -> Ddcmd.Engine.compute_forces e))

let bench_reaction_kernel =
  (* the zero-alloc stack-program form of the ionic derivative — what
     Monodomain.reaction_step runs per cell *)
  let module Fbuf = Icoe_util.Fbuf in
  let kernel = Cardioid.Ionic.compile_kernel Cardioid.Ionic.Rational_folded in
  let env = Fbuf.of_array (Cardioid.Ionic.initial_state ()) in
  let out = Fbuf.create Cardioid.Ionic.n_state in
  let stack = Fbuf.create kernel.Cardioid.Ionic.depth in
  Test.make ~name:"cardioid/reaction-cell"
    (Staged.stage (fun () ->
         for d = 0 to Cardioid.Ionic.n_state - 1 do
           Cardioid.Melodee.exec_program_into kernel.Cardioid.Ionic.progs.(d)
             ~env ~env_off:0 ~stack ~stack_off:0 ~out ~out_off:d
         done))

let bench_fft =
  let rng = Icoe_util.Rng.create 4 in
  let a = Array.init 2048 (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
  Test.make ~name:"fig9/fft-1024" (Staged.stage (fun () -> ignore (Fftlib.Fft.dft a)))

let bench_bfs =
  let rng = Icoe_util.Rng.create 5 in
  let g = Havoq.Graph.rmat ~rng ~scale:10 () in
  Test.make ~name:"table2/bfs-hybrid-1k" (Staged.stage (fun () -> ignore (Havoq.Bfs.hybrid g ~src:0)))

let bench_lda_estep =
  let rng = Icoe_util.Rng.create 6 in
  let corpus = Lda.Corpus.generate ~ndocs:10 ~rng () in
  let m = Lda.Vem.init ~rng ~k:6 ~vocab:corpus.Lda.Corpus.vocab () in
  let stats = Icoe_util.Fbuf.create (6 * corpus.Lda.Corpus.vocab) in
  let elogb = Lda.Vem.elog_beta m in
  Test.make ~name:"fig2/lda-estep-doc"
    (Staged.stage (fun () ->
         ignore (Lda.Vem.e_step_doc m elogb corpus.Lda.Corpus.docs.(0) stats)))

let bench_rate_matrix =
  let model = Cretin.Atomic.ladder 20 in
  let cond = { Cretin.Ratematrix.te = 10.0; ne = 1e21; radiation = 0.0 } in
  Test.make ~name:"cretin/zone-solve-20"
    (Staged.stage (fun () -> ignore (Cretin.Ratematrix.solve_direct model cond)))

let bench_cleverleaf =
  let sim = Samrai.Cleverleaf.create ~nx:32 ~ny:32 ~lx:1.0 ~ly:1.0 () in
  Samrai.Cleverleaf.init sim (fun ~x ~y:_ ->
      if x < 0.5 then (1.0, 0.0, 0.0, 1.0) else (0.125, 0.0, 0.0, 0.1));
  Test.make ~name:"table5/cleverleaf-step-32x32"
    (Staged.stage (fun () -> ignore (Samrai.Cleverleaf.step sim)))

let bench_mlp =
  let rng = Icoe_util.Rng.create 7 in
  let m = Dlearn.Mlp.create ~rng [| 12; 16; 4 |] in
  let x = Array.init 12 (fun i -> float_of_int i /. 12.0) in
  Test.make ~name:"fig3/mlp-backward"
    (Staged.stage (fun () ->
         ignore (Dlearn.Mlp.backward m x ~label:1);
         Dlearn.Mlp.zero_grads m))

let bench_paradyn =
  let rng = Icoe_util.Rng.create 8 in
  let inputs =
    List.map
      (fun a -> (a, Array.init 512 (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0)))
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  let p = Paradyn.Passes.dse (Paradyn.Passes.slnsp Paradyn.Ir.paradyn_kernel) in
  Test.make ~name:"fig6/fused-kernel-512" (Staged.stage (fun () -> ignore (Paradyn.Interp.run p ~inputs)))

let bench_topopt_apply =
  let t = Opt.Topopt.create ~nx:32 ~ny:32 () in
  let u = Array.init 1024 (fun i -> float_of_int (i mod 13)) in
  let y = Array.make 1024 0.0 in
  Test.make ~name:"opt/matrix-free-apply-32x32" (Staged.stage (fun () -> Opt.Topopt.apply t u y))

(* par/* benchmarks: the same engine kernels at sizes where the domain
   pool engages (all of these clear the serial-fallback thresholds), so
   the BENCH trajectory shows the wall-clock effect of ICOE_DOMAINS. *)

let bench_par_spmv =
  let a = Linalg.Csr.laplacian_2d 256 256 in
  let n = 256 * 256 in
  let x = Array.init n (fun i -> float_of_int (i mod 7)) in
  let y = Array.make n 0.0 in
  Test.make ~name:"par/spmv-256x256"
    (Staged.stage (fun () -> Linalg.Csr.spmv_into a x y))

let bench_par_sw4_rhs =
  let g = Sw4.Grid.create ~nx:128 ~ny:128 ~h:100.0 in
  Sw4.Grid.homogeneous g ~rho:2500.0 ~vp:5000.0 ~vs:2500.0;
  let solver = Sw4.Solver.create g in
  Test.make ~name:"par/sw4-step-128x128"
    (Staged.stage (fun () -> Sw4.Solver.step solver))

let bench_par_reaction =
  let m = Cardioid.Monodomain.create ~nx:64 ~ny:64 () in
  Test.make ~name:"par/cardioid-reaction-64x64"
    (Staged.stage (fun () -> Cardioid.Monodomain.reaction_step m))

let bench_par_md_forces =
  let rng = Icoe_util.Rng.create 9 in
  let p = Ddcmd.Particles.create ~n:1000 ~box:13.0 in
  Ddcmd.Particles.lattice_init p;
  Ddcmd.Particles.thermalize p ~rng ~temp:0.7;
  let e = Ddcmd.Engine.create ~dt:0.004 ~potential:(Ddcmd.Potential.lennard_jones ()) p in
  Test.make ~name:"par/md-forces-1000"
    (Staged.stage (fun () -> Ddcmd.Engine.compute_forces e))

let bench_par_lda_estep =
  let rng = Icoe_util.Rng.create 10 in
  let corpus = Lda.Corpus.generate ~ndocs:32 ~rng () in
  let m = Lda.Vem.init ~rng ~k:6 ~vocab:corpus.Lda.Corpus.vocab () in
  let elogb = Lda.Vem.elog_beta m in
  let stats = Icoe_util.Fbuf.create (6 * corpus.Lda.Corpus.vocab) in
  Test.make ~name:"par/lda-estep-32docs"
    (Staged.stage (fun () ->
         Icoe_util.Fbuf.fill stats 0.0;
         ignore (Lda.Vem.e_step_docs m elogb corpus.Lda.Corpus.docs stats)))

(* fault/* benchmarks: the resilience layer's hot paths — drawing a full
   seeded fault schedule, driving the checkpoint/restart loop over a
   trivial engine, and a bounded-retry cycle with deterministic jitter. *)

let bench_fault_plan =
  Test.make ~name:"fault/plan-generate"
    (Staged.stage (fun () ->
         ignore
           (Icoe_fault.Plan.generate ~seed:42 Icoe_fault.Plan.default_config)))

let bench_fault_checkpoint =
  let plan =
    Icoe_fault.Plan.for_run (Icoe_fault.Plan.spec 42) ~ideal_s:100.0 ~nodes:16
  in
  Test.make ~name:"fault/checkpoint-driver-100"
    (Staged.stage (fun () ->
         ignore
           (Icoe_fault.Checkpoint.run ~plan ~step_cost_s:1.0
              ~checkpoint_cost_s:0.25 ~interval:10 ~steps:100
              ~snapshot:(fun () -> ())
              ~restore:ignore ~step:ignore ())))

let bench_fault_retry =
  Test.make ~name:"fault/retry-giveup"
    (Staged.stage (fun () ->
         let rng = Icoe_util.Rng.create 3 in
         ignore
           (Icoe_fault.Retry.run ~rng ~charge:ignore (fun ~attempt:_ ->
                Error ()))))

(** Run every microbenchmark; returns (kernel name, ns/run estimate)
    newest last, printing the table as it goes. *)
let microbenchmarks () =
  let tests =
    [
      bench_spmv; bench_amg_vcycle; bench_pa_apply; bench_sw4_step;
      bench_md_forces; bench_reaction_kernel; bench_fft; bench_bfs;
      bench_lda_estep; bench_rate_matrix; bench_cleverleaf; bench_mlp;
      bench_paradyn; bench_topopt_apply; bench_par_spmv; bench_par_sw4_rhs;
      bench_par_reaction; bench_par_md_forces; bench_par_lda_estep;
      bench_fault_plan; bench_fault_checkpoint; bench_fault_retry;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let analyze = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Fmt.pr "@.== Bechamel microbenchmarks (real wall time on this machine) ==@.";
  Fmt.pr "%-32s %14s@." "kernel" "ns/run";
  Fmt.pr "%s@." (String.make 48 '-');
  let out = ref [] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test |> Hashtbl.to_seq |> List.of_seq
      in
      List.iter
        (fun (name, raw) ->
          let est =
            match Analyze.one analyze Instance.monotonic_clock raw with
            | ols -> (
                match Analyze.OLS.estimates ols with
                | Some [ est ] -> Some est
                | _ -> None)
            | exception _ -> None
          in
          (match est with
          | Some e -> Fmt.pr "%-32s %14.1f@." name e
          | None -> Fmt.pr "%-32s %14s@." name "n/a");
          out := (name, est) :: !out)
        results)
    tests;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* BENCH_<id>.json emission                                             *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Seeded resilience runs for the trajectory: always emitted (also under
   --micro-only, which CI uses), so every BENCH_<id>.json carries the
   fault-injection acceptance numbers. Deterministic for the fixed
   seed. *)
let fault_rows () =
  let spec = Icoe_fault.Plan.spec 42 in
  List.map
    (fun (id, run) ->
      let _plan, interval, (rep : Icoe_fault.Checkpoint.report), identical =
        run spec
      in
      (id, interval, rep, identical))
    [
      ("sw4", Icoe.Harness_sw4.resilience_run);
      ("cardioid", Icoe.Harness_cardioid.resilience_run);
    ]

(* Overlap-scheduler model evaluations for the trajectory: always
   emitted (also under --micro-only, which CI uses), with overlap forced
   on so every BENCH_<id>.json records the critical-path numbers
   regardless of the ICOE_OVERLAP setting of the surrounding run.
   Deterministic: pure cost-model arithmetic, no RNG. *)
let overlap_rows () =
  let sw4 =
    let m =
      Sw4.Scenario.production_step_model ~overlap:true Hwsim.Node.sierra
        ~nodes:256 ~grid_points:26.0e9
    in
    ("sw4", m.Sw4.Scenario.serial_s, m.Sw4.Scenario.overlapped_s)
  in
  let md id scen =
    let m = Ddcmd.Perf.ddcmd_step_model ~overlap:true scen in
    (id, m.Ddcmd.Perf.serial_s, m.Ddcmd.Perf.overlapped_s)
  in
  let kavg =
    let m =
      Dlearn.Distributed.kavg_round_model ~overlap:true ~learners:8 ~k:8
        ~batch:16 [| 12; 16; 4 |]
    in
    ( "kavg",
      m.Dlearn.Distributed.serial_round_s,
      m.Dlearn.Distributed.overlapped_round_s )
  in
  [
    sw4;
    md "ddcmd-1gpu" Ddcmd.Perf.One_gpu;
    md "ddcmd-4gpu" Ddcmd.Perf.Four_gpu;
    md "ddcmd-mummi" Ddcmd.Perf.Mummi;
    kavg;
  ]

(* Critical-path blame rows for the trajectory: per-phase makespan
   attribution of the three overlap-wired models, overlap forced on
   (same evaluations as [overlap_rows]). Deterministic: pure cost-model
   arithmetic. Blame seconds sum to each model's overlapped makespan, so
   any model change that moves where the time goes shows up in the
   regression gate even when the makespan itself barely moves. *)
let blame_rows () =
  let analyze id dag =
    let a = Icoe_obs.Prof.analyze ~overlap:true dag in
    List.map
      (fun (b : Icoe_obs.Prof.blame) -> (id, b.key, b.seconds, b.share))
      a.Icoe_obs.Prof.phase_blame
  in
  let sw4 =
    let m =
      Sw4.Scenario.production_step_model ~overlap:true Hwsim.Node.sierra
        ~nodes:256 ~grid_points:26.0e9
    in
    analyze "sw4" m.Sw4.Scenario.dag
  in
  let md =
    let m = Ddcmd.Perf.ddcmd_step_model ~overlap:true Ddcmd.Perf.Four_gpu in
    analyze "ddcmd-4gpu" m.Ddcmd.Perf.dag
  in
  let kavg =
    let m =
      Dlearn.Distributed.kavg_round_model ~overlap:true ~learners:8 ~k:8
        ~batch:16 [| 12; 16; 4 |]
    in
    analyze "kavg" m.Dlearn.Distributed.dag
  in
  sw4 @ md @ kavg

(* Service-simulation rows for the trajectory: always emitted (also
   under --micro-only, which CI uses), so every BENCH_<id>.json records
   the per-policy throughput/latency numbers of the multi-tenant
   machine-as-a-service study. Deterministic: fixed seed, simulated
   time, no pool involvement. *)
let service_rows () =
  let nodes = 256 in
  let machine = Icoe_svc.Catalog.machine ~nodes () in
  let classes = Icoe_svc.Catalog.default machine in
  let zipf_s = 1.1 in
  let cap = Icoe_svc.Workload.capacity ~classes ~zipf_s ~nodes in
  let jobs =
    Icoe_svc.Workload.generate ~rng:(Icoe_util.Rng.create 77) ~classes ~zipf_s
      ~arrivals:(Icoe_svc.Workload.Poisson (0.9 *. cap)) ~horizon:8_000.0 ()
  in
  List.map
    (fun pol -> Icoe_svc.Cluster.simulate ~nodes ~classes pol jobs)
    [
      Icoe_svc.Cluster.Fcfs;
      Icoe_svc.Cluster.Easy_backfill;
      Icoe_svc.Cluster.Sjf_quota 0.5;
      Icoe_svc.Cluster.Partition 0.5;
    ]

(* Topology rows for the trajectory: the KAVG round re-priced across the
   machine zoo's interconnects, contiguous vs scattered placement
   (mirrors the topo harness). Always emitted; deterministic: pure
   cost-model arithmetic, no RNG. On flat Sierra both placements price
   identically; on the hierarchical machines a scattered 512+-node gang
   is strictly slower — CI asserts both from the JSON. *)
let topology_rows () =
  let sizes = [| 256; 512; 128; 16 |] in
  List.concat_map
    (fun (m : Hwsim.Node.machine) ->
      let topo = m.Hwsim.Node.topology in
      List.map
        (fun nodes ->
          let round p =
            (Dlearn.Distributed.kavg_round_model ~overlap:true ~topology:topo
               ~placement:p ~learners:nodes ~k:8 ~batch:32 sizes)
              .Dlearn.Distributed.round_s
          in
          let c = round Hwsim.Topology.Contiguous
          and r = round Hwsim.Topology.Random_spread in
          let hops =
            Hwsim.Topology.hops topo
              ~level:
                (Hwsim.Topology.crossing topo ~nodes
                   Hwsim.Topology.Random_spread)
          in
          (m.Hwsim.Node.node.Hwsim.Node.name, nodes, c, r, r /. c, hops))
        [ 64; 512; 4096 ])
    [ Hwsim.Node.sierra; Hwsim.Node.frontier; Hwsim.Node.grace_hopper ]

(* Tuner rows for the trajectory: one exhaustive work-split tuning per
   machine x kernel over the default lattice (mirrors the tune
   harness). Always emitted; deterministic: pure cost-model search, the
   only RNG mode is not used here. CI asserts tuned <= default and
   speedup >= 1 on every row from the JSON. *)
let tuner_rows () = Icoe.Harness_tune.bench_rows ()

let write_bench_json ~harnesses ~faults ~overlap ~blame ~service ~topology
    ~tuner kernels =
  let id =
    match Sys.getenv_opt "BENCH_ID" with
    | Some s when s <> "" -> s
    | _ -> string_of_int (int_of_float (Unix.time ()))
  in
  let file = Fmt.str "BENCH_%s.json" id in
  let buf = Buffer.create 4096 in
  Fmt.kstr (Buffer.add_string buf)
    "{\n  \"id\": \"%s\",\n  \"icoe_domains\": %d,\n  \"harnesses\": [\n"
    (json_escape id)
    (Icoe_par.Pool.size (Icoe_par.Pool.get ()));
  List.iteri
    (fun i (hid, wall_ns, simulated_s, overlap_eff) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Fmt.kstr (Buffer.add_string buf)
        "    {\"id\": \"%s\", \"wall_ns\": %.17g, \"simulated_s\": %.17g, \
         \"overlap_efficiency\": %.17g}"
        (json_escape hid) wall_ns simulated_s overlap_eff)
    harnesses;
  Buffer.add_string buf "\n  ],\n  \"overlap\": [\n";
  List.iteri
    (fun i (oid, serial_s, overlapped_s) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Fmt.kstr (Buffer.add_string buf)
        "    {\"id\": \"%s\", \"serial_s\": %.17g, \"overlapped_s\": %.17g, \
         \"efficiency\": %.17g}"
        (json_escape oid) serial_s overlapped_s
        (if serial_s > 0.0 then overlapped_s /. serial_s else 1.0))
    overlap;
  Buffer.add_string buf "\n  ],\n  \"blame\": [\n";
  List.iteri
    (fun i (bid, phase, seconds, share) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Fmt.kstr (Buffer.add_string buf)
        "    {\"id\": \"%s\", \"phase\": \"%s\", \"seconds\": %.17g, \
         \"share\": %.17g}"
        (json_escape bid) (json_escape phase) seconds share)
    blame;
  Buffer.add_string buf "\n  ],\n  \"service\": [\n";
  List.iteri
    (fun i (m : Icoe_svc.Cluster.metrics) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Fmt.kstr (Buffer.add_string buf)
        "    {\"policy\": \"%s\", \"nodes\": %d, \"submitted\": %d, \
         \"completed\": %d, \"jobs_per_s\": %.17g, \"utilization\": %.17g, \
         \"wait_p50_s\": %.17g, \"wait_p90_s\": %.17g, \"wait_p99_s\": \
         %.17g, \"turn_p50_s\": %.17g, \"turn_p90_s\": %.17g, \
         \"turn_p99_s\": %.17g}"
        (json_escape m.Icoe_svc.Cluster.policy)
        m.Icoe_svc.Cluster.nodes m.Icoe_svc.Cluster.submitted
        m.Icoe_svc.Cluster.completed m.Icoe_svc.Cluster.jobs_per_s
        m.Icoe_svc.Cluster.utilization m.Icoe_svc.Cluster.wait_p50
        m.Icoe_svc.Cluster.wait_p90 m.Icoe_svc.Cluster.wait_p99
        m.Icoe_svc.Cluster.turn_p50 m.Icoe_svc.Cluster.turn_p90
        m.Icoe_svc.Cluster.turn_p99)
    service;
  Buffer.add_string buf "\n  ],\n  \"topology\": [\n";
  List.iteri
    (fun i (machine, nodes, contig_s, random_s, penalty, hops) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Fmt.kstr (Buffer.add_string buf)
        "    {\"machine\": \"%s\", \"nodes\": %d, \"contiguous_step_s\": \
         %.17g, \"random_step_s\": %.17g, \"penalty\": %.17g, \"hops\": %d}"
        (json_escape machine) nodes contig_s random_s penalty hops)
    topology;
  Buffer.add_string buf "\n  ],\n  \"tuner\": [\n";
  List.iteri
    (fun i (r : Icoe.Harness_tune.row) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Fmt.kstr (Buffer.add_string buf)
        "    {\"kernel\": \"%s\", \"machine\": \"%s\", \"default_s\": %.17g, \
         \"tuned_s\": %.17g, \"split\": %.17g, \"comm\": \"%s\", \
         \"speedup\": %.17g, \"evaluations\": %d, \"mode\": \"%s\"}"
        (json_escape r.Icoe.Harness_tune.kernel)
        (json_escape r.Icoe.Harness_tune.machine)
        r.Icoe.Harness_tune.default_s r.Icoe.Harness_tune.tuned_s
        r.Icoe.Harness_tune.split
        (json_escape r.Icoe.Harness_tune.comm)
        r.Icoe.Harness_tune.speedup r.Icoe.Harness_tune.evaluations
        (json_escape r.Icoe.Harness_tune.mode))
    tuner;
  Buffer.add_string buf "\n  ],\n  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then Buffer.add_string buf ",\n";
      match ns with
      | Some v when Float.is_finite v ->
          Fmt.kstr (Buffer.add_string buf)
            "    {\"name\": \"%s\", \"ns_per_run\": %.17g}" (json_escape name) v
      | _ ->
          Fmt.kstr (Buffer.add_string buf)
            "    {\"name\": \"%s\", \"ns_per_run\": null}" (json_escape name))
    kernels;
  Buffer.add_string buf "\n  ],\n  \"faults\": [\n";
  List.iteri
    (fun i (fid, interval, (rep : Icoe_fault.Checkpoint.report), identical) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Fmt.kstr (Buffer.add_string buf)
        "    {\"id\": \"%s\", \"seed\": 42, \"interval\": %d, \"injected\": \
         %d, \"recovered\": %d, \"checkpoints\": %d, \"ideal_s\": %.17g, \
         \"achieved_s\": %.17g, \"inflation\": %.17g, \
         \"checkpoint_overhead_s\": %.17g, \"lost_work_s\": %.17g, \
         \"identical\": %b}"
        (json_escape fid) interval rep.Icoe_fault.Checkpoint.injected
        rep.Icoe_fault.Checkpoint.recovered
        rep.Icoe_fault.Checkpoint.checkpoints rep.Icoe_fault.Checkpoint.ideal_s
        rep.Icoe_fault.Checkpoint.achieved_s
        (Icoe_fault.Checkpoint.inflation rep)
        rep.Icoe_fault.Checkpoint.checkpoint_overhead_s
        rep.Icoe_fault.Checkpoint.lost_work_s identical)
    faults;
  (* the kernels above ran the instrumented engines, so the registry
     snapshot records how much work each benchmark did (V-cycles, pair
     interactions, BFS edges, ...) alongside how long it took *)
  Buffer.add_string buf "\n  ],\n  \"registry\": ";
  Buffer.add_string buf (String.trim (Icoe_obs.Metrics.to_json ()));
  Buffer.add_string buf "\n}\n";
  (match open_out file with
  | oc ->
      Buffer.output_buffer oc buf;
      close_out oc
  | exception Sys_error msg -> Fmt.epr "cannot write %s: %s@." file msg);
  Fmt.pr "@.bench: wrote %d kernel records to %s@." (List.length kernels) file

(* Part 1: every harness through the registry, timing the real wall
   clock of each run next to the simulated seconds its traces account
   for. Returns (id, wall_ns, simulated_s, overlap_efficiency) rows for
   the JSON payload; the efficiency comes from the harness's
   overlap_efficiency gauge (1.0 when the harness recorded none, e.g.
   under ICOE_OVERLAP=0 or with the registry disabled). *)
let run_harnesses () =
  let rows_and_traces =
    List.map
      (fun (h : Icoe.Harness.t) ->
        let t0 = Unix.gettimeofday () in
        let o = h.run () in
        let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
        print_string o.Icoe.Harness.report;
        let overlap_eff =
          match
            Icoe_obs.Metrics.value
              ~labels:[ ("harness", h.id) ]
              "overlap_efficiency"
          with
          | Some v when v > 0.0 -> v
          | _ -> 1.0
        in
        ( (h.id, wall_ns, Icoe.Harness.simulated_seconds o, overlap_eff),
          o.Icoe.Harness.traces ))
      Icoe.Harness_registry.all
  in
  let rows = List.map fst rows_and_traces in
  (* the instrumented harnesses recorded span traces: show where the
     simulated time went, per device and per phase *)
  print_string
    (Icoe.Harness.rollup_report (List.concat_map snd rows_and_traces));
  Fmt.pr "@.== Harness wall clock (ICOE_DOMAINS=%d) ==@."
    (Icoe_par.Pool.size (Icoe_par.Pool.get ()));
  Fmt.pr "%-12s %14s %14s %9s@." "harness" "wall ms" "simulated s" "overlap";
  Fmt.pr "%s@." (String.make 52 '-');
  List.iter
    (fun (id, wall_ns, sim_s, overlap_eff) ->
      Fmt.pr "%-12s %14.2f %14.3f %9.3f@." id (wall_ns /. 1e6) sim_s
        overlap_eff)
    rows;
  rows

(* --alloc-smoke: the zero-allocation budget gate. After a short warmup
   (scratch arenas sized, cell lists built, stack programs compiled), one
   steady-state iteration of each migrated SoA kernel must allocate
   (nearly) nothing on the minor heap. The serial paths execute the exact
   pooled chunk bodies, so they bound the kernel-body allocation with a
   tight budget; the pooled paths add only bounded task-dispatch
   overhead and get a looser one. Exits non-zero on any violation. *)
let alloc_smoke () =
  let failures = ref 0 in
  let measure name ~budget f =
    for _ = 1 to 3 do
      f ()
    done;
    let iters = 10 in
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    let per = (Gc.minor_words () -. before) /. float_of_int iters in
    let ok = per <= budget in
    if not ok then incr failures;
    Fmt.pr "alloc-smoke %-26s %10.1f words/iter (budget %7.0f) %s@." name per
      budget
      (if ok then "ok" else "FAIL")
  in
  let seq_budget = 64.0 and par_budget = 32768.0 in
  (* sw4 stencil *)
  let g = Sw4.Grid.create ~nx:64 ~ny:64 ~h:100.0 in
  Sw4.Grid.homogeneous g ~rho:2500.0 ~vp:5000.0 ~vs:2500.0;
  let scr = Sw4.Elastic.make_scratch g in
  let n = 64 * 64 in
  let ux = Icoe_util.Fbuf.init n (fun i -> 1e-4 *. sin (float_of_int i)) in
  let uy = Icoe_util.Fbuf.init n (fun i -> 1e-4 *. cos (float_of_int i)) in
  let ax = Icoe_util.Fbuf.create n and ay = Icoe_util.Fbuf.create n in
  measure "sw4/acceleration-seq" ~budget:seq_budget (fun () ->
      Sw4.Elastic.acceleration_seq g scr ~ux ~uy ~ax ~ay);
  measure "sw4/acceleration-par" ~budget:par_budget (fun () ->
      Sw4.Elastic.acceleration g scr ~ux ~uy ~ax ~ay);
  (* ddcMD forces *)
  let rng = Icoe_util.Rng.create 3 in
  let p = Ddcmd.Particles.create ~n:1000 ~box:10.5 in
  Ddcmd.Particles.lattice_init p;
  Ddcmd.Particles.thermalize p ~rng ~temp:0.7;
  let e =
    Ddcmd.Engine.create ~dt:0.004
      ~potential:(Ddcmd.Potential.lennard_jones ()) p
  in
  measure "md/compute-forces-seq" ~budget:seq_budget (fun () ->
      Ddcmd.Engine.compute_forces_seq e);
  measure "md/compute-forces-par" ~budget:par_budget (fun () ->
      Ddcmd.Engine.compute_forces e);
  (* Cardioid reaction *)
  let m = Cardioid.Monodomain.create ~nx:64 ~ny:64 () in
  Cardioid.Monodomain.stimulate m ~ilo:0 ~ihi:3 ~jlo:0 ~jhi:63 ~amplitude:60.0;
  measure "cardioid/reaction-seq" ~budget:seq_budget (fun () ->
      Cardioid.Monodomain.reaction_step_seq m);
  measure "cardioid/reaction-par" ~budget:par_budget (fun () ->
      Cardioid.Monodomain.reaction_step m);
  (* CSR SpMV *)
  let a = Linalg.Csr.laplacian_2d 64 64 in
  let x = Array.init 4096 (fun i -> float_of_int (i mod 7)) in
  let y = Array.make 4096 0.0 in
  measure "linalg/spmv-seq" ~budget:seq_budget (fun () ->
      Linalg.Csr.spmv_seq_into a x y);
  measure "linalg/spmv-par" ~budget:par_budget (fun () ->
      Linalg.Csr.spmv_into a x y);
  (* LDA E-step *)
  let rng = Icoe_util.Rng.create 6 in
  let corpus = Lda.Corpus.generate ~ndocs:16 ~rng () in
  let lm = Lda.Vem.init ~rng ~k:6 ~vocab:corpus.Lda.Corpus.vocab () in
  let elogb = Lda.Vem.elog_beta lm in
  let stats = Icoe_util.Fbuf.create (6 * corpus.Lda.Corpus.vocab) in
  measure "lda/e-step-doc" ~budget:seq_budget (fun () ->
      ignore (Lda.Vem.e_step_doc lm elogb corpus.Lda.Corpus.docs.(0) stats));
  measure "lda/e-step-docs-par" ~budget:par_budget (fun () ->
      ignore (Lda.Vem.e_step_docs lm elogb corpus.Lda.Corpus.docs stats));
  (* MLP backprop: one example through [|12; 16; 4|], as in bench_mlp *)
  let mlp = Dlearn.Mlp.create ~rng:(Icoe_util.Rng.create 7) [| 12; 16; 4 |] in
  let mx = Array.init 12 (fun i -> float_of_int i /. 12.0) in
  measure "dlearn/mlp-backward" ~budget:seq_budget (fun () ->
      ignore (Dlearn.Mlp.backward mlp mx ~label:1);
      Dlearn.Mlp.zero_grads mlp);
  (* hypre BoxLoops: one Jacobi sweep plus the residual max-norm on the
     64^2 structured grid, and one PFMG V-cycle on n = 63 *)
  let hctx = Prog.Exec.on_v100 (Hwsim.Clock.create ()) in
  let s = Hypre.Boxloop.Struct_solver.create 64 64 in
  s.Hypre.Boxloop.Struct_solver.b.(Hypre.Boxloop.Struct_solver.idx s 32 32) <- 1.0;
  measure "hypre/struct-sweep" ~budget:seq_budget (fun () ->
      Hypre.Boxloop.Struct_solver.jacobi_sweep hctx s;
      ignore (Hypre.Boxloop.Struct_solver.residual_norm hctx s));
  let pf = Hypre.Pfmg.create 63 in
  let f = Hypre.Pfmg.finest pf in
  f.Hypre.Pfmg.b.(Hypre.Pfmg.idx f 32 32) <- 1.0;
  measure "hypre/pfmg-vcycle" ~budget:seq_budget (fun () ->
      Hypre.Pfmg.v_cycle hctx pf);
  if !failures > 0 then begin
    Fmt.pr "alloc-smoke: %d kernel(s) over budget@." !failures;
    exit 1
  end;
  Fmt.pr "alloc-smoke: all kernels within budget@."

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let micro_only = List.mem "--micro-only" args in
  (* GC tuning knobs (ICOE_GC_MINOR_HEAP / ICOE_GC_SPACE_OVERHEAD):
     applied before any benchmark runs, reported in the header so a
     BENCH trajectory row can be traced back to its GC configuration. *)
  let gc = Icoe_util.Gctune.apply_env () in
  Fmt.pr "bench: gc %s@." (Icoe_util.Gctune.describe gc);
  if List.mem "--alloc-smoke" args then begin
    alloc_smoke ();
    exit 0
  end;
  let harnesses =
    if micro_only then []
    else begin
      Fmt.pr "==========================================================@.";
      Fmt.pr " iCoE reproduction: every table and figure of the paper@.";
      Fmt.pr "==========================================================@.@.";
      run_harnesses ()
    end
  in
  Icoe_obs.Metrics.reset ();
  let kernels = microbenchmarks () in
  let faults = fault_rows () in
  let overlap = overlap_rows () in
  let blame = blame_rows () in
  let service = service_rows () in
  let topology = topology_rows () in
  let tuner = tuner_rows () in
  write_bench_json ~harnesses ~faults ~overlap ~blame ~service ~topology ~tuner
    kernels
