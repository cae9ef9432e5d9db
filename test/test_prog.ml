(* Tests for the programming-model layer: policies, forall/reduce, memory
   spaces, pools. *)

let check_float = Alcotest.(check (float 1e-12))

let mk_ctx ?(policy = Prog.Policy.Cuda) () =
  let clock = Hwsim.Clock.create () in
  (Prog.Exec.make_ctx ~policy ~device:Hwsim.Device.v100 ~clock (), clock)

let test_forall_executes_body () =
  let ctx, _ = mk_ctx () in
  let a = Array.make 100 0.0 in
  Prog.Exec.forall ctx ~n:100 ~flops_per:1.0 ~bytes_per:8.0 (fun i ->
      a.(i) <- float_of_int i);
  check_float "body ran" 99.0 a.(99)

let test_forall_charges_time () =
  let ctx, clock = mk_ctx () in
  Prog.Exec.forall ctx ~n:1000 ~flops_per:2.0 ~bytes_per:16.0 (fun _ -> ());
  Alcotest.(check bool) "time charged" true (Hwsim.Clock.total clock > 0.0);
  Alcotest.(check int) "one launch" 1 ctx.Prog.Exec.launches

let test_fusion_cheaper_than_split () =
  (* The ParaDyn lesson: one fused loop beats many small loops because each
     launch pays overhead. *)
  let time_of k_loops n =
    let ctx, clock = mk_ctx () in
    for _ = 1 to k_loops do
      Prog.Exec.forall ctx ~n:(n / k_loops) ~flops_per:1.0 ~bytes_per:8.0
        (fun _ -> ())
    done;
    Hwsim.Clock.total clock
  in
  let fused = time_of 1 10_000 in
  let split = time_of 100 10_000 in
  Alcotest.(check bool) "fused faster" true (fused < split)

let test_policy_ordering_on_gpu () =
  (* CUDA-shared >= CUDA > RAJA on a compute-heavy kernel (Sec 4.9). *)
  let time policy =
    let clock = Hwsim.Clock.create () in
    let ctx = Prog.Exec.make_ctx ~policy ~device:Hwsim.Device.v100 ~clock () in
    Prog.Exec.forall ctx ~n:1_000_000 ~flops_per:100.0 ~bytes_per:8.0 (fun _ -> ());
    Hwsim.Clock.total clock
  in
  let t_cuda_sh = time Prog.Policy.Cuda_shared in
  let t_cuda = time Prog.Policy.Cuda in
  let t_raja = time Prog.Policy.Raja_cuda in
  Alcotest.(check bool) "shared fastest" true (t_cuda_sh < t_cuda);
  Alcotest.(check bool) "cuda beats raja" true (t_cuda < t_raja);
  (* the paper's number: RAJA ~30% slower than CUDA *)
  let penalty = (t_raja -. t_cuda) /. t_cuda in
  Alcotest.(check bool) "raja penalty in 20-60% band" true
    (penalty > 0.2 && penalty < 0.6)

let test_openmp_thread_scaling () =
  let time n_threads =
    let clock = Hwsim.Clock.create () in
    let ctx =
      Prog.Exec.make_ctx ~policy:(Prog.Policy.Openmp n_threads)
        ~device:Hwsim.Device.power9 ~clock ()
    in
    Prog.Exec.forall ctx ~n:1_000_000 ~flops_per:50.0 ~bytes_per:8.0 (fun _ -> ());
    Hwsim.Clock.total clock
  in
  Alcotest.(check bool) "22 threads beat 1" true (time 22 < time 1 /. 4.0)

let test_reduce_result () =
  let ctx, _ = mk_ctx () in
  let s =
    Prog.Exec.reduce ctx ~n:100 ~flops_per:1.0 ~bytes_per:8.0 ~init:0.0
      ~combine:( +. ) (fun i -> float_of_int i)
  in
  check_float "sum 0..99" 4950.0 s

(* every policy on the device of its side *)
let policy_ctxs () =
  List.map
    (fun policy ->
      let device =
        if Prog.Policy.side policy = Prog.Policy.Host then Hwsim.Device.power9
        else Hwsim.Device.v100
      in
      fun clock -> Prog.Exec.make_ctx ~policy ~device ~clock ())
    Prog.Policy.
      [ Serial; Openmp 1; Openmp 22; Omp_target; Openacc; Raja_cuda; Cuda; Cuda_shared ]

let clock_bits clock =
  ( Int64.bits_of_float (Hwsim.Clock.total clock),
    List.map (fun (p, s) -> (p, Int64.bits_of_float s)) (Hwsim.Clock.breakdown clock) )

let test_charge_reduce_matches_reduce () =
  (* [reduce] charges exactly [charge] plus [charge_reduce]'s combine
     term: a run of reduces and a run of bare charges with
     [charge_reduce] in their place leave the same clock, bit for bit *)
  List.iter
    (fun mk ->
      let clock_a = Hwsim.Clock.create () and clock_b = Hwsim.Clock.create () in
      let a = mk clock_a and b = mk clock_b in
      List.iter
        (fun n ->
          Prog.Exec.charge a ~phase:"sweep" ~n ~flops_per:8.0 ~bytes_per:48.0;
          Prog.Exec.charge b ~phase:"sweep" ~n ~flops_per:8.0 ~bytes_per:48.0;
          let m =
            Prog.Exec.reduce a ~phase:"norm" ~n ~flops_per:7.0 ~bytes_per:48.0
              ~init:0.0 ~combine:max (fun i -> float_of_int (i mod 13))
          in
          Prog.Exec.charge_reduce b ~phase:"norm" ~n ~flops_per:7.0 ~bytes_per:48.0;
          check_float "fold result" (float_of_int (min 12 (max 0 (n - 1)))) m)
        [ 0; 1; 62; 3844; 1_000_000 ];
      Alcotest.(check (pair int64 (list (pair string int64))))
        "same clock" (clock_bits clock_a) (clock_bits clock_b);
      Alcotest.(check int) "same launches" a.Prog.Exec.launches b.Prog.Exec.launches)
    (policy_ctxs ())

let test_charge_is_roofline_price () =
  (* [charge] divides by the context's cached rates; it must price a loop
     exactly as the roofline prices the same launch-free kernel, plus the
     policy's launch cost *)
  List.iter
    (fun mk ->
      List.iter
        (fun (n, flops_per, bytes_per) ->
          let clock = Hwsim.Clock.create () in
          let ctx = mk clock in
          Prog.Exec.charge ctx ~phase:"k" ~n ~flops_per ~bytes_per;
          let k =
            Hwsim.Kernel.make ~name:"k" ~launches:0
              ~flops:(float_of_int n *. flops_per)
              ~bytes:(float_of_int n *. bytes_per) ()
          in
          let eff = Prog.Policy.efficiency ctx.Prog.Exec.policy ctx.Prog.Exec.device in
          let expected =
            (Prog.Policy.launch_multiplier ctx.Prog.Exec.policy
            *. ctx.Prog.Exec.device.Hwsim.Device.launch_overhead_s)
            +. Hwsim.Roofline.time ~eff ctx.Prog.Exec.device k
          in
          Alcotest.(check int64)
            (Fmt.str "n=%d flops=%g bytes=%g" n flops_per bytes_per)
            (Int64.bits_of_float expected)
            (Int64.bits_of_float (Hwsim.Clock.total clock)))
        [ (0, 8.0, 48.0); (1, 0.0, 16.0); (3844, 8.0, 48.0); (3969, 12.0, 80.0);
          (1_000_000, 100.0, 8.0); (7, 1e6, 0.0) ])
    (policy_ctxs ())

let test_darray_move_charges () =
  let clock = Hwsim.Clock.create () in
  let a = Prog.Space.Darray.create 1000 in
  Prog.Space.Darray.move a ~to_:Prog.Space.Device_mem ~link:Hwsim.Link.nvlink2
    ~clock;
  Alcotest.(check bool) "move charged" true (Hwsim.Clock.total clock > 0.0);
  let before = Hwsim.Clock.total clock in
  (* second move to same space is free *)
  Prog.Space.Darray.move a ~to_:Prog.Space.Device_mem ~link:Hwsim.Link.nvlink2
    ~clock;
  check_float "no double charge" before (Hwsim.Clock.total clock)

let test_darray_ensure () =
  let clock = Hwsim.Clock.create () in
  let a = Prog.Space.Darray.create 10 in
  Prog.Space.Darray.ensure a ~side:Prog.Policy.Host ~link:Hwsim.Link.nvlink2 ~clock;
  check_float "host data on host side free" 0.0 (Hwsim.Clock.total clock);
  Prog.Space.Darray.ensure a ~side:Prog.Policy.Accelerator
    ~link:Hwsim.Link.nvlink2 ~clock;
  Alcotest.(check bool) "migrates for accelerator" true
    (Hwsim.Clock.total clock > 0.0)

let test_pool_amortizes () =
  let clock = Hwsim.Clock.create () in
  let p = Prog.Pool.create "test" in
  (* steady-state alloc/free cycle: only the first allocation is raw *)
  for _ = 1 to 100 do
    Prog.Pool.alloc p ~bytes:1024.0 ~clock;
    Prog.Pool.free p ~bytes:1024.0
  done;
  Alcotest.(check int) "one raw alloc" 1 p.Prog.Pool.raw_allocs;
  Alcotest.(check int) "99 pooled" 99 p.Prog.Pool.pooled_allocs;
  Alcotest.(check bool) "pool much cheaper than raw" true
    (Prog.Pool.pooled_cost p < Prog.Pool.unpooled_cost p /. 10.0)

let prop_forall_runs_all =
  QCheck.Test.make ~name:"forall touches every index" ~count:50
    QCheck.(int_range 1 500)
    (fun n ->
      let ctx, _ = mk_ctx () in
      let hit = Array.make n false in
      Prog.Exec.forall ctx ~n ~flops_per:0.0 ~bytes_per:0.0 (fun i ->
          hit.(i) <- true);
      Array.for_all (fun b -> b) hit)

let () =
  Alcotest.run "prog"
    [
      ( "exec",
        [
          Alcotest.test_case "forall executes" `Quick test_forall_executes_body;
          Alcotest.test_case "forall charges" `Quick test_forall_charges_time;
          Alcotest.test_case "fusion beats split" `Quick test_fusion_cheaper_than_split;
          Alcotest.test_case "policy ordering" `Quick test_policy_ordering_on_gpu;
          Alcotest.test_case "openmp scaling" `Quick test_openmp_thread_scaling;
          Alcotest.test_case "reduce result" `Quick test_reduce_result;
          Alcotest.test_case "charge_reduce matches reduce" `Quick
            test_charge_reduce_matches_reduce;
          Alcotest.test_case "charge is the roofline price" `Quick
            test_charge_is_roofline_price;
          QCheck_alcotest.to_alcotest prop_forall_runs_all;
        ] );
      ( "space",
        [
          Alcotest.test_case "move charges" `Quick test_darray_move_charges;
          Alcotest.test_case "ensure" `Quick test_darray_ensure;
        ] );
      ("pool", [ Alcotest.test_case "amortizes" `Quick test_pool_amortizes ]);
    ]
