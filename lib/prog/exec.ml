(** The forall/reduce layer: a miniature RAJA.

    [forall ctx ~n ~flops_per ~bytes_per f] really executes [f i] for every
    i (the numerics are genuine) and charges the context clock with the
    roofline price of the loop under the context's policy and device,
    including launch overhead. Kernel fusion is then a first-class,
    measurable transformation: one fused [forall] pays one launch where k
    separate ones pay k (the ParaDyn and sw4lite merging stories). *)

type ctx = {
  policy : Policy.t;
  device : Hwsim.Device.t;
  link : Hwsim.Link.t;
  clock : Hwsim.Clock.t;
  flop_rate : float;
  byte_rate : float;
  launch_s : float;
  combine_s : float;
  dt : Hwsim.Clock.cell;
  mutable launches : int;
}

let make_ctx ?(link = Hwsim.Link.nvlink2) ~policy ~device ~clock () =
  let flop_rate, byte_rate =
    Hwsim.Roofline.rates ~eff:(Policy.efficiency policy device) device
  in
  (* tree-combine of a reduction across lanes *)
  let depth =
    Float.of_int device.Hwsim.Device.lanes |> Float.log2 |> Float.ceil
  in
  {
    policy;
    device;
    link;
    clock;
    flop_rate;
    byte_rate;
    launch_s = Policy.launch_multiplier policy *. device.Hwsim.Device.launch_overhead_s;
    combine_s = depth *. 0.2e-6;
    dt = Hwsim.Clock.cell ();
    launches = 0;
  }

(** Context for one Sierra V100 under a policy. *)
let on_v100 ?(policy = Policy.Cuda) clock =
  make_ctx ~policy ~device:Hwsim.Device.v100 ~clock ()

(** Context for a P9 socket under OpenMP. *)
let on_p9 ?(policy = Policy.Openmp 22) clock =
  make_ctx ~policy ~device:Hwsim.Device.power9 ~link:Hwsim.Link.nvlink2 ~clock ()

(* The roofline price of a launch-free kernel of [n] elements
   ([Hwsim.Roofline.time] with [launches = 0]) plus the policy's launch
   cost, divided out against the context's cached rates and handed to
   the clock through [ctx.dt], so a charge allocates nothing. *)
let charge ctx ~phase ~n ~flops_per ~bytes_per =
  let flops = float_of_int n *. flops_per in
  let bytes = float_of_int n *. bytes_per in
  assert (flops >= 0.0 && bytes >= 0.0);
  let compute_t = flops /. ctx.flop_rate and mem_t = bytes /. ctx.byte_rate in
  ctx.dt.Hwsim.Clock.seconds <-
    ctx.launch_s +. if compute_t >= mem_t then compute_t else mem_t;
  ctx.launches <- ctx.launches + 1;
  Hwsim.Clock.tick_cell ctx.clock ~phase ctx.dt

(** Parallel-for: runs the body for real, charges simulated time. *)
let forall ctx ?(phase = "forall") ~n ~flops_per ~bytes_per f =
  for i = 0 to n - 1 do
    f i
  done;
  charge ctx ~phase ~n ~flops_per ~bytes_per

(** Price an n-element reduction: a forall plus a log-depth combine term. *)
let charge_reduce ctx ~phase ~n ~flops_per ~bytes_per =
  charge ctx ~phase ~n ~flops_per ~bytes_per;
  Hwsim.Clock.tick ctx.clock ~phase ctx.combine_s

(** Reduction returning the fold result; charged by [charge_reduce]. *)
let reduce ctx ?(phase = "reduce") ~n ~flops_per ~bytes_per ~init ~combine f =
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := combine !acc (f i)
  done;
  charge_reduce ctx ~phase ~n ~flops_per ~bytes_per;
  !acc

(** Price a host<->device transfer of [bytes] (e.g. halo exchange staging). *)
let transfer ctx ?(phase = "data-motion") ~bytes () =
  Hwsim.Clock.tick ctx.clock ~phase (Hwsim.Link.transfer_time ctx.link ~bytes)

(** Simulated time total so far on this context's clock. *)
let elapsed ctx = Hwsim.Clock.total ctx.clock
