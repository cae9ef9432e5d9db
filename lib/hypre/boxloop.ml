(** Structured-solver BoxLoops.

    hypre's structured solvers are "abstracted with macros called BoxLoops
    ... completely restructured to allow ports of CUDA, OpenMP 4.5, RAJA and
    Kokkos into the isolated BoxLoops". Here a box loop is a function that
    sweeps an index box under a pluggable execution context; the structured
    PFMG-style solver below is written entirely in terms of it, so swapping
    the backend is a one-argument change. *)

type box = { ilo : int; ihi : int; jlo : int; jhi : int }

(* an inverted extent is empty, not negative: two negatives must not
   multiply into a phantom cell *)
let extent lo hi = max 0 (hi - lo + 1)

let box_size b = extent b.ilo b.ihi * extent b.jlo b.jhi

(* the row walk shared by both loops: [f j ilo ihi] once per row, [j]
   ascending, nothing at all for an empty box *)
let rows b f =
  if box_size b > 0 then
    for j = b.jlo to b.jhi do
      f j b.ilo b.ihi
    done

(** Sweep the box row by row — [f j ilo ihi] covers cells [ilo..ihi] of
    row [j] — then charge the context once for [box_size b] elements. *)
let boxloop2 (ctx : Prog.Exec.ctx) ?(phase = "boxloop") ~flops_per ~bytes_per b f =
  rows b f;
  Prog.Exec.charge ctx ~phase ~n:(box_size b) ~flops_per ~bytes_per

(** 5-point structured Poisson smoother (weighted Jacobi) on an
    (nx x ny) interior grid with Dirichlet walls, all through boxloops. *)
module Struct_solver = struct
  type t = {
    nx : int;
    ny : int;
    u : float array;
    b : float array;
    scratch : float array;
  }

  let create nx ny =
    if nx < 3 || ny < 3 then
      invalid_arg
        (Printf.sprintf "Struct_solver.create: %dx%d grid has no interior (need nx, ny >= 3)"
           nx ny);
    {
      nx;
      ny;
      u = Array.make (nx * ny) 0.0;
      b = Array.make (nx * ny) 0.0;
      scratch = Array.make (nx * ny) 0.0;
    }

  let idx t i j = i + (t.nx * j)

  let interior t = { ilo = 1; ihi = t.nx - 2; jlo = 1; jhi = t.ny - 2 }

  (** One weighted-Jacobi sweep; returns nothing, updates [t.u]. *)
  let jacobi_sweep ctx ?(w = 0.8) t =
    let { nx; u; b; scratch; _ } = t in
    boxloop2 ctx ~phase:"struct-smooth" ~flops_per:8.0 ~bytes_per:48.0
      (interior t) (fun j ilo ihi ->
        let row = nx * j in
        for k = row + ilo to row + ihi do
          let nb = u.(k - 1) +. u.(k + 1) +. u.(k - nx) +. u.(k + nx) in
          scratch.(k) <- u.(k) +. (w *. (((b.(k) +. nb) /. 4.0) -. u.(k)))
        done);
    boxloop2 ctx ~phase:"struct-copy" ~flops_per:0.0 ~bytes_per:16.0
      (interior t) (fun j ilo ihi ->
        let row = nx * j in
        for k = row + ilo to row + ihi do
          u.(k) <- scratch.(k)
        done)

  (** Residual max-norm over the interior. *)
  let residual_norm ctx t =
    let { nx; u; b; _ } = t in
    (* a one-cell float array keeps the running max unboxed *)
    let acc = [| 0.0 |] in
    let box = interior t in
    rows box (fun j ilo ihi ->
        let row = nx * j in
        for k = row + ilo to row + ihi do
          let nb = u.(k - 1) +. u.(k + 1) +. u.(k - nx) +. u.(k + nx) in
          let v = Float.abs (b.(k) +. nb -. (4.0 *. u.(k))) in
          let m = acc.(0) in
          acc.(0) <- (if m >= v then m else v)
        done);
    Prog.Exec.charge_reduce ctx ~phase:"struct-residual" ~n:(box_size box)
      ~flops_per:7.0 ~bytes_per:48.0;
    acc.(0)

  (** Iterate to tolerance; returns (sweeps, final residual). *)
  let solve ?(tol = 1e-8) ?(max_sweeps = 5000) ctx t =
    let r0 = max (residual_norm ctx t) 1e-300 in
    let sweeps = ref 0 in
    let r = ref r0 in
    while !r /. r0 > tol && !sweeps < max_sweeps do
      jacobi_sweep ctx t;
      incr sweeps;
      (* residual check every 10 sweeps keeps reduction traffic modest *)
      if !sweeps mod 10 = 0 then r := residual_norm ctx t
    done;
    r := residual_norm ctx t;
    (!sweeps, !r /. r0)
end
