(** PFMG: geometric multigrid for the structured path — the second of
    hypre's structured solvers the paper ports through BoxLoops.

    Solves the 5-point Poisson problem on an (n x n) interior grid
    (Dirichlet walls) with full coarsening, damped-Jacobi smoothing,
    bilinear prolongation and full-weighting restriction — every sweep
    expressed through the retargetable [Boxloop.boxloop2], so the whole
    cycle runs under any execution policy. Grid sizes must be (2^k - 1)
    per side so that coarsening terminates at a single interior point. *)

(* a BoxLoop body: [f j ilo ihi] sweeps cells ilo..ihi of row j *)
type row = int -> int -> int -> unit

(* A level's BoxLoop bodies, built once by [create] so that a V-cycle
   allocates nothing per sweep. *)
type rows = {
  interior : Boxloop.box;
  smooth_rows : row;  (* damped Jacobi u -> r *)
  copy_rows : row;  (* r -> u *)
  residual_rows : row;  (* b - A u -> r *)
}

type level = {
  n : int;  (** interior points per side *)
  u : float array;  (** (n+2)^2 with ghost walls *)
  b : float array;
  r : float array;
  rows : rows;
}

(* the grid transfers between level l and the coarser level l + 1 *)
type transfer = {
  restrict_rows : row;  (* fine r -> coarse b, over the coarse interior *)
  prolong_rows : row;  (* fine u += interpolated coarse u, over the fine interior *)
}

type t = { levels : level array; transfers : transfer array }

let m_vcycles =
  Icoe_obs.Metrics.counter ~help:"PFMG V-cycles applied" "pfmg_vcycles_total"

let m_residual =
  Icoe_obs.Metrics.gauge ~help:"Final relative residual of the last PFMG solve"
    "pfmg_last_residual"

let idx lvl i j = i + ((lvl.n + 2) * j)

(* damped-Jacobi weight *)
let jacobi_w = 0.8

(* one damped-Jacobi sweep of u into r *)
let smooth_rows ~stride u b r =
  let body j ilo ihi =
    let row = stride * j in
    for k = row + ilo to row + ihi do
      let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
      r.(k) <- u.(k) +. (jacobi_w *. (((b.(k) +. nb) /. 4.0) -. u.(k)))
    done
  in
  body

let copy_rows ~stride (u : float array) (r : float array) =
  let body j ilo ihi =
    let row = stride * j in
    for k = row + ilo to row + ihi do
      u.(k) <- r.(k)
    done
  in
  body

(* residual r = b - A u (A = 4u - neighbours, h-scaled rhs baked into b) *)
let residual_rows ~stride u b r =
  let body j ilo ihi =
    let row = stride * j in
    for k = row + ilo to row + ihi do
      let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
      r.(k) <- b.(k) +. nb -. (4.0 *. u.(k))
    done
  in
  body

(* full-weighting restriction of fine.r into coarse.b; fine n = 2c+1 *)
let restrict_rows ~(fine : level) ~(coarse : level) =
  let fr = fine.r and cb = coarse.b in
  let fs = fine.n + 2 and cs = coarse.n + 2 in
  let body cj ilo ihi =
    let frow = fs * (2 * cj) and crow = cs * cj in
    for ci = ilo to ihi do
      let k = (2 * ci) + frow in
      let v =
        (4.0 *. fr.(k))
        +. (2.0 *. (fr.(k - 1) +. fr.(k + 1) +. fr.(k - fs) +. fr.(k + fs)))
        +. fr.(k - fs - 1) +. fr.(k - fs + 1) +. fr.(k + fs - 1)
        +. fr.(k + fs + 1)
      in
      (* factor 4 keeps the coarse operator consistent under full
         weighting (scale 1/16 x h^2 ratio 4) *)
      cb.(ci + crow) <- v /. 4.0
    done
  in
  body

(* bilinear prolongation of coarse.u added into fine.u *)
let prolong_rows ~(coarse : level) ~(fine : level) =
  let cu = coarse.u and fu = fine.u in
  let cs = coarse.n + 2 and fs = fine.n + 2 in
  let body fj ilo ihi =
    let cj = fj / 2 and odd_row = fj land 1 = 1 in
    let c0 = cs * cj and c1 = cs * (cj + 1) and frow = fs * fj in
    for fi = ilo to ihi do
      let ci = fi / 2 in
      let v =
        match (fi land 1 = 1, odd_row) with
        | false, false -> cu.(ci + c0)
        | true, false -> 0.5 *. (cu.(ci + c0) +. cu.(ci + 1 + c0))
        | false, true -> 0.5 *. (cu.(ci + c0) +. cu.(ci + c1))
        | true, true ->
            0.25
            *. (cu.(ci + c0) +. cu.(ci + 1 + c0) +. cu.(ci + c1)
               +. cu.(ci + 1 + c1))
      in
      fu.(fi + frow) <- fu.(fi + frow) +. v
    done
  in
  body

let make_level n =
  let stride = n + 2 in
  let m = stride * stride in
  let u = Array.make m 0.0 and b = Array.make m 0.0 and r = Array.make m 0.0 in
  let rows =
    {
      interior = { Boxloop.ilo = 1; ihi = n; jlo = 1; jhi = n };
      smooth_rows = smooth_rows ~stride u b r;
      copy_rows = copy_rows ~stride u r;
      residual_rows = residual_rows ~stride u b r;
    }
  in
  { n; u; b; r; rows }

(** Build a hierarchy for an (n x n) interior grid, n = 2^k - 1. *)
let create n =
  assert (n >= 1);
  assert ((n + 1) land n = 0 (* n+1 power of two *));
  let rec build n acc = if n < 1 then acc else build ((n - 1) / 2) (make_level n :: acc) in
  let levels = Array.of_list (List.rev (build n [])) in
  let transfers =
    Array.init
      (Array.length levels - 1)
      (fun l ->
        let fine = levels.(l) and coarse = levels.(l + 1) in
        {
          restrict_rows = restrict_rows ~fine ~coarse;
          prolong_rows = prolong_rows ~coarse ~fine;
        })
  in
  { levels; transfers }

let finest t = t.levels.(0)

(* one damped-Jacobi sweep on a level *)
let smooth ctx lvl =
  Boxloop.boxloop2 ctx ~phase:"pfmg-smooth" ~flops_per:8.0 ~bytes_per:48.0
    lvl.rows.interior lvl.rows.smooth_rows;
  Boxloop.boxloop2 ctx ~phase:"pfmg-copy" ~flops_per:0.0 ~bytes_per:16.0
    lvl.rows.interior lvl.rows.copy_rows

let residual ctx lvl =
  Boxloop.boxloop2 ctx ~phase:"pfmg-residual" ~flops_per:7.0 ~bytes_per:48.0
    lvl.rows.interior lvl.rows.residual_rows

let restrict ctx tr ~(coarse : level) =
  Boxloop.boxloop2 ctx ~phase:"pfmg-restrict" ~flops_per:12.0 ~bytes_per:80.0
    coarse.rows.interior tr.restrict_rows

let prolong ctx tr ~(fine : level) =
  Boxloop.boxloop2 ctx ~phase:"pfmg-prolong" ~flops_per:6.0 ~bytes_per:48.0
    fine.rows.interior tr.prolong_rows

(** One V(nu1, nu2)-cycle. *)
let v_cycle ?(nu1 = 2) ?(nu2 = 2) ctx t =
  Icoe_obs.Metrics.inc m_vcycles;
  let nl = Array.length t.levels in
  let rec descend l =
    let lvl = t.levels.(l) in
    if l = nl - 1 then
      (* coarsest: a handful of sweeps solves the tiny system *)
      for _ = 1 to 8 do
        smooth ctx lvl
      done
    else begin
      for _ = 1 to nu1 do
        smooth ctx lvl
      done;
      residual ctx lvl;
      let coarse = t.levels.(l + 1) and tr = t.transfers.(l) in
      restrict ctx tr ~coarse;
      Array.fill coarse.u 0 (Array.length coarse.u) 0.0;
      descend (l + 1);
      prolong ctx tr ~fine:lvl;
      for _ = 1 to nu2 do
        smooth ctx lvl
      done
    end
  in
  descend 0

(** Residual infinity norm on the finest level. *)
let residual_norm ctx t =
  let lvl = finest t in
  residual ctx lvl;
  let r = lvl.r and stride = lvl.n + 2 in
  let m = ref 0.0 in
  for j = 1 to lvl.n do
    let row = stride * j in
    for k = row + 1 to row + lvl.n do
      let v = Float.abs r.(k) in
      m := if !m >= v then !m else v
    done
  done;
  !m

(** Solve to relative tolerance; returns (cycles, final relative norm). *)
let solve ?(tol = 1e-10) ?(max_cycles = 50) ctx t =
  let r0 = max (residual_norm ctx t) 1e-300 in
  let rec go c =
    let r = residual_norm ctx t /. r0 in
    if r <= tol || c >= max_cycles then begin
      Icoe_obs.Metrics.set m_residual r;
      (c, r)
    end
    else begin
      v_cycle ctx t;
      go (c + 1)
    end
  in
  go 0
