(** Simulated-time accumulator with named phases.

    Experiments charge kernel and transfer times here; harnesses read back
    both the total and the per-phase breakdown (Figs. 2 and 8 are breakdown
    charts). *)

(* float-only, so its field is stored unboxed and an update allocates
   nothing *)
type cell = { mutable seconds : float }

type t = {
  total : cell;
  phases : (string, cell) Hashtbl.t;
  mutable order : string list; (* first-seen order, reversed *)
}

let cell () = { seconds = 0.0 }

let create () = { total = cell (); phases = Hashtbl.create 16; order = [] }

let reset t =
  t.total.seconds <- 0.0;
  Hashtbl.reset t.phases;
  t.order <- []

(* add [dt] to [phase]'s cell; a phase's first charge stores [dt] as is *)
let[@inline] charge_phase t phase dt =
  match Hashtbl.find t.phases phase with
  | c -> c.seconds <- c.seconds +. dt
  | exception Not_found ->
      Hashtbl.add t.phases phase { seconds = dt };
      t.order <- phase :: t.order

(** Charge [dt] seconds to [phase]'s breakdown without advancing the
    total. The stream scheduler uses this for overlapped work: each
    item's busy seconds stay attributed to its phase while the total
    only advances by the DAG's critical path (see {!advance}). *)
let attribute t ~phase dt =
  assert (dt >= 0.0);
  charge_phase t phase dt

(** Advance the total by [dt] seconds without charging any phase. *)
let advance t dt =
  assert (dt >= 0.0);
  t.total.seconds <- t.total.seconds +. dt

let[@inline] add t phase dt =
  assert (dt >= 0.0);
  t.total.seconds <- t.total.seconds +. dt;
  charge_phase t phase dt

(** Charge [dt] seconds to [phase]. *)
let tick t ~phase dt = add t phase dt

let tick_cell t ~phase c = add t phase c.seconds

let total t = t.total.seconds

let phase t name =
  match Hashtbl.find_opt t.phases name with Some c -> c.seconds | None -> 0.0

(** Phases in first-charged order with their accumulated seconds. *)
let breakdown t =
  List.rev_map (fun name -> (name, phase t name)) t.order

let pp ppf t =
  Fmt.pf ppf "@[<v>total %.6gs" (total t);
  List.iter (fun (n, s) -> Fmt.pf ppf "@,  %-20s %.6gs" n s) (breakdown t);
  Fmt.pf ppf "@]"
