(* Host-time spans recorded from the benchmark side of each layer call.

   Every span reads the monotonic clock and the GC's allocation counters
   at entry and exit. Spans nest through an open-span stack, so a span's
   self time is its duration minus the part its direct children cover.
   Spans stay in memory until the process ends; [chrome_json] writes them
   out as a Chrome trace. With recording off ([enabled := false]) [time]
   is a plain call, which is how end-to-end metrics are measured. *)

let now_ns () = Monotonic_clock.now ()

let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

(* Words allocated by this domain so far: minor allocations plus direct
   major allocations; promotions would otherwise be counted twice. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type span = {
  id : int;
  name : string;
  run : int;  (** which workload batch of the process the span belongs to *)
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start_ns : int64;
  stop_ns : int64;
  alloc_words : float;
}

let enabled = ref false
let run_id = ref 0
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let time name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = allocated_words () in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      let w1 = allocated_words () in
      stack := List.tl !stack;
      recorded :=
        {
          id;
          name;
          run = !run_id;
          parent;
          start_ns = t0;
          stop_ns = t1;
          alloc_words = w1 -. w0;
        }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Named counts recorded at the same boundaries as the spans, so ratios
   such as tuner evaluations per lattice point are taken where the work
   happens. Counts are kept whether or not spans are recorded. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt counts name) in
  Hashtbl.replace counts name (prev +. v)

type summary = {
  s_name : string;
  calls : int;
  busy_s : float;
  self_s : float;
  alloc_mwords : float;
}

(* Per-name totals, in order of first appearance. A name's busy time
   sums its spans' durations; self time subtracts what direct children
   cover. *)
let summarize () =
  let spans = List.rev !recorded in
  let child_s = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev =
          Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent)
        in
        Hashtbl.replace child_s s.parent
          (prev +. seconds_between s.start_ns s.stop_ns))
    spans;
  let order = ref [] and acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = seconds_between s.start_ns s.stop_ns in
      let self =
        dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id)
      in
      let prev =
        match Hashtbl.find_opt acc s.name with
        | Some p -> p
        | None ->
            order := s.name :: !order;
            { s_name = s.name; calls = 0; busy_s = 0.0; self_s = 0.0;
              alloc_mwords = 0.0 }
      in
      Hashtbl.replace acc s.name
        {
          prev with
          calls = prev.calls + 1;
          busy_s = prev.busy_s +. dur;
          self_s = prev.self_s +. self;
          alloc_mwords = prev.alloc_mwords +. (s.alloc_words /. 1e6);
        })
    spans;
  List.rev_map (Hashtbl.find acc) !order

let chrome_json ~origin_ns =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"alloc_mwords\":%.6f}}"
        s.name
        (List.hd (String.split_on_char '.' s.name))
        s.run
        (Int64.to_float (Int64.sub s.start_ns origin_ns) /. 1e3)
        (Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e3)
        s.id s.parent (s.alloc_words /. 1e6))
    (List.rev !recorded);
  Buffer.add_string b "]}\n";
  Buffer.contents b
