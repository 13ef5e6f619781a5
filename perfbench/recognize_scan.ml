(* recognize-scan: forensic scanning.  One caller, closed loop, blind
   recognition through the registry's jwm over a queue of suspects.

   Set-up builds the queue of [rounds] x 13 suspects over the 13 VM hosts
   and the widths {16, 32, 64}: half the suspects are jwm-marked, a
   quarter marked and then attacked by a seeded attack from
   Vmattacks.Attacks.all (each attack equally often), a quarter unmarked
   controls.  A suspect is
   held as serialized bytes, the way a scanner reads it from disk, so
   every recognition decodes and compiles afresh. *)

open Common

let setup_reps = 3

let rounds = 36

type kind = Marked | Attacked of string | Control

let kind_name = function Marked -> "marked" | Attacked _ -> "attacked" | Control -> "control"

type suspect = {
  host : host;
  width : int;
  kind : kind;
  fp : Bignum.t;  (** the embedded fingerprint (drawn but never embedded on controls) *)
  bytes : string;  (** {!Stackvm.Serialize} of the suspect *)
  bytes_before : int;  (** embedding report; 0 on controls *)
  bytes_after : int;
}

(* Round r holds every host once, in seeded order; host h takes
   combination (r + offset_h) mod 12 of the 3 widths x 4 kind slots.  By
   the Chinese remainder theorem twelve consecutive rounds give each host
   every width with every kind slot once, so any stretch of the queue has
   the same mix of hosts, widths and kinds whatever the seed; offsets,
   orders, fingerprints, piece placements and attacks come from the seed.
   Op costs differ tenfold between hosts, so an unstratified draw would
   make a run's throughput depend on its seed more than on the code. *)
let kind_slots = [| `Marked; `Attacked; `Marked; `Control |]

let plan rng =
  let hosts = Array.of_list vm_hosts in
  let widths = Array.of_list widths in
  let offsets = Array.map (fun _ -> Util.Prng.int rng 12) hosts in
  List.concat
    (List.init rounds (fun r ->
         let order = Array.init (Array.length hosts) Fun.id in
         Util.Prng.shuffle rng order;
         Array.to_list
           (Array.map
              (fun h ->
                let c = (r + offsets.(h)) mod 12 in
                (hosts.(h), widths.(c mod 3), kind_slots.(c mod 4)))
              order)))

let setup ~key ~seed () =
  let rng = Util.Prng.create (Int64.of_int seed) in
  let cells = plan rng in
  let attack = cycler rng Vmattacks.Attacks.all in
  let hosts = List.map (fun w -> (w.Workloads.Workload.name, prepare_host w)) vm_hosts in
  (* one snapshot trace per host, shared by its embeddings *)
  let traces =
    List.map
      (fun (name, h) -> (name, Stackvm.Trace.capture ~want_snapshots:true h.prog ~input:h.w.input))
      hosts
  in
  Array.of_list
    (List.map
       (fun ((w : Workloads.Workload.t), width, kind) ->
         let host = List.assoc w.name hosts in
         let fp = fingerprint rng width in
         let prog = host.prog in
         let embed () =
           Jwm.Embed.embed ~seed:(Util.Prng.next_int64 rng) ~trace:(List.assoc w.name traces)
             {
               Jwm.Embed.passphrase = key;
               watermark = fp;
               watermark_bits = width;
               pieces = Scheme.Watermarker.default_redundancy;
               input = w.input;
             }
             prog
         in
         let suspect kind program ~before ~after =
           { host; width; kind; fp; bytes = Stackvm.Serialize.encode program; bytes_before = before; bytes_after = after }
         in
         match kind with
         | `Control -> suspect Control prog ~before:0 ~after:0
         | `Marked ->
             let r = embed () in
             suspect Marked r.Jwm.Embed.program ~before:r.Jwm.Embed.bytes_before
               ~after:r.Jwm.Embed.bytes_after
         | `Attacked ->
             let r = embed () in
             let name, attack = attack () in
             suspect (Attacked name)
               (attack (Util.Prng.split rng) r.Jwm.Embed.program)
               ~before:r.Jwm.Embed.bytes_before ~after:r.Jwm.Embed.bytes_after)
       cells)

let expected s = match s.kind with Control -> None | Marked | Attacked _ -> Some s.fp

let describe s =
  Printf.sprintf "%s/%d-bit/%s%s" s.host.w.Workloads.Workload.name s.width (kind_name s.kind)
    (match s.kind with Attacked a -> ":" ^ a | _ -> "")

let judge ~by_width ~by_kind s value =
  let v = classify ~attacked:(match s.kind with Attacked _ -> true | _ -> false) ~expected:(expected s) value in
  note_verdict by_width ~group:(Printf.sprintf "width %2d" s.width) v;
  note_verdict by_kind ~group:(kind_name s.kind) v;
  if is_failure v then
    note_failure by_width
      (Printf.sprintf "%s: %s%s" (describe s) (verdict_name v)
         (match value with
         | Some x -> Printf.sprintf " (recovered %s, embedded %s)" (Bignum.to_string x) (Bignum.to_string s.fp)
         | None -> ""));
  v

exception Replica_mismatch of string

let recognize_fuel = 200_000_000

(* The per-layer replica of Jwm.Recognize.recognize's compiled path: the
   same public calls in the same order, each in its own span. *)
let replica spans ~req ~root ~key ~width ~input prog =
  let part name f = Spans.span spans ~parent:root ~req name (fun _ -> f ()) in
  let params = part "codec.params" (fun () -> Codec.Params.make ~passphrase:key ~watermark_bits:width ()) in
  match
    let code = part "stackvm.compile" (fun () -> Stackvm.Compile.of_program prog) in
    let events = Stackvm.Tracebuf.create ~capacity:65536 () in
    let result =
      part "stackvm.run" (fun () ->
          Stackvm.Compile.run ~trace:events ~fuel:recognize_fuel code ~input)
    in
    (events, result)
  with
  | exception _ -> None (* Jwm.Recognize reports a degraded, empty outcome *)
  | events, result ->
      Spans.count spans ~req "stackvm.events" (float_of_int (Stackvm.Tracebuf.length events));
      Spans.count spans ~req "stackvm.steps" (float_of_int result.Stackvm.Interp.steps);
      let bits = part "stackvm.bits" (fun () -> Stackvm.Trace.bits_of_buf events) in
      let strides = [ 1; 2 ] in
      let stmts = part "codec.harvest" (fun () -> Codec.Recombine.harvest params bits ~strides) in
      let report = part "codec.recover" (fun () -> Codec.Recombine.recover params stmts) in
      let len = Util.Bitstring.length bits and width = params.Codec.Params.block_bits in
      let windows = List.fold_left (fun acc st -> acc + max 0 (len - ((width - 1) * st))) 0 strides in
      let c name v = Spans.count spans ~req name (float_of_int v) in
      c "codec.windows" windows;
      c "codec.candidates" report.Codec.Recombine.candidates;
      c "codec.distinct" report.Codec.Recombine.distinct;
      c "codec.after_vote" report.Codec.Recombine.after_vote;
      c "codec.dropped_by_greedy" report.Codec.Recombine.dropped_by_greedy;
      report.Codec.Recombine.value

let parts =
  [ "codec.params"; "stackvm.compile"; "stackvm.run"; "stackvm.bits"; "codec.harvest"; "codec.recover" ]

(* One traced recognition of a serialized program: the replica, then the
   real recognizer as its reference and the jwm total, in alternating
   order so that neither always runs on the caches the other warmed.
   Returns the value and the replica's wall time (ms). *)
let traced_recognition spans ~req ~key ~width ~input ~what bytes =
  let traced_op () =
    timed (fun () ->
        Spans.span spans ~req "scan.op" (fun root ->
            replica spans ~req ~root ~key ~width ~input (Stackvm.Serialize.decode bytes)))
  in
  let real_op () =
    let prog = Stackvm.Serialize.decode bytes in
    Spans.span spans ~req "jwm.recognize" (fun _ ->
        (Jwm.Recognize.recognize ~passphrase:key ~watermark_bits:width ~input prog).Jwm.Recognize.value)
  in
  let (value, ms), real =
    if req mod 2 = 0 then
      let v = traced_op () in
      (v, real_op ())
    else
      let r = real_op () in
      (traced_op (), r)
  in
  if not (Option.equal Bignum.equal value real) then
    raise
      (Replica_mismatch
         (Printf.sprintf "%s: replica %s, Jwm.Recognize %s" what
            (Option.fold ~none:"none" ~some:Bignum.to_string value)
            (Option.fold ~none:"none" ~some:Bignum.to_string real)));
  (value, ms)

(* The recognition layers' per-layer metrics over [ops] traced
   recognitions: mean time per recognition of each part, mean counts,
   and jwm.glue_ms, the real call's time minus the replica's parts. *)
let layer_metrics spans ~ops =
  let per_op x = if ops = 0 then 0.0 else x /. float_of_int ops in
  let layer_ms = List.map (fun p -> metric (p ^ "_ms") "ms" (per_op (Spans.sum_ms spans p)) ~samples:ops) parts in
  let cnt name = metric name "count" (per_op (Spans.sum_count spans name)) ~samples:ops in
  let sum_parts = List.fold_left (fun acc m -> acc +. m.value) 0.0 layer_ms in
  let windows = Spans.sum_count spans "codec.windows" in
  layer_ms
  @ List.map cnt
      [
        "stackvm.events"; "stackvm.steps"; "codec.windows"; "codec.candidates"; "codec.distinct"; "codec.after_vote";
        "codec.dropped_by_greedy";
      ]
  @ [
      metric "codec.harvest_yield" "share"
        (if windows = 0.0 then 0.0 else Spans.sum_count spans "codec.candidates" /. windows);
      metric "jwm.glue_ms" "ms" (per_op (Spans.sum_ms spans "jwm.recognize") -. sum_parts) ~samples:ops;
    ]

let run (args : args) =
  let key = key_of_seed args.seed in
  let corpus, setup_s = repeated_setup ~reps:setup_reps ~setup:(setup ~key ~seed:args.seed) ~teardown:ignore in
  let (module W) = Scheme.Builtin.find_exn "jwm" in
  let spec s = Scheme.Watermarker.spec ~key ~bits:s.width ~input:s.host.w.Workloads.Workload.input () in
  (* [Error] is an op that did not complete: counted in [failed] *)
  let recognize s =
    match
      let prog = Stackvm.Serialize.decode s.bytes in
      (W.recognize (spec s) (Scheme.Watermarker.Vm_program prog)).Scheme.Watermarker.value
    with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  let by_width = tally () and by_kind = tally () and errors = tally () in
  let by_host = strata () in
  let spans = Spans.create () in
  let latencies = ref [] and slowest = ref [] and untraced = ref 0.0 and traced = ref 0.0 in
  let t_start = now () and throughput = rate () in
  let deadline = t_start +. args.seconds and hard_stop = t_start +. max_phase in
  let ops = ref 0 in
  let continue () =
    let t = now () in
    t < hard_stop && (t < deadline || ((not args.trace) && !ops < min_samples))
  in
  while continue () do
    let s = corpus.(!ops mod Array.length corpus) in
    let req = !ops in
    if not args.trace then begin
      match timed (fun () -> recognize s) with
      | Error e, _ -> note_failure errors (Printf.sprintf "%s: error %s" (describe s) e)
      | Ok value, ms ->
          latencies := ms :: !latencies;
          add_sample by_host s.host.w.Workloads.Workload.name ms;
          slowest :=
            List.filteri (fun i _ -> i < 5)
              (List.sort (fun (a, _) (b, _) -> Float.compare b a) ((ms, describe s) :: !slowest));
          ignore (judge ~by_width ~by_kind s value)
    end
    else begin
      (* paired with the untraced op on the same suspect *)
      match timed (fun () -> recognize s) with
      | Error e, _ -> note_failure errors (Printf.sprintf "%s: error %s" (describe s) e)
      | Ok _, ms ->
          untraced := !untraced +. ms;
          let value, ms =
            traced_recognition spans ~req ~key ~width:s.width ~input:s.host.w.input ~what:(describe s) s.bytes
          in
          traced := !traced +. ms;
          ignore (judge ~by_width ~by_kind s value)
    end;
    incr ops;
    finished throughput
  done;
  let rate_note = rate_note throughput in
  (* checks after the timed phase: every marked or attacked suspect must
     still compute its host's reference outputs *)
  let marked = List.filter (fun s -> s.kind <> Control) (Array.to_list corpus) in
  let bad_outputs =
    List.filter (fun s -> not (vm_outputs_ok s.host (Stackvm.Serialize.decode s.bytes))) marked
  in
  let size_overhead =
    let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 marked) in
    sum (fun s -> s.bytes_after) /. sum (fun s -> s.bytes_before)
  in
  let ((run_ratio, _, ratio_n) as ratio) =
    marked_run_ratio
      (List.filter_map
         (fun s -> if s.kind = Marked then Some (s.host, Stackvm.Serialize.decode s.bytes) else None)
         (Array.to_list corpus))
  in
  let attempted = !ops in
  let failed = List.fold_left (fun acc (_, n) -> acc + n) 0 errors.reasons in
  let recognition_failures = List.length (List.filter (fun (_, v) -> is_failure v) by_width.verdicts) in
  let wrong_share = share (wrong_count by_width) (recognitions by_width) in
  let notes =
    [ Printf.sprintf "corpus: %d suspects (%d marked or attacked), key %s" (Array.length corpus) (List.length marked) key ]
    @ [ rate_note; strata_note "recognize_ms per host" by_host; ratio_note ratio ]
    @ List.map (fun (ms, d) -> Printf.sprintf "slow op: %.1f ms %s" ms d) !slowest
    @ breakdown by_width @ breakdown by_kind
    @ List.map (fun (r, n) -> Printf.sprintf "failure x%d: %s" n r) (List.rev errors.reasons @ List.rev by_width.reasons)
    @ List.map (fun s -> "output mismatch: " ^ describe s) bad_outputs
  in
  let common_report =
    [
      metric "failed_share" "share" (share (failed + recognition_failures) attempted) ~samples:attempted;
      metric "wrong_share" "share" wrong_share ~samples:(recognitions by_width);
      metric "size_overhead" "ratio" size_overhead ~samples:(List.length marked);
      metric "marked_run_ratio" "ratio" run_ratio ~samples:ratio_n;
      metric "setup_s" "s" setup_s ~samples:setup_reps;
    ]
  in
  if not args.trace then begin
    let lat = Pct.summarize ~name:"recognize_ms" !latencies in
    let p50 = metric "recognize_ms_p50" "ms" lat.Pct.p50 ~samples:lat.Pct.n
    and p90 = metric "recognize_ms_p90" "ms" lat.Pct.p90 ~samples:lat.Pct.n in
    (* one caller: ops per second at each host's median cost *)
    let hosts = List.length (medians by_host) in
    let median_rate = metric "median_ops_per_s" "1/s" (1000.0 /. mean_of_medians by_host) ~samples:hosts in
    let gm = op_ms_gm by_host in
    let report =
      (ops_per_s throughput :: median_rate :: common_report) @ [ gm; p50; p90 ]
    in
    {
      correct = bad_outputs = [];
      attempted;
      failed;
      report;
      contract = contract report;
      per_layer = [];
      notes;
    }
  end
  else begin
    Spans.write spans (Filename.concat args.out_dir (Printf.sprintf "spans-recognize-scan-%d.jsonl" args.seed));
    {
      correct = bad_outputs = [];
      attempted;
      failed;
      report = common_report;
      contract = [];
      per_layer =
        layer_metrics spans ~ops:attempted
        @ [
            metric "trace.overhead_share" "share"
              (if !untraced = 0.0 then 0.0 else (!traced /. !untraced) -. 1.0)
              ~samples:attempted;
          ];
      notes = notes @ Spans.summary spans;
    }
  end
