(* fleet-batch: vendor fingerprinting.  Batches are submitted back to back
   through Engine.Batch.run ~domains:2, each with a fresh Engine.Cache.

   7 in 8 batches embed 8 fingerprints into caffeine, jess or miniinterp
   (jwm, or gwm one time in four); 1 in 8 embeds 2 nwm fingerprints into
   mcf or bzip2.  The mix is stratified (see [planner]): batch costs
   differ fourfold by kind, and a free draw would move throughput with
   the seed.  Widths are drawn from {16, 32, 64}.  The scheme
   registry is deliberately not forced before the first pooled batch, so
   the race on its lazy registration shows when it happens.  Checks
   (outputs, recognition) run after the timed phase. *)

open Common

(* set-up takes about 40 ms here, so more repetitions steady its median *)
let setup_reps = 15

let domains = 2

let vm_jobs = 8

let native_jobs = 2

(* the first job of each of the first [checked] batches: one pass of the
   batch kinds *)
let checked = 48

type scheme = Jwm | Gwm | Nwm

let scheme_name = function Jwm -> "jwm" | Gwm -> "gwm" | Nwm -> "nwm"

type native_host = { nw : Workloads.Workload.t; nprog : Nativesim.Asm.program; nexpected : int list }

type hosts = { vm : host array; native : native_host array }

let setup () =
  {
    vm = Array.of_list (List.map prepare_host [ Workloads.Caffeine.suite; Workloads.Jesslite.engine; Workloads.Miniinterp.interpreter ]);
    native =
      Array.of_list
        (List.map
           (fun (w : Workloads.Workload.t) ->
             {
               nw = w;
               nprog = Minic.To_native.compile_source w.source;
               nexpected = Workloads.Workload.expected_outputs w w.input;
             })
           [ Workloads.Spec.find "mcf"; Workloads.Spec.find "bzip2" ]);
  }

(* One embedded fingerprint as planned: what to check it against. *)
type mark = { scheme : scheme; width : int; fp : Bignum.t; vm_host : host option; native_host : native_host option }

(* Seeded streams of batch kinds, widths and schemes.  A pass over the
   batch kinds is 48 batches: [vm_share] per VM host and [native_share]
   per native host, so one in eight batches is native; within VM batches
   exactly one job in four is gwm. *)
type planner = {
  next_kind : unit -> [ `Vm of int | `Native of int ];
  next_width : unit -> int;
  next_scheme : unit -> scheme;
}

let vm_share = 14

let native_share = 3

let planner rng =
  {
    next_kind =
      cycler rng
        (List.concat
           (List.init 3 (fun h -> List.init vm_share (fun _ -> `Vm h))
           @ List.init 2 (fun h -> List.init native_share (fun _ -> `Native h))));
    next_width = cycler rng widths;
    next_scheme = cycler rng [ Gwm; Jwm; Jwm; Jwm ];
  }

(* The [k]th batch of the run, drawn from the seeded streams, with its
   kind ("vm caffeine", "native mcf", ...). *)
let plan_batch hosts ~key rng pl k =
  match pl.next_kind () with
  | `Native n ->
      let h = hosts.native.(n) in
      ("native " ^ h.nw.Workloads.Workload.name, List.init native_jobs (fun i ->
          let width = pl.next_width () in
          let fp = fingerprint rng width in
          ( Engine.Job.native_embed ~label:(Printf.sprintf "b%d-nwm-%d" k i) ~seed:(Util.Prng.next_int64 rng)
              ~bits:width ~fingerprint:fp ~input:h.nw.input h.nprog,
            { scheme = Nwm; width; fp; vm_host = None; native_host = Some h } )))
  | `Vm n ->
      let h = hosts.vm.(n) in
      ("vm " ^ h.w.Workloads.Workload.name, List.init vm_jobs (fun i ->
          let width = pl.next_width () and scheme = pl.next_scheme () in
          let fp = fingerprint rng width in
          ( Engine.Job.vm_embed ~label:(Printf.sprintf "b%d-%s-%d" k (scheme_name scheme) i)
              ~seed:(Util.Prng.next_int64 rng) ~scheme:(scheme_name scheme) ~key ~bits:width
              ~pieces:Scheme.Watermarker.default_redundancy ~fingerprint:fp ~input:h.w.input h.prog,
            { scheme; width; fp; vm_host = Some h; native_host = None } )))

(* Fingerprints per second at the fixed pass of batch kinds, each kind
   costing its median batch time. *)
let stratified_rate by_kind =
  let ms = medians by_kind in
  let weight k = if String.length k > 3 && String.sub k 0 3 = "vm " then (vm_share, vm_jobs) else (native_share, native_jobs) in
  let jobs, cost =
    List.fold_left
      (fun (j, c) (k, m, _) ->
        let w, per = weight k in
        (j + (w * per), c +. (float_of_int w *. m)))
      (0, 0.0) ms
  in
  metric "median_ops_per_s" "1/s" (if cost = 0.0 then 0.0 else 1000.0 *. float_of_int jobs /. cost) ~samples:(List.length ms)

(* The first pooled batch of a run forces the scheme registry's lazy
   from both domains at once, and in some runs one job fails with
   CamlinternalLazy.Undefined (see perfbench/README.md).  That batch runs
   before the timed phase, on a VM host so that both domains look up a
   scheme, and every failure in it is printed.  It is not counted in
   [attempted] or [failed]: the race fires in some runs of the same code
   and not in others. *)
let registry_race_probe hosts ~key ~seed =
  let rng = Util.Prng.create (Int64.of_int (seed lxor 0x5ace)) in
  let pl = { (planner rng) with next_kind = (fun () -> `Vm (Util.Prng.int rng (Array.length hosts.vm))) } in
  let _, planned = plan_batch hosts ~key rng pl (-1) in
  Engine.Batch.run ~domains ~cache:(Engine.Cache.create ()) (List.map fst planned)
  |> List.filter_map (fun (r : Engine.Batch.result) ->
         match r.Engine.Batch.outcome with
         | Engine.Batch.Failed { reason; _ } ->
             Some (Printf.sprintf "registry-race probe (not counted): %s job failed: %s" r.Engine.Batch.job.Engine.Job.label reason)
         | _ -> None)

(* Replay one job of a traced batch by direct calls into the layers. *)
let replay spans ~req ~key (job, mark) =
  Spans.span spans ~req "fleet.replay" (fun root ->
      let part name f = Spans.span spans ~parent:root ~req name (fun _ -> f ()) in
      match (mark.vm_host, mark.native_host) with
      | Some h, _ ->
          let marked =
            match mark.scheme with
            | Gwm ->
                (part "gwm.embed" (fun () ->
                     Gwm.Embed.embed ~seed:job.Engine.Job.seed
                       {
                         Gwm.Embed.passphrase = key;
                         watermark = mark.fp;
                         watermark_bits = mark.width;
                         copies = Scheme.Watermarker.default_redundancy;
                         input = h.w.input;
                       }
                       h.prog))
                  .Gwm.Embed.program
            | Jwm | Nwm ->
                let trace =
                  part "stackvm.capture" (fun () ->
                      Stackvm.Trace.capture ~want_snapshots:true h.prog ~input:h.w.input)
                in
                (part "jwm.embed" (fun () ->
                     Jwm.Embed.embed ~trace ~seed:job.Engine.Job.seed
                       {
                         Jwm.Embed.passphrase = key;
                         watermark = mark.fp;
                         watermark_bits = mark.width;
                         pieces = Scheme.Watermarker.default_redundancy;
                         input = h.w.input;
                       }
                       h.prog))
                  .Jwm.Embed.program
          in
          ignore (part "stackvm.serialize" (fun () -> Stackvm.Serialize.encode marked))
      | None, Some h ->
          ignore
            (part "nwm.embed" (fun () ->
                 Nwm.Embed.embed ~seed:job.Engine.Job.seed ~watermark:mark.fp ~bits:mark.width
                   ~training_input:h.nw.input h.nprog))
      | None, None -> ())

(* Engine-layer figures of one traced batch, from its event stream. *)
let note_events spans ~req events cache =
  let c name v = Spans.count spans ~req name v in
  let job_ms = ref 0.0 and jobs = ref 0 and failed = ref 0 in
  let trace = ref 0.0 and embed = ref 0.0 and native = ref 0.0 in
  List.iter
    (function
      | Engine.Events.Job_finish { ms; ok; _ } ->
          job_ms := !job_ms +. ms;
          incr jobs;
          if not ok then incr failed
      | Engine.Events.Stage_time { stage = "trace"; ms; _ } -> trace := !trace +. ms
      | Engine.Events.Stage_time { stage = "embed"; ms; _ } -> embed := !embed +. ms
      | Engine.Events.Stage_time { stage = "native-embed"; ms; _ } -> native := !native +. ms
      | _ -> ())
    (Engine.Events.events events);
  let st = Engine.Cache.stats cache in
  c "engine.job_ms_sum" !job_ms;
  c "engine.jobs" (float_of_int !jobs);
  c "engine.failed_jobs" (float_of_int !failed);
  c "engine.stage.trace_ms" !trace;
  c "engine.stage.embed_ms" !embed;
  c "engine.stage.native_embed_ms" !native;
  c "engine.cache_hits" (float_of_int st.Engine.Cache.hits);
  c "engine.cache_misses" (float_of_int st.Engine.Cache.misses)

type check = { outputs_ok : bool; verdict : verdict }

let check_mark ~key (result : Engine.Batch.result) mark =
  match (result.Engine.Batch.outcome, mark.vm_host, mark.native_host) with
  | Engine.Batch.Vm_embedded { program; _ }, Some h, _ ->
      let prog = Stackvm.Serialize.decode program in
      let (module W) = Scheme.Builtin.find_exn (scheme_name mark.scheme) in
      let spec = Scheme.Watermarker.spec ~key ~bits:mark.width ~input:h.w.input () in
      let value = (W.recognize spec (Scheme.Watermarker.Vm_program prog)).Scheme.Watermarker.value in
      Some
        ( { outputs_ok = vm_outputs_ok h prog; verdict = classify ~attacked:false ~expected:(Some mark.fp) value },
          Some (h, prog) )
  | Engine.Batch.Native_embedded { binary; begin_addr; end_addr; _ }, _, Some h ->
      let bin = Nativesim.Binary.decode binary in
      let value =
        match Nwm.Extract.extract bin ~begin_addr ~end_addr ~input:h.nw.input with
        | Ok ex -> Some (Nwm.Extract.watermark ex)
        | Error _ -> None
      in
      let outputs_ok = (Nativesim.Machine.run bin ~input:h.nw.input).Nativesim.Machine.outputs = h.nexpected in
      Some ({ outputs_ok; verdict = classify ~attacked:false ~expected:(Some mark.fp) value }, None)
  | _ -> None

let run (args : args) =
  let key = key_of_seed args.seed in
  let hosts, setup_s = repeated_setup ~reps:setup_reps ~setup ~teardown:ignore in
  let probe = registry_race_probe hosts ~key ~seed:args.seed in
  let rng = Util.Prng.create (Int64.of_int args.seed) in
  let pl = planner rng in
  let by_kind = strata () in
  let spans = Spans.create () in
  let batch_ms = ref [] and traced_ms = ref [] and untraced_ms = ref [] in
  let ops = ref 0 and job_failures = ref 0 and batches = ref 0 in
  let bytes_before = ref 0 and bytes_after = ref 0 in
  let to_check = ref [] in
  let verdicts = tally () in
  let t_start = now () and throughput = rate () in
  let deadline = t_start +. args.seconds and hard_stop = t_start +. max_phase in
  let continue () =
    let t = now () in
    t < hard_stop && (t < deadline || ((not args.trace) && !batches < min_samples))
  in
  while continue () do
    let k = !batches in
    let kind, planned = plan_batch hosts ~key rng pl k in
    let jobs = List.map fst planned in
    let cache = Engine.Cache.create () in
    (* in the traced run every other batch carries an event recorder;
       the untraced ones in between give the tracing overhead *)
    let traced = args.trace && k mod 2 = 1 in
    let events = if traced then Some (Engine.Events.create ()) else None in
    let results, ms =
      timed (fun () ->
          if traced then Spans.span spans ~req:k "engine.batch" (fun _ -> Engine.Batch.run ~domains ?events ~cache jobs)
          else Engine.Batch.run ~domains ~cache jobs)
    in
    batch_ms := ms :: !batch_ms;
    add_sample by_kind kind ms;
    if traced then traced_ms := ms :: !traced_ms else untraced_ms := ms :: !untraced_ms;
    List.iteri
      (fun i ((r : Engine.Batch.result), mark) ->
        incr ops;
        finished throughput;
        match r.Engine.Batch.outcome with
        | Engine.Batch.Failed { reason; _ } ->
            incr job_failures;
            note_failure verdicts (Printf.sprintf "%s job failed: %s" (scheme_name mark.scheme) reason)
        | Engine.Batch.Vm_embedded { bytes_before = b; bytes_after = a; _ }
        | Engine.Batch.Native_embedded { bytes_before = b; bytes_after = a; _ } ->
            bytes_before := !bytes_before + b;
            bytes_after := !bytes_after + a;
            if i = 0 && k < checked then to_check := (r, mark) :: !to_check
        | _ -> ())
      (List.combine results (List.map snd planned));
    (match events with
    | Some ev ->
        note_events spans ~req:k ev cache;
        replay spans ~req:k ~key (List.hd planned)
    | None -> ());
    incr batches
  done;
  let rate_note = rate_note throughput in
  (* checks after the timed phase *)
  let checks =
    List.filter_map
      (fun (r, mark) ->
        Option.map
          (fun (c, pair) ->
            note_verdict verdicts ~group:(Printf.sprintf "%s width %2d" (scheme_name mark.scheme) mark.width) c.verdict;
            if is_failure c.verdict then
              note_failure verdicts
                (Printf.sprintf "%s/%d-bit %s: %s" (scheme_name mark.scheme) mark.width
                   r.Engine.Batch.job.Engine.Job.label (verdict_name c.verdict));
            if not c.outputs_ok then note_failure verdicts ("output mismatch: " ^ r.Engine.Batch.job.Engine.Job.label);
            (c, pair))
          (check_mark ~key r mark))
      (List.rev !to_check)
  in
  let bad_outputs = List.length (List.filter (fun (c, _) -> not c.outputs_ok) checks) in
  let ((run_ratio, _, ratio_n) as ratio) = marked_run_ratio (List.filter_map snd checks) in
  let attempted = !ops in
  let failed = !job_failures in
  let recognition_failures = List.length (List.filter (fun (c, _) -> is_failure c.verdict) checks) in
  let size_overhead = if !bytes_before = 0 then 0.0 else float_of_int !bytes_after /. float_of_int !bytes_before in
  let notes =
    [ Printf.sprintf "%d batches, %d fingerprints, %d checked after the phase, key %s" !batches attempted (List.length checks) key ]
    @ [ rate_note; strata_note "batch_ms per kind" by_kind; ratio_note ratio ] @ breakdown verdicts
    @ List.map (fun (r, n) -> Printf.sprintf "failure x%d: %s" n r) (List.rev verdicts.reasons)
    @ (if probe = [] then [ "registry-race probe: no job failed" ] else probe)
  in
  let common_report =
    [
      ops_per_s throughput;
      stratified_rate by_kind;
      metric "failed_share" "share" (share (failed + recognition_failures) attempted) ~samples:attempted;
      metric "wrong_share" "share" (share (wrong_count verdicts) (recognitions verdicts)) ~samples:(recognitions verdicts);
      metric "size_overhead" "ratio" size_overhead ~samples:(attempted - !job_failures);
      metric "marked_run_ratio" "ratio" run_ratio ~samples:ratio_n;
      metric "setup_s" "s" setup_s ~samples:setup_reps;
    ]
  in
  let correct = bad_outputs = 0 in
  if not args.trace then begin
    let lat = Pct.summarize ~name:"batch_ms" !batch_ms in
    let p50 = metric "batch_ms_p50" "ms" lat.Pct.p50 ~samples:lat.Pct.n
    and p90 = metric "batch_ms_p90" "ms" lat.Pct.p90 ~samples:lat.Pct.n in
    let report = common_report @ [ op_ms_gm by_kind; p50; p90 ] in
    {
      correct;
      attempted;
      failed;
      report;
      contract = contract report;
      per_layer = [];
      notes;
    }
  end
  else begin
    let traced_batches = float_of_int (List.length !traced_ms) in
    let per_batch x = if traced_batches = 0.0 then 0.0 else x /. traced_batches in
    let sum name = Spans.sum_count spans name in
    let batch_total = Spans.sum_ms spans "engine.batch" and job_total = sum "engine.job_ms_sum" in
    let ms name v = metric name "ms" v and cnt name v = metric name "count" v in
    Spans.write spans (Filename.concat args.out_dir (Printf.sprintf "spans-fleet-batch-%d.jsonl" args.seed));
    {
      correct;
      attempted;
      failed;
      report = common_report;
      contract = [];
      per_layer =
        [
          ms "engine.batch_ms" (per_batch batch_total);
          ms "engine.job_ms" (let j = sum "engine.jobs" in if j = 0.0 then 0.0 else job_total /. j);
          metric "engine.busy_share" "share"
            (if batch_total = 0.0 then 0.0 else job_total /. (batch_total *. float_of_int domains));
          ms "engine.overhead_ms" (per_batch (batch_total -. (job_total /. float_of_int domains)));
          ms "engine.stage.trace_ms" (per_batch (sum "engine.stage.trace_ms"));
          ms "engine.stage.embed_ms" (per_batch (sum "engine.stage.embed_ms"));
          ms "engine.stage.native_embed_ms" (per_batch (sum "engine.stage.native_embed_ms"));
          cnt "engine.cache_hits" (per_batch (sum "engine.cache_hits"));
          cnt "engine.cache_misses" (per_batch (sum "engine.cache_misses"));
          cnt "engine.failed_jobs" (sum "engine.failed_jobs");
          ms "stackvm.capture_ms" (Spans.mean_ms spans "stackvm.capture");
          ms "jwm.embed_ms" (Spans.mean_ms spans "jwm.embed");
          ms "gwm.embed_ms" (Spans.mean_ms spans "gwm.embed");
          ms "nwm.embed_ms" (Spans.mean_ms spans "nwm.embed");
          ms "stackvm.serialize_ms" (Spans.mean_ms spans "stackvm.serialize");
          metric "trace.overhead_share" "share"
            (match (!traced_ms, !untraced_ms) with
            | [], _ | _, [] -> 0.0
            | t, u -> (Pct.mean t /. Pct.mean u) -. 1.0);
        ];
      notes = notes @ Spans.summary spans;
    }
  end
